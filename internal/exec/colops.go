package exec

// Columnar fast paths for the batched operators. Every PushCols here
// is observably identical to PushBatch over the pivoted rows — same
// downstream batches in the same order, same Late counts, same
// emission bytes — so engines can hand any operator a ColBatch and
// fall back to the row path whenever a kernel does not apply.

import (
	"qap/internal/sqlval"
)

// pushColsRows is the shared fallback: pivot to durable rows and run
// the scalar batched path.
func pushColsRows(c BatchConsumer, cb *ColBatch) {
	b := cb.AppendRows(GetBatch())
	c.PushBatch(b)
	PutBatch(b)
}

// PushCols implements ColConsumer. The vectorized path needs an
// all-uint batch, a truth kernel for the filter, and uint kernels for
// every projection; anything else pivots to the row path.
//
//qap:hot
func (o *FilterProject) PushCols(cb *ColBatch) {
	if o.Filter == nil && o.Projs == nil {
		PushColsAll(o.Out, cb)
		return
	}
	fast := cb.AllUint() &&
		(o.Filter == nil || (o.ColFilter != nil && o.ColFilter.Truth != nil)) &&
		(o.Projs == nil || o.colProjsReady())
	if !fast {
		pushColsRows(o, cb)
		return
	}
	work := cb
	if o.Filter != nil {
		tv := o.ColFilter.Truth(cb)
		keep := 0
		for _, w := range tv {
			if w != 0 {
				keep++
			}
		}
		if keep == 0 {
			return // like the scalar path: no downstream call
		}
		if keep < cb.Len {
			o.colCompact(cb, tv, keep)
			work = &o.colPass
		}
	}
	if o.Projs != nil {
		o.colProject(work)
		work = &o.colOut
	}
	PushColsAll(o.Out, work)
}

func (o *FilterProject) colProjsReady() bool {
	if len(o.ColProjs) != len(o.Projs) {
		return false
	}
	for i := range o.ColProjs {
		if o.ColProjs[i].U == nil {
			return false
		}
	}
	return true
}

// colCompact copies the selected rows of every (all-uint) column into
// the reused colPass scratch.
//
//qap:hot
func (o *FilterProject) colCompact(cb *ColBatch, tv []uint64, keep int) {
	p := &o.colPass
	if cap(p.Cols) < len(cb.Cols) {
		//qap:allow hotalloc -- column headers sized once per operator width
		p.Cols = make([]ColVec, len(cb.Cols))
	}
	p.Cols = p.Cols[:len(cb.Cols)]
	for c := range cb.Cols {
		src := cb.Cols[c].U64
		d := &p.Cols[c]
		d.Kind = sqlval.KindUint
		d.Str, d.Valid = nil, nil
		d.U64 = growUints(d.U64, keep)
		k := 0
		for i, w := range tv {
			if w != 0 {
				d.U64[k] = src[i]
				k++
			}
		}
	}
	p.Len = keep
}

// colProject evaluates every projection kernel over in; the output
// columns alias kernel scratch (or input columns for bare column
// refs), which is fine under the only-during-the-call contract.
//
//qap:hot
func (o *FilterProject) colProject(in *ColBatch) {
	out := &o.colOut
	if cap(out.Cols) < len(o.ColProjs) {
		//qap:allow hotalloc -- column headers sized once per operator width
		out.Cols = make([]ColVec, len(o.ColProjs))
	}
	out.Cols = out.Cols[:len(o.ColProjs)]
	for k := range o.ColProjs {
		d := &out.Cols[k]
		d.Kind = sqlval.KindUint
		d.Str, d.Valid = nil, nil
		d.U64 = o.ColProjs[k].U(in)
	}
	out.Len = in.Len
}

// PushCols implements ColConsumer: a union port forwards unchanged.
func (p *unionPort) PushCols(cb *ColBatch) { PushColsAll(p.u.Out, cb) }

// colSlot is one entry of the aggregate's columnar group table: the
// word hash, the raw key words (carved from colWords), and the group
// it resolves to — either a row-path groupState (gs) or, in dense
// mode, index gi-1 into the dense arrays (gi 0 means "not dense").
// A slot is live iff gen matches the aggregate's current colGen;
// bumping colGen retires every slot at once, so an epoch reset costs
// O(1) instead of a table-wide clear. gen packs into what would be
// gi's padding, so the tag is free.
type colSlot struct {
	h     uint64
	words []uint64
	gs    *groupState
	gi    int32
	gen   uint32
}

const colTableMin = 1024

// tableSize is the slot count for an open-addressed table expected to
// hold n keys: the power-of-two multiple of min that keeps n under the
// 75% load at which the tables double.
func tableSize(min, n int) int {
	for min*3 <= n*4 {
		min *= 2
	}
	return min
}

// colSupported reports whether every kernel the vectorized aggregate
// needs is present.
func (o *Aggregate) colSupported() bool {
	if len(o.cfg.ColGroupBy) != len(o.cfg.GroupBy) {
		return false
	}
	for i := range o.cfg.ColGroupBy {
		if o.cfg.ColGroupBy[i].U == nil {
			return false
		}
	}
	if o.cfg.PreFilter != nil && (o.cfg.ColPreFilter == nil || o.cfg.ColPreFilter.Truth == nil) {
		return false
	}
	for i, a := range o.cfg.Aggs {
		if a.Arg == nil {
			continue
		}
		if len(o.cfg.ColArgs) != len(o.cfg.Aggs) || o.cfg.ColArgs[i] == nil || o.cfg.ColArgs[i].U == nil {
			return false
		}
	}
	return true
}

// PushCols implements ColConsumer: group keys and aggregate arguments
// evaluate as whole-column kernels, then each row probes an
// open-addressing cache keyed by the raw key words. For all-uint
// values, word equality coincides with encoded-key equality
// (appendKeyValue maps a uint u to tag 2 or 4 plus u's big-endian
// bytes, injectively), so the cache resolves to exactly the group the
// row path would — misses consult the groups map itself before
// creating anything, keeping the two paths coherent.
//
//qap:hot
func (o *Aggregate) PushCols(cb *ColBatch) {
	if o.colReady == 0 {
		if o.colSupported() {
			o.colReady = 1
		} else {
			o.colReady = -1
		}
	}
	if o.colReady < 0 || !cb.AllUint() {
		pushColsRows(o, cb)
		return
	}
	kvs := o.colKeyVecs[:0]
	for i := range o.cfg.ColGroupBy {
		kvs = append(kvs, o.cfg.ColGroupBy[i].U(cb))
	}
	o.colKeyVecs = kvs
	var filt []uint64
	if o.cfg.PreFilter != nil {
		filt = o.cfg.ColPreFilter.Truth(cb)
	}
	avs := o.colArgVecs[:0]
	for i, a := range o.cfg.Aggs {
		if a.Arg == nil {
			avs = append(avs, nil)
		} else {
			avs = append(avs, o.cfg.ColArgs[i].U(cb))
		}
	}
	o.colArgVecs = avs
	if o.colDirty {
		o.colResetTable()
	}
	if len(o.colTable) == 0 {
		// A SizeHint warm-starts the table past the doubling chain.
		//qap:allow hotalloc -- slot table built once, then reused across epochs
		o.colTable = make([]colSlot, tableSize(colTableMin, o.cfg.SizeHint))
		o.colGen = 1
	}
	lateCheck := o.boundarySet && o.cfg.EpochIdx >= 0
	var epochVec []uint64
	var boundWord uint64
	wordLate := false
	if lateCheck {
		epochVec = kvs[o.cfg.EpochIdx]
		if u, ok := o.boundary.AsUint(); ok && o.boundary.Kind() == sqlval.KindUint {
			// The usual case: a uint boundary against uint epochs
			// compares as raw words, sparing a Value.Compare per row.
			boundWord, wordLate = u, true
		}
	}
	if o.denseReady == 0 {
		o.denseInit()
	}
	if o.denseReady > 0 && (o.denseN > 0 || (len(o.groups) == 0 && len(o.colPending) == 0)) {
		o.densePush(cb, kvs, avs, filt, epochVec, boundWord, wordLate, lateCheck)
		return
	}
	n := cb.Len
	for i := 0; i < n; i++ {
		if filt != nil && filt[i] == 0 {
			continue
		}
		if lateCheck {
			if wordLate {
				if epochVec[i] < boundWord {
					o.Late++
					continue
				}
			} else if sqlval.Uint(epochVec[i]).Compare(o.boundary) < 0 {
				o.Late++
				continue
			}
		}
		gs := o.colGroup(kvs, i)
		for a := range avs {
			if avs[a] == nil {
				gs.accs[a].Add(sqlval.Uint(1))
			} else {
				gs.accs[a].Add(sqlval.Uint(avs[a][i]))
			}
		}
	}
}

// colGroup resolves row i's group through the slot cache, falling
// back to the row-path map (and newGroup) on a miss.
//
//qap:hot
func (o *Aggregate) colGroup(kvs [][]uint64, i int) *groupState {
	h := hashKeyWords(kvs, i)
	mask := uint64(len(o.colTable) - 1)
	j := h & mask
	for {
		s := &o.colTable[j]
		if s.gen != o.colGen {
			break
		}
		if s.gs != nil && s.h == h && keyWordsEqual(s.words, kvs, i) {
			return s.gs
		}
		j = (j + 1) & mask
	}
	vals := o.valsBuf[:0]
	for _, kv := range kvs {
		vals = append(vals, sqlval.Uint(kv[i]))
	}
	o.valsBuf = vals
	kb := AppendKey(o.keyBuf[:0], vals)
	o.keyBuf = kb
	gs, ok := o.groups[string(kb)]
	if !ok {
		// Created columnar: the slot-table entry installed below is the
		// group's only index until emitBefore or a row-path push syncs
		// it into the map, sparing the map insert and its key-string
		// allocation on the hot path.
		gs = o.newGroup(kb, vals)
		o.colPending = append(o.colPending, gs)
	}
	return o.colInsert(j, h, gs, kvs, i)
}

// colInsert caches gs under row i's key words at the probed slot.
func (o *Aggregate) colInsert(j, h uint64, gs *groupState, kvs [][]uint64, i int) *groupState {
	start := len(o.colWords)
	for _, kv := range kvs {
		o.colWords = append(o.colWords, kv[i])
	}
	words := o.colWords[start:len(o.colWords):len(o.colWords)]
	o.colTable[j] = colSlot{h: h, words: words, gs: gs, gen: o.colGen}
	o.colCount++
	if o.colCount*4 >= len(o.colTable)*3 {
		o.colGrow()
	}
	return gs
}

// colGrow doubles the slot table, rehashing live slots; key-word
// slices stay valid (they point into colWords).
func (o *Aggregate) colGrow() {
	old := o.colTable
	o.colTable = make([]colSlot, len(old)*2)
	mask := uint64(len(o.colTable) - 1)
	for i := range old {
		s := &old[i]
		if s.gen != o.colGen {
			continue
		}
		j := s.h & mask
		for o.colTable[j].gen == o.colGen {
			j = (j + 1) & mask
		}
		o.colTable[j] = *s
	}
}

// colResetTable retires every slot after emitBefore removed groups:
// bumping the generation invalidates the whole table in O(1). On the
// (unreachable in practice) wraparound to 0 — the zero value of
// untouched slots — it falls back to a physical clear.
func (o *Aggregate) colResetTable() {
	o.colGen++
	if o.colGen == 0 {
		for i := range o.colTable {
			o.colTable[i] = colSlot{}
		}
		o.colGen = 1
	}
	o.colCount = 0
	o.colWords = o.colWords[:0]
	o.colDirty = false
}

// hashKeyWords mixes row i's key words (FNV-1a over words, with a
// final fold so sequential keys spread across table buckets). Purely
// internal: output bytes never depend on it.
//
//qap:hot
func hashKeyWords(kvs [][]uint64, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, kv := range kvs {
		h = (h ^ kv[i]) * 1099511628211
	}
	return h ^ (h >> 29)
}

//qap:hot
func keyWordsEqual(words []uint64, kvs [][]uint64, i int) bool {
	for k, w := range words {
		if kvs[k][i] != w {
			return false
		}
	}
	return true
}

// denseAccKind names the word-vectorizable accumulator kinds the
// dense columnar group store supports. Each replicates its Accum
// counterpart exactly for non-NULL uint-kind inputs (AsInt and AsUint
// are raw-bit conversions for uint words, so integer sum and bit ops
// over words are bit-identical to the interface path).
type denseAccKind uint8

const (
	denseCount denseAccKind = iota
	denseSum
	denseBitOr
	denseBitAnd
	denseBitXor
)

// denseInit probes each aggregate factory once and records whether
// every accumulator is word-vectorizable from its zero state.
func (o *Aggregate) denseInit() {
	o.denseReady = -1
	kinds := make([]denseAccKind, len(o.cfg.Aggs))
	for i, a := range o.cfg.Aggs {
		switch p := a.Factory().(type) {
		case *countAccum:
			if p.n != 0 {
				return
			}
			kinds[i] = denseCount
		case *sumAccum:
			if p.isFloat || p.any || p.i != 0 {
				return
			}
			kinds[i] = denseSum
		case *bitAccum:
			if p.any || p.acc != 0 {
				return
			}
			switch p.op {
			case bitOr:
				kinds[i] = denseBitOr
			case bitAnd:
				kinds[i] = denseBitAnd
			case bitXor:
				kinds[i] = denseBitXor
			default:
				return
			}
		default:
			return
		}
	}
	o.denseAcc = kinds
	if o.denseAccW == nil {
		o.denseAccW = make([][]uint64, len(kinds))
	}
	if h := o.cfg.SizeHint; h > 0 {
		// Warm-start the dense arrays so a hinted run never pays the
		// append doubling chain for key words, views, or state words.
		if nk := len(o.cfg.GroupBy); cap(o.colWords) < h*nk {
			o.colWords = make([]uint64, 0, h*nk)
		}
		if cap(o.denseKeys) < h {
			o.denseKeys = make([][]uint64, 0, h)
		}
		if cap(o.denseDone) < h {
			o.denseDone = make([]int32, 0, h)
		}
		for a := range o.denseAccW {
			if cap(o.denseAccW[a]) < h {
				o.denseAccW[a] = make([]uint64, 0, h)
			}
		}
	}
	o.denseReady = 1
}

// densePush is the struct-of-arrays aggregate path: one pass resolves
// every surviving row to a dense group index, then each aggregate
// accumulates over (slot, row) pairs in a tight per-kind loop with no
// interface dispatch and no per-group objects.
//
//qap:hot
func (o *Aggregate) densePush(cb *ColBatch, kvs, avs [][]uint64, filt, epochVec []uint64, boundWord uint64, wordLate, lateCheck bool) {
	slots := o.denseSlots[:0]
	rows := o.denseRows[:0]
	n := cb.Len
	for i := 0; i < n; i++ {
		if filt != nil && filt[i] == 0 {
			continue
		}
		if lateCheck {
			if wordLate {
				if epochVec[i] < boundWord {
					o.Late++
					continue
				}
			} else if sqlval.Uint(epochVec[i]).Compare(o.boundary) < 0 {
				o.Late++
				continue
			}
		}
		slots = append(slots, o.denseGroup(kvs, i))
		rows = append(rows, int32(i))
	}
	o.denseSlots, o.denseRows = slots, rows
	for j, kind := range o.denseAcc {
		w := o.denseAccW[j]
		switch kind {
		case denseCount:
			// COUNT(*) and COUNT(arg) both count every surviving row:
			// dense inputs are non-NULL by construction.
			for _, g := range slots {
				w[g]++
			}
		case denseSum:
			av := avs[j]
			for k, g := range slots {
				w[g] = uint64(int64(w[g]) + int64(av[rows[k]]))
			}
		case denseBitOr:
			av := avs[j]
			for k, g := range slots {
				w[g] |= av[rows[k]]
			}
		case denseBitAnd:
			av := avs[j]
			for k, g := range slots {
				w[g] &= av[rows[k]]
			}
		case denseBitXor:
			av := avs[j]
			for k, g := range slots {
				w[g] ^= av[rows[k]]
			}
		}
	}
}

// denseGroup resolves row i to its dense group index, creating the
// group (key words into colWords, a zero state word per aggregate) on
// a miss. Slot entries store gi+1 so the zero value stays "empty".
//
//qap:hot
func (o *Aggregate) denseGroup(kvs [][]uint64, i int) int32 {
	h := hashKeyWords(kvs, i)
	mask := uint64(len(o.colTable) - 1)
	j := h & mask
	for {
		s := &o.colTable[j]
		if s.gen != o.colGen {
			break
		}
		if s.gi != 0 && s.h == h && keyWordsEqual(s.words, kvs, i) {
			return s.gi - 1
		}
		j = (j + 1) & mask
	}
	start := len(o.colWords)
	for _, kv := range kvs {
		o.colWords = append(o.colWords, kv[i])
	}
	words := o.colWords[start:len(o.colWords):len(o.colWords)]
	gi := int32(o.denseN)
	o.denseN++
	o.denseKeys = append(o.denseKeys, words)
	for a := range o.denseAccW {
		o.denseAccW[a] = append(o.denseAccW[a], 0)
	}
	if o.cfg.EpochIdx >= 0 {
		o.noteEpoch(sqlval.Uint(words[o.cfg.EpochIdx]))
	}
	o.colTable[j] = colSlot{h: h, words: words, gi: gi + 1, gen: o.colGen}
	o.colCount++
	if o.colCount*4 >= len(o.colTable)*3 {
		o.colGrow()
	}
	return gi
}

// hashWords is hashKeyWords over an already-gathered word slice; the
// two must agree so reinserted survivors land where probes look.
func hashWords(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h = (h ^ w) * 1099511628211
	}
	return h ^ (h >> 29)
}

// denseResult reconstructs aggregate j's result Value for dense group
// g, mirroring the corresponding Accum.Result (any is always true in
// dense mode: every group saw at least one non-NULL add).
func (o *Aggregate) denseResult(j int, g int32) sqlval.Value {
	w := o.denseAccW[j][g]
	switch o.denseAcc[j] {
	case denseSum:
		if i := int64(w); i < 0 {
			return sqlval.Int(i)
		}
		return sqlval.Uint(w)
	default:
		return sqlval.Uint(w)
	}
}

// denseMigrate converts every dense group into an ordinary map-owned
// groupState (restoring accumulator state field-for-field) so the row
// path can take over. Called before any row-path lookup; rare, so it
// allocates its own scratch rather than clobbering pushFast's.
func (o *Aggregate) denseMigrate() {
	vals := make([]sqlval.Value, 0, len(o.cfg.GroupBy))
	var kb []byte
	for g := 0; g < o.denseN; g++ {
		words := o.denseKeys[g]
		vals = vals[:0]
		for _, w := range words {
			vals = append(vals, sqlval.Uint(w))
		}
		kb = AppendKey(kb[:0], vals)
		gs := o.newGroup(kb, vals)
		for j, kind := range o.denseAcc {
			w := o.denseAccW[j][g]
			switch kind {
			case denseCount:
				gs.accs[j].(*countAccum).n = w
			case denseSum:
				a := gs.accs[j].(*sumAccum)
				a.i, a.any = int64(w), true
			default:
				a := gs.accs[j].(*bitAccum)
				a.acc, a.any = w, true
			}
		}
		o.groups[string(gs.key)] = gs
	}
	o.denseReset()
	o.colDirty = true
}

// denseReset clears the dense arrays; key-word views die with the
// next colResetTable truncation of colWords.
func (o *Aggregate) denseReset() {
	o.denseN = 0
	o.denseKeys = o.denseKeys[:0]
	for j := range o.denseAccW {
		o.denseAccW[j] = o.denseAccW[j][:0]
	}
}

// denseEmit drains dense groups with epoch < boundary (all groups
// when boundary is nil) in the row path's deterministic (epoch,
// encoded key bytes) order — for all-uint keys that equals unsigned
// word order, column-major. Survivors are compacted and reinserted
// into a fresh slot table, since retiring groups invalidates both the
// table and their colWords views.
func (o *Aggregate) denseEmit(boundary *sqlval.Value) {
	nk := len(o.cfg.GroupBy)
	eIdx := o.cfg.EpochIdx
	if boundary != nil && eIdx < 0 {
		return // epochless groups drain only at Flush
	}
	var boundWord uint64
	wordB := false
	if boundary != nil {
		if u, ok := boundary.AsUint(); ok && boundary.Kind() == sqlval.KindUint {
			boundWord, wordB = u, true
		}
	}
	retired := func(g int) bool {
		if boundary == nil {
			return true
		}
		ew := o.denseKeys[g][eIdx]
		if wordB {
			return ew < boundWord
		}
		return sqlval.Uint(ew).Compare(*boundary) < 0
	}
	done := o.denseDone[:0]
	for g := 0; g < o.denseN; g++ {
		if retired(g) {
			done = append(done, int32(g))
		}
	}
	o.denseDone = done
	if len(done) == 0 {
		return
	}
	if cap(o.denseRows) < len(done) {
		o.denseRows = make([]int32, len(done))
	}
	o.denseSort(done, o.denseRows[:len(done)], nk, eIdx)
	na := len(o.cfg.Aggs)
	outLen := o.denseDeliver(done, nk, na)
	total := o.denseN
	if len(done) == total {
		o.denseReset()
		o.colResetTable()
		o.minEpoch, o.minSet = sqlval.Value{}, false
	} else {
		o.denseCompact(retired, nk, eIdx)
	}
	if o.cfg.OnEpochFlush != nil {
		o.cfg.OnEpochFlush(o.lastWM, len(done), outLen)
	}
}

// denseDeliver builds and pushes the sorted epoch batch, returning
// the emitted row count. With ColEmit on and no Having/Post, the
// output columns build straight from the dense arrays (all results
// are uint words unless an integer sum went negative); otherwise rows
// materialize exactly like the map path's emit and the usual
// SetFromRows/PushAll delivery applies.
func (o *Aggregate) denseDeliver(done []int32, nk, na int) int {
	direct := o.cfg.ColEmit && o.cfg.Having == nil && o.cfg.Post == nil && nk+na > 0
	if direct {
		for j, kind := range o.denseAcc {
			if kind != denseSum {
				continue
			}
			w := o.denseAccW[j]
			for _, g := range done {
				if int64(w[g]) < 0 {
					direct = false
					break
				}
			}
			if !direct {
				break
			}
		}
	}
	if direct {
		ec := &o.emitCols
		width := nk + na
		if cap(ec.Cols) < width {
			ec.Cols = make([]ColVec, width)
		}
		ec.Cols = ec.Cols[:width]
		m := len(done)
		for c := 0; c < width; c++ {
			d := &ec.Cols[c]
			d.Kind = sqlval.KindUint
			d.Str, d.Valid = nil, nil
			d.U64 = growUints(d.U64, m)
			if c < nk {
				for k, g := range done {
					d.U64[k] = o.denseKeys[g][c]
				}
			} else {
				w := o.denseAccW[c-nk]
				for k, g := range done {
					d.U64[k] = w[g]
				}
			}
		}
		ec.Len = m
		PushColsAll(o.cfg.Out, ec)
		return m
	}
	out := o.emitBuf[:0]
	if o.cfg.Post == nil {
		width := nk + na
		backing := make([]sqlval.Value, 0, len(done)*width)
		for _, g := range done {
			start := len(backing)
			for _, w := range o.denseKeys[g] {
				backing = append(backing, sqlval.Uint(w))
			}
			for j := 0; j < na; j++ {
				backing = append(backing, o.denseResult(j, g))
			}
			row := Tuple(backing[start:len(backing):len(backing)])
			if o.cfg.Having != nil && !o.cfg.Having(row).AsBool() {
				backing = backing[:start]
				continue
			}
			out = append(out, row)
		}
	} else {
		np := len(o.cfg.Post)
		backing := make([]sqlval.Value, 0, len(done)*np)
		for _, g := range done {
			row := o.rowBuf[:0]
			for _, w := range o.denseKeys[g] {
				row = append(row, sqlval.Uint(w))
			}
			for j := 0; j < na; j++ {
				row = append(row, o.denseResult(j, g))
			}
			o.rowBuf = row
			if o.cfg.Having != nil && !o.cfg.Having(row).AsBool() {
				continue
			}
			start := len(backing)
			for _, p := range o.cfg.Post {
				backing = append(backing, p(row))
			}
			out = append(out, Tuple(backing[start:len(backing):len(backing)]))
		}
	}
	o.emitBuf = out
	if o.cfg.ColEmit && len(out) > 0 && o.emitCols.SetFromRows(out) {
		PushColsAll(o.cfg.Out, &o.emitCols)
	} else {
		PushAll(o.cfg.Out, out)
	}
	return len(out)
}

// denseKeyLess is the comparison the dense radix order encodes:
// epoch word first, then key words column-major, all unsigned.
func (o *Aggregate) denseKeyLess(a, b int32, nk, eIdx int) bool {
	ka, kb := o.denseKeys[a], o.denseKeys[b]
	if eIdx >= 0 && ka[eIdx] != kb[eIdx] {
		return ka[eIdx] < kb[eIdx]
	}
	for c := 0; c < nk; c++ {
		if ka[c] != kb[c] {
			return ka[c] < kb[c]
		}
	}
	return false
}

// denseInsertion insertion-sorts a small segment by full-key compare.
func (o *Aggregate) denseInsertion(gs []int32, nk, eIdx int) {
	for i := 1; i < len(gs); i++ {
		g := gs[i]
		j := i - 1
		for j >= 0 && o.denseKeyLess(g, gs[j], nk, eIdx) {
			gs[j+1] = gs[j]
			j--
		}
		gs[j+1] = g
	}
}

// denseSort sorts the retired group indices by (epoch word, key words
// column-major), all unsigned — the same order the row path's encoded
// key bytes produce for all-uint keys. Fixed-width radix keys waste
// most of their bytes on network data (epoch counters and IPv4 words
// leave high bytes constant), so it first computes OR/AND masks per
// key word over the whole set and MSD-radix-sorts over only the byte
// positions that actually vary.
func (o *Aggregate) denseSort(gs, scratch []int32, nk, eIdx int) {
	if len(gs) <= radixCutoff {
		o.denseInsertion(gs, nk, eIdx)
		return
	}
	pos := o.densePos[:0]
	addWord := func(wi int) {
		var orw uint64
		andw := ^uint64(0)
		for _, g := range gs {
			w := o.denseKeys[g][wi]
			orw |= w
			andw &= w
		}
		diff := orw ^ andw
		for b := 0; b < 8; b++ {
			if byte(diff>>(56-8*uint(b))) != 0 {
				pos = append(pos, uint16(wi<<3|b))
			}
		}
	}
	if eIdx >= 0 {
		addWord(eIdx)
	}
	for c := 0; c < nk; c++ {
		if c != eIdx {
			addWord(c)
		}
	}
	o.densePos = pos
	if len(pos) == 0 {
		return // all keys identical
	}
	o.denseRadix(gs, scratch, pos, nk, eIdx, 0)
}

// denseRadix MSD-radix-sorts over the varying byte positions denseSort
// computed, falling back to insertion sort on small segments (full-key
// compare is safe there: the prefix positions are already fixed, and
// positions not in the list are constant across the whole set).
func (o *Aggregate) denseRadix(gs, scratch []int32, pos []uint16, nk, eIdx, depth int) {
	for {
		if len(gs) <= radixCutoff || depth >= len(pos) {
			o.denseInsertion(gs, nk, eIdx)
			return
		}
		p := pos[depth]
		wi, sh := int(p>>3), 56-8*uint(p&7)
		var counts [256]int
		for _, g := range gs {
			counts[byte(o.denseKeys[g][wi]>>sh)]++
		}
		first := -1
		single := true
		for b, c := range counts {
			if c != 0 {
				if first < 0 {
					first = b
				} else {
					single = false
					break
				}
			}
		}
		if single {
			depth++
			continue
		}
		var offs [256]int
		sum := 0
		for b, c := range counts {
			offs[b] = sum
			sum += c
		}
		for _, g := range gs {
			b := byte(o.denseKeys[g][wi] >> sh)
			scratch[offs[b]] = g
			offs[b]++
		}
		copy(gs, scratch)
		start := 0
		for b := 0; b < 256; b++ {
			c := counts[b]
			if c > 1 {
				o.denseRadix(gs[start:start+c], scratch[start:start+c], pos, nk, eIdx, depth+1)
			}
			start += c
		}
		return
	}
}

// denseCompact copies surviving groups' key words and state out of
// the dense arrays (their views point into colWords, which the table
// reset truncates), rebuilds the table, and reinserts them.
func (o *Aggregate) denseCompact(retired func(int) bool, nk, eIdx int) {
	sw := o.survWords[:0]
	if o.survAccW == nil {
		o.survAccW = make([][]uint64, len(o.denseAcc))
	}
	for j := range o.survAccW {
		o.survAccW[j] = o.survAccW[j][:0]
	}
	var survMin uint64
	nsurv := 0
	for g := 0; g < o.denseN; g++ {
		if retired(g) {
			continue
		}
		sw = append(sw, o.denseKeys[g]...)
		for j := range o.denseAccW {
			o.survAccW[j] = append(o.survAccW[j], o.denseAccW[j][g])
		}
		ew := o.denseKeys[g][eIdx]
		if nsurv == 0 || ew < survMin {
			survMin = ew
		}
		nsurv++
	}
	o.survWords = sw
	o.denseReset()
	o.colResetTable()
	for s := 0; s < nsurv; s++ {
		src := sw[s*nk : (s+1)*nk]
		start := len(o.colWords)
		o.colWords = append(o.colWords, src...)
		words := o.colWords[start:len(o.colWords):len(o.colWords)]
		h := hashWords(words)
		mask := uint64(len(o.colTable) - 1)
		j := h & mask
		for o.colTable[j].gen == o.colGen {
			j = (j + 1) & mask
		}
		gi := int32(o.denseN)
		o.denseN++
		o.denseKeys = append(o.denseKeys, words)
		for a := range o.denseAccW {
			o.denseAccW[a] = append(o.denseAccW[a], o.survAccW[a][s])
		}
		o.colTable[j] = colSlot{h: h, words: words, gi: gi + 1, gen: o.colGen}
		o.colCount++
		if o.colCount*4 >= len(o.colTable)*3 {
			o.colGrow()
		}
	}
	o.minEpoch, o.minSet = sqlval.Uint(survMin), nsurv > 0
}

// colKeysReady reports whether every key of the side has a uint kernel.
func (s *JoinSideConfig) colKeysReady() bool {
	if len(s.ColKeys) != len(s.Keys) {
		return false
	}
	for i := range s.ColKeys {
		if s.ColKeys[i].U == nil {
			return false
		}
	}
	return true
}

// PushCols implements ColConsumer. A word-layout join takes an all-uint
// batch of the side's width as it is: key kernels over the columns,
// then build and probe on words (pushWords). Any other batch migrates
// the join to the row layout, which pivots to durable rows and runs
// the per-tuple build/probe. Either way the batch's joined rows go
// downstream as one row batch.
//
//qap:hot
func (p *joinPort) PushCols(cb *ColBatch) {
	if cb.Len == 0 {
		return
	}
	j := p.j
	if j.words {
		if j.pushWords(cb, p.left) {
			j.deliver()
			return
		}
		j.migrate()
	}
	pushColsRows(p, cb)
}

// pushWords is the word layout's build/probe over a whole batch: the
// side's key kernels produce one vector per key, each row's key words
// hash into the opposite pane's slot table (word equality is key
// equality for uints, see Aggregate.PushCols), and the row's words
// append to its own pane's slabs — no row tuple, no key encoding, no
// map. Only a key-equal pair costs values: left++right materialise in
// combBuf for the Residual and Projs row closures, and emit buffers
// the result exactly as the row layout does. It reports false, having
// done nothing, for a batch the layout cannot hold.
//
//qap:hot
func (j *Join) pushWords(cb *ColBatch, left bool) bool {
	side, mine, other := &j.cfg.Left, &j.left, &j.right
	if !left {
		side, mine, other = &j.cfg.Right, &j.right, &j.left
	}
	// The width check is what keeps every slab index in range: column
	// kernels and the row stride both assume the side's width.
	if len(cb.Cols) != side.Width || !cb.AllUint() {
		return false
	}
	kvs := j.colKeyVecs[:0]
	for i := range side.ColKeys {
		kvs = append(kvs, side.ColKeys[i].U(cb))
	}
	j.colKeyVecs = kvs
	comb := j.combBuf[:j.cfg.Left.Width+j.cfg.Right.Width]
	arrived, stored := comb[:j.cfg.Left.Width], comb[j.cfg.Left.Width:]
	if !left {
		arrived, stored = stored, arrived
	}
	ow := len(stored)
	tv := kvs[side.TemporalIdx]
	var mp, op *joinPane
	for i := 0; i < cb.Len; i++ {
		if mp == nil || tv[i] != tv[i-1] {
			tkey := sqlval.Uint(tv[i])
			mp, op = mine.pane(tkey, true), other.pane(tkey, false)
			if len(mp.slots) == 0 {
				mp.initWords(j.cfg.SizeHint, side.Width, len(kvs))
			}
		}
		h := hashKeyWords(kvs, i)
		idx := int32(len(mp.links))
		link := wordLink{next: -1, tail: idx}
		if op != nil {
			if oh, _ := op.find(h, kvs, i); oh >= 0 {
				for c := range arrived {
					arrived[c] = sqlval.Uint(cb.Cols[c].U64[i])
				}
				for e := oh; e >= 0; e = op.links[e].next {
					uintRow(stored, op.rows[int(e)*ow:])
					if j.cfg.Residual != nil && !j.cfg.Residual(comb).AsBool() {
						continue
					}
					link.matched, op.links[e].matched = true, true
					j.emit(comb)
				}
			}
		}
		if head, at := mp.find(h, kvs, i); head >= 0 {
			hl := &mp.links[head]
			mp.links[hl.tail].next = idx
			hl.tail = idx
		} else {
			mp.slots[at] = joinSlot{h: h, head: idx, gen: mp.gen}
			mp.nkeys++
		}
		mp.links = append(mp.links, link)
		for _, kv := range kvs {
			mp.keys = append(mp.keys, kv[i])
		}
		for c := range cb.Cols {
			mp.rows = append(mp.rows, cb.Cols[c].U64[i])
		}
		if mp.nkeys*4 >= len(mp.slots)*3 {
			mp.growSlots()
		}
	}
	j.stored += cb.Len
	return true
}

// uintRow fills dst with the uint values of the first len(dst) words.
//
//qap:hot
func uintRow(dst Tuple, words []uint64) Tuple {
	for c := range dst {
		dst[c] = sqlval.Uint(words[c])
	}
	return dst
}

// initWords gives a fresh pane its slot table and, with a size hint,
// slabs for that many entries, so a warm run pays neither doubling
// chain. Keys are at most entries, which sizes the table.
//
//qap:hot
func (p *joinPane) initWords(hint, width, nk int) {
	//qap:allow hotalloc -- once per concurrently live pane, then recycled
	p.slots = make([]joinSlot, tableSize(joinSlotsMin, hint))
	if hint > 0 {
		//qap:allow hotalloc -- once per concurrently live pane, then recycled
		p.rows, p.keys, p.links = make([]uint64, 0, hint*width), make([]uint64, 0, hint*nk), make([]wordLink, 0, hint)
	}
}

// find probes the pane's table for row i's key words: the chain head
// holding them, or -1 and the free slot the probe ended on.
//
//qap:hot
func (p *joinPane) find(h uint64, kvs [][]uint64, i int) (int32, uint64) {
	nk := len(kvs)
	mask := uint64(len(p.slots) - 1)
	at := h & mask
	for {
		s := &p.slots[at]
		if s.gen != p.gen {
			return -1, at
		}
		if k := int(s.head) * nk; s.h == h && keyWordsEqual(p.keys[k:k+nk], kvs, i) {
			return s.head, at
		}
		at = (at + 1) & mask
	}
}

// growSlots doubles the table, rehashing live slots by their stored
// hash; chains and slabs are untouched.
//
//qap:hot
func (p *joinPane) growSlots() {
	old := p.slots
	//qap:allow hotalloc -- amortised doubling, kept across epochs
	p.slots = make([]joinSlot, len(old)*2)
	mask := uint64(len(p.slots) - 1)
	for i := range old {
		s := &old[i]
		if s.gen != p.gen {
			continue
		}
		at := s.h & mask
		for p.slots[at].gen == p.gen {
			at = (at + 1) & mask
		}
		p.slots[at] = *s
	}
}

// migrate is the one-way switch to the row layout, taken before the
// first input the word layout cannot hold (like Aggregate.denseMigrate):
// every pane's entries rebuild index for index — tuples from the row
// words, chains and matched flags from the links, one interned key
// encoding per chain — so the row path continues as if it had stored
// them.
//
//qap:hot
func (j *Join) migrate() {
	j.words = false
	j.migrateSide(&j.left, &j.cfg.Left)
	j.migrateSide(&j.right, &j.cfg.Right)
}

// migrateSide rebuilds one side's panes and drops every word slab and
// table of the side, recycled panes' included.
//
//qap:hot
func (j *Join) migrateSide(s *joinSide, side *JoinSideConfig) {
	w, nk := side.Width, len(side.Keys)
	vals, kb := make(Tuple, nk), []byte(nil) //qap:allow hotalloc -- the one-off rebuild's key scratch
	for _, p := range s.panes {
		n := len(p.links)
		//qap:allow hotalloc -- the one-off rebuild: the pane's tuples, entry slab and index
		backing, entries, heads := make([]sqlval.Value, n*w), make([]joinEntry, n), make(map[string]int32, p.nkeys)
		for e, l := range p.links {
			row := uintRow(backing[e*w:(e+1)*w:(e+1)*w], p.rows[e*w:])
			entries[e] = joinEntry{tuple: row, next: l.next, tail: l.tail, matched: l.matched}
		}
		for _, sl := range p.slots {
			if sl.gen != p.gen {
				continue
			}
			kb = AppendKey(kb[:0], uintRow(vals, p.keys[int(sl.head)*nk:]))
			key := string(kb)
			heads[key] = sl.head
			for e := sl.head; e >= 0; e = p.links[e].next {
				entries[e].key = key
			}
		}
		p.entries, p.heads = entries, heads
		p.rows, p.keys, p.links, p.slots, p.nkeys = nil, nil, nil, nil, 0
	}
	for _, p := range s.free {
		p.rows, p.keys, p.links, p.slots = nil, nil, nil, nil
	}
}
