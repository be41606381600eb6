package exec

// Columnar fast paths for the operators. Every PushCols here is
// observably identical to pushing the pivoted rows one at a time — same
// downstream rows in the same order, same Late counts, same emission
// bytes — so engines can hand any operator a ColBatch and fall back to
// the row path whenever a kernel does not apply.

import (
	"cmp"
	"math"
	"slices"

	"qap/internal/sqlval"
)

// pushColsRows is the shared fallback: pivot to durable rows and push
// them one at a time.
func pushColsRows(c Consumer, cb *ColBatch) {
	b := cb.AppendRows(GetBatch())
	PushAll(c, b)
	PutBatch(b)
}

// InputReads is the read set (bit i for column i, as ColExpr.Reads) of
// the input columns c looks at: what its filter, projections, keys,
// arguments and pre-filter mention, and, for a filter that forwards its
// input unprojected, what its consumer looks at. It is every column for
// a consumer that cannot name them: a collector, a window, a union
// port, an operator some expression of which has no column form.
func InputReads(c Consumer) uint64 {
	if r, ok := c.(interface{ inputReads() uint64 }); ok {
		return r.inputReads()
	}
	return allCols
}

func (o *FilterProject) inputReads() uint64 {
	if o.Projs == nil {
		return o.colReads() | InputReads(o.Out)
	}
	return o.colReads()
}

// colReads is the read set of the filter and the projections, every
// column when one of them has no column form.
func (o *FilterProject) colReads() uint64 {
	var m uint64
	if o.Filter != nil {
		if o.ColFilter == nil {
			return allCols
		}
		m = o.ColFilter.reads
	}
	if len(o.ColProjs) != len(o.Projs) {
		return allCols
	}
	for i := range o.ColProjs {
		m |= o.ColProjs[i].reads
	}
	return m
}

// PushCols implements ColConsumer. The vectorized path needs a truth
// kernel for the filter, uint kernels for every projection, and a batch
// whose columns they read hold plain uint words; without a projection,
// the columns the filter forwards must be uint words or pruned, which
// is what colCompact carries. Anything else pivots to the row path.
//
//qap:hot
func (o *FilterProject) PushCols(cb *ColBatch) {
	if o.Filter == nil && o.Projs == nil {
		PushColsAll(o.Out, cb)
		return
	}
	if cb.Len == 0 {
		return
	}
	if !o.colReady() || !cb.plainWords(o.colReads()) || (o.Projs == nil && !cb.uintWords(cb.filled())) {
		pushColsRows(o, cb)
		return
	}
	if work := o.colApply(cb); work != nil {
		PushColsAll(o.Out, work)
	}
}

// colReady reports whether the filter and every projection have the
// kernel colApply runs.
func (o *FilterProject) colReady() bool {
	if o.Filter != nil && (o.ColFilter == nil || o.ColFilter.Truth == nil) {
		return false
	}
	if o.Projs == nil {
		return true
	}
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

// colApply filters, compacts and projects a non-empty batch with the
// kernels, in that order: the batch to forward — cb itself, or scratch
// valid until the next call — or nil when no row passes, which like the
// scalar path makes no downstream call. Every column the filter or a
// computed projection reads must hold uints that no Int bitmap marks; a
// bare column reference forwards its column whatever the kind, Int rows
// included. With a projection, only the columns it reads are compacted;
// without one, every column is, and must be all-valid words or pruned.
// The aggregate's column emit runs HAVING and its projection, and the
// join its residual and projection, through here.
//
//qap:hot
func (o *FilterProject) colApply(cb *ColBatch) *ColBatch {
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
			return nil
		}
		if keep < cb.Len {
			cols := allCols
			if o.Projs != nil {
				cols = o.colReads()
			}
			o.colCompact(cb, tv, keep, cols)
			work = &o.colPass
		}
	}
	return o.colPost(work)
}

// colPost projects a batch the filter has already judged: cb itself
// when there is no projection, else the colOut scratch.
//
//qap:hot
func (o *FilterProject) colPost(cb *ColBatch) *ColBatch {
	if o.Projs == nil {
		return cb
	}
	o.colProject(cb)
	return &o.colOut
}

// colCompact copies the selected rows of the (word) columns in read set
// cols, and of their Int bitmaps, into the reused colPass scratch. Every
// other column, and every pruned one, is pruned there with no payload,
// as in a feed's chunk window, since colPass goes downstream as it is.
//
//qap:hot
func (o *FilterProject) colCompact(cb *ColBatch, tv []uint64, keep int, cols uint64) {
	p := &o.colPass
	p.Cols = growCols(p.Cols, len(cb.Cols))
	for c := range cb.Cols {
		s, d := &cb.Cols[c], &p.Cols[c]
		if cols&colBit(c) == 0 || s.pruned() {
			*d = ColVec{Kind: sqlval.KindNull}
			continue
		}
		d.Kind = s.Kind
		d.Str, d.Valid, d.Int = nil, nil, d.Int[:0]
		d.U64 = growUints(d.U64, keep)
		k := 0
		for i, w := range tv {
			if w != 0 {
				d.U64[k] = s.U64[i]
				if bitAt(s.Int, i) {
					d.Int = markInt(d.Int, k, keep)
				}
				k++
			}
		}
	}
	p.Len = keep
}

// colProject evaluates every projection kernel over in; the output
// columns alias kernel scratch (or input columns for bare column
// refs, kind and Int rows and all), which is fine under the
// only-during-the-call contract.
//
//qap:hot
func (o *FilterProject) colProject(in *ColBatch) {
	out := &o.colOut
	out.Cols = growCols(out.Cols, len(o.ColProjs))
	for k := range o.ColProjs {
		p := &o.ColProjs[k]
		if p.ref > 0 {
			out.Cols[k] = in.Cols[p.ref-1]
			continue
		}
		out.Cols[k] = ColVec{Kind: sqlval.KindUint, U64: p.U(in), Int: intsNow(p.ints)}
	}
	out.Len = in.Len
}

// PushCols implements ColConsumer: a union port forwards unchanged.
func (p *unionPort) PushCols(cb *ColBatch) { PushColsAll(p.u.Out, cb) }

// wordSlot is one slot of a wordTable: a key's hash and the entry its
// owner filed it under. A slot is live iff gen matches the table's.
// Sixteen bytes and no pointer: four slots to a cache line, and the
// collector never scans a table.
type wordSlot struct {
	h   uint64
	ref int32
	gen uint32
}

// wordTable is the open-addressed index behind every word-keyed store:
// the dense aggregate's groups and each word-layout join pane. It
// stores no key. The owner keeps entry ref's nk key words at
// keys[ref*nk:] of a flat slab it appends to in step with the inserts,
// and passes that slab to find. reset retires every slot at once by
// bumping gen, so closing an epoch or dropping a pane costs O(1)
// instead of a table-wide clear. The dense aggregate builds its table
// on demand (denseFile): while its input arrives in key order it needs
// none.
type wordTable struct {
	slots []wordSlot
	gen   uint32
	n     int // live slots
}

// colTableMin and joinSlotsMin are the slot counts an unhinted
// aggregate and join pane start from.
const (
	colTableMin  = 1024
	joinSlotsMin = 256
)

// tableSize is the slot count for an open-addressed table expected to
// hold n keys: the power-of-two multiple of min that keeps n under the
// 75% load at which the tables double.
func tableSize(min, n int) int {
	for min*3 <= n*4 {
		min *= 2
	}
	return min
}

// init allocates the table for an expected n keys.
func (t *wordTable) init(min, n int) {
	t.slots, t.gen, t.n = make([]wordSlot, tableSize(min, n)), 1, 0
}

// find probes for row i's key words: the ref filed under them, or -1
// and the free slot the probe ended on, which insert takes.
//
//qap:hot
func (t *wordTable) find(h uint64, keys []uint64, kvs [][]uint64, i int) (int32, uint64) {
	nk := len(kvs)
	mask := uint64(len(t.slots) - 1)
	at := h & mask
	for {
		s := &t.slots[at]
		if s.gen != t.gen {
			return -1, at
		}
		if k := int(s.ref) * nk; s.h == h && keyWordsEqual(keys[k:k+nk], kvs, i) {
			return s.ref, at
		}
		at = (at + 1) & mask
	}
}

// free is the probe for a key known to be absent: the first free slot
// on h's path.
//
//qap:hot
func (t *wordTable) free(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	at := h & mask
	for t.slots[at].gen == t.gen {
		at = (at + 1) & mask
	}
	return at
}

// insert files ref under h at the free slot a probe ended on, doubling
// the table at 75% load: live slots rehash by their stored hash, refs
// and key slabs are untouched.
//
//qap:hot
func (t *wordTable) insert(at, h uint64, ref int32) {
	t.slots[at] = wordSlot{h: h, ref: ref, gen: t.gen}
	t.n++
	if t.n*4 < len(t.slots)*3 {
		return
	}
	old := t.slots
	//qap:allow hotalloc -- amortised doubling, kept across epochs
	t.slots = make([]wordSlot, len(old)*2)
	for i := range old {
		if s := &old[i]; s.gen == t.gen {
			t.slots[t.free(s.h)] = *s
		}
	}
}

// reset retires every slot. On the (unreachable in practice) wraparound
// to 0 — the zero value of untouched slots — it clears physically.
func (t *wordTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// colSupported reports whether the dense store can take this
// aggregate's column batches: every kernel it needs, no Int key, every
// accumulator word-vectorizable (denseInit). colNoInt collects the
// columns the keys, the pre-filter and computed arguments read, whose
// Int rows those kernels could not; a bare argument forwards them.
func (o *Aggregate) colSupported() bool {
	if len(o.cfg.ColGroupBy) != len(o.cfg.GroupBy) {
		return false
	}
	for i := range o.cfg.ColGroupBy {
		g := &o.cfg.ColGroupBy[i]
		if g.U == nil || g.ints != nil {
			return false
		}
		o.colNoInt |= g.reads
	}
	if p := o.cfg.ColPreFilter; o.cfg.PreFilter != nil {
		if p == nil || p.Truth == nil {
			return false
		}
		o.colNoInt |= p.reads
	}
	for i, a := range o.cfg.Aggs {
		if a.Arg == nil {
			continue
		}
		if len(o.cfg.ColArgs) != len(o.cfg.Aggs) || o.cfg.ColArgs[i] == nil || o.cfg.ColArgs[i].U == nil {
			return false
		}
		if p := o.cfg.ColArgs[i]; p.ref == 0 {
			o.colNoInt |= p.reads
		}
	}
	o.colReads = o.inputReads()
	return o.denseInit()
}

// inputReads is the read set of the keys, the pre-filter and the
// arguments, every column when one of them has no column form.
func (o *Aggregate) inputReads() uint64 {
	cfg := &o.cfg
	if len(cfg.ColGroupBy) != len(cfg.GroupBy) || (cfg.PreFilter != nil && cfg.ColPreFilter == nil) {
		return allCols
	}
	var m uint64
	for i := range cfg.ColGroupBy {
		m |= cfg.ColGroupBy[i].reads
	}
	if p := cfg.ColPreFilter; p != nil {
		m |= p.reads
	}
	for i, a := range cfg.Aggs {
		if a.Arg == nil {
			continue
		}
		if len(cfg.ColArgs) != len(cfg.Aggs) || cfg.ColArgs[i] == nil {
			return allCols
		}
		m |= cfg.ColArgs[i].reads
	}
	return m
}

// PushCols implements ColConsumer. A batch whose columns the keys, the
// pre-filter and the arguments read (colReads) are uint words, with Int
// rows, if any, in columns only bare arguments read, goes to the dense
// store while that store can own the groups (densePush); the columns
// nothing reads may hold anything, pruned ones included. Any other
// batch — and every batch of an aggregate that is not dense (VARIANCE,
// COUNT_DISTINCT, or one whose row store holds groups after a
// denseMigrate) — pivots into the row store.
//
//qap:hot
func (o *Aggregate) PushCols(cb *ColBatch) {
	if o.colReady == 0 {
		o.colReady = -1
		if o.colSupported() {
			o.colReady = 1
		}
	}
	if cb.Len == 0 {
		return
	}
	if o.colReady < 0 || !cb.uintWords(o.colReads) || cb.intCols()&o.colNoInt != 0 || (o.denseN == 0 && len(o.groups) > 0) {
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
	avs, ais := o.colArgVecs[:0], o.colArgInts[:0]
	for i, a := range o.cfg.Aggs {
		var v, ints []uint64
		if a.Arg != nil {
			// A bare reference hands on its column's Int rows.
			p := o.cfg.ColArgs[i]
			v, ints = p.U(cb), intsNow(p.ints)
			if p.ref > 0 {
				ints = cb.Cols[p.ref-1].Int
			}
		}
		avs, ais = append(avs, v), append(ais, ints)
	}
	o.colArgVecs, o.colArgInts = avs, ais
	o.densePush(cb, kvs, avs, ais, filt)
}

// hashRows fills hs[k] with the hash of row lo+k's key words, one pass
// per key column: FNV-1a over words, with a final fold so sequential
// keys spread across table buckets. A row's hash is hashWords of its
// key words. Purely internal: output bytes never depend on it.
//
//qap:hot
func hashRows(hs []uint64, kvs [][]uint64, lo int) []uint64 {
	for i := range hs {
		hs[i] = 14695981039346656037
	}
	for _, kv := range kvs {
		kv = kv[lo : lo+len(hs)]
		for i, w := range kv {
			hs[i] = (hs[i] ^ w) * 1099511628211
		}
	}
	for i, h := range hs {
		hs[i] = h ^ (h >> 29)
	}
	return hs
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
// counterpart exactly for non-NULL inputs of KindUint and KindInt
// alike: AsInt and AsUint are raw-bit conversions for both, so COUNT,
// integer SUM and the bit ops over words are bit-identical to the
// interface path. MIN and MAX compare as sqlval does and keep their
// state's kind in denseAux (1 = Int); MIN's
// state word starts at all-ones. AVG is avgAccum's two fields as two
// words — the float sum's bits in the state word, the count in
// denseAux — accumulated in row order, so the sum rounds exactly as the
// interface path's does.
type denseAccKind uint8

const (
	denseCount denseAccKind = iota
	denseSum
	denseBitOr
	denseBitAnd
	denseBitXor
	denseMin
	denseMax
	denseAvg
)

// aux reports whether the kind keeps a second word per group in
// denseAux: AVG its count, MIN and MAX their state's kind.
func (k denseAccKind) aux() bool { return k == denseAvg || k == denseMin || k == denseMax }

// denseInit probes each aggregate factory once and reports whether
// every accumulator is word-vectorizable from its zero state. It also
// records whether an emitted epoch can run HAVING and the projection as
// kernels: they exist, and only a bare reference reads an AVG column,
// whose words are float bits (colEmitOK); and which columns they read
// (emitReads).
func (o *Aggregate) denseInit() bool {
	kinds := make([]denseAccKind, len(o.cfg.Aggs))
	var floats uint64
	for i, a := range o.cfg.Aggs {
		switch p := a.Factory().(type) {
		case *countAccum:
			if p.n != 0 {
				return false
			}
			kinds[i] = denseCount
		case *sumAccum:
			if p.isFloat || p.any || p.i != 0 {
				return false
			}
			kinds[i] = denseSum
		case *bitAccum:
			if p.any || p.acc != 0 {
				return false
			}
			switch p.op {
			case bitOr:
				kinds[i] = denseBitOr
			case bitAnd:
				kinds[i] = denseBitAnd
			case bitXor:
				kinds[i] = denseBitXor
			default:
				return false
			}
		case *minmaxAccum:
			if p.any {
				return false
			}
			kinds[i] = denseMax
			if p.wantLess {
				kinds[i] = denseMin
			}
		case *avgAccum:
			if p.n != 0 || p.sum != 0 {
				return false
			}
			kinds[i] = denseAvg
			floats |= colBit(len(o.cfg.GroupBy) + i)
		default:
			return false
		}
	}
	o.denseAcc = kinds
	o.denseAccW, o.denseAux = make([][]uint64, len(kinds)), make([][]uint64, len(kinds))
	if h := o.cfg.ColHaving; h != nil {
		o.emitReads = h.reads
	}
	for i := range o.cfg.ColPost {
		if p := &o.cfg.ColPost[i]; p.ref == 0 {
			o.emitReads |= p.reads
		}
	}
	o.colEmitOK = o.emit.colReady() && o.emitReads&floats == 0
	if h := o.cfg.SizeHint; h > 0 {
		// Warm-start the dense arrays so a hinted run never pays the
		// append doubling chain for key words or state words.
		o.colWords = make([]uint64, 0, h*len(o.cfg.GroupBy))
		o.denseDone = make([]int32, 0, h)
		for a, kind := range kinds {
			o.denseAccW[a] = make([]uint64, 0, h)
			if kind.aux() {
				o.denseAux[a] = make([]uint64, 0, h)
			}
		}
	}
	return true
}

// densePush is the struct-of-arrays aggregate path: one pass resolves
// every surviving row to a dense group index — for all-uint keys, word
// equality coincides with encoded-key equality (appendKeyValue maps a
// uint u to tag 2 or 4 plus u's big-endian bytes, injectively), so it
// finds exactly the group the row path would — then each aggregate
// accumulates over (slot, row) pairs in a tight per-kind loop with no
// interface dispatch and no per-group objects. ais holds each
// argument's Int bitmap.
//
// While the store is unfiled (denseFiled false) its groups form a
// strictly increasing run in denseKeyLess order, and a row meets only
// the last group: equal, it updates that group; greater, it appends a
// new one, with no hash and no probe. Input in (epoch, key) order — a
// super-aggregate fed by one sub-aggregate's emissions — stays there.
// The first row below the last group files the store (denseFile) and
// hands the rest of the batch to the hash loop, which resolves rows
// through the word table until denseReset.
//
//qap:hot
func (o *Aggregate) densePush(cb *ColBatch, kvs, avs, ais [][]uint64, filt []uint64) {
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
	slots := o.denseSlots[:0]
	rows := o.denseRows[:0]
	n, first := cb.Len, int32(o.denseN)
	o.denseIn += int64(n)
	lo := 0
	if !o.denseFiled {
		nk, eIdx := len(kvs), o.cfg.EpochIdx
		for ; lo < n; lo++ {
			i := lo
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
			g, c := int32(o.denseN-1), 1
			if g >= 0 {
				c = denseCmp(kvs, i, o.colWords[int(g)*nk:int(g+1)*nk], eIdx)
			}
			if c < 0 {
				o.denseFile(nk)
				break
			}
			if c > 0 {
				g = o.denseNew(kvs, i)
			}
			slots = append(slots, g)
			rows = append(rows, int32(i))
		}
	}
	// Keys hash a window of rows at a time, into scratch the aggregate
	// holds inline: an epoch-sized batch needs no batch-sized buffer.
	for ; lo < n; lo += len(o.colHashes) {
		hs := hashRows(o.colHashes[:min(n-lo, len(o.colHashes))], kvs, lo)
		for k, h := range hs {
			i := lo + k
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
			slots = append(slots, o.denseGroup(kvs, i, h))
			rows = append(rows, int32(i))
		}
	}
	o.denseSlots, o.denseRows = slots, rows
	for j, kind := range o.denseAcc {
		w, av, ai := o.denseAccW[j], avs[j], ais[j]
		switch kind {
		case denseCount:
			// COUNT(*) and COUNT(arg) both count every surviving row:
			// dense inputs are non-NULL by construction.
			for _, g := range slots {
				w[g]++
			}
		case denseSum:
			for k, g := range slots {
				w[g] = uint64(int64(w[g]) + int64(av[rows[k]]))
			}
		case denseBitOr:
			for k, g := range slots {
				w[g] |= av[rows[k]]
			}
		case denseBitAnd:
			for k, g := range slots {
				w[g] &= av[rows[k]]
			}
		case denseBitXor:
			for k, g := range slots {
				w[g] ^= av[rows[k]]
			}
		case denseMin, denseMax:
			switch {
			case ai != nil || o.denseInts:
				o.denseMinMax(j, kind == denseMin, slots, rows, av, ai, first)
			case kind == denseMin:
				for k, g := range slots {
					w[g] = min(w[g], av[rows[k]])
				}
			default:
				for k, g := range slots {
					w[g] = max(w[g], av[rows[k]])
				}
			}
		case denseAvg:
			cnt := o.denseAux[j]
			for k, g := range slots {
				x := float64(av[rows[k]])
				if bitAt(ai, int(rows[k])) {
					x = float64(int64(av[rows[k]]))
				}
				w[g] = math.Float64bits(math.Float64frombits(w[g]) + x)
				cnt[g]++
			}
		}
	}
}

// denseMinMax folds a batch into MIN (less) or MAX states by
// sqlval's Compare, for a batch with Int rows or states some of which
// hold an Int. A tie keeps the state, kind and all, as minmaxAccum
// keeps the first value it saw; and a group this batch created takes
// its first row as it is. Groups are created in row order, from first
// on, so the first pair naming new group g comes when next == g.
//
//qap:hot
func (o *Aggregate) denseMinMax(j int, less bool, slots, rows []int32, av, ai []uint64, next int32) {
	w, kind := o.denseAccW[j], o.denseAux[j]
	for k, g := range slots {
		r := int(rows[k])
		v := wordValue(av[r], bitAt(ai, r))
		if g == next {
			next++
		} else if c := v.Compare(wordValue(w[g], kind[g] != 0)); c == 0 || (c < 0) != less {
			continue
		}
		w[g], kind[g] = av[r], b2u(v.Kind() == sqlval.KindInt)
		o.denseInts = o.denseInts || kind[g] != 0
	}
}

// denseGroup resolves row i, whose key words hash to h, to its dense
// group index through the word table, creating and filing the group on
// a miss.
//
//qap:hot
func (o *Aggregate) denseGroup(kvs [][]uint64, i int, h uint64) int32 {
	g, at := o.colTab.find(h, o.colWords, kvs, i)
	if g >= 0 {
		return g
	}
	g = o.denseNew(kvs, i)
	o.colTab.insert(at, h, g)
	return g
}

// denseNew creates the group of row i, unfiled: key words onto
// colWords — group g's are colWords[g*nk:(g+1)*nk], the slab the table
// resolves through — and each aggregate's state from zero (all-ones
// for a MIN, a Uint for a MIN's or MAX's kind).
//
//qap:hot
func (o *Aggregate) denseNew(kvs [][]uint64, i int) int32 {
	g := int32(o.denseN)
	o.denseN++
	base := len(o.colWords)
	o.colWords = slices.Grow(o.colWords, len(kvs))[:base+len(kvs)]
	for k, kv := range kvs {
		o.colWords[base+k] = kv[i]
	}
	for a, kind := range o.denseAcc {
		var zero uint64
		if kind == denseMin {
			zero = ^uint64(0)
		}
		if kind.aux() {
			o.denseAux[a] = append(o.denseAux[a], 0)
		}
		o.denseAccW[a] = append(o.denseAccW[a], zero)
	}
	if e := o.cfg.EpochIdx; e >= 0 {
		o.noteEpochWord(kvs[e][i])
	}
	return g
}

// denseCmp compares row i's key words with a group's in denseKeyLess
// order — epoch word first, then the key words column-major, all
// unsigned — and returns -1, 0 or +1.
//
//qap:hot
func denseCmp(kvs [][]uint64, i int, words []uint64, eIdx int) int {
	if eIdx >= 0 {
		if r, w := kvs[eIdx][i], words[eIdx]; r != w {
			return cmp.Compare(r, w)
		}
	}
	for c, kv := range kvs {
		if r, w := kv[i], words[c]; r != w {
			return cmp.Compare(r, w)
		}
	}
	return 0
}

// denseFile turns an unfiled store into a filed one: every group goes
// into the word table under hashWords, which agrees with the hashRows
// later probes use. The table is built here, on the first row that
// leaves key order, so a store that never leaves it never has one;
// once built it is reset, not dropped, with the store.
//
//qap:hot
func (o *Aggregate) denseFile(nk int) {
	o.denseFiled = true
	if t := &o.colTab; t.slots == nil {
		// A SizeHint warm-starts the table past the doubling chain.
		//qap:allow hotalloc -- once per run, only when input leaves key order
		t.slots, t.gen, t.n = make([]wordSlot, tableSize(colTableMin, max(o.cfg.SizeHint, o.denseN))), 1, 0
	}
	for g := 0; g < o.denseN; g++ {
		h := hashWords(o.colWords[g*nk : (g+1)*nk])
		o.colTab.insert(o.colTab.free(h), h, int32(g))
	}
}

// noteEpochWord is noteEpoch for a dense group, whose epoch compares as
// a word: minWord shadows minEpoch while the dense store owns the
// groups (it only takes over an empty aggregate, where minSet is false).
func (o *Aggregate) noteEpochWord(w uint64) {
	if !o.minSet || w < o.minWord {
		o.minWord, o.minEpoch, o.minSet = w, sqlval.Uint(w), true
	}
}

// hashWords is hashRows over an already-gathered word slice; the two
// must agree so reinserted survivors land where probes look.
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
	case denseAvg:
		return sqlval.Float(math.Float64frombits(w) / float64(o.denseAux[j][g]))
	case denseSum:
		if i := int64(w); i < 0 {
			return sqlval.Int(i)
		}
	case denseMin, denseMax:
		if o.denseAux[j][g] != 0 {
			return sqlval.Int(int64(w))
		}
	}
	return sqlval.Uint(w)
}

// denseMigrate converts every dense group into an ordinary map-owned
// groupState (restoring accumulator state field-for-field) so the row
// path can take over. Called before any row-path lookup; rare, so it
// allocates its own scratch rather than clobbering Push's.
func (o *Aggregate) denseMigrate() {
	nk := len(o.cfg.GroupBy)
	vals := make(Tuple, nk)
	var kb []byte
	for g := 0; g < o.denseN; g++ {
		kb = AppendKey(kb[:0], uintRow(vals, o.colWords[g*nk:]))
		gs := o.newGroup(kb, vals)
		for j, kind := range o.denseAcc {
			w := o.denseAccW[j][g]
			switch kind {
			case denseCount:
				gs.accs[j].(*countAccum).n = w
			case denseSum:
				a := gs.accs[j].(*sumAccum)
				a.i, a.any = int64(w), true
			case denseMin, denseMax:
				a := gs.accs[j].(*minmaxAccum)
				a.best, a.any = o.denseResult(j, int32(g)), true
			case denseAvg:
				a := gs.accs[j].(*avgAccum)
				a.sum, a.n = math.Float64frombits(w), o.denseAux[j][g]
			default:
				a := gs.accs[j].(*bitAccum)
				a.acc, a.any = w, true
			}
		}
		o.register(string(gs.key), gs)
	}
	o.denseReset()
}

// denseReset empties the dense store: its arrays, its word table and
// the key words the table resolves through. An empty store is unfiled.
func (o *Aggregate) denseReset() {
	o.denseN, o.denseInts, o.denseFiled = 0, false, false
	for j := range o.denseAccW {
		o.denseAccW[j] = o.denseAccW[j][:0]
		o.denseAux[j] = o.denseAux[j][:0]
	}
	o.colTab.reset()
	o.colWords = o.colWords[:0]
}

// denseEmit drains dense groups with epoch < boundary (all groups
// when boundary is nil) in the row path's deterministic (epoch,
// encoded key bytes) order — for all-uint keys that equals unsigned
// word order, column-major. Where HAVING runs as a kernel it is judged
// first (denseHaving), and only the groups it keeps are sorted and
// delivered. The groups left open are compacted and reinserted into
// the reset slot table.
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
		ew := o.colWords[g*nk+eIdx]
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
	n, na := len(done), len(o.cfg.Aggs)
	if n == 0 {
		return
	}
	done = o.denseHaving(done, nk, na)
	outLen := 0
	if len(done) > 0 {
		o.denseSort(done, nk, eIdx)
		outLen = o.denseDeliver(done, nk, na)
	}
	if n == o.denseN {
		o.denseReset()
		o.minSet = false
	} else {
		o.denseCompact(retired, nk, eIdx)
	}
	if o.cfg.OnEpochFlush != nil {
		o.cfg.OnEpochFlush(o.lastWM, n, outLen)
	}
}

// denseHaving judges HAVING over the retired groups in creation order,
// before any of them is sorted or gathered whole, and compacts done in
// place to the groups it keeps. It runs where the column emit would:
// ColEmit is on, HAVING and the projection have kernels (colEmitOK),
// and no column they read holds an Int row this epoch — denseDeliver's
// gate, checked over the same groups and columns, which alone are
// gathered (judge; the rest point at one zero column). Otherwise it
// returns done as it is, and denseDeliver's gate fails for the same
// groups: the epoch takes the row path.
func (o *Aggregate) denseHaving(done []int32, nk, na int) []int32 {
	if !o.cfg.ColEmit || nk+na == 0 || !o.colEmitOK || o.emit.Filter == nil {
		return done
	}
	if o.denseColumns(&o.judge, done, nk, na, o.emitReads); o.judge.intCols()&o.emitReads != 0 {
		return done
	}
	o.kernelEmits++
	tv := o.emit.ColFilter.Truth(&o.judge)
	kept := done[:0]
	for k, g := range done {
		if tv[k] != 0 {
			kept = append(kept, g)
		}
	}
	return kept
}

// denseDeliver builds and pushes the sorted epoch batch, returning the
// emitted row count. With ColEmit on, the groups ++ aggs columns
// gather straight from the dense arrays, and HAVING and the projection
// run over them as column kernels — the code a FilterProject runs —
// so no row exists for a group HAVING drops, nor for one it keeps. Rows
// are made, exactly like the map path's emit, only where the kernels
// cannot read the columns: a HAVING or computed projection without a
// kernel, reading an AVG (colEmitOK), or reading a column with Int rows
// this epoch — an integer SUM below zero, an Int MIN or MAX. A HAVING
// has already been judged by denseHaving, over these groups.
func (o *Aggregate) denseDeliver(done []int32, nk, na int) int {
	if o.cfg.ColEmit && nk+na > 0 && o.colEmitOK {
		if o.denseColumns(&o.emitCols, done, nk, na, allCols); o.emitCols.intCols()&o.emitReads == 0 {
			if o.emit.Filter == nil {
				o.kernelEmits++ // denseHaving counts an epoch with a HAVING
			}
			work := o.emit.colPost(&o.emitCols)
			// What emitRows would send: an all-Int column is KindInt.
			work.wholeInts()
			PushColsAll(o.cfg.Out, work)
			return work.Len
		}
	}
	return o.emitRows(len(done), func(k int, row Tuple) Tuple {
		g := done[k]
		for _, w := range o.colWords[int(g)*nk : int(g+1)*nk] {
			row = append(row, sqlval.Uint(w))
		}
		for j := 0; j < na; j++ {
			row = append(row, o.denseResult(j, g))
		}
		return row
	})
}

// allCols is the read set (colBit) of every column.
const allCols = ^uint64(0)

// denseColumns gathers the key and state words of the groups in done
// into ec, the columns in reads and no others: uint columns, but for an
// AVG, which finalises to a float column. The Int bitmap of a SUM marks
// the groups below zero, that of a MIN or MAX the groups whose state is
// an Int. A column outside reads points at one zero column, as the
// join's gather does: reads is fixed per batch (emitCols reads all,
// judge emitReads), so no column ec owns ever aliases it.
//
//qap:hot
func (o *Aggregate) denseColumns(ec *ColBatch, done []int32, nk, na int, reads uint64) {
	ec.Cols = growCols(ec.Cols, nk+na)
	m := len(done)
	if reads != allCols && cap(o.zeroW) < m {
		//qap:allow hotalloc -- the zero column, sized once per hinted run like the emit columns
		o.zeroW = make([]uint64, max(m, o.cfg.SizeHint))
	}
	for c := range ec.Cols {
		d := &ec.Cols[c]
		d.Kind = sqlval.KindUint
		d.Str, d.Valid, d.Int = nil, nil, d.Int[:0]
		if reads&colBit(c) == 0 {
			d.U64 = o.zeroW[:m]
			continue
		}
		if cap(d.U64) < m {
			// Sized once per run from the hint: an exact fit would
			// re-allocate for every epoch a little larger than the last.
			//qap:allow hotalloc -- emit column growth, once per hinted run
			d.U64 = make([]uint64, max(m, o.cfg.SizeHint))
		}
		d.U64 = d.U64[:m]
	}
	ec.Len = m
	if reads == allCols {
		// Group-major: one pass over each group's adjacent key words.
		for k, g := range done {
			for c, w := range o.colWords[int(g)*nk : int(g+1)*nk] {
				ec.Cols[c].U64[k] = w
			}
		}
	} else {
		for c := 0; c < nk; c++ {
			if reads&colBit(c) != 0 {
				dst := ec.Cols[c].U64
				for k, g := range done {
					dst[k] = o.colWords[int(g)*nk+c]
				}
			}
		}
	}
	for j := 0; j < na; j++ {
		if reads&colBit(nk+j) == 0 {
			continue
		}
		col := &ec.Cols[nk+j]
		w, dst, aux := o.denseAccW[j], col.U64, o.denseAux[j]
		switch o.denseAcc[j] {
		case denseAvg:
			col.Kind = sqlval.KindFloat
			for k, g := range done {
				dst[k] = math.Float64bits(math.Float64frombits(w[g]) / float64(aux[g]))
			}
		case denseSum:
			for k, g := range done {
				dst[k] = w[g]
				if int64(w[g]) < 0 {
					col.Int = markInt(col.Int, k, m)
				}
			}
		case denseMin, denseMax:
			for k, g := range done {
				dst[k] = w[g]
				if aux[g] != 0 {
					col.Int = markInt(col.Int, k, m)
				}
			}
		default:
			for k, g := range done {
				dst[k] = w[g]
			}
		}
	}
}

// denseKeyLess is the comparison the dense radix order encodes:
// epoch word first, then key words column-major, all unsigned.
func (o *Aggregate) denseKeyLess(a, b int32, nk, eIdx int) bool {
	ka, kb := o.colWords[int(a)*nk:int(a+1)*nk], o.colWords[int(b)*nk:int(b+1)*nk]
	if eIdx >= 0 && ka[eIdx] != kb[eIdx] {
		return ka[eIdx] < kb[eIdx]
	}
	for c := range ka {
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

// radixCutoff is the segment size below which the dense radix falls
// back to insertion sort: a counting pass over 256 buckets costs more
// than a handful of key compares.
const radixCutoff = 24

// denseSort sorts the retired group indices by (epoch word, key words
// column-major), all unsigned — the same order the row path's encoded
// key bytes produce for all-uint keys. gs arrives in creation order,
// which for an unfiled store is that order already (densePush): it
// returns at once. A filed store's groups may still have arrived in
// order — several sorted runs that happened not to interleave — and
// one sequential pass finds out and skips the sort. Otherwise, since
// fixed-width radix keys waste most of their bytes on network data
// (epoch counters and IPv4 words leave high bytes constant), it
// computes OR/AND masks per key word over the whole set and
// MSD-radix-sorts over only the byte positions that actually vary.
func (o *Aggregate) denseSort(gs []int32, nk, eIdx int) {
	o.sortedGroups += len(gs)
	if !o.denseFiled {
		return
	}
	if len(gs) <= radixCutoff {
		o.denseInsertion(gs, nk, eIdx)
		return
	}
	k := 1
	for k < len(gs) && o.denseKeyLess(gs[k-1], gs[k], nk, eIdx) {
		k++
	}
	if k == len(gs) {
		return
	}
	o.radixSorts++
	pos := o.densePos[:0]
	addWord := func(wi int) {
		var orw uint64
		andw := ^uint64(0)
		for _, g := range gs {
			w := o.colWords[int(g)*nk+wi]
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
	if cap(o.denseRows) < len(gs) {
		o.denseRows = make([]int32, len(gs))
	}
	o.denseRadix(gs, o.denseRows[:len(gs)], pos, nk, eIdx, 0)
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
			counts[byte(o.colWords[int(g)*nk+wi]>>sh)]++
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
			b := byte(o.colWords[int(g)*nk+wi] >> sh)
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

// denseCompact slides the surviving groups' key words and state words
// down over the retired ones, in place — a survivor only ever moves to
// a lower index. A filed store then resets its table and files them
// again; an unfiled one stays unfiled, since a subsequence of a sorted
// run is still one.
func (o *Aggregate) denseCompact(retired func(int) bool, nk, eIdx int) {
	n := 0
	for g := 0; g < o.denseN; g++ {
		if retired(g) {
			continue
		}
		copy(o.colWords[n*nk:(n+1)*nk], o.colWords[g*nk:(g+1)*nk])
		for j, w := range o.denseAccW {
			w[n] = w[g]
			if o.denseAcc[j].aux() {
				o.denseAux[j][n] = o.denseAux[j][g]
			}
		}
		n++
	}
	o.colWords, o.denseN, o.minSet = o.colWords[:n*nk], n, false
	for j, kind := range o.denseAcc {
		o.denseAccW[j] = o.denseAccW[j][:n]
		if kind.aux() {
			o.denseAux[j] = o.denseAux[j][:n]
		}
	}
	for g := 0; g < n; g++ {
		o.noteEpochWord(o.colWords[g*nk+eIdx])
	}
	if o.denseFiled {
		o.colTab.reset()
		o.denseFile(nk)
	}
}

// colKeysReady reports whether every key of the side has a uint kernel
// that is never Int.
func (s *JoinSideConfig) colKeysReady() bool {
	if len(s.ColKeys) != len(s.Keys) {
		return false
	}
	for i := range s.ColKeys {
		if k := &s.ColKeys[i]; k.U == nil || k.ints != nil {
			return false
		}
	}
	return true
}

// inputReads is the side's need in the word layout; a row-layout join
// has not derived one.
func (p *joinPort) inputReads() uint64 {
	switch {
	case !p.j.words:
		return allCols
	case p.left:
		return p.j.left.need
	default:
		return p.j.right.need
	}
}

// PushCols implements ColConsumer. A word-layout join takes a batch of
// the side's width whose key and kept columns are plain uint words as
// it is: key kernels over the columns,
// then build and probe on words (pushWords), which sends the batch's
// matches downstream as one column batch — or leaves them in outBuf as
// rows, when a residual or projection kernel is missing. Any other
// batch migrates the join to the row layout, which pivots to durable
// rows and runs the per-tuple build/probe.
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
	b := cb.AppendRows(GetBatch())
	j.pushRows(b, p.left)
	j.deliver()
	PutBatch(b)
}

// pushWords is the word layout's build/probe over a whole batch. The
// side's key kernels produce one vector per key and the batch's key
// words hash in one column-major pass (hashRows); then each run of rows
// with one temporal key, in turn, appends its stored columns' words to
// its side of that key's pane column by column, and resolves each row,
// in row order, to its key group with one probe of the pane's slot table
// (word equality is key equality for uints, see Aggregate.PushCols),
// filing a new group's key words on a miss. The group gives the row the
// opposite side's chain to match and its own to join, in arrival order
// — no row tuple, no key encoding, no map. A key-equal pair costs its
// kept words, copied into the next row of gather: left ++ right, in
// arrival-row then chain order, which is the row layout's output order;
// the stored entry's columns a key reads come from the row's key words.
// emitPairs turns the batch's pairs into output. It reports false,
// having done nothing, for a batch the layout cannot hold: one whose key
// or kept columns are not plain uint words (joinSide.need), or of
// another width.
//
//qap:hot
func (j *Join) pushWords(cb *ColBatch, left bool) bool {
	side, mine, other, s := &j.cfg.Left, &j.left, &j.right, 0
	// ac and sc are the gather columns the arriving and the stored row
	// start at.
	ac, sc := 0, j.cfg.Left.Width
	if !left {
		side, mine, other, s = &j.cfg.Right, &j.right, &j.left, 1
		ac, sc = sc, 0
	}
	// The width check is what keeps every column index in range: key
	// kernels and kept lists both assume the side's width.
	if len(cb.Cols) != side.Width || !cb.plainWords(mine.need) {
		return false
	}
	kvs := j.colKeyVecs[:0]
	for i := range side.ColKeys {
		kvs = append(kvs, side.ColKeys[i].U(cb))
	}
	j.colKeyVecs = kvs
	if len(j.hashes) < cb.Len {
		j.growGather(cb.Len)
	}
	hs := hashRows(j.hashes[:cb.Len], kvs, 0)
	nk, mw, ow := len(kvs), len(mine.rowCols), len(other.rowCols)
	tv := kvs[side.TemporalIdx]
	n := 0
	for lo, hi := 0, 0; lo < cb.Len; lo = hi {
		for hi = lo + 1; hi < cb.Len && tv[hi] == tv[lo]; hi++ {
		}
		p := j.pane(sqlval.Uint(tv[lo]))
		if p.tab.slots == nil {
			p.initWords(j.cfg.SizeHint, len(j.left.rowCols), len(j.right.rowCols), nk)
		}
		own, opp := &p.side[s], &p.side[1-s]
		base, rb := len(own.links), len(own.rows)
		own.links = slices.Grow(own.links, hi-lo)[:base+hi-lo]
		own.rows = slices.Grow(own.rows, (hi-lo)*mw)[:rb+(hi-lo)*mw]
		for k, c := range mine.rowCols {
			dst := own.rows[rb+k:]
			for r, w := range cb.Cols[c].U64[lo:hi] {
				dst[r*mw] = w
			}
		}
		for i := lo; i < hi; i++ {
			idx := int32(base + i - lo)
			g, at := p.tab.find(hs[i], p.keys, kvs, i)
			if g < 0 {
				g = p.group()
				for _, kv := range kvs {
					p.keys = append(p.keys, kv[i])
				}
				p.tab.insert(at, hs[i], g)
			}
			own.links[idx] = wordLink{next: -1, grp: g}
			for e := p.groups[g].head[1-s]; e >= 0; e = opp.links[e].next {
				if n == len(j.hashes) {
					j.growGather(n + 1)
				}
				for _, c := range mine.keep {
					j.gatherW[ac+c][n] = cb.Cols[c].U64[i]
				}
				for k, w := range opp.rows[int(e)*ow : int(e+1)*ow] {
					j.gatherW[sc+other.rowCols[k]][n] = w
				}
				for _, kc := range other.keyCols {
					j.gatherW[sc+kc.col][n] = kvs[kc.key][i]
				}
				n++
				if j.lateFlags {
					j.pairs = append(j.pairs, pairRef{p, idx, e})
				} else {
					own.links[idx].matched, opp.links[e].matched = true, true
				}
			}
			if prev := p.chain(g, s, idx); prev >= 0 {
				own.links[prev].next = idx
			}
		}
	}
	j.stored += cb.Len
	if n > 0 {
		j.emitPairs(n, s)
	}
	return true
}

// gatherMin is the pair capacity gather starts from: a default-size
// input batch's worth.
const gatherMin = 256

// growGather at least doubles gather's columns and the hash column, to
// need rows or more, all carved from one slab: a join sizes it once, or
// a few times when a batch is longer, or matches longer chains, than
// any before. The columns no side keeps all get one zero column.
//
//qap:hot
func (j *Join) growGather(need int) {
	rows := max(gatherMin, 2*len(j.hashes), need)
	slab := make([]uint64, (2+len(j.gathered))*rows) //qap:allow hotalloc -- once per join, doubling only past a batch's worth of rows or pairs
	for c := range j.gatherW {
		if !slices.Contains(j.gathered, c) {
			j.gatherW[c] = slab[:rows:rows]
		}
	}
	hashes := slab[rows : 2*rows : 2*rows]
	copy(hashes, j.hashes)
	j.hashes = hashes
	for k, c := range j.gathered {
		dst := slab[(2+k)*rows : (3+k)*rows : (3+k)*rows]
		copy(dst, j.gatherW[c])
		j.gatherW[c] = dst
	}
}

// emitPairs turns gather's first n rows, the input batch's key-equal
// pairs, into output; s is the side the batch arrived on. With every
// kernel present, Residual and Projs run over them as a FilterProject —
// how Aggregate.emit runs HAVING and Post — and the result goes
// downstream as columns: no row is made, and a projected subtraction
// (S2.time - S1.time) marks the pairs where it is an Int. Otherwise each
// pair's row is made from gather's words for the row closures, NULL in
// the columns no side keeps, and emit buffers the result for the caller
// to deliver exactly as the row layout does. An outer join with a
// residual always takes this second way: it needs the verdict per pair,
// to mark the pair's two entries matched.
//
//qap:hot
func (j *Join) emitPairs(n, s int) {
	g := &j.gather
	for c := range g.Cols {
		g.Cols[c].U64 = j.gatherW[c][:n]
	}
	g.Len = n
	if j.colEmit {
		j.colEmits++
		if work := j.out.colApply(g); work != nil {
			PushColsAll(j.cfg.Out, work)
		}
		return
	}
	j.rowEmits++
	comb := j.combBuf[:len(g.Cols)]
	clear(comb)
	for k := 0; k < n; k++ {
		for _, c := range j.gathered {
			comb[c] = sqlval.Uint(g.Cols[c].U64[k])
		}
		if j.cfg.Residual != nil && !j.cfg.Residual(comb).AsBool() {
			continue
		}
		if j.lateFlags {
			pr := &j.pairs[k]
			pr.p.side[s].links[pr.mi].matched, pr.p.side[1-s].links[pr.oi].matched = true, true
		}
		j.emit(comb)
	}
	j.pairs = j.pairs[:0]
}

// keptRow fills the side's kept columns of row, a full-width row of the
// side, with word entry e of rows and keys, its group's key words; its
// other columns stay as they are.
//
//qap:hot
func (s *joinSide) keptRow(row Tuple, rows []uint64, e int, keys []uint64) Tuple {
	w := rows[e*len(s.rowCols) : (e+1)*len(s.rowCols)]
	for k, c := range s.rowCols {
		row[c] = sqlval.Uint(w[k])
	}
	for _, kc := range s.keyCols {
		row[kc.col] = sqlval.Uint(keys[kc.key])
	}
	return row
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
// its slabs: hint keys, and hint entries a side at lw and rw stored
// words, so a warm run pays no doubling chain.
//
//qap:hot
func (p *joinPane) initWords(hint, lw, rw, nk int) {
	p.tab.init(joinSlotsMin, hint)
	if hint > 0 {
		//qap:allow hotalloc -- once per concurrently live pane, then recycled
		p.keys, p.groups = make([]uint64, 0, hint*nk), make([]joinGroup, 0, hint)
		for s, w := range [2]int{lw, rw} {
			//qap:allow hotalloc -- once per concurrently live pane, then recycled
			p.side[s].rows, p.side[s].links = make([]uint64, 0, hint*w), make([]wordLink, 0, hint)
		}
	}
}

// migrate is the one-way switch to the row layout, taken before the
// first input the word layout cannot hold (like Aggregate.denseMigrate):
// every pane keeps its groups and chains, each group gets its interned
// key encoding, and both sides' entries rebuild index for index —
// full-width tuples from the kept words, NULL in every other column,
// which nothing reads; matched flags from the links — so the row path
// continues as if it had stored them. Every word slab and table goes,
// recycled panes' included.
//
//qap:hot
func (j *Join) migrate() {
	j.words = false
	nk := len(j.cfg.Left.Keys)
	vals, kb := make(Tuple, nk), []byte(nil) //qap:allow hotalloc -- the one-off rebuild's key scratch
	for _, p := range j.panes {
		//qap:allow hotalloc -- the one-off rebuild: the pane's index and key encodings
		p.heads, p.names = make(map[string]int32, len(p.groups)), make([]string, len(p.groups))
		for g := range p.groups {
			kb = AppendKey(kb[:0], uintRow(vals, p.keys[g*nk:]))
			p.names[g] = string(kb)
			p.heads[p.names[g]] = int32(g)
		}
		for s, sd := range [2]*joinSide{&j.left, &j.right} {
			w := j.cfg.Left.Width
			if s == 1 {
				w = j.cfg.Right.Width
			}
			ps := &p.side[s]
			n := len(ps.links)
			//qap:allow hotalloc -- the one-off rebuild: the side's tuples and entry slab
			backing, entries := make([]sqlval.Value, n*w), make([]joinEntry, n)
			for e, l := range ps.links {
				row := sd.keptRow(backing[e*w:(e+1)*w:(e+1)*w], ps.rows, e, p.keys[int(l.grp)*nk:])
				entries[e] = joinEntry{tuple: row, next: l.next, grp: l.grp, matched: l.matched}
			}
			ps.entries = entries
		}
		p.dropWords()
	}
	for _, p := range j.free {
		p.dropWords()
	}
}

// dropWords releases the pane's word slabs and table.
func (p *joinPane) dropWords() {
	p.keys, p.tab = nil, wordTable{}
	for s := range p.side {
		p.side[s].rows, p.side[s].links = nil, nil
	}
}
