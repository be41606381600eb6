package exec

import (
	"bytes"
	"slices"
	"strings"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// FilterProject applies an optional predicate and an optional
// projection; with both nil it is a pass-through.
type FilterProject struct {
	Filter EvalFunc   // nil passes all tuples
	Projs  []EvalFunc // nil forwards tuples unchanged
	Out    Consumer

	// ColFilter/ColProjs are the column-compiled forms of Filter and
	// Projs (CompileCol); when set and their kernels apply, PushCols
	// runs vectorized (colops.go). Optional: the row closures above
	// remain the semantic oracle and the fallback.
	ColFilter *ColExpr
	ColProjs  []ColExpr

	lastWM  uint64
	wmSeen  bool
	flushed bool

	// outVals is the chunked slab row-path projections carve their
	// output rows from (project); the rows keep it for good.
	outVals []sqlval.Value

	// Columnar-path scratch (colops.go): the filter-compacted input
	// columns and the projected output batch, reused across PushCols
	// calls. Downstream consumers see them only during the call.
	colPass ColBatch
	colOut  ColBatch
}

// Push implements Consumer.
//
//qap:hot
func (o *FilterProject) Push(t Tuple) {
	if o.Filter != nil && !o.Filter(t).AsBool() {
		return
	}
	if o.Projs == nil {
		o.Out.Push(t)
		return
	}
	o.Out.Push(project(&o.outVals, o.Projs, t))
}

// project evaluates projs over t into the chunked slab *vals and returns
// the row it carved there. The rows keep the slab for good, so a row
// costs an allocation per slabChunk rows, not one of its own.
//
//qap:hot
func project(vals *[]sqlval.Value, projs []EvalFunc, t Tuple) Tuple {
	s := *vals
	if cap(s)-len(s) < len(projs) {
		s = make([]sqlval.Value, 0, len(projs)*slabChunk) //qap:allow hotalloc -- slab refill, amortized over slabChunk rows
	}
	start := len(s)
	for _, p := range projs {
		s = append(s, p(t))
	}
	*vals = s
	return Tuple(s[start:len(s):len(s)])
}

// Advance implements Consumer.
func (o *FilterProject) Advance(wm uint64) {
	if o.wmSeen && wm <= o.lastWM {
		return
	}
	o.lastWM, o.wmSeen = wm, true
	o.Out.Advance(wm)
}

// Flush implements Consumer.
func (o *FilterProject) Flush() {
	if o.flushed {
		return
	}
	o.flushed = true
	o.Out.Flush()
}

// Union merges several input streams into one output. Create it with
// NewUnion, then attach each upstream to its own port (Port(i)). The
// union forwards the *minimum* watermark over its ports — an upstream
// aggregate flushing epoch e on its own Advance must deliver those
// rows before a downstream consumer (a super-aggregate, say) closes
// epoch e, so the union may not advance until every input has. Flush
// is likewise forwarded only after every port has flushed.
type Union struct {
	Out Consumer

	ports       []*unionPort
	lastWM      uint64
	wmForwarded bool
	flushed     int
}

// NewUnion creates a union with n input ports.
func NewUnion(n int, out Consumer) *Union {
	u := &Union{Out: out}
	u.ports = make([]*unionPort, n)
	for i := range u.ports {
		u.ports[i] = &unionPort{u: u}
	}
	return u
}

// Port returns the i'th input port.
func (u *Union) Port(i int) Consumer { return u.ports[i] }

// Inputs reports the number of ports.
func (u *Union) Inputs() int { return len(u.ports) }

// maybeAdvance forwards the minimum watermark across ports when it
// increases. Ports that have flushed no longer constrain the minimum.
func (u *Union) maybeAdvance() {
	min := ^uint64(0)
	live := false
	for _, p := range u.ports {
		if p.flushed {
			continue
		}
		live = true
		if !p.wmSeen {
			return // a port has not advanced yet
		}
		if p.wm < min {
			min = p.wm
		}
	}
	if !live {
		return
	}
	if !u.wmForwarded || min > u.lastWM {
		u.lastWM, u.wmForwarded = min, true
		u.Out.Advance(min)
	}
}

type unionPort struct {
	u       *Union
	wm      uint64
	wmSeen  bool
	flushed bool
}

func (p *unionPort) Push(t Tuple) { p.u.Out.Push(t) }

func (p *unionPort) Advance(wm uint64) {
	if p.wmSeen && wm <= p.wm {
		return
	}
	p.wm, p.wmSeen = wm, true
	p.u.maybeAdvance()
}

func (p *unionPort) Flush() {
	if p.flushed {
		return
	}
	p.flushed = true
	p.u.flushed++
	if p.u.flushed == len(p.u.ports) {
		p.u.Out.Flush()
		return
	}
	// This port no longer holds the minimum back.
	p.u.maybeAdvance()
}

// AggColumn configures one aggregate of an aggregation operator.
type AggColumn struct {
	Factory AccumFactory
	// Arg evaluates the aggregate argument; nil means COUNT(*)-style
	// (count every tuple).
	Arg EvalFunc
}

// AggregateConfig configures a tumbling-window aggregation.
type AggregateConfig struct {
	// PreFilter applies to input tuples before grouping (a pushed-down
	// WHERE); nil passes everything.
	PreFilter EvalFunc
	// GroupBy computes the group key values from an input tuple.
	GroupBy []EvalFunc
	// EpochIdx is the index in GroupBy of the temporal expression the
	// tumbling window tumbles on; -1 blocks until Flush.
	EpochIdx int
	// EpochOfWM translates a base-time watermark into the minimal
	// epoch value any future tuple can have; groups below it flush.
	// Required when EpochIdx >= 0.
	EpochOfWM func(uint64) sqlval.Value
	// Aggs are the aggregate columns, appended after the group values.
	Aggs []AggColumn
	// ColPreFilter/ColGroupBy/ColArgs are the column-compiled forms of
	// PreFilter, GroupBy, and each AggColumn.Arg (ColArgs is
	// index-aligned with Aggs; nil entries mean COUNT(*)). When set and
	// their kernels apply, PushCols aggregates vectorized (colops.go);
	// otherwise the row path runs. Optional.
	ColPreFilter *ColExpr
	ColGroupBy   []ColExpr
	ColArgs      []*ColExpr
	// ColEmit, when set, delivers each emitted epoch batch through
	// PushColsAll (pivoting the rows into a column batch) instead of
	// PushAll, so a columnar downstream aggregate consumes it on its
	// vectorized path. Observably identical by the ColConsumer
	// contract; rows SetFromRows cannot pivot fall back to PushAll.
	ColEmit bool
	// Having filters finished groups; it sees groups++aggs. Nil passes
	// all groups.
	Having EvalFunc
	// Post computes the output tuple from groups++aggs; nil emits
	// groups++aggs unchanged.
	Post []EvalFunc
	// ColHaving/ColPost are the column-compiled forms of Having and Post
	// (ColPost index-aligned with Post). When set and their kernels
	// apply, a dense aggregate with ColEmit filters and projects an
	// emitted epoch as columns instead of rows (colops.go). Optional.
	ColHaving *ColExpr
	ColPost   []ColExpr
	Out       Consumer
	// OnEpochFlush, when set, observes every non-empty emission: wm is
	// the watermark that closed the epochs (the last one seen; 0 at a
	// data-free Flush), groups the closed (epoch, group) states, rows
	// the result rows emitted after HAVING. Purely observational — it
	// runs after the rows are pushed and must not touch them.
	OnEpochFlush func(wm uint64, groups, rows int)
	// SizeHint pre-sizes the group hash state to an expected live group
	// count, typically a previous run's GroupHighWater (the cluster
	// runner threads these across Deployment.Run calls). Purely a
	// warm-start performance knob: no output depends on it.
	SizeHint int
}

type groupState struct {
	// key is the group's encoded AppendKey bytes, carved from keySlab.
	// The groups map owns its own string copy of it.
	key   []byte
	vals  []sqlval.Value
	accs  []Accum
	epoch sqlval.Value
}

// Aggregate is the tumbling-window aggregation operator. It maintains
// one accumulator row per group and emits each group exactly once,
// when the watermark passes the group's epoch (or at Flush). Tuples
// arriving after their epoch closed (watermark violations) are counted
// and dropped rather than silently re-opening the group, which would
// emit a duplicate partial result downstream.
type Aggregate struct {
	cfg    AggregateConfig
	groups map[string]*groupState

	// Late counts dropped watermark-violating tuples.
	Late int64

	boundary    sqlval.Value
	boundarySet bool
	lastWM      uint64
	wmSeen      bool
	flushed     bool

	// Row-path scratch and slabs. valsBuf/keyBuf are reused per
	// tuple (the key encoding probes the map via string(keyBuf), which
	// Go compiles without a copy); the slabs carve groupState structs,
	// stored group values, and accumulator slots out of chunked arrays
	// so a new group costs amortized rather than per-group allocations.
	valsBuf   []sqlval.Value
	keyBuf    []byte
	stateSlab []groupState
	valSlab   []sqlval.Value
	accSlab   []Accum
	keySlab   []byte
	// emitBuf, rowBuf and outVals are flush-path scratch (emitRows): the
	// batch container reused across epochs, the groups++aggs row Having
	// and Post read but downstream never sees, and the slab output rows
	// are carved from and keep for good. doneBuf collects the epoch's
	// retired groups for sorting and is reused across epochs (it holds
	// stale *groupState pointers between flushes, bounding retention to
	// one epoch's cardinality).
	emitBuf Batch
	rowBuf  Tuple
	outVals []sqlval.Value
	doneBuf []*groupState
	// minEpoch tracks the smallest non-NULL epoch among live groups, so
	// an Advance whose boundary has not passed it skips the full group
	// scan — most watermarks close no epoch but would otherwise pay
	// O(groups) compares each.
	minEpoch sqlval.Value
	minWord  uint64 // see noteEpochWord
	minSet   bool

	// Column-path state (colops.go): colReady memoizes whether the dense
	// store takes column batches (colSupported), colNoInt the columns
	// whose Int rows send a batch to the row store instead; the rest is
	// per-batch kernel vector scratch, an Int bitmap per argument beside
	// its words, and the rows' key hashes.
	colReady   int8 // 0 unknown, 1 dense, -1 row store only
	colNoInt   uint64
	colReads   uint64 // inputReads, set with colReady
	colKeyVecs [][]uint64
	colHashes  [256]uint64
	colArgVecs [][]uint64
	colArgInts [][]uint64
	// emitCols is the ColEmit scratch (see AggregateConfig): the pivot of
	// emitted rows, or the dense store's groups ++ aggs columns, which
	// emit — Having and Post as a FilterProject — filters and projects;
	// emitReads is what those kernels read. judge holds only those
	// columns of an epoch's retired groups, for HAVING to run before
	// the sort (denseHaving); zeroW is the zero column the rest of
	// judge's columns point at.
	emitCols  ColBatch
	emit      FilterProject
	emitReads uint64
	judge     ColBatch
	zeroW     []uint64

	// Dense columnar group store (colops.go): while every input batch
	// is uint words and every aggregate is word-vectorizable, groups live
	// as struct-of-arrays — group g's key words at colWords[g*nk:], the
	// slab colTab resolves through, and one state word per (agg, group)
	// in denseAccW — with no groupState, no map entry and no Accum
	// objects. The first row-path push or non-conforming batch migrates
	// every dense group into the row store (denseMigrate); dense mode
	// only (re-)activates while the map is empty, so at any instant
	// either the dense arrays or the map own the groups, never both.
	// denseFiled says colTab indexes the groups; until then they are a
	// sorted run the table is not needed for (densePush).
	denseFiled bool
	colTab     wordTable
	colWords   []uint64
	denseAcc   []denseAccKind
	denseN     int
	denseAccW  [][]uint64 // per agg: one state word per group
	denseAux   [][]uint64 // per agg: AVG's count, MIN's or MAX's kind (1 = Int) per group; empty for the rest
	denseInts  bool       // some MIN or MAX state may be an Int
	colEmitOK  bool       // see denseInit
	denseDone  []int32
	denseRows  []int32
	denseSlots []int32
	densePos   []uint16
	hiGroups   int
	// kernelEmits and radixSorts count dense emissions that ran HAVING
	// and the projection as kernels, and that needed the radix sort;
	// sortedGroups the groups handed to denseSort; denseIn the input
	// rows the dense store took. Tests read them to know which path
	// they exercised.
	kernelEmits, radixSorts, sortedGroups int
	denseIn                               int64
}

// slabChunk is how many groups' worth of state one slab chunk holds.
const slabChunk = 256

// NewAggregate builds the operator. The groups map is made on the first
// row-path insert (register): the dense store never touches it.
func NewAggregate(cfg AggregateConfig) *Aggregate {
	return &Aggregate{cfg: cfg, emit: FilterProject{
		Filter: cfg.Having, ColFilter: cfg.ColHaving, Projs: cfg.Post, ColProjs: cfg.ColPost}}
}

// register enters a group in the map the row path looks groups up in.
func (o *Aggregate) register(key string, gs *groupState) {
	if o.groups == nil {
		o.groups = make(map[string]*groupState, o.cfg.SizeHint)
	}
	o.groups[key] = gs
}

// Push implements Consumer: group values evaluate into reused scratch,
// the key encodes into a reused buffer, and the map is probed without
// materializing a key string unless the group is new.
//
//qap:hot
func (o *Aggregate) Push(t Tuple) {
	if o.cfg.PreFilter != nil && !o.cfg.PreFilter(t).AsBool() {
		return
	}
	vals := o.valsBuf[:0]
	for _, g := range o.cfg.GroupBy {
		vals = append(vals, g(t))
	}
	o.valsBuf = vals
	if o.boundarySet && o.cfg.EpochIdx >= 0 &&
		!vals[o.cfg.EpochIdx].IsNull() && vals[o.cfg.EpochIdx].Compare(o.boundary) < 0 {
		o.Late++
		return
	}
	key := AppendKey(o.keyBuf[:0], vals)
	o.keyBuf = key
	if o.denseN > 0 {
		o.denseMigrate()
	}
	gs, ok := o.groups[string(key)]
	if !ok {
		gs = o.newGroup(key, vals)
		o.register(string(key), gs)
	}
	for i, a := range o.cfg.Aggs {
		if a.Arg == nil {
			gs.accs[i].Add(sqlval.Uint(1))
		} else {
			gs.accs[i].Add(a.Arg(t))
		}
	}
}

// newGroup carves a fresh group's state from the slabs; registering it
// is the caller's job. key and vals are caller-owned scratch and are
// copied.
func (o *Aggregate) newGroup(key []byte, vals []sqlval.Value) *groupState {
	if len(o.stateSlab) == 0 {
		o.stateSlab = make([]groupState, slabChunk)
	}
	gs := &o.stateSlab[0]
	o.stateSlab = o.stateSlab[1:]

	nv := len(o.cfg.GroupBy)
	if len(o.valSlab)+nv > cap(o.valSlab) {
		o.valSlab = make([]sqlval.Value, 0, max(slabChunk*nv, nv))
	}
	start := len(o.valSlab)
	o.valSlab = o.valSlab[:start+nv]
	stored := o.valSlab[start : start+nv : start+nv]
	copy(stored, vals)

	na := len(o.cfg.Aggs)
	if len(o.accSlab)+na > cap(o.accSlab) {
		o.accSlab = make([]Accum, 0, max(slabChunk*na, na))
	}
	astart := len(o.accSlab)
	o.accSlab = o.accSlab[:astart+na]
	accs := o.accSlab[astart : astart+na : astart+na]
	for i, a := range o.cfg.Aggs {
		accs[i] = a.Factory()
	}

	if len(o.keySlab)+len(key) > cap(o.keySlab) {
		o.keySlab = make([]byte, 0, max(slabChunk*32, len(key)))
	}
	kstart := len(o.keySlab)
	o.keySlab = append(o.keySlab, key...)
	stored2 := o.keySlab[kstart:len(o.keySlab):len(o.keySlab)]

	gs.key, gs.vals, gs.accs = stored2, stored, accs
	if o.cfg.EpochIdx >= 0 {
		gs.epoch = stored[o.cfg.EpochIdx]
		o.noteEpoch(gs.epoch)
	}
	return gs
}

// noteEpoch folds a new group's epoch into the live minimum.
func (o *Aggregate) noteEpoch(epoch sqlval.Value) {
	if !epoch.IsNull() && (!o.minSet || epoch.Compare(o.minEpoch) < 0) {
		o.minEpoch, o.minSet = epoch, true
	}
}

// Advance implements Consumer: groups whose epoch precedes every
// possible future epoch are finished and emitted.
func (o *Aggregate) Advance(wm uint64) {
	if o.wmSeen && wm <= o.lastWM {
		return
	}
	o.lastWM, o.wmSeen = wm, true
	if o.cfg.EpochIdx >= 0 && o.cfg.EpochOfWM != nil {
		boundary := o.cfg.EpochOfWM(wm)
		o.boundary, o.boundarySet = boundary, true
		o.emitBefore(&boundary)
	}
	o.Out().Advance(wm)
}

// Flush implements Consumer: every remaining group is emitted.
func (o *Aggregate) Flush() {
	if o.flushed {
		return
	}
	o.flushed = true
	o.emitBefore(nil)
	o.Out().Flush()
}

// Out returns the downstream consumer.
func (o *Aggregate) Out() Consumer { return o.cfg.Out }

// DenseRows reports how many input rows arrived as columns the dense
// store took: the rest went through the row store.
func (o *Aggregate) DenseRows() int64 { return o.denseIn }

// GroupCount reports the live (unflushed) group count, used by memory
// accounting and tests.
func (o *Aggregate) GroupCount() int { return len(o.groups) + o.denseN }

// GroupHighWater reports the peak live group count the operator has
// held, the natural AggregateConfig.SizeHint for a later run of the
// same plan. Peaks occur just before emission, so emitBefore samples
// the count on entry.
func (o *Aggregate) GroupHighWater() int {
	if n := o.GroupCount(); n > o.hiGroups {
		o.hiGroups = n
	}
	return o.hiGroups
}

// emitBefore flushes groups with epoch < boundary (all groups when
// boundary is nil), in deterministic (epoch, key) order. The dense store
// sorts with its own radix (denseSort); the row store compares epochs
// with sqlval's Compare and then the encoded key bytes, a total order
// because every key embeds its epoch and so is unique.
func (o *Aggregate) emitBefore(boundary *sqlval.Value) {
	if n := o.GroupCount(); n > o.hiGroups {
		o.hiGroups = n
	}
	if boundary != nil && (!o.minSet || o.minEpoch.Compare(*boundary) >= 0) {
		// No live group's epoch precedes the boundary (NULL-epoch groups
		// only drain at Flush): nothing to emit, skip the group scan.
		return
	}
	if o.denseN > 0 {
		// Dense mode owns every live group (the map is empty by
		// invariant); it drains, sorts and emits from the flat arrays
		// directly.
		o.denseEmit(boundary)
		return
	}
	done := o.doneBuf[:0]
	var survMin sqlval.Value
	survSet := false
	for _, gs := range o.groups { //qap:allow maprange -- groups collected then sorted below
		if boundary != nil && (gs.epoch.IsNull() || gs.epoch.Compare(*boundary) >= 0) {
			if !gs.epoch.IsNull() && (!survSet || gs.epoch.Compare(survMin) < 0) {
				survMin, survSet = gs.epoch, true
			}
			continue
		}
		done = append(done, gs)
	}
	o.doneBuf = done
	o.minEpoch, o.minSet = survMin, survSet
	if len(done) == 0 {
		return
	}
	if len(done) == len(o.groups) {
		// Every map group drained, and rebuilding the map (pre-sized from
		// this epoch, but not at the terminal Flush) is load-bearing:
		// per-key deletes convert every key over 32 bytes to a fresh
		// string, which took TestAllocsParallelColumnarReplay/section62
		// from 20 276 to 35 708 objects (TestAllocsRowStoreEpochTurnover).
		if boundary == nil {
			o.groups = make(map[string]*groupState)
		} else {
			o.groups = make(map[string]*groupState, len(done))
		}
	} else {
		for _, gs := range done {
			delete(o.groups, string(gs.key))
		}
	}
	slices.SortFunc(done, func(a, b *groupState) int {
		if c := a.epoch.Compare(b.epoch); c != 0 {
			return c
		}
		return bytes.Compare(a.key, b.key)
	})
	rows := o.emitRows(len(done), func(k int, row Tuple) Tuple {
		gs := done[k]
		row = append(row, gs.vals...)
		for _, a := range gs.accs {
			row = append(row, a.Result())
		}
		return row
	})
	if o.cfg.OnEpochFlush != nil {
		o.cfg.OnEpochFlush(o.lastWM, len(done), rows)
	}
}

// emitRows emits n retired groups, already in order, as one row batch
// and returns how many rows HAVING kept; fill appends group k's
// groups++aggs values to the row it is handed. Output rows carve from
// outVals, which downstream retains: without HAVING every group yields
// a row and one exact slab serves the epoch; with it the groups++aggs
// row is judged in scratch first and only kept rows take slab space, a
// chunk at a time, so a selective HAVING allocates for what it keeps
// rather than for what retired. With ColEmit the run goes downstream as
// one column batch when its rows pivot, and is pushed row by row
// otherwise.
//
//qap:hot
func (o *Aggregate) emitRows(n int, fill func(k int, row Tuple) Tuple) int {
	width := len(o.cfg.GroupBy) + len(o.cfg.Aggs)
	if o.cfg.Post != nil {
		width = len(o.cfg.Post)
	}
	if o.cfg.Having == nil {
		o.outVals = make([]sqlval.Value, 0, n*width) //qap:allow hotalloc -- the epoch's output rows, retained by downstream consumers
	}
	out := o.emitBuf[:0]
	for k := 0; k < n; k++ {
		if cap(o.outVals)-len(o.outVals) < width {
			o.outVals = make([]sqlval.Value, 0, slabChunk*width) //qap:allow hotalloc -- slab refill, amortized over slabChunk kept rows
		}
		start := len(o.outVals)
		if o.cfg.Having == nil && o.cfg.Post == nil {
			o.outVals = fill(k, o.outVals) // the row is the output: build it in place
		} else {
			o.rowBuf = fill(k, o.rowBuf[:0])
			if o.cfg.Having != nil && !o.cfg.Having(o.rowBuf).AsBool() {
				continue
			}
			if o.cfg.Post == nil {
				o.outVals = append(o.outVals, o.rowBuf...)
			}
			for _, p := range o.cfg.Post {
				o.outVals = append(o.outVals, p(o.rowBuf))
			}
		}
		out = append(out, Tuple(o.outVals[start:len(o.outVals):len(o.outVals)]))
	}
	o.emitBuf = out
	if o.cfg.ColEmit && len(out) > 0 && o.emitCols.SetFromRows(out) {
		PushColsAll(o.cfg.Out, &o.emitCols)
	} else {
		PushAll(o.cfg.Out, out)
	}
	return len(out)
}

// JoinSideConfig configures one input of a join.
type JoinSideConfig struct {
	// Keys compute the composite equi-join key from a side tuple; the
	// two sides' key lists are index-aligned.
	Keys []EvalFunc
	// ColKeys are the column-compiled forms of Keys. When both sides
	// have a uint kernel for every key, the join keeps its state in the
	// word layout (joinPane) and all-uint input builds and probes from
	// the kernels' key vectors (colops.go); without them, and for good
	// after the first input the word layout cannot hold, state is rows
	// and Keys evaluate per tuple. Optional.
	ColKeys []ColExpr
	// Width is the side's column count: the NULL padding of outer joins
	// and the width every input batch of the word layout must have.
	Width int
	// MinFutureKey gives, for a base-time watermark, the smallest
	// temporal key value any *future* tuple of this side can produce;
	// the opposite side evicts entries below it. Nil disables
	// eviction until Flush.
	MinFutureKey func(uint64) sqlval.Value
	// TemporalIdx is the position of the temporal key within Keys.
	TemporalIdx int
}

// JoinConfig configures a tumbling-window symmetric hash equi-join.
type JoinConfig struct {
	Left, Right JoinSideConfig
	Type        gsql.JoinType
	// Residual filters joined pairs; it sees left columns followed by
	// right columns. Nil passes all pairs.
	Residual EvalFunc
	// Projs compute the output tuple over left++right columns.
	Projs []EvalFunc
	// ColResidual/ColProjs are the column-compiled forms of Residual and
	// Projs (ColProjs index-aligned with Projs). When set and their
	// kernels apply, a word-layout join filters and projects each input
	// batch's matches as columns (colops.go); otherwise, and in the row
	// layout, the row closures above produce rows. Either way their read
	// sets name the only columns a word-layout pane stores. Optional.
	ColResidual *ColExpr
	ColProjs    []ColExpr
	Out         Consumer
	// SizeHint pre-sizes a fresh word-layout pane, typically to a
	// previous run's PaneHighWater (the cluster runner threads these
	// across Deployment.Run calls, like AggregateConfig.SizeHint): each
	// side's slabs for that many entries, and the key slab, the groups
	// and the slot table for that many keys. Purely a warm-start: no
	// output depends on it.
	SizeHint int
}

// joinEntry is one stored tuple of the row layout: the tuple, its key
// group in the pane, and the next entry of the group's chain on its
// side, -1 at the end of the chain.
type joinEntry struct {
	tuple   Tuple
	next    int32
	grp     int32
	matched bool
}

// wordLink is a word-layout entry: joinEntry without the tuple, whose
// words live in its side's rows slab and its group's key words.
type wordLink struct {
	next    int32
	grp     int32
	matched bool
}

// joinGroup is one key of a pane: per side (0 left, 1 right), the first
// and the last entry of the key's chain, head -1 while the side holds
// none. An append never walks a chain.
type joinGroup struct {
	head, tail [2]int32
}

// paneSide is one side's entries of a pane, in arrival order: tuples in
// the row layout; in the word layout, the words of the side's stored
// columns (joinSide.rowCols) at rows[i*len(rowCols)] and links[i].
type paneSide struct {
	entries []joinEntry
	rows    []uint64
	links   []wordLink
}

func (s *paneSide) size() int { return len(s.entries) + len(s.links) }

// joinPane is the join's state for one temporal-key value: both sides'
// entries, filed under one index of key groups, so that an arriving row
// resolves its key once and has the opposite chain to match and its own
// chain to join. Row layout: a map from encoded key to group, and each
// group's encoding in names. Word layout, for uint input (Join.words):
// group g's key words at keys[g*nk:], behind a wordTable (colops.go) —
// no pointer anywhere, so the collector never scans it. A join's panes
// all share one layout.
type joinPane struct {
	tkey   sqlval.Value
	groups []joinGroup
	side   [2]paneSide

	heads map[string]int32
	names []string

	keys []uint64
	tab  wordTable
}

// group appends a key group, both chains empty.
func (p *joinPane) group() int32 {
	p.groups = append(p.groups, joinGroup{head: [2]int32{-1, -1}})
	return int32(len(p.groups) - 1)
}

// chain appends entry e to side s's chain of group g and returns the
// entry e follows, -1 when e heads the chain.
func (p *joinPane) chain(g int32, s int, e int32) int32 {
	gr := &p.groups[g]
	prev := gr.tail[s]
	if gr.head[s] < 0 {
		gr.head[s], prev = e, -1
	}
	gr.tail[s] = e
	return prev
}

// resetSide empties side s, keeping its slabs; the groups stay, with
// the side's chains empty, for late rows of the side to refill.
func (p *joinPane) resetSide(s int) {
	ps := &p.side[s]
	clear(ps.entries)
	ps.entries, ps.rows, ps.links = ps.entries[:0], ps.rows[:0], ps.links[:0]
	for g := range p.groups {
		p.groups[g].head[s] = -1
	}
}

// reset empties a pane whose sides are empty for the free list, keeping
// the map, the slabs and the table for the next epoch.
func (p *joinPane) reset() {
	p.groups = p.groups[:0]
	clear(p.heads)
	clear(p.names)
	p.names, p.keys = p.names[:0], p.keys[:0]
	p.tab.reset()
}

// joinSide is what a word-layout pane stores of one input. keep lists,
// ascending, the columns the residual or a projection reads — every
// column when that is not known (keepCols). A kept column that a key
// kernel reads as a bare reference is read back from its group's key
// words (keyCols), since word equality is key equality for uints; the
// others are stored, rowCols words an entry. need is the read set
// (colBit) of the columns an input batch must hold as plain uint words
// to stay in the word layout: the kept ones and those the key kernels
// read.
type joinSide struct {
	keep, rowCols []int
	keyCols       []keyCol
	need          uint64
}

// keyCol is a kept column served from key word key of its group.
type keyCol struct{ col, key int }

func comparePane(p *joinPane, tkey sqlval.Value) int { return p.tkey.Compare(tkey) }

// pane returns the pane for tkey: the last one resolved, else by binary
// search, else a new one, recycling a dropped pane if any.
//
//qap:hot
func (j *Join) pane(tkey sqlval.Value) *joinPane {
	if p := j.last; p != nil && p.tkey.Compare(tkey) == 0 {
		return p
	}
	i, ok := slices.BinarySearchFunc(j.panes, tkey, comparePane)
	if !ok {
		var p *joinPane
		if n := len(j.free); n > 0 {
			p, j.free = j.free[n-1], j.free[:n-1]
		} else {
			p = &joinPane{} //qap:allow hotalloc -- once per concurrently live pane, then recycled
		}
		p.tkey = tkey
		j.panes = slices.Insert(j.panes, i, p)
	}
	j.last = j.panes[i]
	return j.last
}

// Join is the symmetric hash join. Its state is one pane per temporal-key
// value, in ascending order — normally one or two are live: each
// arriving tuple resolves its key group in its temporal key's pane,
// matches the opposite side's chain there and joins its own.
// Watermarks expire each side of the panes that side can no longer
// match in, emitting outer-join padding for unmatched rows; a pane
// neither side holds anything of is dropped. last is the pane the
// previous lookup resolved; free holds dropped panes, whose index and
// slabs the next epoch reuses.
type Join struct {
	cfg         JoinConfig
	panes       []*joinPane
	last        *joinPane
	free        []*joinPane
	left, right joinSide
	stored      int
	hiPane      int
	leftPort    joinPort
	rightPort   joinPort
	lastWM      uint64
	wmSeen      bool
	flushCount  int
	flushed     bool

	// words is set while every pane is in the word layout: from NewJoin
	// when both sides' key kernels compiled, until the first input that
	// is not an all-uint batch of its side's width (migrate, colops.go).
	words bool

	// Row-layout scratch reused per tuple: key values and key encoding.
	valsBuf []sqlval.Value
	keyBuf  []byte
	// combBuf is the combined left++right row Residual and Projs read,
	// rebuilt per candidate pair or padded row; nulls is the wider
	// side's worth of NULLs for outer-join padding.
	combBuf Tuple
	nulls   Tuple
	// Output rows are projected into outVals, a chunked slab they keep
	// for good, and wait in outBuf until the call that produced them
	// delivers them.
	outVals []sqlval.Value
	outBuf  Batch
	// padIdx collects an expiring side's unmatched entries.
	padIdx []int32
	// Word-layout scratch (colops.go): the batch's key vectors and row
	// hashes, the column batch row input is pivoted into, and a padded
	// or migrated entry's row as values.
	colKeyVecs [][]uint64
	hashes     []uint64
	rowCols    ColBatch
	wordRow    Tuple
	// The word layout's output side (colops.go). gather holds the input
	// batch's key-equal pairs, left ++ right, one column each; only the
	// gathered columns, the two sides' kept ones, hold words, and the
	// rest all read one zero column. gatherW are its columns at full
	// capacity. out is Residual and Projs as a FilterProject, colEmit
	// whether it has every kernel it runs. An outer join with a residual
	// marks a pair's entries matched only after the residual's verdict
	// (lateFlags) and finds them through pairs, index-aligned with
	// gather's rows.
	gather    ColBatch
	gatherW   [][]uint64
	gathered  []int
	out       FilterProject
	colEmit   bool
	lateFlags bool
	pairs     []pairRef
	// colEmits and rowEmits count the input batches whose matches went
	// downstream as columns, and as rows made from gather; tests read
	// them to know which path they exercised.
	colEmits, rowEmits int
}

// pairRef names a gathered pair: its pane, the arriving row's entry
// and the stored entry it matched.
type pairRef struct {
	p      *joinPane
	mi, oi int32
}

// NewJoin builds the operator.
func NewJoin(cfg JoinConfig) *Join {
	lw, rw := cfg.Left.Width, cfg.Right.Width
	// The three value scratches share one slab: combBuf's capacity ends
	// where nulls begins, so an append past it cannot reach them.
	m := max(lw, rw)
	vals := make(Tuple, lw+rw+2*m)
	j := &Join{
		cfg:     cfg,
		words:   cfg.Left.colKeysReady() && cfg.Right.colKeysReady(),
		combBuf: vals[: 0 : lw+rw],
		nulls:   vals[lw+rw : lw+rw+m : lw+rw+m],
		wordRow: vals[lw+rw+m:],
		out: FilterProject{Filter: cfg.Residual, ColFilter: cfg.ColResidual,
			Projs: cfg.Projs, ColProjs: cfg.ColProjs},
		lateFlags: cfg.Residual != nil && cfg.Type != gsql.JoinInner,
	}
	j.colEmit = len(cfg.Projs) > 0 && j.out.colReady() && !j.lateFlags
	if j.words {
		j.gatherW, j.gather.Cols = make([][]uint64, lw+rw), make([]ColVec, lw+rw)
		for c := range j.gather.Cols {
			j.gather.Cols[c].Kind = sqlval.KindUint
		}
		j.keepCols()
	}
	j.leftPort = joinPort{j: j, left: true}
	j.rightPort = joinPort{j: j}
	return j
}

// keepCols derives what each side of a word-layout join stores: the
// columns the residual or any projection reads. Their read sets are
// exact for every compiled expression, kernel or not, and the row
// closures read what their column forms do. Every column is kept when
// that cannot be relied on: projections that are not index-aligned
// column forms, a residual without its column form, or more columns
// than a read set tells apart (colBit). One slab holds both sides'
// lists and gathered, the kept columns as gather columns.
func (j *Join) keepCols() {
	cfg := &j.cfg
	lw, rw := cfg.Left.Width, cfg.Right.Width
	reads := ^uint64(0)
	if len(cfg.ColProjs) == len(cfg.Projs) && (cfg.Residual == nil || cfg.ColResidual != nil) && lw+rw <= 63 {
		reads = 0
		if cfg.ColResidual != nil {
			reads = cfg.ColResidual.reads
		}
		for i := range cfg.ColProjs {
			reads |= cfg.ColProjs[i].reads
		}
	}
	slab := make([]int, 0, 2*(lw+rw))
	for c := 0; c < lw+rw; c++ {
		if reads&colBit(c) != 0 {
			slab = append(slab, c)
		}
	}
	n := len(slab)
	j.gathered = slab[:n:n]
	for _, c := range j.gathered {
		if c >= lw {
			c -= lw
		}
		slab = append(slab, c)
	}
	nl, _ := slices.BinarySearch(j.gathered, lw)
	j.left.keep, j.right.keep = slab[n:n+nl:n+nl], slab[n+nl:]
	j.left.split(&cfg.Left)
	j.right.split(&cfg.Right)
}

// split derives the side's rowCols, keyCols and need from its keep list
// and its key kernels.
func (s *joinSide) split(side *JoinSideConfig) {
	for i := range side.ColKeys {
		s.need |= side.ColKeys[i].reads
	}
	for _, c := range s.keep {
		s.need |= colBit(c)
		k := slices.IndexFunc(side.ColKeys, func(key ColExpr) bool { return key.ref == c+1 })
		if k < 0 {
			s.rowCols = append(s.rowCols, c)
		} else {
			s.keyCols = append(s.keyCols, keyCol{col: c, key: k})
		}
	}
}

// LeftIn returns the left input port.
func (j *Join) LeftIn() Consumer { return &j.leftPort }

// RightIn returns the right input port.
func (j *Join) RightIn() Consumer { return &j.rightPort }

type joinPort struct {
	j    *Join
	left bool
}

// Push implements Consumer: the tuple's joined rows go downstream before
// it returns.
func (p *joinPort) Push(t Tuple) {
	p.j.pushRows(Batch{t}, p.left)
	p.j.deliver()
}

func (p *joinPort) Advance(wm uint64) { p.j.advance(wm) }
func (p *joinPort) Flush()            { p.j.portFlush() }

// pushRows stores a run of row tuples. A word-layout join pivots it
// into its scratch column batch and takes the column path; rows that
// batch cannot hold — a NULL or a non-uint value anywhere, a width
// other than the side's — migrate the join to the row layout first.
//
//qap:hot
func (j *Join) pushRows(b Batch, left bool) {
	if j.words && len(b) > 0 {
		if j.rowCols.SetFromRows(b) && j.pushWords(&j.rowCols, left) {
			return
		}
		j.migrate()
	}
	for _, t := range b {
		j.pushRow(t, left)
	}
}

// pushRow is the row layout's build/probe: the side's keys evaluate
// into reused scratch, and one lookup of string(keyBuf) (no copy) in
// the pane's map resolves the key group, the key string materialized
// only for a new group. The tuple then matches the opposite chain and
// joins its own. Joined rows are buffered in outBuf for the caller to
// deliver.
//
//qap:hot
func (j *Join) pushRow(t Tuple, left bool) {
	side, s := &j.cfg.Left, 0
	if !left {
		side, s = &j.cfg.Right, 1
	}
	vals := j.valsBuf[:0]
	for _, k := range side.Keys {
		vals = append(vals, k(t))
	}
	j.valsBuf = vals
	kb := AppendKey(j.keyBuf[:0], vals)
	j.keyBuf = kb
	p := j.pane(vals[side.TemporalIdx])
	if p.heads == nil {
		p.heads = make(map[string]int32) //qap:allow hotalloc -- once per concurrently live pane, then recycled
	}
	g, ok := p.heads[string(kb)]
	if !ok {
		g = p.group()
		key := string(kb)
		p.heads[key] = g
		p.names = append(p.names, key)
	}
	mine, other := &p.side[s], &p.side[1-s]
	e := joinEntry{tuple: t, next: -1, grp: g}
	for i := p.groups[g].head[1-s]; i >= 0; i = other.entries[i].next {
		oe := &other.entries[i]
		l, r := oe.tuple, t
		if left {
			l, r = t, oe.tuple
		}
		comb := j.concat(l, r)
		if j.cfg.Residual != nil && !j.cfg.Residual(comb).AsBool() {
			continue
		}
		e.matched, oe.matched = true, true
		j.emit(comb)
	}
	idx := int32(len(mine.entries))
	mine.entries = append(mine.entries, e)
	if prev := p.chain(g, s, idx); prev >= 0 {
		mine.entries[prev].next = idx
	}
	j.stored++
}

// concat builds l++r in the combined-row scratch.
func (j *Join) concat(l, r Tuple) Tuple {
	j.combBuf = append(append(j.combBuf[:0], l...), r...)
	return j.combBuf
}

// emit projects a combined row into the output slab and buffers it.
//
//qap:hot
func (j *Join) emit(comb Tuple) {
	j.outBuf = append(j.outBuf, project(&j.outVals, j.cfg.Projs, comb))
}

// deliver pushes the buffered rows downstream: everything the row
// layout joins, every outer-join padding, and those input batches of the
// word layout whose matches no kernel could carry (emitPairs, colops.go).
// The rest of the word layout's output never passes through here: it
// goes downstream as columns.
func (j *Join) deliver() {
	PushAll(j.cfg.Out, j.outBuf)
	j.outBuf = j.outBuf[:0]
}

func (j *Join) advance(wm uint64) {
	if j.wmSeen && wm <= j.lastWM {
		return
	}
	j.lastWM, j.wmSeen = wm, true
	// Left entries survive only while a future right tuple could still
	// produce their key, and vice versa.
	if f := j.cfg.Right.MinFutureKey; f != nil {
		b := f(wm)
		j.expire(0, &b)
	}
	if f := j.cfg.Left.MinFutureKey; f != nil {
		b := f(wm)
		j.expire(1, &b)
	}
	j.deliver()
	j.cfg.Out.Advance(wm)
}

func (j *Join) portFlush() {
	j.flushCount++
	if j.flushCount < 2 || j.flushed {
		return
	}
	j.flushed = true
	j.expire(0, nil)
	j.expire(1, nil)
	j.deliver()
	j.cfg.Out.Flush()
}

// expire retires side s (0 left, 1 right) of the panes below boundary
// (all when nil), oldest first. Panes are tkey-ordered, so a watermark
// that expires nothing costs one compare. A side's entries are walked
// only to pad unmatched rows; then the side is emptied, for late rows
// of it to refill and the next advance to pad, and a pane that neither
// side holds an entry of goes, with its index and slabs, to the free
// list. The high water is sampled here, where a side peaks.
//
//qap:hot
func (j *Join) expire(s int, boundary *sqlval.Value) {
	kept, i := 0, 0
	for ; i < len(j.panes); i++ {
		p := j.panes[i]
		if boundary != nil && p.tkey.Compare(*boundary) >= 0 {
			break
		}
		if n := p.side[s].size(); n > 0 {
			if j.padsSide(s == 0) {
				j.padUnmatched(p, s)
			}
			j.hiPane = max(j.hiPane, n, len(p.groups))
			j.stored -= n
			p.resetSide(s)
		}
		if p.side[1-s].size() > 0 {
			j.panes[kept] = p
			kept++
			continue
		}
		p.reset()
		j.free = append(j.free, p)
	}
	if kept < i {
		j.panes = slices.Delete(j.panes, kept, i)
		j.last = nil
	}
}

// padUnmatched buffers the outer-join padding of side s's never-matched
// entries of a pane in key order, insertion order breaking ties. Key
// words compare like their encodings: a uint encodes as a tag (2 up to
// 1<<63-1, 4 above) and its big-endian bytes, nine bytes either way.
// A word entry's row is full width again, NULL in every column the side
// does not keep, which nothing downstream reads.
func (j *Join) padUnmatched(p *joinPane, s int) {
	ps, left, un := &p.side[s], s == 0, j.padIdx[:0]
	if j.words {
		sd, w, nk := &j.right, j.cfg.Right.Width, len(j.cfg.Right.Keys)
		if left {
			sd, w = &j.left, j.cfg.Left.Width
		}
		for i := range ps.links {
			if !ps.links[i].matched {
				un = append(un, int32(i))
			}
		}
		slices.SortStableFunc(un, func(a, b int32) int {
			ga, gb := int(ps.links[a].grp), int(ps.links[b].grp)
			if ga == gb {
				return 0
			}
			return slices.Compare(p.keys[ga*nk:(ga+1)*nk], p.keys[gb*nk:(gb+1)*nk])
		})
		row := j.wordRow[:w]
		clear(row)
		for _, i := range un {
			g := int(ps.links[i].grp)
			j.emit(j.pad(sd.keptRow(row, ps.rows, int(i), p.keys[g*nk:]), left))
		}
	} else {
		for i := range ps.entries {
			if !ps.entries[i].matched {
				un = append(un, int32(i))
			}
		}
		slices.SortStableFunc(un, func(a, b int32) int {
			return strings.Compare(p.names[ps.entries[a].grp], p.names[ps.entries[b].grp])
		})
		for _, i := range un {
			j.emit(j.pad(ps.entries[i].tuple, left))
		}
	}
	j.padIdx = un
}

// padsSide reports whether unmatched rows of the given side appear in
// the output under the configured outer-join type.
func (j *Join) padsSide(left bool) bool {
	t := j.cfg.Type
	return t == gsql.JoinFullOuter || (left && t == gsql.JoinLeftOuter) || (!left && t == gsql.JoinRightOuter)
}

// pad builds the combined row of an unmatched outer-join entry, NULLs
// on the missing side.
func (j *Join) pad(t Tuple, left bool) Tuple {
	if left {
		return j.concat(t, j.nulls[:j.cfg.Right.Width])
	}
	return j.concat(j.nulls[:j.cfg.Left.Width], t)
}

// StoredTuples reports the number of buffered tuples, for memory
// accounting and eviction tests.
func (j *Join) StoredTuples() int { return j.stored }

// EmitCounts reports how many input batches' matches a word-layout join
// sent downstream as columns, and how many it had to make rows of.
func (j *Join) EmitCounts() (cols, rows int) { return j.colEmits, j.rowEmits }

// PaneHighWater reports the most entries one side of a pane, or keys
// one pane, has held: the natural JoinConfig.SizeHint for a later run
// of the same plan. A side peaks just before it expires, so expire
// samples it there; Flush expires every side.
func (j *Join) PaneHighWater() int { return j.hiPane }
