package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/sqlval"
)

// Runner instantiates a distributed physical plan into live operators
// with accounting on every edge, and drives packet traces through it.
//
// A Runner executes either sequentially (Workers <= 1: one goroutine
// pushes every tuple through the whole operator graph) or in parallel
// (Workers > 1: one worker goroutine per simulated host plus a central
// replay goroutine, see engine.go). Both modes produce byte-identical
// Results. A Runner holds operator state and is good for one run.
type Runner struct {
	plan        *optimizer.Plan
	cost        CostConfig
	params      exec.Params
	workers     int
	batchRounds int
	batchSize   int
	collect     bool
	metrics     *Metrics
	routers     map[string]*router
	routerNames []string // sorted lower-case names: the canonical flush order
	collectors  map[string]*exec.Collector

	// islands[0..Hosts-1] are the per-host leaf islands; islands[Hosts]
	// is the central island (the root process on the aggregator host).
	islands  []*island
	parallel bool
	// engine is the backend selector: EngineSim (in-process simulator)
	// or EngineLive (TCP nodes, live.go).
	engine string
	// liveCfg tunes the live backend; driveTimeout guards both engines'
	// replay receive loops (0 disables the guard for the simulator; the
	// live backend always has an effective timeout).
	liveCfg      LiveConfig
	driveTimeout time.Duration
	// edges indexes the island-crossing (captured) accounting edges in
	// deterministic compile order, so the live backend can name an edge
	// on the wire and resolve it on the collector side. Nil unless
	// captures were installed.
	edges []*edge
	// reuseTupleSlabs marks plans whose operators provably drop all
	// references to scan tuples within the delivery round (see
	// scanTuplesSevered), enabling tuple-slab recycling in the
	// sequential batched driver.
	reuseTupleSlabs bool

	// sizeHints pre-sizes aggregate hash state by physical op ID
	// (RunConfig.SizeHints); aggs tracks the built aggregate instances
	// so finalize can harvest the next run's hints. Purely a warm-start
	// performance knob — no canonical output depends on either.
	sizeHints map[int]int
	aggs      []aggInstance

	// columnar enables the columnar batch execution path (effective
	// only when batchSize > 1): the drivers deliver each round's
	// tuples as typed column vectors and operators run compiled column
	// kernels where the plan supports them, pivoting back to rows at
	// every boundary a row consumer needs.
	columnar bool

	// winSec is the load-monitoring window length in trace seconds;
	// 0 disables monitoring. Windows are closed at watermark
	// boundaries in canonical event order on every island, so the
	// resulting load series is bit-equal across engines, worker
	// counts, and batch sizes.
	winSec uint64

	// tracer collects the causal trace when RunConfig.Trace is set:
	// one shard per event writer (trDriver for the splitter, one per
	// island), registered in the canonical order driver, leaf islands
	// 0..Hosts-1, central. Nil tracing (the default) installs no
	// shards and no hooks: the only residual cost is nil checks at
	// round and window boundaries, never on the per-tuple hot path.
	tracer   *trace.Collector
	trDriver *trace.Shard

	// Wall-clock and transport telemetry for the run report. None of it
	// feeds back into execution: started is read only by buildReport,
	// and the eng* counters are written by whichever goroutine owns the
	// corresponding phase (driver: rounds/batches, replay: link items)
	// and read after the engine has fully joined.
	started                             time.Time
	engRounds, engBatches, engLinkItems int64
}

// RunConfig bundles a Runner's execution knobs.
type RunConfig struct {
	// Costs configures the CPU accounting.
	Costs CostConfig
	// Params binds #NAME# query parameters.
	Params exec.Params
	// Workers selects the execution engine: <= 1 runs the sequential
	// in-line engine; > 1 runs up to Workers per-host worker goroutines
	// plus a splitter (driver) and a central replay goroutine. Results
	// are byte-identical either way.
	Workers int
	// BatchRounds is the number of watermark rounds coalesced into one
	// channel message on the splitter feeds and inter-host links; 0
	// uses the default.
	BatchRounds int
	// BatchSize selects the execution hot path. 1 runs the legacy
	// tuple-at-a-time (scalar) path. Values > 1 run batch-at-a-time:
	// the driver buffers each round's tuples per destination partition
	// and delivers them as batches of up to BatchSize through the
	// operators' BatchConsumer fast paths (exec/batch.go), which
	// amortize per-tuple allocations. 0 defaults to defaultBatchSize
	// (batching on). Canonical results are identical at every batch
	// size; raw within-round delivery interleaving across partitions is
	// a plan detail and may differ between batched and scalar runs,
	// while runs at the same BatchSize are byte-identical for any
	// Workers value.
	BatchSize int
	// Columnar selects the columnar batch execution path: the batched
	// drivers deliver each round's tuples as typed column vectors
	// (exec.ColBatch) carved from reusable slabs, and operators run
	// compiled column kernels (exec/colcompile.go) where the plan
	// supports them, pivoting back to rows at every boundary a row
	// consumer needs. Columnar requires batching: at BatchSize 1 the
	// scalar path runs unchanged. Every canonical output — results,
	// OpStats, load series, trace bytes — is byte-identical to the
	// row-at-a-time paths at every Hosts x Workers x BatchSize
	// combination, on both engines.
	Columnar bool
	// SizeHints pre-sizes aggregate hash state by physical operator ID,
	// typically a previous Result.SizeHints from the same plan
	// (Deployment.Run threads them across runs automatically). Purely a
	// warm-start performance knob: no canonical output, stat, or trace
	// byte depends on it.
	SizeHints map[int]int
	// LoadWindowSec enables online load monitoring: per-host counter
	// deltas are sampled every LoadWindowSec seconds of trace time
	// into Result.LoadSeries. 0 (the default) disables monitoring.
	// The sampling happens at the same canonical watermark boundaries
	// on every engine, so the series — like every other deterministic
	// output — is bit-equal for any Workers or BatchSize value, and
	// enabling it never perturbs the run itself.
	LoadWindowSec int
	// CollectStats enables the observability layer: per-operator
	// counters (rows in/out, watermark advances, flushes, per-operator
	// CPU and network/IPC arrivals) in Result.OpStats and the
	// machine-readable Result.Report. Stats are sharded per execution
	// island exactly like the host metrics and merged in a fixed order,
	// so they are bit-equal for any Workers value and never perturb the
	// run itself. When false (the default) no stat hooks are installed
	// and the operator graph is identical to an uninstrumented run.
	CollectStats bool
	// Trace enables deterministic causal tracing into Result.Trace:
	// structured events keyed by round, window, host, and operator —
	// never wall clock — emitted at watermark boundaries from every
	// island plus the splitter, and gathered in a fixed shard order so
	// the canonical export is byte-identical for any Workers or
	// BatchSize value. Tracing implies CollectStats and, when
	// LoadWindowSec is 0, a default monitoring window of
	// DefaultTraceWindowSec; like monitoring it never perturbs the
	// run. Nil (the default) disables tracing entirely.
	Trace *trace.Config
	// Engine selects the cluster backend: EngineSim ("" or "sim") runs
	// the in-process simulator engines; EngineLive ("live") runs each
	// host as a node behind a real TCP listener with the splitter
	// shipping serialized tuple batches over persistent connections
	// (live.go). Canonical results are byte-identical across engines.
	Engine string
	// Live tunes the live backend; ignored for the simulator.
	Live LiveConfig
	// DriveTimeout guards the engines' replay receive loops: a run that
	// makes no progress for this long fails with a positioned error
	// naming the stalled islands instead of hanging. 0 disables the
	// guard for the simulator; the live backend falls back to its
	// transport timeout (LiveConfig.Timeout, default 30s).
	DriveTimeout time.Duration
}

// Engine selector values for RunConfig.Engine.
const (
	EngineSim  = "sim"
	EngineLive = "live"
)

// island is the unit of parallel execution: the operators of one
// aggInstance pairs a built aggregate with its physical operator ID so
// finalize can harvest per-op group high-water marks into
// Result.SizeHints.
type aggInstance struct {
	id  int
	agg *exec.Aggregate
}

// simulated host's capture processes (a leaf island, one per host), or
// the central root process on the aggregator host. Each island owns a
// metrics shard and a NodeRows shard so no accounting state is shared
// between workers; shards are merged in a fixed order when the run
// finishes, which also makes the sequential engine's floating-point
// sums group exactly like the parallel engine's.
type island struct {
	id      int
	metrics HostMetrics
	rows    map[string]*int64
	// ops shards the per-operator stats: every physical operator's
	// counters live on the island that executes it, so no stat is ever
	// written from two goroutines. The maps are fully populated during
	// compile and only the pointed-to counters mutate during a run.
	ops map[int]*obs.OpStats

	// Load-monitoring state: closed window deltas (wins), the counter
	// snapshot at the last closed boundary (lastSnap), and the next
	// window index to close (curWin). Leaf islands close windows at
	// round boundaries on their executing goroutine; the central
	// island closes on the goroutine replaying its deliveries.
	curWin   int
	lastSnap HostMetrics
	wins     []HostMetrics

	// Causal-trace state, written only by the island's executing
	// goroutine (the same single writer as metrics): the trace shard
	// (nil when tracing is off), whether this is the central island,
	// and the per-operator snapshot/metadata used to emit op_window
	// deltas at window closes. opIDs fixes the emission order.
	tr      *trace.Shard
	central bool
	opIDs   []int
	lastOps map[int]obs.OpStats
	opKind  map[int]string
	opQuery map[int]string

	// Parallel-mode state, owned by the island's worker goroutine.
	curRound int
	curTag   uint64
	outbox   []linkItem
	// curWM is the watermark of the round the worker is executing,
	// stamped into captured link items so the central replay can
	// attribute deliveries to monitoring windows.
	curWM uint64
}

// closeWindowsTo closes monitoring windows up to (excluding) win: the
// first closed window takes the counter delta since the last
// snapshot, any further skipped windows are zero. winSec guards
// callers; this method assumes monitoring is on.
func (isl *island) closeWindowsTo(win int) {
	for isl.curWin < win {
		delta := isl.metrics.sub(isl.lastSnap)
		isl.wins = append(isl.wins, delta)
		isl.lastSnap = isl.metrics
		if isl.tr != nil {
			isl.emitWindowEvents(delta)
		}
		isl.curWin++
	}
}

// emitWindowEvents records the closing window's host-level integer
// delta and the per-operator integer deltas on the island's trace
// shard. The host event is emitted even when all-zero — HostLoadSeries
// rebuilds the full series geometry from these records. Neither event
// carries CPU units: float cost sums are only tolerance-equal across
// batch sizes, while canonical traces must be byte-identical.
func (isl *island) emitWindowEvents(delta HostMetrics) {
	ev := trace.Event{
		Kind:        trace.KindHostWindow,
		Window:      isl.curWin,
		NetTuplesIn: delta.NetTuplesIn,
		NetBytesIn:  delta.NetBytesIn,
		IPCTuplesIn: delta.IPCTuplesIn,
		Tuples:      delta.Tuples,
	}
	if isl.central {
		ev.Central = true
	} else {
		ev.Host = isl.id
	}
	isl.tr.Emit(ev)
	for _, id := range isl.opIDs {
		st := *isl.ops[id]
		prev := isl.lastOps[id]
		isl.lastOps[id] = st
		d := obs.OpStats{
			RowsIn:      st.RowsIn - prev.RowsIn,
			RowsOut:     st.RowsOut - prev.RowsOut,
			Advances:    st.Advances - prev.Advances,
			Flushes:     st.Flushes - prev.Flushes,
			NetTuplesIn: st.NetTuplesIn - prev.NetTuplesIn,
			NetBytesIn:  st.NetBytesIn - prev.NetBytesIn,
			IPCTuplesIn: st.IPCTuplesIn - prev.IPCTuplesIn,
		}
		if d.RowsIn|d.RowsOut|d.Advances|d.Flushes|d.NetTuplesIn|d.NetBytesIn|d.IPCTuplesIn == 0 {
			continue
		}
		oev := trace.Event{
			Kind:        trace.KindOpWindow,
			Window:      isl.curWin,
			Op:          id,
			OpKind:      isl.opKind[id],
			Query:       isl.opQuery[id],
			RowsIn:      d.RowsIn,
			RowsOut:     d.RowsOut,
			Advances:    d.Advances,
			Flushes:     d.Flushes,
			NetTuplesIn: d.NetTuplesIn,
			NetBytesIn:  d.NetBytesIn,
			IPCTuplesIn: d.IPCTuplesIn,
		}
		if isl.central {
			oev.Central = true
		} else {
			oev.Host = isl.id
		}
		isl.tr.Emit(oev)
	}
}

// Result is the outcome of one run.
type Result struct {
	// Outputs holds each root query's result rows.
	Outputs map[string][]exec.Tuple
	// NodeRows counts the complete output rows of every logical query
	// node (per-partition instances summed; partial aggregates are
	// not node outputs and are excluded), the raw material for
	// measured selectivity statistics.
	NodeRows map[string]int64
	Metrics  *Metrics
	// OpStats holds per-physical-operator counters keyed by op ID, and
	// Report the machine-readable run report; both are nil unless
	// RunConfig.CollectStats was set. Everything except Report.Timing
	// is bit-equal for any worker count.
	OpStats map[int]*obs.OpStats
	Report  *obs.RunReport
	// LoadSeries is the online monitoring output: per-host counter
	// deltas per RunConfig.LoadWindowSec of trace time. Nil unless
	// monitoring was enabled; bit-equal for any Workers/BatchSize.
	LoadSeries []obs.LoadWindow
	// Trace is the gathered causal trace; nil unless RunConfig.Trace
	// was set. Its canonical JSONL (timing trailer stripped) is
	// byte-identical for any Workers/BatchSize, and its host_window
	// events rebuild LoadSeries (trace.HostLoadSeries) exactly on
	// every integer counter, with CPUUnits left zero.
	Trace *trace.Trace
	// SizeHints reports each aggregate operator's peak live group count
	// by physical op ID, suitable for RunConfig.SizeHints on a later run
	// of the same plan. Covers the operators this process executed (the
	// live backend's remote hosts report nothing). Wall-clock-free but
	// data-dependent; not part of the determinism contract's outputs.
	SizeHints map[int]int
}

// New compiles the physical plan into operator instances for the
// sequential engine.
func New(p *optimizer.Plan, cost CostConfig, params exec.Params) (*Runner, error) {
	return NewRunner(p, RunConfig{Costs: cost, Params: params})
}

// NewRunner compiles the physical plan into operator instances under
// the given run configuration.
func NewRunner(p *optimizer.Plan, cfg RunConfig) (*Runner, error) {
	r := &Runner{
		plan:        p,
		cost:        cfg.Costs,
		params:      cfg.Params,
		workers:     cfg.Workers,
		batchRounds: cfg.BatchRounds,
		collect:     cfg.CollectStats,
		metrics:     &Metrics{Hosts: make([]HostMetrics, p.Hosts), Capacity: cfg.Costs.CapacityPerSec},
		routers:     make(map[string]*router),
		collectors:  make(map[string]*exec.Collector),
		sizeHints:   cfg.SizeHints,
	}
	if r.batchRounds <= 0 {
		r.batchRounds = defaultBatchRounds
	}
	r.batchSize = cfg.BatchSize
	if r.batchSize == 0 {
		r.batchSize = defaultBatchSize
	}
	if r.batchSize < 1 {
		r.batchSize = 1
	}
	r.columnar = cfg.Columnar && r.batchSize > 1
	if cfg.LoadWindowSec > 0 {
		r.winSec = uint64(cfg.LoadWindowSec)
	}
	if cfg.Trace != nil {
		// Tracing needs the op-stat shards (op_window deltas) and a
		// monitoring window to pace window events.
		r.collect = true
		if r.winSec == 0 {
			r.winSec = DefaultTraceWindowSec
		}
		r.tracer = trace.NewCollector(*cfg.Trace)
		r.trDriver = r.tracer.NewShard()
	}
	r.islands = make([]*island, p.Hosts+1)
	for i := range r.islands {
		r.islands[i] = &island{id: i, rows: make(map[string]*int64), ops: make(map[int]*obs.OpStats)}
		if r.tracer != nil {
			isl := r.islands[i]
			isl.tr = r.tracer.NewShard()
			isl.central = i == p.Hosts
			isl.lastOps = make(map[int]obs.OpStats)
			isl.opKind = make(map[int]string)
			isl.opQuery = make(map[int]string)
		}
	}
	switch cfg.Engine {
	case "", EngineSim:
		r.engine = EngineSim
		r.parallel = cfg.Workers > 1 && r.parallelizable()
	case EngineLive:
		// The live backend always needs the island decomposition and
		// the capture consumers, whatever the worker count; plans that
		// are not parallelizable fall back to the sequential engine,
		// exactly like the simulator does.
		r.engine = EngineLive
		r.parallel = r.parallelizable()
	default:
		return nil, fmt.Errorf("cluster: unknown engine %q (want %q or %q)", cfg.Engine, EngineSim, EngineLive)
	}
	r.liveCfg = cfg.Live
	r.driveTimeout = cfg.DriveTimeout
	r.reuseTupleSlabs = scanTuplesSevered(p)
	if err := r.compile(); err != nil {
		return nil, err
	}
	if r.tracer != nil {
		// compile populated each island's op-stat shard; fix the
		// op_window emission order and label every operator.
		for _, op := range p.Ops {
			isl := r.islandOf(op)
			isl.opKind[op.ID] = op.Kind.String()
			switch {
			case op.Kind == optimizer.OpScan:
				isl.opQuery[op.ID] = op.Stream
			case op.Logical != nil:
				isl.opQuery[op.ID] = op.Logical.QueryName
			}
		}
		for _, isl := range r.islands {
			for id := range isl.ops { //qap:allow maprange -- ids sorted below
				isl.opIDs = append(isl.opIDs, id)
			}
			sort.Ints(isl.opIDs)
		}
	}
	return r, nil
}

// DefaultTraceWindowSec paces host_window/op_window trace events when
// tracing is enabled without explicit load monitoring.
const DefaultTraceWindowSec = 10

// scanTuplesSevered reports whether no operator can retain a reference
// to a scan-produced tuple past its delivery round, which lets the
// sequential batched driver recycle the tuple-backing slabs instead of
// allocating fresh ones every ~512 packets. An operator severs the
// aliasing when its output rows are fresh materializations (a
// select/project with a projection list, any aggregate); it retains
// when it stores input tuples beyond the call (a join's hash tables, an
// output collector, a sliding window's panes). Pass-through operators
// (unions, projection-less selections) forward the alias downstream.
func scanTuplesSevered(p *optimizer.Plan) bool {
	down := make(map[*optimizer.Op][]*optimizer.Op, len(p.Ops))
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			down[in] = append(down[in], op)
		}
	}
	memo := make(map[*optimizer.Op]bool, len(p.Ops))
	// safe reports whether an operator receiving aliased scan tuples
	// cannot leak them past the round. The plan is a DAG in topological
	// order, so the recursion terminates.
	var safe func(op *optimizer.Op) bool
	safe = func(op *optimizer.Op) bool {
		if v, ok := memo[op]; ok {
			return v
		}
		v := true
		switch op.Kind {
		case optimizer.OpAggregate, optimizer.OpAggSub, optimizer.OpAggSuper:
			// Severs: group values are copied, emissions are fresh.
		case optimizer.OpSelProj:
			if op.Logical == nil || len(op.Logical.Projs) == 0 {
				// Projection-less: forwards the input tuple itself.
				for _, d := range down[op] {
					v = v && safe(d)
				}
			}
		case optimizer.OpUnion:
			for _, d := range down[op] {
				v = v && safe(d)
			}
		default:
			// Joins and windows buffer input tuples across rounds;
			// collectors retain them for Result.Outputs. Unknown kinds
			// are conservatively treated the same.
			v = false
		}
		memo[op] = v
		return v
	}
	for _, op := range p.Ops {
		if op.Kind != optimizer.OpScan {
			continue
		}
		for _, d := range down[op] {
			if !safe(d) {
				return false
			}
		}
	}
	return true
}

// opStatsOf returns the operator's stat shard on its execution island,
// or nil when collection is disabled. Only called during compile, so
// the shard maps are immutable once a run starts.
func (r *Runner) opStatsOf(op *optimizer.Op) *obs.OpStats {
	if !r.collect {
		return nil
	}
	isl := r.islandOf(op)
	st, ok := isl.ops[op.ID]
	if !ok {
		st = &obs.OpStats{}
		isl.ops[op.ID] = st
	}
	return st
}

// traceEmitter returns a flush-observation hook emitting kind events
// on the operator's island shard, or nil when tracing is off. The
// hook runs on whatever goroutine executes the island, which is the
// shard's single writer by construction.
func (r *Runner) traceEmitter(op *optimizer.Op, kind string) func(wm uint64, groups, rows int) {
	if r.tracer == nil {
		return nil
	}
	isl := r.islandOf(op)
	proto := trace.Event{Kind: kind, Op: op.ID}
	if isl.central {
		proto.Central = true
	} else {
		proto.Host = isl.id
	}
	sh := isl.tr
	return func(wm uint64, groups, rows int) {
		ev := proto
		ev.WM = wm
		ev.Groups = int64(groups)
		ev.Rows = int64(rows)
		sh.Emit(ev)
	}
}

// islandOf maps an operator to its execution island: per-partition and
// per-host operators belong to their host's leaf island, central
// operators (the root process, Proc == -1 on the aggregator host) to
// the central island.
func (r *Runner) islandOf(op *optimizer.Op) *island {
	if op.Proc == -1 {
		return r.islands[r.plan.Hosts]
	}
	return r.islands[op.Host]
}

// parallelizable reports whether every island-crossing edge delivers
// into the central island — the topology the parallel engine's
// leaf-workers-feed-central-replay design requires. The partition-aware
// optimizer only builds such plans; this guards against future plan
// shapes by falling back to the sequential engine.
func (r *Runner) parallelizable() bool {
	for _, op := range r.plan.Ops {
		to := r.islandOf(op)
		if op.Kind == optimizer.OpScan && to == r.islands[r.plan.Hosts] {
			// The splitter feeds leaf islands only.
			return false
		}
		for _, in := range op.Inputs {
			if r.islandOf(in) != to && to != r.islands[r.plan.Hosts] {
				return false
			}
		}
	}
	return true
}

// Run feeds a time-ordered packet trace into the named stream and
// returns the query outputs and load metrics. Streams without data
// are flushed empty.
func (r *Runner) Run(stream string, packets []netgen.Packet) (*Result, error) {
	return r.RunStreams(map[string][]netgen.Packet{stream: packets})
}

// streamCursor walks one source stream's trace during the merge.
type streamCursor struct {
	name    string // lower-case stream name
	idx     int    // position in the canonical cursor order
	rt      *router
	packets []netgen.Packet
	pos     int

	// Batched-driver bookkeeping: gidx[p] is the arena index of
	// partition p's open tuple group, valid only while gstamp[p] equals
	// the current round; grows[p] counts the rows of partition p's
	// latest column group.
	gidx, gstamp, grows []int
}

// makeCursors validates the input traces and fixes the canonical merge
// order: longer streams first, ties broken by stream name, so two
// equal-length streams sharing timestamps always interleave the same
// way (Go map iteration order must never leak into the merge).
func (r *Runner) makeCursors(streams map[string][]netgen.Packet) ([]*streamCursor, error) {
	var cursors []*streamCursor
	for name, packets := range streams { //qap:allow maprange -- cursors sorted below before the merge
		lower := strings.ToLower(name)
		rt, ok := r.routers[lower]
		if !ok {
			return nil, fmt.Errorf("cluster: plan has no source stream %q", name)
		}
		for i := 1; i < len(packets); i++ {
			if packets[i].Time < packets[i-1].Time {
				return nil, fmt.Errorf("cluster: stream %q is not time-ordered at index %d", name, i)
			}
		}
		cursors = append(cursors, &streamCursor{name: lower, rt: rt, packets: packets})
	}
	sort.Slice(cursors, func(i, j int) bool {
		if len(cursors[i].packets) != len(cursors[j].packets) {
			return len(cursors[i].packets) > len(cursors[j].packets)
		}
		return cursors[i].name < cursors[j].name
	})
	for i, c := range cursors {
		c.idx = i
	}
	return cursors, nil
}

// nextCursor picks the cursor holding the smallest next timestamp;
// equal timestamps go to the earliest cursor in canonical order.
func nextCursor(cursors []*streamCursor) *streamCursor {
	var best *streamCursor
	for _, c := range cursors {
		if c.pos >= len(c.packets) {
			continue
		}
		if best == nil || c.packets[c.pos].Time < best.packets[best.pos].Time {
			best = c
		}
	}
	return best
}

// RunStreams feeds several traces, one per source stream, interleaved
// in global time order (the watermark is shared: an epoch closes only
// when every stream has moved past it). Each trace must itself be
// time-ordered.
func (r *Runner) RunStreams(streams map[string][]netgen.Packet) (*Result, error) {
	r.started = time.Now() //qap:allow walltime -- wall time quarantined in obs.Timing
	cursors, err := r.makeCursors(streams)
	if err != nil {
		return nil, err
	}
	if r.engine == EngineLive && r.parallel {
		return r.runLive(cursors)
	}
	if r.parallel && r.engine != EngineLive {
		return r.runParallel(cursors)
	}
	if r.batchSize > 1 {
		if r.columnar {
			return r.runSequentialColumnar(cursors)
		}
		return r.runSequentialBatched(cursors)
	}
	return r.runSequential(cursors)
}

// runSequential drives the merged trace through the operator graph on
// the calling goroutine, one tuple at a time.
func (r *Runner) runSequential(cursors []*streamCursor) (*Result, error) {
	var lastTime, maxTime uint64
	first := true
	any := false
	trRound, trPk := -1, int64(0)
	for {
		best := nextCursor(cursors)
		if best == nil {
			break
		}
		pk := &best.packets[best.pos]
		best.pos++
		any = true
		if pk.Time > maxTime {
			maxTime = pk.Time
		}
		if first || pk.Time > lastTime {
			// The splitter's trace shard closes the previous round: the
			// same (round, watermark, packets) triple on every engine.
			if r.trDriver != nil && trRound >= 0 {
				r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: trRound, WM: lastTime, Rows: trPk})
			}
			trRound, trPk = trRound+1, 0
			// Close monitoring windows before the new round touches any
			// counter: all work for rounds in earlier windows is done.
			if r.winSec > 0 {
				r.closeAllWindowsTo(int(pk.Time / r.winSec))
			}
			// The global watermark advances every stream's pipeline.
			for _, c := range cursors {
				c.rt.Advance(pk.Time)
			}
			lastTime, first = pk.Time, false
			r.engRounds++
		}
		trPk++
		best.rt.Push(pk.Tuple())
	}
	r.emitDriverTail(trRound, trPk, lastTime)
	// Flush in canonical stream order: every router, sorted by name.
	for _, name := range r.routerNames {
		r.routers[name].Flush()
	}
	r.engRounds++ // the flush round
	return r.finalize(any, maxTime), nil
}

// emitDriverTail closes the final data round on the splitter's trace
// shard and records the end-of-stream flush round.
func (r *Runner) emitDriverTail(trRound int, trPk int64, lastTime uint64) {
	if r.trDriver == nil {
		return
	}
	if trRound >= 0 {
		r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: trRound, WM: lastTime, Rows: trPk})
	}
	r.trDriver.Emit(trace.Event{Kind: trace.KindFlush, Round: trRound + 1, WM: lastTime})
}

// seqGroup is one destination partition's buffered tuples within the
// current round of the batched sequential driver.
type seqGroup struct {
	out    exec.Consumer
	tuples exec.Batch
}

// tupleSlabVals sizes the shared tuple-backing slabs the batched
// drivers carve packet tuples from (512 packets per slab).
const tupleSlabVals = 512 * netgen.TupleCols

// runSequentialBatched is the batch-at-a-time sequential driver: the
// same round structure as runSequential (advances, then the round's
// tuples, then the final flush round), but each round's tuples are
// buffered per destination partition and delivered at the round
// boundary as batches of up to batchSize, in the order each
// destination first appeared in the round. Tuple values are carved
// from shared slabs instead of one allocation per packet. The parallel
// engine's batched driver replays the identical grouping, so results
// at a given BatchSize are byte-identical for any worker count.
//
//qap:hot
func (r *Runner) runSequentialBatched(cursors []*streamCursor) (*Result, error) {
	bs := r.batchSize
	initGroupIndex(cursors)
	var (
		groups  []seqGroup // the round's groups, in first-tuple order
		valSlab []sqlval.Value
		// Slab recycling, when the plan severs scan-tuple aliases
		// (scanTuplesSevered): a slab exhausted mid-round only holds
		// tuples buffered for the current or already-delivered rounds,
		// so once flushRound has delivered the round it can be reused
		// instead of left to the collector. The parallel driver never
		// recycles — captured island crossings may reference tuples
		// until the central replay reaches them.
		spentSlabs [][]sqlval.Value
		freeSlabs  [][]sqlval.Value
	)
	reuse := r.reuseTupleSlabs
	flushRound := func() { //qap:allow hotalloc -- closure built once per run
		for i := range groups {
			g := &groups[i]
			for off := 0; off < len(g.tuples); off += bs {
				end := off + bs
				if end > len(g.tuples) {
					end = len(g.tuples)
				}
				exec.PushAll(g.out, g.tuples[off:end])
			}
			exec.PutBatch(g.tuples)
			g.out, g.tuples = nil, nil
		}
		groups = groups[:0]
		if len(spentSlabs) > 0 {
			freeSlabs = append(freeSlabs, spentSlabs...)
			spentSlabs = spentSlabs[:0]
		}
	}
	var lastTime, maxTime uint64
	first := true
	any := false
	round := 0
	trRound, trPk := -1, int64(0)
	for {
		best := nextCursor(cursors)
		if best == nil {
			break
		}
		pk := &best.packets[best.pos]
		best.pos++
		any = true
		if pk.Time > maxTime {
			maxTime = pk.Time
		}
		if first || pk.Time > lastTime {
			flushRound()
			if r.trDriver != nil && trRound >= 0 {
				r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: trRound, WM: lastTime, Rows: trPk})
			}
			trRound, trPk = trRound+1, 0
			// Close monitoring windows after the previous round's
			// buffered deliveries, so its work lands in its own window.
			if r.winSec > 0 {
				r.closeAllWindowsTo(int(pk.Time / r.winSec))
			}
			round++
			for _, c := range cursors {
				c.rt.Advance(pk.Time)
			}
			lastTime, first = pk.Time, false
			r.engRounds++
		}
		if cap(valSlab)-len(valSlab) < netgen.TupleCols {
			if reuse && cap(valSlab) > 0 {
				spentSlabs = append(spentSlabs, valSlab)
			}
			if n := len(freeSlabs); reuse && n > 0 {
				valSlab = freeSlabs[n-1][:0]
				freeSlabs = freeSlabs[:n-1]
			} else {
				valSlab = make([]sqlval.Value, 0, tupleSlabVals) //qap:allow hotalloc -- slab growth, amortized over tupleSlabVals values
			}
		}
		trPk++
		var t exec.Tuple
		valSlab, t = pk.AppendTuple(valSlab)
		idx := best.rt.route(t)
		if best.gstamp[idx] != round {
			best.gstamp[idx] = round
			best.gidx[idx] = len(groups)
			groups = append(groups, seqGroup{out: best.rt.outs[idx], tuples: exec.GetBatch()})
		}
		g := &groups[best.gidx[idx]]
		g.tuples = append(g.tuples, t)
	}
	flushRound()
	r.emitDriverTail(trRound, trPk, lastTime)
	for _, name := range r.routerNames {
		r.routers[name].Flush()
	}
	r.engRounds++ // the flush round
	return r.finalize(any, maxTime), nil
}

// runSequentialColumnar is the columnar sequential driver: the exact
// round structure and per-destination grouping of runSequentialBatched,
// but each group buffers the round's packets as eight uint64 column
// vectors instead of carved tuples (colGrouper), and delivers them at
// the round boundary as ColBatch chunks of up to batchSize through the
// operators' columnar fast paths (exec/colops.go). The ColBatch
// ownership contract (valid only during the call) lets the driver
// recycle every column batch unconditionally — no scanTuplesSevered
// gating. Every observable output is byte-identical to the scalar
// batched driver at the same BatchSize.
//
//qap:hot
func (r *Runner) runSequentialColumnar(cursors []*streamCursor) (*Result, error) {
	bs := r.batchSize
	initGroupIndex(cursors)
	var (
		gr     colGrouper
		groups []live.Group  // the round's groups, in first-packet order
		view   exec.ColBatch // zero-copy chunk window over a group
	)
	flushRound := func() { //qap:allow hotalloc -- closure built once per run
		for i := range groups {
			g := &groups[i]
			deliverCols(cursors[g.Stream].rt.outs[g.Part], g.Cols, bs, &view)
		}
		gr.recycle(groups)
		groups = groups[:0]
	}
	var lastTime, maxTime uint64
	first := true
	any := false
	trRound, trPk := -1, int64(0)
	for {
		best := nextCursor(cursors)
		if best == nil {
			break
		}
		pk := &best.packets[best.pos]
		best.pos++
		any = true
		if pk.Time > maxTime {
			maxTime = pk.Time
		}
		if first || pk.Time > lastTime {
			flushRound()
			if r.trDriver != nil && trRound >= 0 {
				r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: trRound, WM: lastTime, Rows: trPk})
			}
			trRound, trPk = trRound+1, 0
			if r.winSec > 0 {
				r.closeAllWindowsTo(int(pk.Time / r.winSec))
			}
			gr.nextRound()
			for _, c := range cursors {
				c.rt.Advance(pk.Time)
			}
			lastTime, first = pk.Time, false
			r.engRounds++
		}
		gr.add(&groups, best, gr.route(best, pk), uint64(trPk), pk)
		trPk++
	}
	flushRound()
	gr.release()
	r.emitDriverTail(trRound, trPk, lastTime)
	for _, name := range r.routerNames {
		r.routers[name].Flush()
	}
	r.engRounds++ // the flush round
	return r.finalize(any, maxTime), nil
}

// closeAllWindowsTo closes monitoring windows up to win on every
// island. Only the sequential drivers use it — the parallel engine
// closes leaf windows on the worker goroutines and central windows on
// the replay goroutine, at the same canonical points.
func (r *Runner) closeAllWindowsTo(win int) {
	for _, isl := range r.islands {
		isl.closeWindowsTo(win)
	}
}

// finalize merges the per-island accounting shards (in a fixed order,
// so both engines group floating-point sums identically) and collects
// the run's outputs.
func (r *Runner) finalize(any bool, maxTime uint64) *Result {
	if any {
		r.metrics.DurationSec = float64(maxTime + 1)
	}
	for h := 0; h < r.plan.Hosts; h++ {
		r.metrics.Hosts[h] = r.islands[h].metrics
	}
	central := &r.islands[r.plan.Hosts].metrics
	agg := &r.metrics.Hosts[r.plan.AggregatorHost]
	agg.CPUUnits += central.CPUUnits
	agg.NetTuplesIn += central.NetTuplesIn
	agg.NetBytesIn += central.NetBytesIn
	agg.IPCTuplesIn += central.IPCTuplesIn
	agg.Tuples += central.Tuples

	res := &Result{
		Outputs:  make(map[string][]exec.Tuple),
		NodeRows: make(map[string]int64),
		Metrics:  r.metrics,
	}
	for name, c := range r.collectors { //qap:allow maprange -- map-to-map copy, order-insensitive
		res.Outputs[name] = c.Rows
	}
	for _, isl := range r.islands {
		for name, n := range isl.rows { //qap:allow maprange -- commutative += accumulation
			res.NodeRows[name] += *n
		}
	}
	if r.winSec > 0 && any {
		res.LoadSeries = r.mergeLoadSeries(maxTime)
	}
	if r.collect {
		// Every operator's shard lives on exactly one island, so this
		// "merge" is a copy; Add guards the invariant regardless.
		res.OpStats = make(map[int]*obs.OpStats)
		for _, isl := range r.islands {
			for id, st := range isl.ops { //qap:allow maprange -- commutative OpStats.Add merge
				if prev, ok := res.OpStats[id]; ok {
					prev.Add(st)
				} else {
					cp := *st
					res.OpStats[id] = &cp
				}
			}
		}
		res.Report = r.buildReport(res)
	}
	if len(r.aggs) > 0 {
		res.SizeHints = make(map[int]int, len(r.aggs))
		for _, a := range r.aggs {
			if n := a.agg.GroupHighWater(); n > res.SizeHints[a.id] {
				res.SizeHints[a.id] = n
			}
		}
	}
	if r.tracer != nil {
		res.Trace = r.buildTrace()
	}
	return res
}

// buildTrace gathers the run's causal trace: a header record, every
// shard's events in canonical order (driver, leaf islands, central),
// and the quarantined timing trailer. Called from finalize, after the
// engine's goroutines have fully joined and mergeLoadSeries has closed
// every remaining window, so every shard is complete and no writer
// races the gather.
func (r *Runner) buildTrace() *trace.Trace {
	p := r.plan
	partitioning := p.Set.String()
	if p.StreamSets != nil {
		partitioning = p.StreamSets.String()
	}
	header := trace.Event{
		Kind:           trace.KindHeader,
		SchemaVersion:  obs.SchemaVersion,
		Hosts:          p.Hosts,
		AggregatorHost: p.AggregatorHost,
		WindowSec:      int(r.winSec),
		DurationSec:    r.metrics.DurationSec,
		Partitioning:   partitioning,
	}
	engine := r.engineName()
	timing := trace.Event{
		Kind:      trace.KindTiming,
		Engine:    engine,
		Workers:   r.workers,
		BatchSize: r.batchSize,
		WallNanos: time.Since(r.started).Nanoseconds(), //qap:allow walltime -- quarantined in the timing trailer
		Rounds:    r.engRounds,
		Batches:   r.engBatches,
		LinkItems: r.engLinkItems,
	}
	return r.tracer.Gather(header, timing)
}

// mergeLoadSeries closes every island's remaining monitoring windows
// (the final, possibly partial, window also absorbs the end-of-stream
// flush work) and folds the per-island window deltas into per-host
// rows, mirroring finalize's fold of the central island into the
// aggregator host so the two accountings always agree.
func (r *Runner) mergeLoadSeries(maxTime uint64) []obs.LoadWindow {
	final := int(maxTime/r.winSec) + 1
	for _, isl := range r.islands {
		isl.closeWindowsTo(final)
	}
	series := make([]obs.LoadWindow, 0, final)
	for w := 0; w < final; w++ {
		lw := obs.LoadWindow{
			Window:   w,
			StartSec: uint64(w) * r.winSec,
			EndSec:   uint64(w+1) * r.winSec,
		}
		if lw.EndSec > maxTime+1 {
			lw.EndSec = maxTime + 1
		}
		hosts := make([]obs.HostWindow, r.plan.Hosts)
		for h := 0; h < r.plan.Hosts; h++ {
			hm := r.islands[h].wins[w]
			hosts[h] = obs.HostWindow{
				Host:        h,
				CPUUnits:    hm.CPUUnits,
				NetTuplesIn: hm.NetTuplesIn,
				NetBytesIn:  hm.NetBytesIn,
				IPCTuplesIn: hm.IPCTuplesIn,
				Tuples:      hm.Tuples,
			}
		}
		central := r.islands[r.plan.Hosts].wins[w]
		agg := &hosts[r.plan.AggregatorHost]
		agg.CPUUnits += central.CPUUnits
		agg.NetTuplesIn += central.NetTuplesIn
		agg.NetBytesIn += central.NetBytesIn
		agg.IPCTuplesIn += central.IPCTuplesIn
		agg.Tuples += central.Tuples
		lw.Hosts = hosts
		series = append(series, lw)
	}
	return series
}

// buildReport assembles the machine-readable run report. Everything
// outside the Timing section is deterministic: a pure function of the
// plan, the trace, and the cost configuration.
func (r *Runner) buildReport(res *Result) *obs.RunReport {
	p := r.plan
	partitioning := p.Set.String()
	if p.StreamSets != nil {
		partitioning = p.StreamSets.String()
	}
	rep := &obs.RunReport{
		SchemaVersion:  obs.SchemaVersion,
		DurationSec:    r.metrics.DurationSec,
		CapacityPerSec: r.metrics.Capacity,
		Plan: &obs.PlanInfo{
			Hosts:             p.Hosts,
			Partitions:        p.Partitions,
			PartitionsPerHost: p.PartitionsPerHost,
			AggregatorHost:    p.AggregatorHost,
			Partitioning:      partitioning,
			Operators:         len(p.Ops),
		},
	}
	for _, op := range p.Ops {
		nr := obs.NodeReport{ID: op.ID, Kind: op.Kind.String(), Host: op.Host, Partition: op.Partition}
		switch {
		case op.Kind == optimizer.OpScan:
			nr.Query = op.Stream
		case op.Logical != nil:
			nr.Query = op.Logical.QueryName
		}
		if st := res.OpStats[op.ID]; st != nil {
			nr.OpStats = *st
		}
		if nr.RowsIn > 0 {
			nr.PassRate = float64(nr.RowsOut) / float64(nr.RowsIn)
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	for h, hm := range r.metrics.Hosts {
		rep.Hosts = append(rep.Hosts, obs.HostReport{
			Host:            h,
			CPUUnits:        hm.CPUUnits,
			CPULoadPct:      r.metrics.CPULoad(h),
			OverloadFactor:  r.metrics.OverloadFactor(h),
			NetTuplesIn:     hm.NetTuplesIn,
			NetBytesIn:      hm.NetBytesIn,
			IPCTuplesIn:     hm.IPCTuplesIn,
			Tuples:          hm.Tuples,
			NetTuplesPerSec: r.metrics.NetLoad(h),
		})
	}
	if len(res.LoadSeries) > 0 {
		rep.LoadWindowSec = int(r.winSec)
		rep.LoadSeries = res.LoadSeries
	}
	engine := r.engineName()
	rep.Timing = &obs.Timing{
		Workers:     r.workers,
		Engine:      engine,
		BatchRounds: r.batchRounds,
		WallNanos:   time.Since(r.started).Nanoseconds(), //qap:allow walltime -- wall time quarantined in obs.Timing
		Rounds:      r.engRounds,
		Batches:     r.engBatches,
		LinkItems:   r.engLinkItems,
	}
	return rep
}

// engineName labels the backend for the report/trace timing records.
func (r *Runner) engineName() string {
	switch {
	case r.engine == EngineLive && r.parallel:
		return "live"
	case r.parallel:
		return "parallel"
	default:
		return "sequential"
	}
}

// rowCounter counts a logical node's complete output rows.
type rowCounter struct {
	n    *int64
	next exec.Consumer
}

func (c *rowCounter) Push(t exec.Tuple) { *c.n++; c.next.Push(t) }
func (c *rowCounter) Advance(wm uint64) { c.next.Advance(wm) }
func (c *rowCounter) Flush()            { c.next.Flush() }

// PushBatch implements exec.BatchConsumer.
func (c *rowCounter) PushBatch(b exec.Batch) {
	*c.n += int64(len(b))
	exec.PushAll(c.next, b)
}

// PushCols implements exec.ColConsumer.
func (c *rowCounter) PushCols(cb *exec.ColBatch) {
	*c.n += int64(cb.Len)
	exec.PushColsAll(c.next, cb)
}

// countedOutput wraps an operator's fanout with a row counter when the
// operator produces a logical node's complete output (full aggregates,
// super-aggregates, select/project, join instances — not scans,
// unions, or partial sub-aggregates).
func (r *Runner) countedOutput(op *optimizer.Op, out exec.Consumer) exec.Consumer {
	switch op.Kind {
	case optimizer.OpAggregate, optimizer.OpAggSuper, optimizer.OpSelProj,
		optimizer.OpJoin, optimizer.OpWindow:
	default:
		return out
	}
	name := strings.ToLower(op.Logical.QueryName)
	isl := r.islandOf(op)
	n, ok := isl.rows[name]
	if !ok {
		n = new(int64)
		isl.rows[name] = n
	}
	return &rowCounter{n: n, next: out}
}

// ---- stream splitter (paper Section 3.3) ----

type router struct {
	hashFns  []exec.EvalFunc // nil => round robin
	outs     []exec.Consumer
	islands  []int // island id owning each partition's scan
	rr       int
	hashVals []sqlval.Value // route scratch, driver-goroutine-owned
}

// route picks the destination partition for one tuple. It mutates the
// round-robin cursor and the hash scratch, so in parallel mode only
// the splitter (driver) goroutine may call it.
func (rt *router) route(t exec.Tuple) int {
	if rt.hashFns == nil {
		idx := rt.rr % len(rt.outs)
		rt.rr++
		return idx
	}
	vals := rt.hashVals[:0]
	for _, f := range rt.hashFns {
		vals = append(vals, f(t))
	}
	rt.hashVals = vals
	h := sqlval.HashTuple(vals)
	// Range split: partition i receives H in [i*R/M, (i+1)*R/M).
	return int((h >> 32) * uint64(len(rt.outs)) >> 32)
}

func (rt *router) Push(t exec.Tuple) {
	rt.outs[rt.route(t)].Push(t)
}

func (rt *router) Advance(wm uint64) {
	for _, o := range rt.outs {
		o.Advance(wm)
	}
}

func (rt *router) Flush() {
	for _, o := range rt.outs {
		o.Flush()
	}
}

// ---- edge accounting ----

type procID struct{ host, partition int }

type edge struct {
	m      *HostMetrics
	next   exec.Consumer
	opCost float64 // receiving operator's per-tuple work
	xfer   float64 // IPC or network surcharge
	net    bool    // crosses hosts (counts as network)
	ipc    bool    // crosses processes on the same host
	// id indexes Runner.edges for island-crossing edges (the live
	// backend's wire name for the edge); 0 and unregistered otherwise.
	id int
	// st is the receiving operator's stat shard, nil when stats are
	// disabled. The edge always executes on the receiving operator's
	// island (captured edges replay centrally), so the shard has a
	// single writer and accumulates in canonical order in both engines.
	st *obs.OpStats
}

func (e *edge) Push(t exec.Tuple) {
	e.m.Tuples++
	e.m.CPUUnits += e.opCost + e.xfer
	switch {
	case e.net:
		e.m.NetTuplesIn++
		e.m.NetBytesIn += int64(t.WireSize())
	case e.ipc:
		e.m.IPCTuplesIn++
	}
	if e.st != nil {
		e.st.RowsIn++
		e.st.CPUUnits += e.opCost + e.xfer
		switch {
		case e.net:
			e.st.NetTuplesIn++
			e.st.NetBytesIn += int64(t.WireSize())
		case e.ipc:
			e.st.IPCTuplesIn++
		}
	}
	e.next.Push(t)
}

// PushBatch implements exec.BatchConsumer: the per-tuple accounting
// loop runs first (identically to scalar pushes, so floating-point
// sums accumulate in the same order regardless of how a round was
// chunked into batches), then the whole batch moves downstream. This
// holds on island-crossing edges too: the parallel engine captures a
// produced batch as a single link item and replays it through this
// same method, so both engines run the accounting loop and the
// downstream cascade over identical batch boundaries.
func (e *edge) PushBatch(b exec.Batch) {
	for _, t := range b {
		e.m.Tuples++
		e.m.CPUUnits += e.opCost + e.xfer
		switch {
		case e.net:
			e.m.NetTuplesIn++
			e.m.NetBytesIn += int64(t.WireSize())
		case e.ipc:
			e.m.IPCTuplesIn++
		}
		if e.st != nil {
			e.st.RowsIn++
			e.st.CPUUnits += e.opCost + e.xfer
			switch {
			case e.net:
				e.st.NetTuplesIn++
				e.st.NetBytesIn += int64(t.WireSize())
			case e.ipc:
				e.st.IPCTuplesIn++
			}
		}
	}
	exec.PushAll(e.next, b)
}

// PushCols implements exec.ColConsumer: the per-row accounting loop is
// identical to PushBatch over the pivoted rows (same integer counters,
// same floating-point accumulation order, wire sizes computed straight
// from the columns), then the columnar batch moves downstream — pivoting
// only if the receiving operator has no columnar fast path.
//
//qap:hot
func (e *edge) PushCols(cb *exec.ColBatch) {
	n := cb.Len
	for i := 0; i < n; i++ {
		e.m.Tuples++
		e.m.CPUUnits += e.opCost + e.xfer
		switch {
		case e.net:
			e.m.NetTuplesIn++
			e.m.NetBytesIn += int64(cb.RowWireSize(i))
		case e.ipc:
			e.m.IPCTuplesIn++
		}
		if e.st != nil {
			e.st.RowsIn++
			e.st.CPUUnits += e.opCost + e.xfer
			switch {
			case e.net:
				e.st.NetTuplesIn++
				e.st.NetBytesIn += int64(cb.RowWireSize(i))
			case e.ipc:
				e.st.IPCTuplesIn++
			}
		}
	}
	exec.PushColsAll(e.next, cb)
}

func (e *edge) Advance(wm uint64) {
	if e.st != nil {
		e.st.Advances++
	}
	e.next.Advance(wm)
}

func (e *edge) Flush() {
	if e.st != nil {
		e.st.Flushes++
	}
	e.next.Flush()
}

// opOut counts an operator's emitted rows. It is installed (only when
// stats are enabled) between the operator and its fanout, on the
// producing operator's island, so RowsOut counts each emission once —
// before any Tee duplication and before island-crossing capture.
type opOut struct {
	st   *obs.OpStats
	next exec.Consumer
}

func (o *opOut) Push(t exec.Tuple) { o.st.RowsOut++; o.next.Push(t) }
func (o *opOut) Advance(wm uint64) { o.next.Advance(wm) }
func (o *opOut) Flush()            { o.next.Flush() }

// PushBatch implements exec.BatchConsumer.
func (o *opOut) PushBatch(b exec.Batch) {
	o.st.RowsOut += int64(len(b))
	exec.PushAll(o.next, b)
}

// PushCols implements exec.ColConsumer.
func (o *opOut) PushCols(cb *exec.ColBatch) {
	o.st.RowsOut += int64(cb.Len)
	exec.PushColsAll(o.next, cb)
}

// opCostOf returns the per-tuple work of an operator kind.
func (c CostConfig) opCostOf(kind optimizer.OpKind) float64 {
	switch kind {
	case optimizer.OpScan:
		return c.ScanCost
	case optimizer.OpSelProj:
		return c.SelProjCost
	case optimizer.OpAggregate, optimizer.OpAggSub, optimizer.OpAggSuper, optimizer.OpWindow:
		return c.AggCost
	case optimizer.OpJoin:
		return c.JoinCost
	case optimizer.OpUnion:
		return c.UnionCost
	case optimizer.OpOutput:
		return c.OutputCost
	default:
		return 1
	}
}

// ---- compilation ----

type portRef struct {
	op   *optimizer.Op
	port int
}

func (r *Runner) compile() error {
	p := r.plan
	// Consumers of each producer, in deterministic order.
	consumers := make(map[*optimizer.Op][]portRef)
	for _, op := range p.Ops {
		for port, in := range op.Inputs {
			consumers[in] = append(consumers[in], portRef{op, port})
		}
	}
	// entries[op][port] is the accounted consumer feeding that port.
	entries := make(map[*optimizer.Op][]exec.Consumer)

	// Build in reverse topological order so downstream entries exist.
	for i := len(p.Ops) - 1; i >= 0; i-- {
		op := p.Ops[i]
		out := r.countedOutput(op, r.fanout(op, consumers[op], entries))
		if st := r.opStatsOf(op); st != nil {
			out = &opOut{st: st, next: out}
		}
		ports, err := r.instantiate(op, out)
		if err != nil {
			return fmt.Errorf("cluster: op %d (%s): %w", op.ID, op.Label(), err)
		}
		entries[op] = ports
	}
	// Routers deliver into the scan entries, partition-ordered.
	for _, src := range p.Graph.Sources() {
		scans := make([]exec.Consumer, p.Partitions)
		islandIDs := make([]int, p.Partitions)
		for _, op := range p.Ops {
			if op.Kind == optimizer.OpScan && op.Logical == src {
				scans[op.Partition] = entries[op][0]
				islandIDs[op.Partition] = r.islandOf(op).id
			}
		}
		rt := &router{outs: scans, islands: islandIDs}
		if set := p.SplitterSet(src.Stream.Name); !set.IsEmpty() {
			names := colNames(src.OutCols)
			for _, elem := range set {
				f, err := exec.Compile(elem.Expr, exec.ColsResolver("", names), r.params)
				if err != nil {
					return fmt.Errorf("cluster: partitioning element %s: %w", elem, err)
				}
				rt.hashFns = append(rt.hashFns, f)
			}
		}
		r.routers[strings.ToLower(src.Stream.Name)] = rt
	}
	r.routerNames = r.routerNames[:0]
	for name := range r.routers { //qap:allow maprange -- names collected then sorted below
		r.routerNames = append(r.routerNames, name)
	}
	sort.Strings(r.routerNames)
	return nil
}

// fanout wraps each consumer's entry port with an accounting edge and
// combines multiple consumers into a Tee.
func (r *Runner) fanout(op *optimizer.Op, cons []portRef, entries map[*optimizer.Op][]exec.Consumer) exec.Consumer {
	if len(cons) == 0 {
		return exec.Discard{}
	}
	sort.SliceStable(cons, func(i, j int) bool {
		if cons[i].op.ID != cons[j].op.ID {
			return cons[i].op.ID < cons[j].op.ID
		}
		return cons[i].port < cons[j].port
	})
	from := procID{op.Host, op.Proc}
	fromIsl := r.islandOf(op)
	outs := make([]exec.Consumer, len(cons))
	for i, c := range cons {
		to := procID{c.op.Host, c.op.Proc}
		toIsl := r.islandOf(c.op)
		e := &edge{
			m:      &toIsl.metrics,
			next:   entries[c.op][c.port],
			opCost: r.cost.opCostOf(c.op.Kind),
			st:     r.opStatsOf(c.op),
		}
		switch {
		case from.host != to.host:
			e.net, e.xfer = true, r.cost.RemoteCost
		case from != to:
			e.ipc, e.xfer = true, r.cost.IPCCost
		}
		if r.parallel && fromIsl != toIsl {
			// Island-crossing link: the producing worker records the
			// delivery; the central replay loop applies it (engine.go).
			// The edge id is its index in compile order — deterministic
			// for a given plan, so two runners compiled from the same
			// plan (a live splitter and a remote node) agree on every id.
			e.id = len(r.edges)
			r.edges = append(r.edges, e)
			outs[i] = &capture{isl: fromIsl, e: e}
		} else {
			outs[i] = e
		}
	}
	if len(outs) == 1 {
		return outs[0]
	}
	return &exec.Tee{Outs: outs}
}

// instantiate builds the exec operator for one physical op and returns
// its input ports.
func (r *Runner) instantiate(op *optimizer.Op, out exec.Consumer) ([]exec.Consumer, error) {
	switch op.Kind {
	case optimizer.OpScan:
		// The scan itself charges the receiving host for ingesting the
		// packet (the splitter hardware is free).
		fp := &exec.FilterProject{Out: out}
		selfEdge := &edge{m: &r.islandOf(op).metrics, next: fp, opCost: r.cost.ScanCost, st: r.opStatsOf(op)}
		return []exec.Consumer{selfEdge}, nil
	case optimizer.OpUnion:
		u := exec.NewUnion(len(op.Inputs), out)
		ports := make([]exec.Consumer, len(op.Inputs))
		for i := range ports {
			ports[i] = u.Port(i)
		}
		return ports, nil
	case optimizer.OpOutput:
		c := &exec.Collector{}
		r.collectors[op.Logical.QueryName] = c
		return []exec.Consumer{c}, nil
	case optimizer.OpSelProj:
		fp, err := r.buildSelProj(op.Logical)
		if err != nil {
			return nil, err
		}
		fp.Out = out
		return []exec.Consumer{fp}, nil
	case optimizer.OpAggregate, optimizer.OpAggSub, optimizer.OpAggSuper:
		agg, err := r.buildAggregate(op, out)
		if err != nil {
			return nil, err
		}
		r.aggs = append(r.aggs, aggInstance{id: op.ID, agg: agg})
		return []exec.Consumer{agg}, nil
	case optimizer.OpWindow:
		w, err := r.buildWindow(op, out)
		if err != nil {
			return nil, err
		}
		return []exec.Consumer{w}, nil
	case optimizer.OpJoin:
		ports, err := r.buildJoin(op.Logical, out)
		if err != nil {
			return nil, err
		}
		return ports, nil
	default:
		return nil, fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

func colNames(cols []plan.ColDef) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

func (r *Runner) buildSelProj(n *plan.Node) (*exec.FilterProject, error) {
	res := exec.ColsResolver(n.InBind, colNames(n.Inputs[0].OutCols))
	fp := &exec.FilterProject{}
	if n.Filter != nil {
		f, err := exec.Compile(n.Filter, res, r.params)
		if err != nil {
			return nil, err
		}
		fp.Filter = f
	}
	exprs := make([]gsql.Expr, len(n.Projs))
	for i, pr := range n.Projs {
		exprs[i] = pr.Expr
	}
	projs, err := exec.CompileAll(exprs, res, r.params)
	if err != nil {
		return nil, err
	}
	fp.Projs = projs
	if r.columnar {
		if n.Filter != nil {
			cf, err := exec.CompileCol(n.Filter, res, r.params)
			if err != nil {
				return nil, err
			}
			fp.ColFilter = &cf
		}
		colProjs, err := exec.CompileColAll(exprs, res, r.params)
		if err != nil {
			return nil, err
		}
		fp.ColProjs = colProjs
	}
	return fp, nil
}

// epochOfWM compiles the watermark translator for a temporal group
// column: the lineage base expression evaluated at the watermark.
func (r *Runner) epochOfWM(lin plan.Lineage) (func(uint64) sqlval.Value, error) {
	if lin.Base == nil {
		return nil, nil
	}
	f, err := exec.Compile(lin.Base.Expr, exec.ColsResolver("", []string{lin.Base.Attr}), r.params)
	if err != nil {
		return nil, err
	}
	// One scratch tuple per instantiated closure: each belongs to one
	// operator instance, and operators are single-writer per island.
	scratch := make(exec.Tuple, 1)
	return func(wm uint64) sqlval.Value {
		scratch[0] = sqlval.Uint(wm)
		return f(scratch)
	}, nil
}

// momentParts returns the partial column suffixes of an aggregate
// whose decomposition needs several components, or nil for aggregates
// that split one-to-one (the SubName/SuperName pair).
func momentParts(spec gsql.AggSpec) []string {
	switch spec.Name {
	case "AVG":
		return []string{"$sum", "$cnt"}
	case "VARIANCE", "STDDEV":
		return []string{"$sum", "$sumsq", "$cnt"}
	default:
		return nil
	}
}

// momentSubAccums returns the accumulator names matching momentParts.
func momentSubAccums(spec gsql.AggSpec) []string {
	switch spec.Name {
	case "AVG":
		return []string{"SUM", "COUNT"}
	case "VARIANCE", "STDDEV":
		return []string{"SUM", "SUMSQ", "COUNT"}
	default:
		return nil
	}
}

// partialNames lists the sub-aggregate output columns for an
// aggregation's partials.
func partialNames(n *plan.Node) []string {
	var out []string
	for _, a := range n.Aggs {
		if parts := momentParts(a.Spec); parts != nil {
			for _, p := range parts {
				out = append(out, a.Name+p)
			}
		} else {
			out = append(out, a.Name)
		}
	}
	return out
}

// momentFinalExpr builds the expression reconstructing a moment-split
// aggregate's value from its merged partials:
//
//	AVG       sum/cnt
//	VARIANCE  sumsq/cnt - (sum/cnt)^2
//	STDDEV    SQRT(variance)
//
// The multiplication by 1.0 forces floating-point arithmetic over
// integer partials.
func momentFinalExpr(spec gsql.AggSpec, name string) gsql.Expr {
	ref := func(suffix string) gsql.Expr { return &gsql.ColumnRef{Name: name + suffix} }
	fdiv := func(num, den gsql.Expr) gsql.Expr {
		return &gsql.Binary{
			Op: gsql.OpDiv,
			L:  &gsql.Binary{Op: gsql.OpMul, L: num, R: &gsql.NumberLit{IsFloat: true, F: 1}},
			R:  den,
		}
	}
	mean := fdiv(ref("$sum"), ref("$cnt"))
	switch spec.Name {
	case "AVG":
		return mean
	case "VARIANCE", "STDDEV":
		variance := &gsql.Binary{
			Op: gsql.OpSub,
			L:  fdiv(ref("$sumsq"), ref("$cnt")),
			R:  &gsql.Binary{Op: gsql.OpMul, L: mean, R: mean},
		}
		if spec.Name == "VARIANCE" {
			return variance
		}
		return &gsql.FuncCall{Name: "SQRT", Args: []gsql.Expr{variance}}
	default:
		return &gsql.ColumnRef{Name: name}
	}
}

// rewriteSplitRefs substitutes references to moment-split aggregates
// with their reconstruction expressions in super-aggregate HAVING and
// projection clauses.
func rewriteSplitRefs(e gsql.Expr, split map[string]gsql.AggSpec) gsql.Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *gsql.ColumnRef:
		if spec, ok := split[strings.ToLower(t.Name)]; ok && t.Qualifier == "" {
			return momentFinalExpr(spec, t.Name)
		}
		return gsql.CloneExpr(e)
	case *gsql.Unary:
		return &gsql.Unary{Op: t.Op, X: rewriteSplitRefs(t.X, split)}
	case *gsql.Binary:
		return &gsql.Binary{Op: t.Op, L: rewriteSplitRefs(t.L, split), R: rewriteSplitRefs(t.R, split)}
	case *gsql.FuncCall:
		args := make([]gsql.Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = rewriteSplitRefs(a, split)
		}
		return &gsql.FuncCall{Name: t.Name, Star: t.Star, Args: args}
	default:
		return gsql.CloneExpr(e)
	}
}

func (r *Runner) buildAggregate(op *optimizer.Op, out exec.Consumer) (*exec.Aggregate, error) {
	n := op.Logical
	cfg := exec.AggregateConfig{EpochIdx: n.EpochGroupCol(), Out: out,
		ColEmit:      r.columnar,
		SizeHint:     r.sizeHints[op.ID],
		OnEpochFlush: r.traceEmitter(op, trace.KindEpochFlush)}

	if n.WindowPanes > 1 && op.Kind != optimizer.OpAggSub {
		return nil, fmt.Errorf("windowed aggregation %s must lower to sub-aggregate + window", n.QueryName)
	}
	if op.Kind == optimizer.OpAggSuper {
		return r.buildSuperAggregate(n, cfg)
	}

	inRes := exec.ColsResolver(n.InBind, colNames(n.Inputs[0].OutCols))
	if n.PreFilter != nil {
		f, err := exec.Compile(n.PreFilter, inRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.PreFilter = f
		if r.columnar {
			cf, err := exec.CompileCol(n.PreFilter, inRes, r.params)
			if err != nil {
				return nil, err
			}
			cfg.ColPreFilter = &cf
		}
	}
	for _, g := range n.GroupBy {
		f, err := exec.Compile(g.Expr, inRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.GroupBy = append(cfg.GroupBy, f)
		if r.columnar {
			ce, err := exec.CompileCol(g.Expr, inRes, r.params)
			if err != nil {
				return nil, err
			}
			cfg.ColGroupBy = append(cfg.ColGroupBy, ce)
		}
	}
	if cfg.EpochIdx >= 0 {
		ewm, err := r.epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr))
		if err != nil {
			return nil, err
		}
		cfg.EpochOfWM = ewm
	}

	sub := op.Kind == optimizer.OpAggSub
	for _, a := range n.Aggs {
		var arg exec.EvalFunc
		var colArg *exec.ColExpr
		if a.Arg != nil {
			f, err := exec.Compile(a.Arg, inRes, r.params)
			if err != nil {
				return nil, err
			}
			arg = f
			if r.columnar {
				ce, err := exec.CompileCol(a.Arg, inRes, r.params)
				if err != nil {
					return nil, err
				}
				colArg = &ce
			}
		}
		// cfg.ColArgs stays index-aligned with cfg.Aggs (nil = COUNT(*)).
		addAgg := func(fac exec.AccumFactory) {
			cfg.Aggs = append(cfg.Aggs, exec.AggColumn{Factory: fac, Arg: arg})
			if r.columnar {
				cfg.ColArgs = append(cfg.ColArgs, colArg)
			}
		}
		switch {
		case sub && momentParts(a.Spec) != nil:
			for _, accName := range momentSubAccums(a.Spec) {
				fac, err := exec.NewAccumFactory(accName)
				if err != nil {
					return nil, err
				}
				addAgg(fac)
			}
		case sub:
			fac, err := exec.NewAccumFactory(a.Spec.SubName)
			if err != nil {
				return nil, err
			}
			addAgg(fac)
		default:
			fac, err := exec.NewAccumFactory(a.Spec.Name)
			if err != nil {
				return nil, err
			}
			addAgg(fac)
		}
	}
	if sub {
		// Sub-aggregates emit groups ++ partials; HAVING and the final
		// projection wait for complete values in the super-aggregate
		// (Section 5.2.2).
		return exec.NewAggregate(cfg), nil
	}

	// Full aggregation: HAVING and post-projection over groups++aggs.
	rowNames := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		rowNames = append(rowNames, g.Name)
	}
	for _, a := range n.Aggs {
		rowNames = append(rowNames, a.Name)
	}
	rowRes := exec.ColsResolver("", rowNames)
	if n.Having != nil {
		f, err := exec.Compile(n.Having, rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Having = f
	}
	for _, p := range n.Post {
		f, err := exec.Compile(p.Expr, rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Post = append(cfg.Post, f)
	}
	return exec.NewAggregate(cfg), nil
}

// buildSuperAggregate assembles the central half of a partial
// aggregation: it groups the sub-aggregates' outputs by the original
// group columns and merges partials with each aggregate's
// super-function (COUNT's partials SUM, MIN's MIN, and so on).
func (r *Runner) buildSuperAggregate(n *plan.Node, cfg exec.AggregateConfig) (*exec.Aggregate, error) {
	groupNames := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groupNames[i] = g.Name
	}
	inNames := append(append([]string{}, groupNames...), partialNames(n)...)
	inRes := exec.ColsResolver("", inNames)

	for _, name := range groupNames {
		f, err := exec.Compile(&gsql.ColumnRef{Name: name}, inRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.GroupBy = append(cfg.GroupBy, f)
		if r.columnar {
			ce, err := exec.CompileCol(&gsql.ColumnRef{Name: name}, inRes, r.params)
			if err != nil {
				return nil, err
			}
			cfg.ColGroupBy = append(cfg.ColGroupBy, ce)
		}
	}
	if cfg.EpochIdx >= 0 {
		ewm, err := r.epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr))
		if err != nil {
			return nil, err
		}
		cfg.EpochOfWM = ewm
	}

	split := make(map[string]gsql.AggSpec)
	var rowNames []string
	rowNames = append(rowNames, groupNames...)
	// Keeps cfg.ColArgs index-aligned with cfg.Aggs; every super-side
	// argument is a plain column reference over the partial row.
	addAgg := func(fac exec.AccumFactory, name string) error {
		f, err := exec.Compile(&gsql.ColumnRef{Name: name}, inRes, r.params)
		if err != nil {
			return err
		}
		cfg.Aggs = append(cfg.Aggs, exec.AggColumn{Factory: fac, Arg: f})
		if r.columnar {
			ce, err := exec.CompileCol(&gsql.ColumnRef{Name: name}, inRes, r.params)
			if err != nil {
				return err
			}
			cfg.ColArgs = append(cfg.ColArgs, &ce)
		}
		return nil
	}
	for _, a := range n.Aggs {
		if parts := momentParts(a.Spec); parts != nil {
			split[strings.ToLower(a.Name)] = a.Spec
			for _, suffix := range parts {
				pn := a.Name + suffix
				fac, _ := exec.NewAccumFactory("SUM")
				if err := addAgg(fac, pn); err != nil {
					return nil, err
				}
				rowNames = append(rowNames, pn)
			}
			continue
		}
		fac, err := exec.NewAccumFactory(a.Spec.SuperName)
		if err != nil {
			return nil, err
		}
		if err := addAgg(fac, a.Name); err != nil {
			return nil, err
		}
		rowNames = append(rowNames, a.Name)
	}

	rowRes := exec.ColsResolver("", rowNames)
	if n.Having != nil {
		f, err := exec.Compile(rewriteSplitRefs(n.Having, split), rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Having = f
	}
	for _, p := range n.Post {
		f, err := exec.Compile(rewriteSplitRefs(p.Expr, split), rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Post = append(cfg.Post, f)
	}
	return exec.NewAggregate(cfg), nil
}

// buildWindow assembles the sliding-window merge over per-pane
// partials: mergers per partial column (SUM for moment parts, the
// super-function otherwise), then the original HAVING and projection
// with moment references reconstructed.
func (r *Runner) buildWindow(op *optimizer.Op, out exec.Consumer) (*exec.SlidingWindow, error) {
	n := op.Logical
	cfg := exec.SlidingWindowConfig{
		GroupCols:   len(n.GroupBy),
		EpochIdx:    n.EpochGroupCol(),
		Panes:       n.WindowPanes,
		Out:         out,
		OnPaneFlush: r.traceEmitter(op, trace.KindPaneFlush),
	}
	if cfg.EpochIdx < 0 {
		return nil, fmt.Errorf("window %s has no temporal pane column", n.QueryName)
	}
	ewm, err := r.epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr))
	if err != nil {
		return nil, err
	}
	cfg.PaneOfWM = ewm

	split := make(map[string]gsql.AggSpec)
	groupNames := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groupNames[i] = g.Name
	}
	rowNames := append([]string{}, groupNames...)
	for _, a := range n.Aggs {
		if parts := momentParts(a.Spec); parts != nil {
			split[strings.ToLower(a.Name)] = a.Spec
			for _, suffix := range parts {
				fac, _ := exec.NewAccumFactory("SUM")
				cfg.Mergers = append(cfg.Mergers, fac)
				rowNames = append(rowNames, a.Name+suffix)
			}
			continue
		}
		fac, err := exec.NewAccumFactory(a.Spec.SuperName)
		if err != nil {
			return nil, err
		}
		cfg.Mergers = append(cfg.Mergers, fac)
		rowNames = append(rowNames, a.Name)
	}
	rowRes := exec.ColsResolver("", rowNames)
	if n.Having != nil {
		f, err := exec.Compile(rewriteSplitRefs(n.Having, split), rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Having = f
	}
	for _, p := range n.Post {
		f, err := exec.Compile(rewriteSplitRefs(p.Expr, split), rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Post = append(cfg.Post, f)
	}
	return exec.NewSlidingWindow(cfg), nil
}

// joinResolver resolves qualified references over the concatenation of
// the two join inputs.
func joinResolver(leftBind string, leftNames []string, rightBind string, rightNames []string) exec.Resolver {
	return func(ref *gsql.ColumnRef) (int, error) {
		if ref.Qualifier != "" {
			switch {
			case strings.EqualFold(ref.Qualifier, leftBind):
				for i, nm := range leftNames {
					if strings.EqualFold(nm, ref.Name) {
						return i, nil
					}
				}
			case strings.EqualFold(ref.Qualifier, rightBind):
				for i, nm := range rightNames {
					if strings.EqualFold(nm, ref.Name) {
						return len(leftNames) + i, nil
					}
				}
			default:
				return 0, fmt.Errorf("exec: unknown qualifier %q", ref.Qualifier)
			}
			return 0, fmt.Errorf("exec: unknown column %s", ref)
		}
		found := -1
		for i, nm := range leftNames {
			if strings.EqualFold(nm, ref.Name) {
				found = i
			}
		}
		for i, nm := range rightNames {
			if strings.EqualFold(nm, ref.Name) {
				if found >= 0 {
					return 0, fmt.Errorf("exec: ambiguous column %q", ref.Name)
				}
				found = len(leftNames) + i
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("exec: unknown column %q", ref.Name)
		}
		return found, nil
	}
}

func (r *Runner) buildJoin(n *plan.Node, out exec.Consumer) ([]exec.Consumer, error) {
	leftNames := colNames(n.Inputs[0].OutCols)
	rightNames := colNames(n.Inputs[1].OutCols)
	leftRes := exec.ColsResolver(n.LeftBind, leftNames)
	rightRes := exec.ColsResolver(n.RightBind, rightNames)

	cfg := exec.JoinConfig{Type: n.JoinType, Out: out}
	cfg.Left.Width, cfg.Right.Width = len(leftNames), len(rightNames)
	cfg.Left.TemporalIdx, cfg.Right.TemporalIdx = n.TemporalKey, n.TemporalKey

	for i := range n.LeftKeys {
		lf, err := exec.Compile(n.LeftKeys[i], leftRes, r.params)
		if err != nil {
			return nil, err
		}
		rf, err := exec.Compile(n.RightKeys[i], rightRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Left.Keys = append(cfg.Left.Keys, lf)
		cfg.Right.Keys = append(cfg.Right.Keys, rf)
		if r.columnar {
			lc, err := exec.CompileCol(n.LeftKeys[i], leftRes, r.params)
			if err != nil {
				return nil, err
			}
			rc, err := exec.CompileCol(n.RightKeys[i], rightRes, r.params)
			if err != nil {
				return nil, err
			}
			cfg.Left.ColKeys = append(cfg.Left.ColKeys, lc)
			cfg.Right.ColKeys = append(cfg.Right.ColKeys, rc)
		}
	}
	lwm, err := r.epochOfWM(n.SideLineage(0, n.LeftKeys[n.TemporalKey]))
	if err != nil {
		return nil, err
	}
	rwm, err := r.epochOfWM(n.SideLineage(1, n.RightKeys[n.TemporalKey]))
	if err != nil {
		return nil, err
	}
	cfg.Left.MinFutureKey, cfg.Right.MinFutureKey = lwm, rwm

	comb := joinResolver(n.LeftBind, leftNames, n.RightBind, rightNames)
	if n.Residual != nil {
		f, err := exec.Compile(n.Residual, comb, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Residual = f
	}
	for _, p := range n.JoinProjs {
		f, err := exec.Compile(p.Expr, comb, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Projs = append(cfg.Projs, f)
	}
	j := exec.NewJoin(cfg)
	// Side filters split out of the WHERE clause apply before the join
	// tables; interpose lightweight local filters on the ports.
	left, right := exec.Consumer(j.LeftIn()), exec.Consumer(j.RightIn())
	if n.LeftFilter != nil {
		f, err := exec.Compile(n.LeftFilter, leftRes, r.params)
		if err != nil {
			return nil, err
		}
		fp := &exec.FilterProject{Filter: f, Out: left}
		if r.columnar {
			cf, err := exec.CompileCol(n.LeftFilter, leftRes, r.params)
			if err != nil {
				return nil, err
			}
			fp.ColFilter = &cf
		}
		left = fp
	}
	if n.RightFilter != nil {
		f, err := exec.Compile(n.RightFilter, rightRes, r.params)
		if err != nil {
			return nil, err
		}
		fp := &exec.FilterProject{Filter: f, Out: right}
		if r.columnar {
			cf, err := exec.CompileCol(n.RightFilter, rightRes, r.params)
			if err != nil {
				return nil, err
			}
			fp.ColFilter = &cf
		}
		right = fp
	}
	return []exec.Consumer{left, right}, nil
}
