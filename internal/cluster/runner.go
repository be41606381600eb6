package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
)

// Runner instantiates a distributed physical plan into live operators
// with accounting on every edge, and drives packet traces through it.
//
// A Runner executes in one of two modes: the scalar oracle (BatchSize 1:
// one goroutine pushes every tuple through the whole operator graph) or
// production (BatchSize > 1: column groups), which runs sequentially
// (Workers <= 1), in parallel (Workers > 1: one worker goroutine per
// simulated host plus a central replay goroutine, see engine.go) or on
// the live TCP backend. Every combination produces byte-identical
// canonical Results. A Runner holds operator state and is good for one
// run.
type Runner struct {
	plan        *optimizer.Plan
	cost        CostConfig
	params      exec.Params
	workers     int
	batchRounds int
	batchSize   int
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
	// liveCfg tunes the live backend; driveTimeout guards the replay's
	// receives (0 disables the guard; the live engine's is never 0).
	liveCfg      LiveConfig
	driveTimeout time.Duration
	// deploy is RunConfig.Deploy, for the Hello to remote nodes.
	deploy []byte
	// wedge, non-nil in tests only, holds every simulator worker before
	// it ships a link message until the channel is closed.
	wedge chan struct{}
	// edges indexes the island-crossing (captured) accounting edges in
	// deterministic compile order, so the live backend can name an edge
	// on the wire and resolve it on the collector side. Nil unless
	// captures were installed.
	edges []*edge
	// sizeHints pre-sizes aggregate and join hash state by physical op
	// ID (RunConfig.SizeHints); sized tracks the built instances so
	// finalize can harvest the next run's hints. Purely a warm-start
	// performance knob — no canonical output depends on either.
	sizeHints map[int]int
	sized     []sizedOp

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
	// Workers selects the simulator's production engine: <= 1 runs the
	// sequential engine, one executor on the calling goroutine with the
	// splitter running ahead of it on another; > 1 runs up to Workers
	// per-host worker goroutines plus a splitter (driver) and a central
	// replay goroutine. Results are byte-identical either way. The
	// scalar oracle ignores it.
	Workers int
	// BatchSize selects the execution mode. 1 is the scalar oracle: one
	// tuple at a time through the operators' Push ports, no column
	// kernels compiled, on the sequential simulator whatever Workers says
	// (Engine live refuses it) — the reference every other configuration
	// is compared against. Values > 1 are production: the splitter groups
	// each round's packets per destination partition straight into typed
	// column vectors (exec.ColBatch) and delivers them in chunks of up
	// to BatchSize through the operators' compiled column kernels
	// (exec/colcompile.go), pivoting to rows only where a row consumer
	// needs them (row-layout join stores, output collectors); a batch
	// that crosses an island boundary crosses as columns. 0 defaults to
	// defaultBatchSize. Canonical results, OpStats, load series and
	// trace bytes are identical at every batch size; raw within-round
	// delivery interleaving across partitions is a plan detail and may
	// differ between the two modes, while runs at the same BatchSize
	// are byte-identical for any Workers value and engine.
	BatchSize int
	// Columnar is not read.
	//
	// Deprecated: BatchSize > 1 is the columnar path and BatchSize 1 the
	// scalar oracle; there is no row-batched driver left to choose. The
	// field stays declared because the frozen bench/ module sets it in a
	// struct literal; it goes when a [benchmark] change drops that line.
	Columnar bool
	// SizeHints pre-sizes aggregate and join hash state by physical
	// operator ID, typically a previous Result.SizeHints from the same plan
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
	// Trace enables deterministic causal tracing into Result.Trace:
	// structured events keyed by round, window, host, and operator —
	// never wall clock — emitted at watermark boundaries from every
	// island plus the splitter, and gathered in a fixed shard order so
	// the canonical export is byte-identical for any Workers or
	// BatchSize value. When LoadWindowSec is 0, tracing paces its
	// window events by DefaultTraceWindowSec; like monitoring it never
	// perturbs the run. Nil (the default) disables tracing entirely.
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
	// Deploy is the encoded deployment a remote live node compiles its
	// copy of the plan from (ServeNode). The live engine hands it to the
	// nodes in its Hello when LiveConfig.Nodes is set; in-process nodes
	// share this runner and get none. This package does not interpret it.
	Deploy []byte
}

// Engine selector values for RunConfig.Engine.
const (
	EngineSim  = "sim"
	EngineLive = "live"
)

// sizedOp pairs a built aggregate's or join's high-water mark (live
// groups, entries in one pane) with its physical operator ID so
// finalize can harvest it into Result.SizeHints. op is the operator
// itself: tests read from it which path its input took.
type sizedOp struct {
	id        int
	highWater func() int
	op        any
}

// island is the unit of parallel execution: the operators of one
// simulated host's capture processes (a leaf island, one per host), or
// the central root process on the aggregator host. Each island owns the
// counters of the operators it executes, so no accounting state is
// shared between workers. They are the run's only accounting state:
// host metrics, load windows and node rows are sums of them, taken in a
// fixed order where a window or the run closes.
type island struct {
	id      int
	central bool
	cost    *CostConfig
	// ops are the island's operators in ID order and stats[i] the
	// counters of ops[i]; last[i] is stats[i] as the last monitoring
	// window closed. NewRunner cuts both from one slab before compile
	// hands out pointers into stats, so the slab never moves.
	ops   []*optimizer.Op
	stats []obs.OpStats
	last  []obs.OpStats

	// Load-monitoring state: closed window deltas (wins) and the next
	// window index to close (curWin). Leaf islands close windows at
	// round boundaries on their executing goroutine; the central island
	// closes on the goroutine replaying its deliveries.
	curWin int
	wins   []HostMetrics

	// tr is the island's trace shard (nil when tracing is off), written
	// only by the island's executing goroutine, the counters' single
	// writer.
	tr *trace.Shard

	// Parallel-mode state, owned by the island's worker goroutine.
	curRound int
	curTag   uint64
	outbox   []live.Item
	// run is the open row run's item, its rows gathered in runRows until
	// sealRun turns them into the item's columns.
	run     live.Item
	runRows exec.Batch
	// curWM is the watermark of the round the worker is executing,
	// stamped into captured link items so the central replay can
	// attribute deliveries to monitoring windows.
	curWM uint64
}

// index returns the position of operator id in isl.ops, and whether the
// island runs it.
func (isl *island) index(id int) (int, bool) {
	return slices.BinarySearchFunc(isl.ops, id, func(op *optimizer.Op, id int) int { return cmp.Compare(op.ID, id) })
}

// metrics sums the island's operator counters into host counts.
func (isl *island) metrics() HostMetrics {
	var m HostMetrics
	for i, op := range isl.ops {
		m.addOp(op.Kind, isl.stats[i])
	}
	return m
}

// closeWindowsTo closes monitoring windows up to (excluding) win: the
// first closed window takes the operators' counter deltas since the
// last snapshot, any further skipped windows are zero. A window's CPU
// units are the cost model applied to its counts. winSec guards
// callers; this method assumes monitoring is on.
func (isl *island) closeWindowsTo(win int) {
	for ; isl.curWin < win; isl.curWin++ {
		var delta HostMetrics
		for i, op := range isl.ops {
			delta.addOp(op.Kind, isl.stats[i].Sub(isl.last[i]))
		}
		delta = isl.cost.withCPU(delta)
		isl.wins = append(isl.wins, delta)
		if isl.tr != nil {
			isl.emitWindowEvents(delta)
		}
		copy(isl.last, isl.stats)
	}
}

// emitWindowEvents records the closing window's host-level delta (its
// CPU units included, so HostLoadSeries rebuilds them exactly) and the
// per-operator deltas since the last snapshot on the island's trace
// shard. The host event is emitted even when all-zero — HostLoadSeries
// rebuilds the full series geometry from these records.
func (isl *island) emitWindowEvents(delta HostMetrics) {
	ev := trace.Event{
		Kind:        trace.KindHostWindow,
		Window:      isl.curWin,
		CPUUnits:    delta.CPUUnits,
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
	for i, op := range isl.ops {
		d := isl.stats[i].Sub(isl.last[i])
		if d == (obs.OpStats{}) {
			continue
		}
		oev := trace.Event{
			Kind:        trace.KindOpWindow,
			Window:      isl.curWin,
			Op:          op.ID,
			OpKind:      op.Kind.String(),
			Query:       opQuery(op),
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

// opQuery labels an operator with its source stream (a scan) or its
// logical query.
func opQuery(op *optimizer.Op) string {
	switch {
	case op.Kind == optimizer.OpScan:
		return op.Stream
	case op.Logical != nil:
		return op.Logical.QueryName
	}
	return ""
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
	// OpStats holds every physical operator's counters keyed by op ID,
	// bit-equal for any worker count, batch size and engine.
	OpStats map[int]*obs.OpStats
	// LoadSeries is the online monitoring output: per-host counter
	// deltas per RunConfig.LoadWindowSec of trace time. Nil unless
	// monitoring was enabled; bit-equal for any Workers/BatchSize.
	LoadSeries []obs.LoadWindow
	// Trace is the gathered causal trace; nil unless RunConfig.Trace
	// was set. Its canonical JSONL (timing trailer stripped) is
	// byte-identical for any Workers/BatchSize, and its host_window
	// events rebuild LoadSeries (trace.HostLoadSeries) exactly, CPU
	// units included.
	Trace *trace.Trace
	// SizeHints reports each aggregate operator's peak live group count
	// and each join's peak pane entry count by physical op ID, suitable
	// for RunConfig.SizeHints on a later run
	// of the same plan. Covers the operators this process executed (the
	// live backend's remote hosts report nothing). Wall-clock-free but
	// data-dependent; not part of the determinism contract's outputs.
	SizeHints map[int]int

	// What Report builds the run report from besides the fields above,
	// kept at finalize so the Runner need not outlive the run.
	plan       *optimizer.Plan
	winSec     uint64
	workers    int
	timing     obs.Timing
	reportOnce sync.Once
	report     *obs.RunReport
}

// Report returns the run's machine-readable report, built on the first
// call. Everything except its Timing section is bit-equal for any
// worker count, batch size and engine.
func (res *Result) Report() *obs.RunReport {
	res.reportOnce.Do(func() { res.report = res.buildReport() })
	return res.report
}

// NewRunner compiles the physical plan into operator instances under
// the given run configuration.
func NewRunner(p *optimizer.Plan, cfg RunConfig) (*Runner, error) {
	r := &Runner{
		plan:        p,
		cost:        cfg.Costs,
		params:      cfg.Params,
		workers:     cfg.Workers,
		batchRounds: defaultBatchRounds,
		metrics:     &Metrics{Hosts: make([]HostMetrics, p.Hosts), Capacity: cfg.Costs.CapacityPerSec},
		routers:     make(map[string]*router),
		collectors:  make(map[string]*exec.Collector),
		sizeHints:   cfg.SizeHints,
	}
	r.batchSize = cfg.BatchSize
	if r.batchSize == 0 {
		r.batchSize = defaultBatchSize
	}
	if r.batchSize < 1 {
		r.batchSize = 1
	}
	if cfg.LoadWindowSec > 0 {
		r.winSec = uint64(cfg.LoadWindowSec)
	}
	if cfg.Trace != nil {
		// Tracing needs a monitoring window to pace window events.
		if r.winSec == 0 {
			r.winSec = DefaultTraceWindowSec
		}
		r.tracer = trace.NewCollector(*cfg.Trace)
		r.trDriver = r.tracer.NewShard()
	}
	r.islands = make([]*island, p.Hosts+1)
	for i := range r.islands {
		r.islands[i] = &island{id: i, central: i == p.Hosts, cost: &r.cost}
		if r.tracer != nil {
			r.islands[i].tr = r.tracer.NewShard()
		}
	}
	r.placeOps()
	if err := r.checkIslands(); err != nil {
		return nil, err
	}
	switch cfg.Engine {
	case "", EngineSim:
		// The oracle runs sequentially whatever the worker count.
		r.engine = EngineSim
		r.parallel = cfg.Workers > 1 && r.batched()
	case EngineLive:
		if !r.batched() {
			return nil, fmt.Errorf("cluster: Engine %q needs BatchSize > 1; BatchSize 1 is the scalar oracle, which runs on the sequential simulator only", EngineLive)
		}
		// The live backend always needs the island decomposition and
		// the capture consumers, whatever the worker count.
		r.engine = EngineLive
		r.parallel = true
	default:
		return nil, fmt.Errorf("cluster: unknown engine %q (want %q or %q)", cfg.Engine, EngineSim, EngineLive)
	}
	r.liveCfg = cfg.Live
	r.driveTimeout = cfg.DriveTimeout
	if r.engine == EngineLive && r.driveTimeout <= 0 {
		r.driveTimeout = r.liveCfg.transportTimeout()
	}
	r.deploy = cfg.Deploy
	if err := r.compile(); err != nil {
		return nil, err
	}
	return r, nil
}

// placeOps gives every island its operators in ID order and their
// counters, cutting the operator lists from one slice and the counters
// and snapshots from one slab.
func (r *Runner) placeOps() {
	ops := slices.Clone(r.plan.Ops)
	slices.SortFunc(ops, func(a, b *optimizer.Op) int {
		return cmp.Or(cmp.Compare(r.islandOf(a).id, r.islandOf(b).id), cmp.Compare(a.ID, b.ID))
	})
	slab := make([]obs.OpStats, 2*len(ops))
	for lo := 0; lo < len(ops); {
		isl := r.islandOf(ops[lo])
		hi := lo + 1
		for hi < len(ops) && r.islandOf(ops[hi]) == isl {
			hi++
		}
		isl.ops = ops[lo:hi:hi]
		isl.stats, isl.last = slab[2*lo:lo+hi:lo+hi], slab[lo+hi:2*hi:2*hi]
		lo = hi
	}
}

// DefaultTraceWindowSec paces host_window/op_window trace events when
// tracing is enabled without explicit load monitoring.
const DefaultTraceWindowSec = 10

// opStatsOf returns the operator's counters on its execution island.
func (r *Runner) opStatsOf(op *optimizer.Op) *obs.OpStats {
	isl := r.islandOf(op)
	i, _ := isl.index(op.ID)
	return &isl.stats[i]
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

// checkIslands refuses a plan in which a scan runs on the central
// island or an island-crossing edge delivers anywhere but into it: the
// parallel and live engines feed leaf islands from the splitter and
// replay every crossing centrally, and the partition-aware optimizer
// builds no other shape. The sequential engines, the batch-1 oracle
// among them, need no islands but refuse such a plan all the same, so
// that every engine accepts the same plans.
func (r *Runner) checkIslands() error {
	central := r.islands[r.plan.Hosts]
	for _, op := range r.plan.Ops {
		to := r.islandOf(op)
		if op.Kind == optimizer.OpScan && to == central {
			return fmt.Errorf("cluster: scan op %d runs on the central island; the splitter feeds leaf islands only", op.ID)
		}
		for _, in := range op.Inputs {
			if from := r.islandOf(in); from != to && to != central {
				return fmt.Errorf("cluster: edge op %d -> op %d crosses from island %d to leaf island %d; crossings must deliver into the central island",
					in.ID, op.ID, from.id, to.id)
			}
		}
	}
	return nil
}

// Run feeds a time-ordered packet trace into the named stream and
// returns the query outputs and load metrics. Streams without data
// are flushed empty.
func (r *Runner) Run(stream string, packets []netgen.Packet) (*Result, error) {
	return r.RunStreams(map[string][]netgen.Packet{stream: packets})
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
	switch {
	case !r.batched():
		return r.runSequential(cursors) // the oracle
	case !r.parallel:
		return r.runInline(cursors)
	default:
		return r.runDistributed(cursors)
	}
}

// batched reports production mode (BatchSize > 1): the splitter
// delivers column groups and compile installs the column kernels. The
// scalar oracle compiles none, so it shares no kernel code with the
// configurations it is the reference for.
func (r *Runner) batched() bool { return r.batchSize > 1 }
