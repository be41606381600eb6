// Package qap reproduces "Query-Aware Partitioning for Monitoring
// Massive Network Data Streams" (Johnson, Muthukrishnan, Shkapenyuk,
// Spatscheck, 2008): a query-analysis framework that infers the
// optimal way to partition a high-rate network stream for a whole set
// of continuous GSQL queries, and a partition-aware distributed query
// optimizer that rewrites plans to exploit whatever partitioning the
// splitter hardware provides.
//
// The typical flow:
//
//	sys, _ := qap.Load(netgen.SchemaDDL, queryText)
//	analysis, _ := sys.Analyze(nil)          // recommended partitioning
//	dep, _ := sys.Deploy(qap.DeployConfig{   // distributed plan + cluster
//	    Hosts: 4, Partitioning: analysis.Best,
//	})
//	res, _ := dep.Run("TCP", trace.Packets)  // outputs + load metrics
package qap

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"qap/internal/cluster"
	"qap/internal/core"
	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/lint"
	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/schema"
	"qap/internal/sqlval"
)

// Re-exported core types: partitioning sets and analysis results.
type (
	// Set is a partitioning set: scalar expressions over base stream
	// attributes that the splitter hashes tuples by.
	Set = core.Set
	// Elem is one element of a partitioning set.
	Elem = core.Elem
	// Requirement is one query node's compatibility requirement.
	Requirement = core.Requirement
	// Analysis is the result of the optimal-partitioning search.
	Analysis = core.Result
	// StreamSets assigns a distinct partitioning set per source
	// stream (the paper's future-work extension).
	StreamSets = core.StreamSets
	// PerStreamAnalysis is the result of the per-stream search.
	PerStreamAnalysis = core.PerStreamResult
	// Stats supplies workload statistics to the cost model.
	Stats = core.Stats
	// StaticStats is a configurable Stats implementation.
	StaticStats = core.StaticStats
	// Tuple is a result row.
	Tuple = exec.Tuple
	// Metrics is the per-host load accounting of a run.
	Metrics = cluster.Metrics
	// CostConfig sets the simulator's CPU cost model.
	CostConfig = cluster.CostConfig
	// Scope selects partial-aggregation granularity.
	Scope = optimizer.Scope
	// Value is a runtime SQL value.
	Value = sqlval.Value
	// RunReport is the machine-readable record of a run: plan summary,
	// per-operator stats, per-host metrics, timing. Everything outside
	// its Timing section is deterministic.
	RunReport = obs.RunReport
	// OpStats holds one physical operator's deterministic counters.
	OpStats = obs.OpStats
	// SearchStats instruments the partitioning search.
	SearchStats = obs.SearchStats
	// SearchReport is the search section of a RunReport.
	SearchReport = obs.SearchReport
	// LoadWindow is one closed window of a monitored run's load
	// series (per-host counter deltas over a slice of trace time).
	LoadWindow = obs.LoadWindow
	// HostWindow is one host's counter deltas within a LoadWindow.
	HostWindow = obs.HostWindow
	// Telemetry is the live HTTP observation surface: the run report's
	// Prometheus rendering at /metrics, expvar at /debug/vars, and
	// net/http/pprof under /debug/pprof/.
	Telemetry = obs.Telemetry
)

// NewTelemetry builds an empty telemetry surface; publish a run with
// its SetReport and serve it with its Serve or Handler.
func NewTelemetry() *Telemetry { return obs.NewTelemetry() }

// Partial-aggregation scopes (see optimizer.Scope).
const (
	ScopePartition = optimizer.ScopePartition
	ScopeHost      = optimizer.ScopeHost
)

// ParseSet parses a partitioning set such as "srcIP & 0xFFF0, destIP".
func ParseSet(src string) (Set, error) { return core.ParseSet(src) }

// MustParseSet is ParseSet that panics on error.
func MustParseSet(src string) Set { return core.MustParseSet(src) }

// NewStats returns workload statistics with heuristic defaults.
func NewStats() *StaticStats { return core.NewStaticStats() }

// Reconcile computes the largest partitioning set compatible with
// queries requiring either input set (paper Section 4.1).
func Reconcile(a, b Set) Set { return core.Reconcile(a, b) }

// System is a loaded schema plus an analyzed query set.
type System struct {
	Catalog *schema.Catalog
	Queries *gsql.QuerySet
	Graph   *plan.Graph

	// ddl and queries are the source texts Load parsed, which a live
	// deployment ships to its remote nodes.
	ddl, queries string
}

// Load parses stream DDL and a GSQL query set and builds the logical
// query DAG.
func Load(ddl, queries string) (*System, error) {
	s, _, err := load(ddl, queries)
	return s, err
}

// load is Load that also names the input an error is in: "Schema" or
// "Queries".
func load(ddl, queries string) (*System, string, error) {
	cat, err := schema.Parse(ddl)
	if err != nil {
		return nil, "Schema", err
	}
	qs, err := gsql.ParseQuerySet(queries)
	if err != nil {
		return nil, "Queries", err
	}
	g, err := plan.Build(cat, qs)
	if err != nil {
		return nil, "Queries", err
	}
	return &System{Catalog: cat, Queries: qs, Graph: g, ddl: ddl, queries: queries}, "", nil
}

// MustLoad is Load that panics on error, for examples and tests with
// constant inputs.
func MustLoad(ddl, queries string) *System {
	s, err := Load(ddl, queries)
	if err != nil {
		panic(err)
	}
	return s
}

// Analyze runs the paper's Section 4 algorithm: infer every node's
// compatible partitioning set, reconcile them, and search for the set
// minimizing the maximum per-node network cost. A nil stats uses the
// heuristic defaults.
func (s *System) Analyze(stats Stats) (*Analysis, error) {
	return core.Optimize(s.Graph, stats, core.DefaultOptions())
}

// AnalyzePerStream runs the per-stream variant of the analysis: each
// source stream gets its own partitioning set, so queries over
// different streams no longer conflict, and cross-stream equi-joins
// are satisfied by position-aligned sets.
func (s *System) AnalyzePerStream(stats Stats) (*PerStreamAnalysis, error) {
	return core.OptimizePerStream(s.Graph, stats, core.DefaultOptions())
}

// Requirements returns every query's inferred partitioning
// requirement, keyed by query name.
func (s *System) Requirements() map[string]Requirement {
	out := make(map[string]Requirement)
	for n, r := range core.Requirements(s.Graph) { //qap:allow maprange -- map-to-map copy, order-insensitive
		if n.Kind != plan.KindSource {
			out[n.QueryName] = r
		}
	}
	return out
}

// Compatible reports whether partitioning by ps is compatible with the
// named query (paper Section 3.4).
func (s *System) Compatible(ps Set, query string) (bool, error) {
	n, ok := s.Graph.Node(query)
	if !ok {
		return false, fmt.Errorf("qap: no such query %q", query)
	}
	return core.Compatible(ps, n), nil
}

// PlanCost evaluates the Section 4.2.1 cost model: the maximum bytes
// per second any single node receives under partitioning ps.
func (s *System) PlanCost(ps Set, stats Stats) float64 {
	return core.NewCostModel(s.Graph, stats).PlanCost(ps)
}

// PlanTotalCost evaluates the sum-of-nodes variant of the Section
// 4.2.1 cost model: total bytes per second shipped under partitioning
// ps. It upper-bounds the network ingress of any single host in a
// deployment of ps without partial aggregation, which is what the
// load-bound monitor compares measured rates against.
func (s *System) PlanTotalCost(ps Set, stats Stats) float64 {
	return core.NewCostModel(s.Graph, stats).TotalCost(ps)
}

// Reanalyze re-runs the partitioning decision under refreshed
// statistics by re-costing a prior analysis's candidate list — the
// Section 4.2.2 enumeration depends only on the query graph, so it is
// skipped. The result is identical to a fresh Analyze under the same
// stats; a nil prior falls back to one.
func (s *System) Reanalyze(prior *Analysis, stats Stats) (*Analysis, error) {
	return core.Reoptimize(s.Graph, prior, stats, core.DefaultOptions())
}

// LintReport is the static analyzer's diagnostic report.
type LintReport = lint.Report

// Lint runs the static semantic analyzer over the loaded query set:
// per-node partitioning-compatibility explanations, window alignment,
// HAVING placement, holistic aggregates, dead columns, and outer-join
// NULL-padding hazards. A non-nil analysis explains its recommended
// set first; source labels the input in the report.
func (s *System) Lint(analysis *Analysis, source string) *LintReport {
	var opts lint.Options
	opts.Source = source
	opts.Analysis = analysis
	return lint.Run(s.Graph, s.Queries, opts)
}

// LintLoadError wraps a Load failure as a lint report with a single
// QAP000 diagnostic, so tooling renders parse and build errors in the
// same format as rule findings.
func LintLoadError(source string, err error) *LintReport {
	return lint.LoadErrorReport(source, err)
}

// DeployConfig selects the cluster shape and strategy.
type DeployConfig struct {
	// Hosts is the cluster size; PartitionsPerHost the splitter
	// fan-out per host (the paper uses 2 for dual-core machines).
	Hosts, PartitionsPerHost int
	// Partitioning is the splitter's hash set; empty/nil partitions
	// round robin (query-agnostic).
	Partitioning Set
	// PerStream, when non-nil, partitions each source stream by its
	// own set and takes precedence over Partitioning.
	PerStream StreamSets
	// DisablePartialAgg turns off the sub/super-aggregate rewrite for
	// incompatible aggregations.
	DisablePartialAgg bool
	// PartialScope selects per-partition (naive) or per-host
	// (optimized) pre-aggregation; the zero value is ScopePartition,
	// the naive per-partition scope.
	PartialScope Scope
	// Costs configures the CPU accounting; zero value uses defaults.
	Costs CostConfig
	// Params binds #NAME# query parameters.
	Params map[string]Value
	// Workers selects the simulator's execution engine: <= 1 runs the
	// sequential engine, one executor on the calling goroutine fed round
	// by round by a splitter goroutine; > 1 runs one worker goroutine per
	// simulated host (capped at Hosts) plus a splitter and a central
	// replay goroutine. Results are byte-identical either way.
	Workers int
	// BatchSize selects the execution mode: 1 is the scalar oracle, one
	// tuple at a time on the sequential simulator whatever Workers says
	// (EngineLive refuses it), the reference every other configuration is
	// checked against; anything larger is production — each round's
	// packets reach the operators as typed column vectors in chunks of
	// up to BatchSize rows, through compiled column kernels where the
	// plan supports them. 0 (the default) is the engine's default chunk
	// size. Canonical results, stats and traces are identical at every
	// batch size; see cluster.RunConfig.BatchSize.
	BatchSize int
	// Columnar is not read.
	//
	// Deprecated: BatchSize > 1 is the columnar path; there is no
	// row-batched mode left to choose it over. The field stays declared
	// because the frozen bench/ module sets it in a struct literal; see
	// cluster.RunConfig.Columnar.
	Columnar bool
	// CollectStats is not read.
	//
	// Deprecated: every run returns its operator counters
	// (RunResult.OpStats) and its report (RunResult.Report). The field
	// stays declared because the frozen bench/ module sets it; see
	// Columnar.
	CollectStats bool
	// LoadWindowSec enables online load monitoring: per-host counter
	// deltas are sampled every LoadWindowSec seconds of trace time
	// into RunResult.LoadSeries. The series is bit-equal for any Workers
	// or BatchSize value; 0 disables monitoring (RunAdaptive defaults
	// it to 10).
	LoadWindowSec int
	// Trace enables deterministic causal tracing into RunResult.Trace:
	// structured events keyed by round, window, host, and operator
	// (never wall clock), whose canonical JSONL export is
	// byte-identical for any Workers or BatchSize value. When
	// LoadWindowSec is 0 window events default to
	// cluster.DefaultTraceWindowSec pacing. Nil (the default) disables
	// tracing; the run is never perturbed either way.
	Trace *RunTraceConfig
	// Engine selects the cluster backend: EngineSim ("" or "sim") runs
	// the in-process simulator; EngineLive ("live") runs each leaf host
	// as a node behind a real TCP listener — in-process goroutine nodes
	// by default, separate qap-node processes via Live.Nodes — with the
	// splitter shipping serialized tuple batches over persistent
	// connections. Canonical results, OpStats, monitoring series, and
	// trace bytes are byte-identical across backends.
	Engine string
	// Live tunes the live backend (node addresses, transport timeout,
	// accept grace, fault injection); ignored by the simulator.
	Live LiveOptions
	// DriveTimeout bounds every blocking receive in the drive loops of
	// both backends, so a wedged worker or node fails the run with a
	// positioned error instead of hanging. 0 leaves the simulator
	// unguarded and the live backend on its transport timeout.
	DriveTimeout time.Duration
}

// The DeployConfig.Engine values.
const (
	// EngineSim is the in-process simulator (the default).
	EngineSim = cluster.EngineSim
	// EngineLive is the live TCP backend.
	EngineLive = cluster.EngineLive
)

// LiveOptions tunes the live TCP backend; see cluster.LiveConfig.
type LiveOptions = cluster.LiveConfig

// Deployment is a compiled distributed plan ready to run traces.
type Deployment struct {
	sys    *System
	plan   *optimizer.Plan
	cfg    DeployConfig
	params exec.Params

	// hintMu guards sizeHints: per-operator group high-water marks
	// harvested from completed runs and fed to the next run's engine as
	// a warm-start (pre-sized hash state skips the growth chains a
	// fresh instantiation otherwise re-pays). Purely a performance
	// carry-over — canonical outputs never depend on it.
	hintMu    sync.Mutex
	sizeHints map[int]int
}

// Deploy builds the partition-aware distributed plan (Section 5) for
// the configured cluster and partitioning.
func (s *System) Deploy(cfg DeployConfig) (*Deployment, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1
	}
	if cfg.PartitionsPerHost <= 0 {
		cfg.PartitionsPerHost = 2
	}
	p, err := optimizer.Build(s.Graph, cfg.Partitioning, optimizer.Options{
		Hosts:             cfg.Hosts,
		PartitionsPerHost: cfg.PartitionsPerHost,
		PartialAgg:        !cfg.DisablePartialAgg,
		PartialScope:      cfg.PartialScope,
		StreamSets:        cfg.PerStream,
	})
	if err != nil {
		return nil, err
	}
	params := make(exec.Params, len(cfg.Params))
	for k, v := range cfg.Params { //qap:allow maprange -- map-to-map copy, order-insensitive
		params[k] = v
	}
	return &Deployment{sys: s, plan: p, cfg: cfg, params: params}, nil
}

// PlanString renders the physical plan for inspection.
func (d *Deployment) PlanString() string { return d.plan.String() }

// PlanDOT renders the physical plan as Graphviz DOT, clustered by
// host with network edges highlighted.
func (d *Deployment) PlanDOT() string { return d.plan.DOT() }

// GraphDOT renders the logical query DAG as Graphviz DOT.
func (s *System) GraphDOT() string { return s.Graph.DOT() }

// RunResult is one run's outputs and metrics.
type RunResult struct {
	// Outputs maps each root query to its result rows.
	Outputs map[string][]Tuple
	// NodeRows counts every logical query node's complete output rows
	// (intermediate nodes included), the input to MeasureStats.
	NodeRows map[string]int64
	// Metrics is the per-host CPU and network accounting.
	Metrics *Metrics
	// OpStats maps every physical operator ID to its counters.
	OpStats map[int]*OpStats
	// LoadSeries is the online monitoring output: per-host counter
	// deltas per DeployConfig.LoadWindowSec of trace time. A traced run
	// (DeployConfig.Trace) with LoadWindowSec 0 carries one too, paced
	// at the trace's window of cluster.DefaultTraceWindowSec seconds.
	// Nil when the run has neither.
	LoadSeries []LoadWindow
	// Trace is the run's causal trace; nil unless DeployConfig.Trace
	// was set. Its CanonicalJSONL is byte-identical for any
	// Workers/BatchSize, and HostLoadSeries rebuilds LoadSeries from
	// its host_window events exactly, CPU units included.
	Trace *RunTrace

	run *cluster.Result
}

// Report returns the run's machine-readable report, built on the first
// call. Strip its Timing section (Canonical) and the JSON is
// byte-identical for any worker count, batch size and engine.
func (r *RunResult) Report() *RunReport { return r.run.Report() }

// OutputNames returns the result's query names in sorted order — the
// canonical iteration order for printing Outputs (Go map order is
// random and must not leak into tool output).
func (r *RunResult) OutputNames() []string {
	names := make([]string, 0, len(r.Outputs))
	for name := range r.Outputs { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run streams a packet trace through a fresh instantiation of the
// deployment. Each call starts from clean operator state, so a
// Deployment can run many traces.
func (d *Deployment) Run(stream string, packets []netgen.Packet) (*RunResult, error) {
	return d.RunStreams(map[string][]netgen.Packet{stream: packets})
}

// RunStreams feeds one trace per source stream, interleaved in global
// time order, for query sets that join several input streams.
func (d *Deployment) RunStreams(streams map[string][]netgen.Packet) (*RunResult, error) {
	r, err := d.newRunner()
	if err != nil {
		return nil, err
	}
	res, err := r.RunStreams(streams)
	if err != nil {
		return nil, err
	}
	d.mergeSizeHints(res.SizeHints)
	return &RunResult{
		Outputs:    res.Outputs,
		NodeRows:   res.NodeRows,
		Metrics:    res.Metrics,
		OpStats:    res.OpStats,
		LoadSeries: res.LoadSeries,
		Trace:      res.Trace,
		run:        res,
	}, nil
}

// newRunner instantiates the deployment's cluster runner with fresh
// operator state.
func (d *Deployment) newRunner() (*cluster.Runner, error) {
	costs := d.cfg.Costs
	if costs.ScanCost == 0 && costs.RemoteCost == 0 {
		def := cluster.DefaultCosts()
		def.CapacityPerSec = costs.CapacityPerSec
		costs = def
	}
	var deploy []byte
	if d.cfg.Engine == EngineLive && len(d.cfg.Live.Nodes) > 0 {
		var err error
		if deploy, err = d.encodeSpec(); err != nil {
			return nil, err
		}
	}
	return cluster.NewRunner(d.plan, cluster.RunConfig{
		Costs:         costs,
		Params:        d.params,
		Workers:       d.cfg.Workers,
		BatchSize:     d.cfg.BatchSize,
		SizeHints:     d.copySizeHints(),
		LoadWindowSec: d.cfg.LoadWindowSec,
		Trace:         d.cfg.Trace,
		Engine:        d.cfg.Engine,
		Live:          d.cfg.Live,
		DriveTimeout:  d.cfg.DriveTimeout,
		Deploy:        deploy,
	})
}

// copySizeHints snapshots the warm-start hints for a new runner (the
// runner must not share a map a concurrent Run could be merging into).
func (d *Deployment) copySizeHints() map[int]int {
	d.hintMu.Lock()
	defer d.hintMu.Unlock()
	if len(d.sizeHints) == 0 {
		return nil
	}
	cp := make(map[int]int, len(d.sizeHints))
	for id, n := range d.sizeHints { //qap:allow maprange -- map-to-map copy, order-insensitive
		cp[id] = n
	}
	return cp
}

// mergeSizeHints folds a finished run's group high-water marks into
// the deployment's warm-start hints (max per operator).
func (d *Deployment) mergeSizeHints(hints map[int]int) {
	if len(hints) == 0 {
		return
	}
	d.hintMu.Lock()
	defer d.hintMu.Unlock()
	if d.sizeHints == nil {
		d.sizeHints = make(map[int]int, len(hints))
	}
	for id, n := range hints { //qap:allow maprange -- max-merge, order-insensitive
		if n > d.sizeHints[id] {
			d.sizeHints[id] = n
		}
	}
}

// Uint wraps a uint64 as a parameter value.
func Uint(v uint64) Value { return sqlval.Uint(v) }

// Str wraps a string as a parameter value.
func Str(s string) Value { return sqlval.Str(s) }

// Trace generation re-exports, so applications can drive deployments
// with synthetic traffic through the public API alone.
type (
	// TraceConfig controls synthetic trace generation.
	TraceConfig = netgen.Config
	// Trace is a generated time-ordered packet sequence.
	Trace = netgen.Trace
	// Packet is one captured packet.
	Packet = netgen.Packet
)

// Causal-trace re-exports ("Run" prefixed: TraceConfig already names
// the packet-trace generator configuration above).
type (
	// RunTrace is a run's deterministic causal trace: the event
	// sequence DeployConfig.Trace captures.
	RunTrace = trace.Trace
	// RunTraceConfig configures causal trace capture (full run or
	// bounded flight-recorder ring).
	RunTraceConfig = trace.Config
	// TraceEvent is one causal trace record.
	TraceEvent = trace.Event
)

// TCPSchemaDDL is the packet stream schema generated traces conform to.
const TCPSchemaDDL = netgen.SchemaDDL

// AttackPattern is the OR of TCP flags marking a suspicious flow in
// generated traces (bind it to the #PATTERN# parameter).
const AttackPattern = netgen.AttackPattern

// DefaultTraceConfig returns a laptop-scale trace configuration.
func DefaultTraceConfig() TraceConfig { return netgen.DefaultConfig() }

// GenerateTrace builds a deterministic synthetic packet trace.
func GenerateTrace(cfg TraceConfig) *Trace { return netgen.Generate(cfg) }
