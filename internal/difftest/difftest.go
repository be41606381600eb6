// Package difftest is the equivalence oracle of the randomized
// differential-testing subsystem. Given a workload — a query set over
// the TCP schema plus a trace configuration — it checks the claims the
// partitioning theorems make executable:
//
//   - Plan equivalence (paper Sections 3–4): a compatible partitioning
//     preserves query outputs, so every cell of the oracle's table — a
//     host count, partitioning set, strategy, engine, worker count,
//     batch size, tracing and monitoring — must produce the canonical
//     result of the centralized run (one host holding one partition),
//     and cells that build one physical plan must also agree on every
//     operator and host counter and on their canonical trace bytes.
//   - Load bound (Section 4.2.1): with measured statistics, the cost
//     model's predicted network load is an upper bound on the load any
//     host actually receives (aggregator-resident partitions ship over
//     IPC, so the model over- rather than under-states).
//   - Optimizer/lint agreement (Sections 3.4–3.5, 5.2): a node runs
//     partitioned exactly when the compatibility theory says it may,
//     and every centralize fallback in the physical plan is explained
//     by an incompatibility diagnostic from the static analyzer.
//   - Proof soundness (internal/prove): the explicit per-node
//     derivations the prover emits verify against the plan, their
//     canonical serialization round-trips byte-stably, and every
//     verdict matches the optimizer's placement — so the sweep holds
//     the certificate theory to the same evidence as the runtime.
//
// Workloads usually come from internal/qgen (CheckSeed), but the oracle
// also accepts raw query text (CheckQueries) so the fuzz harness and
// cmd/qap-difftest can feed it directly. A workload the loader or the
// baseline run rejects is reported as an error — "not runnable" — which
// is distinct from a Report with mismatches: the former is an invalid
// input, the latter a found bug.
package difftest

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"qap"
	"qap/internal/core"
	"qap/internal/lint"
	"qap/internal/live"
	"qap/internal/netgen"
	obstrace "qap/internal/obs/trace"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/prove"
	"qap/internal/qgen"
)

// Options configures the sweep dimensions.
type Options struct {
	// Hosts are the cluster sizes to compare; default {1, 2, 4}.
	Hosts []int
	// Workers are the simulator worker counts to compare; default
	// {1, 4}. The live engine does not read it, so live cells do not
	// sweep it.
	Workers []int
	// BatchSizes are the operator batch sizes the batched cells compare
	// on the largest cluster; default {1, 7, 64, 1024} (1 is the scalar
	// path itself, which runs on the sequential engine whatever the
	// worker count, 7 exercises ragged final chunks, 64 and 1024
	// straddle the engine default).
	BatchSizes []int
	// Live adds the live cells: every host count at batch {7, 256} on
	// the live TCP backend, judged like every other cell, plus
	// fault-injection runs (dropped, duplicated, and cut connections)
	// that must converge to the same bytes. Off by default: the cells
	// open real sockets.
	Live bool
}

func (o Options) withDefaults() Options {
	if len(o.Hosts) == 0 {
		o.Hosts = []int{1, 2, 4}
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 4}
	}
	if len(o.BatchSizes) == 0 {
		o.BatchSizes = []int{1, 7, 64, 1024}
	}
	return o
}

// Mismatch is one violated invariant: a configuration whose result
// deviates from the baseline, or a metamorphic check that failed.
type Mismatch struct {
	// Axis names the oracle axis the deviation belongs to
	// (equivalence, batched, loadbound, lintagree, certificate,
	// repartition, trace, live) — the first thing to read in a repro.
	Axis string
	// Config names the deviating configuration or invariant.
	Config string
	// Detail localizes the deviation (first differing line, or the
	// violated inequality).
	Detail string
}

// Report is the outcome of checking one workload.
type Report struct {
	Seed    int64
	Queries string
	Trace   netgen.Config
	// Configs counts the plan configurations and metamorphic
	// invariants compared against the baseline.
	Configs    int
	Mismatches []Mismatch
	// Best is the partitioning set the search recommended.
	Best core.Set
}

// OK reports whether every configuration agreed with the baseline.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// String renders the report; for failures it is a complete repro: the
// seed, the rerun command, the trace literal, and the query text.
func (r *Report) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "seed %d: PASS (%d configurations, best set %s)\n", r.Seed, r.Configs, r.Best)
		return b.String()
	}
	fmt.Fprintf(&b, "seed %d: FAIL (%d of %d configurations mismatched)\n", r.Seed, len(r.Mismatches), r.Configs)
	first := r.Mismatches[0]
	fmt.Fprintf(&b, "first failure: axis %s, config %s\n", first.Axis, first.Config)
	fmt.Fprintf(&b, "rerun: go run ./cmd/qap-difftest -seed %d\n", r.Seed)
	fmt.Fprintf(&b, "trace: %+v\n", r.Trace)
	fmt.Fprintf(&b, "best partitioning: %s\n", r.Best)
	b.WriteString("queries:\n")
	b.WriteString(indent(r.Queries))
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "mismatch [%s: %s]:\n%s", m.Axis, m.Config, indent(m.Detail))
	}
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "    " + strings.Join(lines, "\n    ") + "\n"
}

// CheckSeed generates the workload for seed and checks it.
func CheckSeed(seed int64, opts Options) (*Report, error) {
	return CheckWorkload(qgen.Generate(qgen.Config{Seed: seed}), opts)
}

// CheckWorkload checks a generated workload.
func CheckWorkload(w *qgen.Workload, opts Options) (*Report, error) {
	r, err := CheckQueries(w.DDL, w.Queries, w.Trace, opts)
	if r != nil {
		r.Seed = w.Seed
	}
	return r, err
}

// CheckQueries runs the full oracle over one (ddl, queries, trace)
// triple. The returned error means the workload is not runnable (parse,
// plan, or baseline failure) — not that an invariant failed; those are
// Report.Mismatches.
func CheckQueries(ddl, queries string, trace netgen.Config, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{Queries: queries, Trace: trace}

	sys, err := qap.Load(ddl, queries)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	streams := map[string][]netgen.Packet{"TCP": netgen.Generate(trace).Packets}
	params := map[string]qap.Value{"PATTERN": qap.Uint(qap.AttackPattern)}

	measured, err := sys.MeasureStats(streams)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	analysis, err := sys.Analyze(measured)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	rep.Best = analysis.Best

	run := func(cfg qap.DeployConfig) (*qap.RunResult, error) {
		cfg.Params = params
		dep, err := sys.Deploy(cfg)
		if err != nil {
			return nil, err
		}
		return dep.RunStreams(streams)
	}

	// Baseline: the centralized run. At one host holding one partition
	// every node is compatible, so each aggregate, join and window runs
	// once, with no sub- or super-aggregate; batch 1 is the scalar
	// oracle on the sequential engine.
	base, err := run(qap.DeployConfig{Hosts: 1, PartitionsPerHost: 1, BatchSize: 1})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	winSec := max(trace.DurationSec/3, 1)
	firsts := rep.checkCells(table(opts, analysis.Best, winSec), Canonical(base), run)

	last := opts.Hosts[len(opts.Hosts)-1]
	rep.checkLoadBound(sys, measured, analysis.Best, firsts[planKey{hosts: last, set: "best", nopartial: true}])
	bestPlan, err := optimizer.Build(sys.Graph, analysis.Best, fourHosts)
	rep.checkLintAgreement(sys, analysis.Best, bestPlan, err)
	rep.checkCertificate(sys, analysis.Best, bestPlan, err)
	rep.checkRepartition(sys, measured, analysis, trace, params, winSec)
	return rep, nil
}

// fourHosts builds the physical plans the static checks read.
var fourHosts = optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}

// fail records one mismatch.
func (r *Report) fail(axis, config, format string, args ...any) {
	r.Mismatches = append(r.Mismatches, Mismatch{Axis: axis, Config: config, Detail: fmt.Sprintf(format, args...)})
}

// A cell is one row of the oracle's table: a deployment, the name of
// its partitioning set ("roundrobin" or "best"), and the name of the
// transport fault it injects, if any.
type cell struct {
	qap.DeployConfig
	set, fault string
}

// planKey is what fixes a cell's physical plan. Cells that share one
// must agree on every counter, not only on output.
type planKey struct {
	hosts, pph int
	set        string
	nopartial  bool
	scope      qap.Scope
}

func (c cell) plan() planKey {
	return planKey{c.Hosts, c.PartitionsPerHost, c.set, c.DisablePartialAgg, c.PartialScope}
}

// axis names the oracle axis a cell reports under, by the knob it
// turns beyond plan and worker count: the live engine, monitoring (the
// trace axis), an explicit batch size, else none (plan equivalence).
func (c cell) axis() string {
	switch {
	case c.Engine == qap.EngineLive:
		return "live"
	case c.LoadWindowSec > 0:
		return "trace"
	case c.BatchSize != 0:
		return "batched"
	}
	return "equivalence"
}

// String names the cell by its knobs, for repros; 0 is a default.
func (c cell) String() string {
	s := fmt.Sprintf("hosts=%d pph=%d set=%s workers=%d batch=%d", c.Hosts, c.PartitionsPerHost, c.set, c.Workers, c.BatchSize)
	for _, k := range []struct {
		on   bool
		name string
	}{
		{c.DisablePartialAgg, " nopartial"}, {c.PartialScope == qap.ScopeHost, " scope=host"},
		{c.LoadWindowSec > 0, fmt.Sprintf(" window=%d", c.LoadWindowSec)}, {c.Trace != nil, " traced"},
		{c.Engine != "", " engine=" + c.Engine}, {c.fault != "", " fault=" + c.fault},
	} {
		if k.on {
			s += k.name
		}
	}
	return s
}

// table lists the oracle's cells. Round-robin cells run untraced and
// best-set cells traced, so both paths run at every host count on both
// simulator engines, and every plan a live cell uses has a traced
// simulator cell before it.
func table(opts Options, best core.Set, winSec int) []cell {
	traced := &qap.RunTraceConfig{}
	var cs []cell
	// The sweep: every host count, then one host holding one partition,
	// by set and worker count.
	layouts := make([][2]int, 0, len(opts.Hosts)+1)
	for _, h := range opts.Hosts {
		layouts = append(layouts, [2]int{h, 0})
	}
	for _, l := range append(layouts, [2]int{1, 1}) {
		for _, s := range []cell{
			{set: "roundrobin"},
			{set: "best", DeployConfig: qap.DeployConfig{Partitioning: best, Trace: traced}},
		} {
			for _, w := range opts.Workers {
				s.Hosts, s.PartitionsPerHost, s.Workers = l[0], l[1], w
				cs = append(cs, s)
			}
		}
	}
	last := opts.Hosts[len(opts.Hosts)-1]
	at := func(hosts int, cfg qap.DeployConfig) cell {
		cfg.Hosts, cfg.Partitioning = hosts, best
		return cell{DeployConfig: cfg, set: "best"}
	}
	// Strategies on the largest cluster: partial aggregation off (the
	// load bound reads this cell), and per-host pre-aggregation.
	cs = append(cs, at(last, qap.DeployConfig{DisablePartialAgg: true}),
		at(last, qap.DeployConfig{PartialScope: qap.ScopeHost}))
	// Batched: the scalar oracle and every batch size on both engines,
	// traced; then monitored, the scalar oracle and the default batch.
	for _, bs := range opts.BatchSizes {
		for i, w := range opts.Workers {
			if bs > 1 || i == 0 { // batch 1 runs sequentially whatever the worker count
				cs = append(cs, at(last, qap.DeployConfig{Workers: w, BatchSize: bs, Trace: traced}))
			}
		}
	}
	cs = append(cs, at(last, qap.DeployConfig{Workers: 1, BatchSize: 1, LoadWindowSec: winSec, Trace: traced}))
	for _, w := range opts.Workers {
		cs = append(cs, at(last, qap.DeployConfig{Workers: w, BatchSize: 256, LoadWindowSec: winSec, Trace: traced}))
	}
	if !opts.Live {
		return cs
	}
	// Live: every host count at a ragged and the default batch, then
	// scripted transport faults on both directions, which must cost
	// time, never bytes.
	liveAt := func(hosts, batch int, lo qap.LiveOptions) cell {
		return at(hosts, qap.DeployConfig{BatchSize: batch, Trace: traced, Engine: qap.EngineLive, Live: lo, DriveTimeout: 30 * time.Second})
	}
	for _, h := range opts.Hosts {
		cs = append(cs, liveAt(h, 7, qap.LiveOptions{}), liveAt(h, 256, qap.LiveOptions{}))
	}
	fault := func(name string, faults ...live.Fault) {
		c := liveAt(last, 256, qap.LiveOptions{Faults: &live.FaultPlan{Faults: faults}, Timeout: 2 * time.Second})
		c.fault = name
		cs = append(cs, c)
	}
	fault("drop", live.Fault{Host: 0, Session: 0, Write: 2, Action: live.FaultDrop})
	fault("dup", live.Fault{Host: 0, Session: -1, Write: 1, Action: live.FaultDup})
	fault("cut", live.Fault{Host: 0, Session: 0, Write: 2, Action: live.FaultCut},
		live.Fault{Host: last - 1, Session: 0, Write: 3, Action: live.FaultCut})
	return cs
}

// An outcome is one cell's run, reduced to what the rule compares.
type outcome struct {
	cell
	res           *qap.RunResult
	out, counters string // Canonical(res), counters(res)
	trace         []byte // the canonical JSONL export; nil when untraced
}

// checkCells runs every cell and judges it against the baseline's
// canonical output want, its plan group's first run, and the group's
// first run traced at its window. It returns each group's first run.
func (r *Report) checkCells(cells []cell, want string, run func(qap.DeployConfig) (*qap.RunResult, error)) map[planKey]*outcome {
	type traceKey struct {
		planKey
		window int
	}
	firsts, traced := map[planKey]*outcome{}, map[traceKey]*outcome{}
	for _, c := range cells {
		r.Configs++
		res, err := run(c.DeployConfig)
		if err != nil {
			r.fail(c.axis(), c.String(), "run failed where the baseline succeeded: %v\n", err)
			continue
		}
		x := &outcome{cell: c, res: res, out: Canonical(res), counters: counters(res)}
		if res.Trace != nil {
			if x.trace, err = res.Trace.CanonicalJSONL(); err != nil {
				r.fail(c.axis(), c.String(), "canonical trace encode failed: %v\n", err)
				continue
			}
		}
		ref := firsts[c.plan()]
		if ref == nil {
			ref, firsts[c.plan()] = x, x
		}
		tk := traceKey{c.plan(), c.LoadWindowSec}
		tref := traced[tk]
		if tref == nil && x.trace != nil {
			tref, traced[tk] = x, x
		}
		if d := judge(want, x, ref, tref); d != "" {
			r.fail(c.axis(), c.String(), "%s", d)
		}
	}
	return firsts
}

// judge applies the oracle's one rule to x and returns its first
// violation, "" if none.
//
//   - Output: x's canonical output equals the baseline's, want.
//   - Same plan, same bytes: x equals ref, its plan group's first run,
//     on OpStats and Metrics (CPU units included). A traced x equals
//     tref, the group's first run traced at x's window, on canonical
//     trace bytes, and a monitored x's trace rebuilds its load series
//     exactly (after a round trip through the JSONL codec).
//
// A fault cell must also have fired its fault plan.
func judge(want string, x, ref, tref *outcome) string {
	if x.out != want {
		return firstDiff(want, x.out)
	}
	if x.counters != ref.counters {
		return fmt.Sprintf("counters differ from %s's:\n%s", ref, firstDiff(ref.counters, x.counters))
	}
	if x.Trace != nil {
		if x.trace == nil {
			return "tracing was enabled but the run carries no trace\n"
		}
		if !bytes.Equal(x.trace, tref.trace) {
			return fmt.Sprintf("canonical trace differs from %s:\n%s", tref, firstDiff(string(tref.trace), string(x.trace)))
		}
		if x.LoadWindowSec > 0 {
			rt, err := obstrace.ReadJSONL(bytes.NewReader(x.trace))
			if err != nil {
				return fmt.Sprintf("JSONL round trip failed: %v\n", err)
			}
			if got := rt.HostLoadSeries(""); !reflect.DeepEqual(got, x.res.LoadSeries) {
				return fmt.Sprintf("trace-rebuilt load series differs from the engine's monitoring output:\n  rebuilt: %+v\n  engine:  %+v\n",
					got, x.res.LoadSeries)
			}
		}
	}
	if f := x.Live.Faults; f != nil && f.Hits() == 0 {
		return "fault plan never fired; the scenario tested nothing\n"
	}
	return ""
}

// counters renders a run's per-operator counters in ID order, then its
// per-host metrics, one line each, CPU units included.
func counters(res *qap.RunResult) string {
	ids := make([]int, 0, len(res.OpStats))
	for id := range res.OpStats { //qap:allow maprange -- ids collected then sorted below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "op %d: %+v\n", id, *res.OpStats[id])
	}
	fmt.Fprintf(&b, "metrics: %+v\n", *res.Metrics)
	return b.String()
}

// checkRepartition exercises the adaptive-repartitioning protocol on a
// drifted variant of the workload trace: the original trace as phase 1
// (so the statistics measured above are exactly the pre-drift regime)
// followed by a phase with the source/destination pools swapped and
// the rate trebled. Two invariants are swept across the scalar oracle
// and production on both engines (workers x batch {1,1}, {1,256},
// {4,256}):
//
//   - The trigger decision — whether it fires at all, the window, the
//     measured rate, and the refreshed set — is bit-identical in every
//     cell; the monitoring counters it reads are integers.
//   - The adapted run is byte-identical to a cold restart of the
//     post-switch set over the same streams under the same engine
//     configuration: outputs, node rows, metrics, and load series.
func (r *Report) checkRepartition(sys *qap.System, measured *qap.StaticStats, analysis *qap.Analysis, trace netgen.Config, params map[string]qap.Value, winSec int) {
	if analysis.Best.IsEmpty() {
		// The Section 4.2.1 bound the trigger compares against is only
		// meaningful for a deployed (non-empty) partitioning set.
		return
	}
	drift := trace
	drift.Phases = []netgen.Phase{
		{DurationSec: trace.DurationSec},
		{DurationSec: trace.DurationSec, PacketsPerSec: 3 * trace.PacketsPerSec,
			SrcHosts: trace.DstHosts, DstHosts: trace.SrcHosts},
	}
	streams := map[string][]netgen.Packet{"TCP": netgen.Generate(drift).Packets}

	decision := func(a *qap.AdaptiveResult) string {
		return fmt.Sprintf("window=%d rate=%v switch=%d repartitioned=%v set=%s",
			a.TriggerWindow, a.TriggerRate, a.SwitchTimeSec, a.Repartitioned, a.FinalSet.Normalize())
	}
	var ref string
	for _, c := range []struct{ workers, batch int }{{1, 1}, {1, 256}, {4, 256}} {
		name := fmt.Sprintf("repartition workers=%d batch=%d", c.workers, c.batch)
		r.Configs++
		cfg := qap.DeployConfig{Hosts: 4, Partitioning: analysis.Best, DisablePartialAgg: true,
			Params: params, Workers: c.workers, BatchSize: c.batch, LoadWindowSec: winSec}
		ares, err := sys.RunAdaptive(qap.AdaptiveConfig{Deploy: cfg, Stats: measured, Analysis: analysis, TriggerFactor: 1.5}, streams)
		if err != nil {
			r.fail("repartition", name, "adaptive run failed: %v\n", err)
			continue
		}
		if ref == "" {
			ref = decision(ares)
		} else if got := decision(ares); got != ref {
			r.fail("repartition", name, "trigger decision diverged across engines:\n  reference: %s\n  this cell: %s\n", ref, got)
			continue
		}

		cfg.Partitioning = ares.FinalSet
		dep, err := sys.Deploy(cfg)
		if err != nil {
			r.fail("repartition", name, "cold-restart deploy failed: %v\n", err)
			continue
		}
		cold, err := dep.RunStreams(streams)
		if err != nil {
			r.fail("repartition", name, "cold-restart run failed: %v\n", err)
			continue
		}
		if want, got := Canonical(cold), Canonical(ares.Final); want != got {
			r.fail("repartition", name, "%s", firstDiff(want, got))
			continue
		}
		if !reflect.DeepEqual(cold.Outputs, ares.Final.Outputs) ||
			!reflect.DeepEqual(*cold.Metrics, *ares.Final.Metrics) ||
			!reflect.DeepEqual(cold.LoadSeries, ares.Final.LoadSeries) {
			r.fail("repartition", name, "adapted run is not byte-identical to a cold restart on set %s\n", ares.FinalSet)
		}
	}
}

// checkLoadBound verifies the Section 4.2.1 metamorphic invariant on
// the largest cluster's nopartial cell, x: the cost model's TotalCost
// under measured statistics bounds the network byte rate any host
// receives. It needs partial aggregation disabled (the sub-aggregate
// rewrite re-shapes tuples, which the static model does not price) and
// a non-empty set (for the empty set the builder still pushes
// selections per partition while the model centralizes them, so the
// model's charge is not comparable op by op). A nil x failed to run,
// which its cell has reported.
func (r *Report) checkLoadBound(sys *qap.System, measured *qap.StaticStats, best core.Set, x *outcome) {
	if best.IsEmpty() || x == nil {
		return
	}
	r.Configs++
	duration := max(x.res.Metrics.DurationSec, 1)
	achieved := 0.0
	for _, h := range x.res.Metrics.Hosts {
		achieved = max(achieved, float64(h.NetBytesIn)/duration)
	}
	predicted := core.NewCostModel(sys.Graph, measured).TotalCost(best)
	if achieved > predicted*(1+1e-6)+1e-3 {
		r.fail("loadbound", "loadbound",
			"achieved max per-host net rate %.3f B/s exceeds cost-model bound %.3f B/s for set %s\n",
			achieved, predicted, best)
	}
}

// checkLintAgreement verifies that the physical plan, the
// compatibility theory, and the static analyzer tell the same story
// about the best set: a node's operators all run in partition
// processes iff the node is Distributable, lint's QAP001/QAP003
// findings appear exactly for the Compatible nodes, and every
// centralize fallback traces to an incompatibility diagnostic
// (QAP002/QAP004) somewhere in the node's input subtree. p is the
// best set's fourHosts plan, or err its build failure.
func (r *Report) checkLintAgreement(sys *qap.System, best core.Set, p *optimizer.Plan, err error) {
	if best.IsEmpty() {
		// lint skips empty candidate sets, so there is nothing to
		// cross-check the plan against.
		return
	}
	r.Configs++
	if err != nil {
		r.fail("lintagree", "lintagree", "optimizer.Build failed: %v\n", err)
		return
	}
	lrep := lint.Run(sys.Graph, sys.Queries, lint.Options{Sets: []core.Set{best}})
	pos := map[string]bool{} // query -> has QAP001/QAP003
	neg := map[string]bool{} // query -> has QAP002/QAP004
	for _, d := range lrep.Diagnostics {
		switch d.Code {
		case lint.CodeUniversal, lint.CodeSetCompatible:
			pos[d.Query] = true
		case lint.CodeUnpartitionable, lint.CodeSetExcluded:
			neg[d.Query] = true
		}
	}

	central := centralNodes(p)

	var fail []string
	for _, n := range sys.Graph.QueryNodes() {
		q := n.QueryName
		compat := core.Compatible(best, n)
		if compat != pos[q] || compat == neg[q] {
			fail = append(fail, fmt.Sprintf(
				"%s: Compatible(%s)=%v but lint says compatible=%v excluded=%v", q, best, compat, pos[q], neg[q]))
		}
		if dist := core.Distributable(best, n); dist == central[q] {
			fail = append(fail, fmt.Sprintf(
				"%s: Distributable(%s)=%v but plan has central-process ops=%v", q, best, dist, central[q]))
		}
		if central[q] && !subtreeHasNeg(n, neg) {
			fail = append(fail, fmt.Sprintf(
				"%s: centralize fallback with no incompatibility diagnostic in its subtree", q))
		}
	}
	if len(fail) > 0 {
		r.fail("lintagree", "lintagree", "%s\n", strings.Join(fail, "\n"))
	}
}

// centralNodes maps each logical query node to whether the physical
// plan placed at least one of its operators in the central root
// process (Proc -1) — a centralize fallback or a partial-aggregation
// super stage. OpOutput always sits in the central root process, even
// when the query itself ran fully partitioned — it is the result
// sink, not a fallback — so it is excluded, as are sources.
func centralNodes(p *optimizer.Plan) map[string]bool {
	central := map[string]bool{}
	for _, op := range p.Ops {
		if op.Proc < 0 && op.Kind != optimizer.OpOutput && op.Logical != nil && op.Logical.Kind != plan.KindSource {
			central[op.Logical.QueryName] = true
		}
	}
	return central
}

// checkCertificate is the proof-theory axis: for the recommended set
// and the query-agnostic empty set it builds the explicit
// partition-correctness certificate, has the independent verifier
// re-check every derivation step against the plan, round-trips the
// canonical serialization, and demands the per-node verdicts agree
// with the optimizer's actual placement — a node has operators in the
// central root process iff its verdict is MUST-CENTRALIZE — and, for
// non-empty sets, with the core.Distributable theory the optimizer
// chose the set by. The runtime leg closes through the rest of the
// report: the same configs must already be output-equivalent, so a
// certificate verdict that disagreed with the runtime equivalence
// oracle would surface either here (placement) or in the sweep
// (outputs). Every disagreement is a Mismatch. bestPlan is the best
// set's fourHosts plan, or bestErr its build failure.
func (r *Report) checkCertificate(sys *qap.System, best core.Set, bestPlan *optimizer.Plan, bestErr error) {
	sets := []core.Set{nil}
	if !best.IsEmpty() {
		sets = append(sets, best)
	}
	for _, set := range sets {
		r.Configs++
		name, p, err := "best", bestPlan, bestErr
		if set.IsEmpty() {
			name = "roundrobin"
			p, err = optimizer.Build(sys.Graph, nil, fourHosts)
		}
		fail := func(format string, args ...any) {
			r.fail("certificate", "certificate set="+name, format+"\n", args...)
		}
		if err != nil {
			fail("optimizer.Build failed: %v", err)
			continue
		}

		cert := prove.Prove(sys.Graph, set)
		if err := prove.Verify(sys.Graph, cert); err != nil {
			fail("verifier rejects the prover's certificate: %v", err)
			continue
		}
		b1, err := cert.CanonicalJSON()
		if err != nil {
			fail("canonical serialization failed: %v", err)
			continue
		}
		back, err := prove.ParseCertificate(b1)
		if err != nil {
			fail("canonical bytes failed to reparse: %v", err)
			continue
		}
		if err := prove.Verify(sys.Graph, back); err != nil {
			fail("reparsed certificate rejected: %v", err)
			continue
		}
		b2, err := back.CanonicalJSON()
		if err != nil || !bytes.Equal(b1, b2) {
			fail("canonical bytes unstable across a parse round trip")
			continue
		}

		central := centralNodes(p)
		verdict := map[string]string{}
		for _, np := range cert.Nodes {
			verdict[np.Node] = np.Verdict
		}
		for _, n := range sys.Graph.QueryNodes() {
			q := n.QueryName
			v, ok := verdict[q]
			if !ok {
				fail("%s: certificate has no proof for the node", q)
				continue
			}
			partitioned := v == prove.VerdictPartitioned
			if partitioned == central[q] {
				fail("%s: certificate verdict %s but plan has central-process ops=%v", q, v, central[q])
			}
			if dist := core.Distributable(set, n); !set.IsEmpty() && dist != partitioned {
				fail("%s: certificate verdict %s but Distributable(%s)=%v", q, v, set, dist)
			}
		}
	}
}

// subtreeHasNeg reports whether n or any node feeding it carries an
// incompatibility diagnostic.
func subtreeHasNeg(n *plan.Node, neg map[string]bool) bool {
	if n.Kind != plan.KindSource && neg[n.QueryName] {
		return true
	}
	for _, in := range n.Inputs {
		if subtreeHasNeg(in, neg) {
			return true
		}
	}
	return false
}

// Canonical renders a run result in a plan-independent form: per query
// (in sorted name order) the row multiset in sorted rendering order,
// followed by the logical per-node row counts. Two runs of equivalent
// plans over the same trace must render identically; physical row
// order is deliberately erased (epoch flush interleaving and partition
// merge order are plan details, not query semantics).
func Canonical(res *qap.RunResult) string {
	var b strings.Builder
	for _, name := range res.OutputNames() {
		rows := make([]string, len(res.Outputs[name]))
		for i, t := range res.Outputs[name] {
			rows[i] = t.String()
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, "== %s (%d rows)\n", name, len(rows))
		for _, row := range rows {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	names := make([]string, 0, len(res.NodeRows))
	for name := range res.NodeRows { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("== node rows\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s\t%d\n", name, res.NodeRows[name])
	}
	return b.String()
}

// firstDiff renders the first line where two canonical results
// disagree, with the line number for context.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range min(len(w), len(g)) {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  variant:  %s\n", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: baseline %d lines, variant %d lines\n", len(w), len(g))
}
