// Package difftest is the equivalence oracle of the randomized
// differential-testing subsystem. Given a workload — a query set over
// the TCP schema plus a trace configuration — it checks the claims the
// partitioning theorems make executable:
//
//   - Plan equivalence (paper Sections 3–4): a compatible partitioning
//     preserves query outputs, so the centralized plan, the partitioned
//     plan, every host count, and every worker count must produce the
//     same canonical result set.
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
	// Workers are the engine worker counts to compare; default {1, 4}.
	Workers []int
	// BatchSizes are the operator batch sizes the batched-equivalence
	// section compares against the scalar path; default {1, 7, 64,
	// 1024} (1 is the scalar path itself, which runs on the sequential
	// engine whatever the worker count, 7 exercises ragged final chunks,
	// 64 and 1024 straddle the engine default).
	BatchSizes []int
	// Live adds the live-vs-sim axis: every hosts × workers × batch
	// {7, 256} cell re-runs on the live TCP backend and must match the
	// simulator byte for byte (canonical output, OpStats, trace
	// bytes), plus fault-injection runs (dropped, duplicated, and cut
	// connections) that must converge to the same bytes. Off by
	// default: the axis opens real sockets and costs a multiple of the
	// base sweep.
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
	tr := netgen.Generate(trace)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
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

	// Baseline: one host, centralized plan, sequential engine, scalar
	// (tuple-at-a-time) execution. The sweep below runs with the
	// engine's default batch size, so every cell also gates the batched
	// hot path against this scalar reference.
	base, err := run(qap.DeployConfig{Hosts: 1, Workers: 1, BatchSize: 1})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	want := Canonical(base)

	// Equivalence sweep: every (hosts, partitioning, workers) cell, the
	// query-aware set against the query-agnostic round robin.
	sets := []struct {
		name string
		set  core.Set
	}{{"roundrobin", nil}, {"best", analysis.Best}}
	for _, hosts := range opts.Hosts {
		for _, s := range sets {
			for _, workers := range opts.Workers {
				name := fmt.Sprintf("hosts=%d set=%s workers=%d", hosts, s.name, workers)
				rep.compare(name, want, run, qap.DeployConfig{
					Hosts: hosts, Partitioning: s.set, Workers: workers,
				})
			}
		}
	}
	// One host holding one partition: every node is compatible there, so
	// both sets run each aggregate, join and window once, on p0.
	for _, s := range sets {
		for _, workers := range opts.Workers {
			name := fmt.Sprintf("hosts=1 pph=1 set=%s workers=%d", s.name, workers)
			rep.compare(name, want, run, qap.DeployConfig{
				Hosts: 1, PartitionsPerHost: 1, Partitioning: s.set, Workers: workers,
			})
		}
	}
	// Strategy variants on the largest cluster: partial aggregation off,
	// and per-partition (naive) pre-aggregation scope.
	last := opts.Hosts[len(opts.Hosts)-1]
	rep.compare(fmt.Sprintf("hosts=%d set=best nopartial", last), want, run, qap.DeployConfig{
		Hosts: last, Partitioning: analysis.Best, DisablePartialAgg: true,
	})
	rep.compare(fmt.Sprintf("hosts=%d set=best scope=partition", last), want, run, qap.DeployConfig{
		Hosts: last, Partitioning: analysis.Best, PartialScope: qap.ScopePartition,
	})

	rep.checkBatched(opts, want, run, analysis.Best, last)
	rep.checkLive(opts, sys, want, analysis.Best, streams, params)
	rep.checkLoadBound(sys, measured, analysis.Best, run)
	rep.checkLintAgreement(sys, analysis.Best)
	rep.checkCertificate(sys, analysis.Best)
	rep.checkRepartition(sys, measured, analysis, trace, params)
	rep.checkTrace(sys, analysis.Best, trace, streams, params)
	return rep, nil
}

// checkTrace exercises the deterministic-tracing axis over the
// workload: with causal tracing on, the canonical JSONL export (timing
// trailer stripped) must be byte-identical in every cell — the scalar
// oracle and production on both engines — and the per-host load
// series rebuilt from the trace's host_window events (after a round
// trip through the JSONL codec) must equal the engine's own monitoring
// output exactly, CPU units included.
func (r *Report) checkTrace(sys *qap.System, best core.Set, traceCfg netgen.Config, streams map[string][]netgen.Packet, params map[string]qap.Value) {
	winSec := traceCfg.DurationSec / 3
	if winSec < 1 {
		winSec = 1
	}
	var ref []byte
	for _, cell := range []struct{ workers, batch int }{{1, 1}, {1, 256}, {4, 256}} {
		name := fmt.Sprintf("trace workers=%d batch=%d", cell.workers, cell.batch)
		r.Configs++
		dep, err := sys.Deploy(qap.DeployConfig{
			Hosts: 4, Partitioning: best, Params: params,
			Workers: cell.workers, BatchSize: cell.batch,
			LoadWindowSec: winSec, Trace: &qap.RunTraceConfig{},
		})
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name,
				Detail: fmt.Sprintf("deploy failed: %v\n", err)})
			continue
		}
		res, err := dep.RunStreams(streams)
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name,
				Detail: fmt.Sprintf("run failed: %v\n", err)})
			continue
		}
		if res.Trace == nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name,
				Detail: "tracing was enabled but the run carries no trace\n"})
			continue
		}
		canon, err := res.Trace.CanonicalJSONL()
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name,
				Detail: fmt.Sprintf("canonical encode failed: %v\n", err)})
			continue
		}
		if ref == nil {
			ref = canon
		} else if !bytes.Equal(canon, ref) {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name,
				Detail: "canonical trace diverged across engines:\n" + firstDiff(string(ref), string(canon))})
			continue
		}
		rt, err := obstrace.ReadJSONL(bytes.NewReader(canon))
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name,
				Detail: fmt.Sprintf("JSONL round trip failed: %v\n", err)})
			continue
		}
		if got := rt.HostLoadSeries(""); !reflect.DeepEqual(got, res.LoadSeries) {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "trace", Config: name, Detail: fmt.Sprintf(
				"trace-rebuilt load series differs from the engine's monitoring output:\n  rebuilt: %+v\n  engine:  %+v\n",
				got, res.LoadSeries)})
		}
	}
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
func (r *Report) checkRepartition(sys *qap.System, measured *qap.StaticStats, analysis *qap.Analysis, trace netgen.Config, params map[string]qap.Value) {
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
	winSec := trace.DurationSec / 3
	if winSec < 1 {
		winSec = 1
	}

	var ref *qap.AdaptiveResult
	for _, cell := range []struct{ workers, batch int }{{1, 1}, {1, 256}, {4, 256}} {
		name := fmt.Sprintf("repartition workers=%d batch=%d", cell.workers, cell.batch)
		r.Configs++
		ares, err := sys.RunAdaptive(qap.AdaptiveConfig{
			Deploy: qap.DeployConfig{
				Hosts: 4, Partitioning: analysis.Best, DisablePartialAgg: true,
				Params: params, Workers: cell.workers, BatchSize: cell.batch,
				LoadWindowSec: winSec,
			},
			Stats:         measured,
			Analysis:      analysis,
			TriggerFactor: 1.5,
		}, streams)
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "repartition", Config: name,
				Detail: fmt.Sprintf("adaptive run failed: %v\n", err)})
			continue
		}
		if ref == nil {
			ref = ares
		} else if ares.TriggerWindow != ref.TriggerWindow || ares.TriggerRate != ref.TriggerRate ||
			ares.SwitchTimeSec != ref.SwitchTimeSec || ares.Repartitioned != ref.Repartitioned ||
			!ares.FinalSet.Equal(ref.FinalSet) {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "repartition", Config: name, Detail: fmt.Sprintf(
				"trigger decision diverged across engines:\n  reference: window=%d rate=%v switch=%d repartitioned=%v set=%s\n  this cell: window=%d rate=%v switch=%d repartitioned=%v set=%s\n",
				ref.TriggerWindow, ref.TriggerRate, ref.SwitchTimeSec, ref.Repartitioned, ref.FinalSet,
				ares.TriggerWindow, ares.TriggerRate, ares.SwitchTimeSec, ares.Repartitioned, ares.FinalSet)})
			continue
		}

		dep, err := sys.Deploy(qap.DeployConfig{
			Hosts: 4, Partitioning: ares.FinalSet, DisablePartialAgg: true,
			Params: params, Workers: cell.workers, BatchSize: cell.batch,
			LoadWindowSec: winSec,
		})
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "repartition", Config: name,
				Detail: fmt.Sprintf("cold-restart deploy failed: %v\n", err)})
			continue
		}
		cold, err := dep.RunStreams(streams)
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "repartition", Config: name,
				Detail: fmt.Sprintf("cold-restart run failed: %v\n", err)})
			continue
		}
		if want, got := Canonical(cold), Canonical(ares.Final); want != got {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "repartition", Config: name, Detail: firstDiff(want, got)})
			continue
		}
		if !reflect.DeepEqual(cold.Outputs, ares.Final.Outputs) ||
			!reflect.DeepEqual(*cold.Metrics, *ares.Final.Metrics) ||
			!reflect.DeepEqual(cold.LoadSeries, ares.Final.LoadSeries) {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "repartition", Config: name, Detail: fmt.Sprintf(
				"adapted run is not byte-identical to a cold restart on set %s\n", ares.FinalSet)})
		}
	}
}

// checkBatched verifies the production path — column groups, compiled
// kernels, dense aggregate state — against the scalar oracle on one
// fixed plan: for every (batch size, worker count) cell the canonical
// output and the canonical trace bytes must equal the scalar
// reference's, and so must the per-operator counters and the per-host
// metrics, CPU units included.
func (r *Report) checkBatched(opts Options, want string, run func(qap.DeployConfig) (*qap.RunResult, error), best core.Set, hosts int) {
	fail := func(name, format string, args ...any) {
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "batched", Config: name,
			Detail: fmt.Sprintf(format, args...)})
	}
	const refName = "batched scalar-ref"
	r.Configs++
	ref, err := run(qap.DeployConfig{
		Hosts: hosts, Partitioning: best, Workers: 1, BatchSize: 1, Trace: &qap.RunTraceConfig{},
	})
	if err != nil {
		fail(refName, "run failed where baseline succeeded: %v\n", err)
		return
	}
	if got := Canonical(ref); got != want {
		fail(refName, "%s", firstDiff(want, got))
		return
	}
	refTrace, err := ref.Trace.CanonicalJSONL()
	if err != nil {
		fail(refName, "reference trace encode failed: %v\n", err)
		return
	}
	for _, bs := range opts.BatchSizes {
		for _, workers := range opts.Workers {
			if bs == 1 {
				continue // the scalar reference itself, at any worker count
			}
			name := fmt.Sprintf("hosts=%d set=best workers=%d batch=%d", hosts, workers, bs)
			r.Configs++
			res, err := run(qap.DeployConfig{
				Hosts: hosts, Partitioning: best, Workers: workers, BatchSize: bs, Trace: &qap.RunTraceConfig{},
			})
			if err != nil {
				fail(name, "run failed where baseline succeeded: %v\n", err)
				continue
			}
			if got := Canonical(res); got != want {
				fail(name, "%s", firstDiff(want, got))
				continue
			}
			if d := diffOpStats(ref.OpStats, res.OpStats); d != "" {
				fail(name, "%s", d)
				continue
			}
			if d := diffMetrics(ref.Metrics, res.Metrics); d != "" {
				fail(name, "%s", d)
				continue
			}
			canon, err := res.Trace.CanonicalJSONL()
			if err != nil {
				fail(name, "canonical trace encode failed: %v\n", err)
				continue
			}
			if !bytes.Equal(canon, refTrace) {
				fail(name, "canonical trace diverged from the scalar reference:\n%s",
					firstDiff(string(refTrace), string(canon)))
			}
		}
	}
}

// diffOpStats compares two per-operator counter maps and renders the
// first disagreement; every counter, CPU units included, must be
// identical.
func diffOpStats(want, got map[int]*qap.OpStats) string {
	if len(want) != len(got) {
		return fmt.Sprintf("operator count differs: scalar %d, batched %d\n", len(want), len(got))
	}
	ids := make([]int, 0, len(want))
	for id := range want { //qap:allow maprange -- ids collected then sorted below
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w, g := want[id], got[id]
		if g == nil {
			return fmt.Sprintf("op %d: present in scalar run, missing in batched run\n", id)
		}
		if *w != *g {
			return fmt.Sprintf("op %d: counters differ:\n  scalar:  %+v\n  batched: %+v\n", id, *w, *g)
		}
	}
	return ""
}

// diffMetrics renders two runs' metrics when they differ in any field,
// CPU units included.
func diffMetrics(want, got *qap.Metrics) string {
	if reflect.DeepEqual(want, got) {
		return ""
	}
	return fmt.Sprintf("metrics differ:\n  reference: %+v\n  run:       %+v\n", *want, *got)
}

// compare runs one configuration and records a mismatch if its
// canonical result differs from the baseline's.
func (r *Report) compare(name, want string, run func(qap.DeployConfig) (*qap.RunResult, error), cfg qap.DeployConfig) {
	r.Configs++
	res, err := run(cfg)
	if err != nil {
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "equivalence", Config: name,
			Detail: fmt.Sprintf("run failed where baseline succeeded: %v\n", err)})
		return
	}
	if got := Canonical(res); got != want {
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "equivalence", Config: name, Detail: firstDiff(want, got)})
	}
}

// checkLive is the live-vs-sim axis: the live TCP backend — real
// listeners, serialized tuple batches, credit-based backpressure —
// must reproduce the simulator byte for byte in every hosts × workers
// × batch cell: canonical output, per-operator counters and per-host
// metrics (CPU units included), and canonical trace bytes. A second
// leg injects transport faults (dropped, duplicated, and cut
// connections on both directions) and demands the reconnect-and-replay
// recovery converge to the same bytes.
func (r *Report) checkLive(opts Options, sys *qap.System, want string, best core.Set, streams map[string][]netgen.Packet, params map[string]qap.Value) {
	if !opts.Live {
		return
	}
	run := func(hosts, workers, batch int, lo qap.LiveOptions, engine string) (*qap.RunResult, error) {
		dep, err := sys.Deploy(qap.DeployConfig{
			Hosts: hosts, Partitioning: best, Params: params,
			Workers: workers, BatchSize: batch,
			Trace:  &qap.RunTraceConfig{},
			Engine: engine, Live: lo,
			DriveTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		return dep.RunStreams(streams)
	}
	check := func(name string, ref *qap.RunResult, refTrace []byte, res *qap.RunResult, err error) {
		r.Configs++
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: name,
				Detail: fmt.Sprintf("live run failed where the simulator succeeded: %v\n", err)})
			return
		}
		if got := Canonical(res); got != want {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: name,
				Detail: firstDiff(want, got)})
			return
		}
		d := diffOpStats(ref.OpStats, res.OpStats)
		if d == "" {
			d = diffMetrics(ref.Metrics, res.Metrics)
		}
		if d != "" {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: name, Detail: d})
			return
		}
		canon, err := res.Trace.CanonicalJSONL()
		if err != nil {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: name,
				Detail: fmt.Sprintf("canonical trace encode failed: %v\n", err)})
			return
		}
		if !bytes.Equal(canon, refTrace) {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: name,
				Detail: "canonical trace diverged from the simulator's:\n" + firstDiff(string(refTrace), string(canon))})
		}
	}
	for _, hosts := range opts.Hosts {
		for _, batch := range []int{7, 256} {
			ref, err := run(hosts, 1, batch, qap.LiveOptions{}, qap.EngineSim)
			if err != nil {
				r.Configs++
				r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live",
					Config: fmt.Sprintf("live-ref hosts=%d batch=%d", hosts, batch),
					Detail: fmt.Sprintf("simulator reference failed: %v\n", err)})
				continue
			}
			refTrace, err := ref.Trace.CanonicalJSONL()
			if err != nil {
				r.Configs++
				r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live",
					Config: fmt.Sprintf("live-ref hosts=%d batch=%d", hosts, batch),
					Detail: fmt.Sprintf("reference trace encode failed: %v\n", err)})
				continue
			}
			if got := Canonical(ref); got != want {
				r.Configs++
				r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live",
					Config: fmt.Sprintf("live-ref hosts=%d batch=%d", hosts, batch),
					Detail: firstDiff(want, got)})
				continue
			}
			for _, workers := range opts.Workers {
				name := fmt.Sprintf("live hosts=%d workers=%d batch=%d", hosts, workers, batch)
				res, err := run(hosts, workers, batch, qap.LiveOptions{}, qap.EngineLive)
				check(name, ref, refTrace, res, err)
			}
		}
	}

	// Fault leg: on the largest cluster, scripted transport faults on
	// both directions must cost time, never bytes.
	hosts := opts.Hosts[len(opts.Hosts)-1]
	ref, err := run(hosts, 1, 256, qap.LiveOptions{}, qap.EngineSim)
	if err != nil {
		r.Configs++
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: "live-fault-ref",
			Detail: fmt.Sprintf("simulator reference failed: %v\n", err)})
		return
	}
	refTrace, err := ref.Trace.CanonicalJSONL()
	if err != nil {
		r.Configs++
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: "live-fault-ref",
			Detail: fmt.Sprintf("reference trace encode failed: %v\n", err)})
		return
	}
	for _, fc := range []struct {
		name   string
		faults []live.Fault
	}{
		{"drop", []live.Fault{{Host: 0, Session: 0, Write: 2, Action: live.FaultDrop}}},
		{"dup", []live.Fault{{Host: 0, Session: -1, Write: 1, Action: live.FaultDup}}},
		{"cut", []live.Fault{
			{Host: 0, Session: 0, Write: 2, Action: live.FaultCut},
			{Host: hosts - 1, Session: 0, Write: 3, Action: live.FaultCut},
		}},
	} {
		name := "live-fault " + fc.name
		plan := &live.FaultPlan{Faults: fc.faults}
		res, err := run(hosts, 1, 256, qap.LiveOptions{Faults: plan, Timeout: 2 * time.Second}, qap.EngineLive)
		check(name, ref, refTrace, res, err)
		if err == nil && plan.Hits() == 0 {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "live", Config: name,
				Detail: "fault plan never fired; the scenario tested nothing\n"})
		}
	}
}

// checkLoadBound verifies the Section 4.2.1 metamorphic invariant: the
// cost model's TotalCost under measured statistics bounds the network
// byte rate any host receives. It needs partial aggregation disabled
// (the sub-aggregate rewrite re-shapes tuples, which the static model
// does not price) and a non-empty set (for the empty set the builder
// still pushes selections per partition while the model centralizes
// them, so the model's charge is not comparable op by op).
func (r *Report) checkLoadBound(sys *qap.System, measured *qap.StaticStats, best core.Set, run func(qap.DeployConfig) (*qap.RunResult, error)) {
	if best.IsEmpty() {
		return
	}
	r.Configs++
	res, err := run(qap.DeployConfig{Hosts: 4, Partitioning: best, DisablePartialAgg: true, Workers: 1})
	if err != nil {
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "loadbound", Config: "loadbound",
			Detail: fmt.Sprintf("run failed: %v\n", err)})
		return
	}
	duration := res.Metrics.DurationSec
	if duration <= 0 {
		duration = 1
	}
	achieved := 0.0
	for _, h := range res.Metrics.Hosts {
		if rate := float64(h.NetBytesIn) / duration; rate > achieved {
			achieved = rate
		}
	}
	predicted := core.NewCostModel(sys.Graph, measured).TotalCost(best)
	if achieved > predicted*(1+1e-6)+1e-3 {
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "loadbound", Config: "loadbound", Detail: fmt.Sprintf(
			"achieved max per-host net rate %.3f B/s exceeds cost-model bound %.3f B/s for set %s\n",
			achieved, predicted, best)})
	}
}

// checkLintAgreement verifies that the physical plan, the
// compatibility theory, and the static analyzer tell the same story
// about the best set: a node's operators all run in partition
// processes iff the node is Distributable, lint's QAP001/QAP003
// findings appear exactly for the Compatible nodes, and every
// centralize fallback traces to an incompatibility diagnostic
// (QAP002/QAP004) somewhere in the node's input subtree.
func (r *Report) checkLintAgreement(sys *qap.System, best core.Set) {
	if best.IsEmpty() {
		// lint skips empty candidate sets, so there is nothing to
		// cross-check the plan against.
		return
	}
	r.Configs++
	p, err := optimizer.Build(sys.Graph, best, optimizer.Options{
		Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost,
	})
	if err != nil {
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "lintagree", Config: "lintagree",
			Detail: fmt.Sprintf("optimizer.Build failed: %v\n", err)})
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
		r.Mismatches = append(r.Mismatches, Mismatch{Axis: "lintagree", Config: "lintagree",
			Detail: strings.Join(fail, "\n") + "\n"})
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
		if op.Kind == optimizer.OpOutput || op.Logical == nil || op.Logical.Kind == plan.KindSource {
			continue
		}
		if op.Proc < 0 {
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
// (outputs). Every disagreement is a Mismatch.
func (r *Report) checkCertificate(sys *qap.System, best core.Set) {
	sets := []struct {
		name string
		set  core.Set
	}{{"roundrobin", nil}}
	if !best.IsEmpty() {
		sets = append(sets, struct {
			name string
			set  core.Set
		}{"best", best})
	}
	for _, s := range sets {
		r.Configs++
		cfg := "certificate set=" + s.name
		fail := func(format string, args ...any) {
			r.Mismatches = append(r.Mismatches, Mismatch{Axis: "certificate", Config: cfg,
				Detail: fmt.Sprintf(format, args...) + "\n"})
		}

		cert := prove.Prove(sys.Graph, s.set)
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

		p, err := optimizer.Build(sys.Graph, s.set, optimizer.Options{
			Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost,
		})
		if err != nil {
			fail("optimizer.Build failed: %v", err)
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
			if !s.set.IsEmpty() {
				if dist := core.Distributable(s.set, n); dist != partitioned {
					fail("%s: certificate verdict %s but Distributable(%s)=%v", q, v, s.set, dist)
				}
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
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  variant:  %s\n", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: baseline %d lines, variant %d lines\n", len(w), len(g))
}
