package main

import (
	"qap"
	"qap/internal/netgen"
)

// Probe names, used by workload.covered to say which outside probes
// explain a workload's replay time (probe.coverage).
const (
	probePivotCols = "pivot_cols"
	probePivotRows = "pivot_rows"
	probeAgg       = "agg"
	probeJoin      = "join"
)

// workload is one set of inputs the benchmark replays: a query set, a
// trace shape and the deployment that runs them. Only the production
// configuration is driven — columnar, default batch size.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it).
	why     string
	queries string
	// shape returns the trace configuration; the caller sets the seed.
	shape func() netgen.Config
	hosts int
	// partsPerHost is the splitter fan-out per host.
	partsPerHost int
	// workers <= 1 is the sequential simulator engine.
	workers int
	// bestSet partitions by Analyze(nil).Best; otherwise the splitter is
	// round robin (query-agnostic) with per-host partial aggregation.
	bestSet bool
	engine  string
	// covered lists the probes whose time counts towards probe.coverage:
	// those on the plan's path under the sequential simulator engine.
	covered []string
}

// figure8Trace is the trace behind BENCH_exec.json's Figure 8 cell.
func figure8Trace() netgen.Config {
	tr := qap.DefaultExperimentConfig().Trace
	tr.PacketsPerSec = 2000
	tr.DurationSec = 600
	return tr
}

var workloads = []*workload{
	{
		name:    "agg_1host",
		why:     "Fig. 8 aggregation, ~8 packets per group: kernels, row-to-column pivot and in-place aggregate update dominate; no join, no transport",
		queries: qap.SuspiciousFlowsQuery,
		shape:   figure8Trace,
		hosts:   1, partsPerHost: 1, workers: 1,
		covered: []string{probePivotCols, probeAgg},
	},
	{
		name:    "agg_wide_1host",
		why:     "same plan, one group per ~1.5 packets: group creation, slot-table growth, epoch emit/sort and allocation dominate, kernels do little",
		queries: qap.SuspiciousFlowsQuery,
		shape: func() netgen.Config {
			tr := figure8Trace()
			tr.DurationSec = 300
			tr.MeanFlowPackets = 1.5
			tr.SrcHosts = 200000
			tr.DstHosts = 100000
			tr.ZipfS = 1.01
			return tr
		},
		hosts: 1, partsPerHost: 1, workers: 1,
		covered: []string{probePivotCols, probeAgg},
	},
	{
		name:    "join_4host_par",
		why:     "Sec. 6.2 set with the jitter self-join on the parallel engine: join build/probe/evict on row tuples dominates, so a kernel-only change must not move it",
		queries: qap.QuerySetSection62,
		shape: func() netgen.Config {
			tr := qap.DefaultExperimentConfig().Trace
			tr.PacketsPerSec = 500
			tr.DurationSec = 180 // three 60 s epochs, so eviction really evicts
			return tr
		},
		hosts: 4, partsPerHost: 2, workers: 2, bestSet: true,
		covered: []string{probePivotCols, probePivotRows, probeAgg, probeJoin},
	},
	{
		name:    "dag_2host_live",
		why:     "Sec. 6.3 DAG, round-robin split over loopback TCP: wire codec, credit-window transport and central replay of partial aggregates dominate",
		queries: qap.ComplexQuerySet,
		shape: func() netgen.Config {
			tr := figure8Trace()
			tr.DurationSec = 300
			return tr
		},
		hosts: 2, partsPerHost: 2, workers: 2, engine: qap.EngineLive,
		// Wire and transport do not run on the single-threaded simulator
		// that probe.coverage is relative to; live.overhead_ratio and
		// the wire and transport probes account for them.
		covered: []string{probePivotCols, probeAgg},
	},
}

// workloadByName finds a workload, or nil.
func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params binds the Figure 8 attack pattern; query sets that do not use
// it ignore it.
func params() map[string]qap.Value {
	return map[string]qap.Value{"PATTERN": qap.Uint(netgen.AttackPattern)}
}

// deployConfig is the workload's production deployment; best is the
// analysis recommendation, used only when the workload asks for it.
func (w *workload) deployConfig(best qap.Set) qap.DeployConfig {
	cfg := qap.DeployConfig{
		Hosts: w.hosts, PartitionsPerHost: w.partsPerHost,
		Workers: w.workers, Columnar: true, Engine: w.engine,
		PartialScope: qap.ScopeHost, Params: params(),
	}
	if w.bestSet {
		cfg.Partitioning = best
	}
	return cfg
}

// scale sizes one run. The production scale is fixed here and in
// BENCHMARK.json; the smoke test shrinks it.
type scale struct {
	// seconds is the length of the measured phase; minReplays a floor
	// under it so the percentiles always have samples.
	seconds    float64
	minReplays int
	// setupCycles cold Load->Analyze->Deploy->Run cycles give setup_s.
	setupCycles int
	// statsReplays and driveReplays size the traced run's replay sets.
	statsReplays, driveReplays int
	// traceSec and tracePPS, when positive, override the workload's
	// trace duration and rate.
	traceSec, tracePPS int
}

func productionScale(seconds float64) scale {
	return scale{seconds: seconds, minReplays: 21, setupCycles: 5, statsReplays: 10, driveReplays: 5}
}
