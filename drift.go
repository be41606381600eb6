package qap

import (
	"fmt"
	"sort"

	"qap/internal/netgen"
	"qap/internal/obs"
)

// DriftQuerySet is the workload-drift experiment's query pair: two
// independent aggregations with disjoint partitioning requirements.
// src_flows is only compatible with sets over srcIP, dst_flows only
// with sets over destIP, so the optimizer must sacrifice one of them —
// it pushes down the query whose output is cheaper to ship and runs
// the other centrally. Which one that is depends entirely on the
// traffic's source/destination cardinality mix, which is what the
// drift scenario flips mid-trace.
const DriftQuerySet = `
query src_flows:
SELECT tb, srcIP, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP
GROUP BY time/10 as tb, srcIP

query dst_flows:
SELECT tb, destIP, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP
GROUP BY time/10 as tb, destIP`

// DriftScenario configures the adaptive-repartitioning experiment: a
// two-phase skew-shift trace run once with a static deployment and
// once under the adaptive controller.
type DriftScenario struct {
	// Trace is the drifting packet trace; DefaultDriftScenario's has
	// two phases that swap the source/destination pool sizes and
	// treble the packet rate.
	Trace netgen.Config
	// Hosts and PartitionsPerHost shape the cluster.
	Hosts             int
	PartitionsPerHost int
	// TriggerFactor feeds AdaptiveConfig, LoadWindowSec its Deploy.
	TriggerFactor float64
	LoadWindowSec int
	// Workers and BatchSize select the engine (results identical).
	Workers   int
	BatchSize int
}

// DefaultDriftScenario returns the scenario EXPERIMENTS.md records:
// phase 1 has 200 sources fanning out to 2000 destinations (src_flows
// output is 10x smaller, so the optimizer deploys (srcIP) and ships
// dst_flows' input); phase 2 inverts the pools — 2000 sources, 200
// destinations — and trebles the rate, so the deployed set's measured
// load blows through the bound and the refreshed decision flips to
// (destIP). Both pools stay large enough that hash partitioning
// balances under either set.
func DefaultDriftScenario() DriftScenario {
	tr := netgen.DefaultConfig()
	tr.PacketsPerSec = 400
	tr.SrcHosts = 200
	tr.DstHosts = 2000
	tr.Phases = []netgen.Phase{
		{DurationSec: 40}, // pre-drift: inherits the base mix
		{DurationSec: 40, PacketsPerSec: 1200, SrcHosts: 2000, DstHosts: 200},
	}
	return DriftScenario{
		Trace:             tr,
		Hosts:             8,
		PartitionsPerHost: 1,
		TriggerFactor:     1.5,
		LoadWindowSec:     10,
	}
}

// RunDriftExperiment executes the full drift protocol: measure
// statistics on the pre-drift regime, optimize and deploy, run the
// drifting trace under the adaptive controller, and assemble the
// static-versus-adaptive comparison the BENCH_drift.json artifact and
// EXPERIMENTS.md table record. The static baseline is the adaptive
// run's own monitored initial deployment — same trace, same set, no
// intervention — so the comparison isolates exactly the switch.
func RunDriftExperiment(sc DriftScenario) (*obs.DriftBenchReport, *AdaptiveResult, error) {
	if err := sc.Trace.Validate(); err != nil {
		return nil, nil, err
	}
	sys, err := Load(netgen.SchemaDDL, DriftQuerySet)
	if err != nil {
		return nil, nil, err
	}
	tr := netgen.Generate(sc.Trace)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}

	// Deploy-time statistics come from the pre-drift regime: the first
	// phase's prefix of the trace (the whole trace when phase-free),
	// exactly what an operator planning before the drift would have.
	warmSec := uint64(sc.Trace.TotalDurationSec())
	if len(sc.Trace.Phases) > 0 {
		warmSec = uint64(sc.Trace.Phases[0].DurationSec)
	}
	cut := sort.Search(len(tr.Packets), func(i int) bool { return tr.Packets[i].Time >= warmSec })
	stats, err := sys.MeasureStats(map[string][]netgen.Packet{"TCP": tr.Packets[:cut]})
	if err != nil {
		return nil, nil, fmt.Errorf("qap: drift experiment: pre-drift statistics: %w", err)
	}
	analysis, err := sys.Analyze(stats)
	if err != nil {
		return nil, nil, err
	}

	ares, err := sys.RunAdaptive(AdaptiveConfig{
		Deploy: DeployConfig{
			Hosts:             sc.Hosts,
			PartitionsPerHost: sc.PartitionsPerHost,
			Partitioning:      analysis.Best,
			DisablePartialAgg: true,
			Workers:           sc.Workers,
			BatchSize:         sc.BatchSize,
			LoadWindowSec:     sc.LoadWindowSec,
		},
		Stats:         stats,
		Analysis:      analysis,
		TriggerFactor: sc.TriggerFactor,
	}, streams)
	if err != nil {
		return nil, nil, err
	}

	rep := &obs.DriftBenchReport{
		SchemaVersion:          obs.SchemaVersion,
		Name:                   "drift",
		LoadWindowSec:          ares.LoadWindowSec,
		TriggerFactor:          ares.TriggerFactor,
		Bound:                  ares.Bound,
		NewBound:               ares.NewBound,
		TriggerWindow:          ares.TriggerWindow,
		TriggerRate:            ares.TriggerRate,
		SwitchTimeSec:          ares.SwitchTimeSec,
		InitialSet:             ares.InitialSet.String(),
		FinalSet:               ares.FinalSet.String(),
		Repartitioned:          ares.Repartitioned,
		PostSwitchPeakBps:      ares.PostSwitchPeak,
		WithinBoundAfterSwitch: ares.WithinBoundAfterSwitch(),
	}
	// Static load per window is the initial deployment's; the adaptive
	// deployment observes the same windows up to the switch boundary
	// and the post-switch deployment's after it.
	static := ares.Initial.LoadSeries
	adaptive := ares.Final.LoadSeries
	for i, w := range static {
		row := obs.DriftWindowRow{
			Window:             w.Window,
			StartSec:           w.StartSec,
			StaticMaxHostBps:   w.MaxHostNetBytesPerSec(),
			AdaptiveMaxHostBps: w.MaxHostNetBytesPerSec(),
		}
		if ares.Repartitioned && w.Window > ares.TriggerWindow && i < len(adaptive) {
			row.AdaptiveMaxHostBps = adaptive[i].MaxHostNetBytesPerSec()
			row.AdaptiveUsesFinalSet = true
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, ares, nil
}
