package qap

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"qap/internal/netgen"
)

// TestDriftScenarioTriggersAndRepartitions is the acceptance check for
// the adaptive controller: under the default skew-shift trace the
// deployed (pre-drift optimal) set's measured load must blow through
// the Section 4.2.1 bound, the trigger must fire in the drifted
// phase, the refreshed decision must flip the partitioning, and the
// post-switch measured max-host load must come back inside the
// refreshed bound.
func TestDriftScenarioTriggersAndRepartitions(t *testing.T) {
	sc := DefaultDriftScenario()
	rep, ares, err := RunDriftExperiment(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !ares.InitialSet.Equal(MustParseSet("srcIP")) {
		t.Fatalf("pre-drift optimal = %s, want (srcIP)", ares.InitialSet)
	}
	// Phase 2 starts at t=40s: windows 4..7 under 10s windows. The
	// trigger must fire inside the drifted phase, not before it.
	phase2 := sc.Trace.Phases[0].DurationSec / sc.LoadWindowSec
	if ares.TriggerWindow < phase2 {
		t.Fatalf("trigger fired at window %d (rate %.0f, bound %.0f), before the drift at window %d",
			ares.TriggerWindow, ares.TriggerRate, ares.Bound, phase2)
	}
	if ares.TriggerRate <= ares.TriggerFactor*ares.Bound {
		t.Errorf("trigger rate %.0f does not exceed %.2f x bound %.0f",
			ares.TriggerRate, ares.TriggerFactor, ares.Bound)
	}
	if !ares.Repartitioned || !ares.FinalSet.Equal(MustParseSet("destIP")) {
		t.Fatalf("repartitioned=%v final=%s, want switch to (destIP)", ares.Repartitioned, ares.FinalSet)
	}
	if !ares.WithinBoundAfterSwitch() {
		t.Errorf("post-switch peak %.0f exceeds %.2f x refreshed bound %.0f",
			ares.PostSwitchPeak, ares.TriggerFactor, ares.NewBound)
	}
	if ares.PostSwitchPeak <= 0 {
		t.Error("post-switch peak not measured")
	}

	// The report mirrors the run and the per-window rows cover the
	// whole monitored series with the switch reflected after the
	// trigger window.
	if rep.TriggerWindow != ares.TriggerWindow || rep.InitialSet != ares.InitialSet.String() ||
		rep.FinalSet != ares.FinalSet.String() || !rep.WithinBoundAfterSwitch {
		t.Errorf("report disagrees with the run: %+v", rep)
	}
	if len(rep.Rows) != len(ares.Initial.LoadSeries) {
		t.Fatalf("report rows %d, want %d", len(rep.Rows), len(ares.Initial.LoadSeries))
	}
	for _, row := range rep.Rows {
		if row.AdaptiveUsesFinalSet != (row.Window > ares.TriggerWindow) {
			t.Errorf("window %d: adaptive_uses_final_set = %v", row.Window, row.AdaptiveUsesFinalSet)
		}
		if !row.AdaptiveUsesFinalSet && row.AdaptiveMaxHostBps != row.StaticMaxHostBps {
			t.Errorf("window %d: pre-switch adaptive load %.0f != static %.0f",
				row.Window, row.AdaptiveMaxHostBps, row.StaticMaxHostBps)
		}
	}
}

// canonOut renders outputs order-insensitively (per query, sorted row
// renderings): batched execution may permute join probe order within a
// round, so cross-batch-size equivalence is canonical, mirroring the
// cluster-level batch gate.
func canonOut(outputs map[string][]Tuple) map[string][]string {
	out := make(map[string][]string, len(outputs))
	for name, rows := range outputs { //qap:allow maprange -- per-key sort; map rebuilt key-for-key
		rs := make([]string, len(rows))
		for i, r := range rows {
			rs[i] = r.String()
		}
		sort.Strings(rs)
		out[name] = rs
	}
	return out
}

// TestAdaptiveRunDeterministicAndMatchesColdRestart pins the
// repartitioning protocol's equivalence claims at the public API,
// sweeping workers {1,4} x batch {1,256}:
//
//   - Within every cell, the adapted run is byte-identical to a cold
//     restart of the post-switch set over the same streams with the
//     same engine configuration.
//   - Across cells, the trigger decision (window, rate, switch time,
//     chosen set) is bit-identical — the monitoring counters it reads
//     are integers — outputs agree canonically, and metrics and load
//     series, CPU units included, exactly.
func TestAdaptiveRunDeterministicAndMatchesColdRestart(t *testing.T) {
	sc := DefaultDriftScenario()
	sys := MustLoad(netgen.SchemaDDL, DriftQuerySet)
	tr := netgen.Generate(sc.Trace)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	stats, err := sys.MeasureStats(map[string][]netgen.Packet{
		"TCP": tr.Packets[:len(tr.Packets)/3]})
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := sys.Analyze(stats)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, batch int) *AdaptiveResult {
		t.Helper()
		ares, err := sys.RunAdaptive(AdaptiveConfig{
			Deploy: DeployConfig{
				Hosts:             sc.Hosts,
				PartitionsPerHost: sc.PartitionsPerHost,
				Partitioning:      analysis.Best,
				DisablePartialAgg: true,
				Workers:           workers,
				BatchSize:         batch,
			},
			Stats:         stats,
			Analysis:      analysis,
			TriggerFactor: sc.TriggerFactor,
			LoadWindowSec: sc.LoadWindowSec,
		}, streams)
		if err != nil {
			t.Fatal(err)
		}
		return ares
	}

	want := run(1, 1)
	if !want.Repartitioned {
		t.Fatalf("scenario did not repartition (trigger window %d)", want.TriggerWindow)
	}
	for _, cell := range []struct{ workers, batch int }{{1, 1}, {1, 256}, {4, 256}} {
		name := fmt.Sprintf("workers=%d batch=%d", cell.workers, cell.batch)
		got := run(cell.workers, cell.batch)

		// The trigger decision must not move a byte across engines.
		if got.TriggerWindow != want.TriggerWindow || got.TriggerRate != want.TriggerRate ||
			got.SwitchTimeSec != want.SwitchTimeSec || !got.FinalSet.Equal(want.FinalSet) ||
			got.NewBound != want.NewBound {
			t.Errorf("%s: trigger decision diverged: window %d rate %v switch %d set %s",
				name, got.TriggerWindow, got.TriggerRate, got.SwitchTimeSec, got.FinalSet)
		}
		for _, p := range []struct {
			kind string
			a, b *RunResult
		}{{"final", got.Final, want.Final}, {"initial", got.Initial, want.Initial}} {
			if !reflect.DeepEqual(canonOut(p.a.Outputs), canonOut(p.b.Outputs)) ||
				!reflect.DeepEqual(p.a.NodeRows, p.b.NodeRows) {
				t.Errorf("%s: %s canonical outputs differ", name, p.kind)
			}
			if !reflect.DeepEqual(p.a.LoadSeries, p.b.LoadSeries) || !reflect.DeepEqual(p.a.Metrics, p.b.Metrics) {
				t.Errorf("%s: %s load series or metrics differ", name, p.kind)
			}
		}

		// Cold restart with the same engine configuration: a fresh
		// deployment of the post-switch set over the same streams must
		// reproduce the adapted run byte for byte.
		dep, err := sys.Deploy(DeployConfig{
			Hosts:             sc.Hosts,
			PartitionsPerHost: sc.PartitionsPerHost,
			Partitioning:      got.FinalSet,
			DisablePartialAgg: true,
			LoadWindowSec:     sc.LoadWindowSec,
			Workers:           cell.workers,
			BatchSize:         cell.batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := dep.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Outputs, got.Final.Outputs) ||
			!reflect.DeepEqual(cold.NodeRows, got.Final.NodeRows) ||
			!reflect.DeepEqual(*cold.Metrics, *got.Final.Metrics) ||
			!reflect.DeepEqual(cold.LoadSeries, got.Final.LoadSeries) {
			t.Errorf("%s: adapted run is not byte-identical to a cold restart on the final set", name)
		}
	}
}

// TestAdaptiveNoDriftNoTrigger: with representative deploy-time stats
// and a drift-free trace, the monitored load stays inside the bound
// and the controller leaves the deployment alone.
func TestAdaptiveNoDriftNoTrigger(t *testing.T) {
	cfg := netgen.DefaultConfig()
	cfg.DurationSec = 60
	cfg.PacketsPerSec = 400
	sys := MustLoad(netgen.SchemaDDL, DriftQuerySet)
	tr := netgen.Generate(cfg)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	stats, err := sys.MeasureStats(streams)
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := sys.Analyze(stats)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := sys.RunAdaptive(AdaptiveConfig{
		Deploy: DeployConfig{
			Hosts:             4,
			PartitionsPerHost: 2,
			Partitioning:      analysis.Best,
			DisablePartialAgg: true,
		},
		Stats:         stats,
		Analysis:      analysis,
		TriggerFactor: 1.5,
		LoadWindowSec: 10,
	}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if ares.TriggerWindow != -1 || ares.Repartitioned {
		t.Fatalf("trigger fired on a drift-free trace: window %d rate %.0f bound %.0f",
			ares.TriggerWindow, ares.TriggerRate, ares.Bound)
	}
	if ares.Final != ares.Initial || !ares.FinalSet.Equal(ares.InitialSet) {
		t.Error("no-trigger run should return the initial deployment unchanged")
	}
}
