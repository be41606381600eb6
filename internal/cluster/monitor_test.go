package cluster

import (
	"reflect"
	"testing"

	"qap/internal/core"
	"qap/internal/netgen"
	"qap/internal/optimizer"
)

// driftTrace generates a two-phase skew-shift trace: the second phase
// swaps the source/destination pools and doubles the rate, so the
// windowed load series has genuinely different activity per window.
func driftTrace(t testing.TB) *netgen.Trace {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.PacketsPerSec = 300
	cfg.SrcHosts, cfg.DstHosts = 40, 500
	cfg.Phases = []netgen.Phase{
		{DurationSec: 30},
		{DurationSec: 30, PacketsPerSec: 600, SrcHosts: 500, DstHosts: 40},
	}
	return netgen.Generate(cfg)
}

// runMonitored runs the complex DAG with load monitoring on.
func runMonitored(t testing.TB, streams map[string][]netgen.Packet, workers, batch, winSec int) *Result {
	t.Helper()
	res, err := monitoredRunner(t, workers, batch, winSec).RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// monitoredRunner compiles runMonitored's runner.
func monitoredRunner(t testing.TB, workers, batch, winSec int) *Runner {
	t.Helper()
	g := buildGraph(t, complexSet)
	p, err := optimizer.Build(g, core.MustParseSet("srcIP"), optimizer.Options{
		Hosts: 4, PartitionsPerHost: 2, PartialAgg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{
		Costs: DefaultCosts(), Params: testParams,
		Workers: workers, BatchSize: batch, LoadWindowSec: winSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLoadSeriesDeltasSumToTotals: the windowed series is a partition
// of the run's cumulative accounting — per host, the window deltas
// must sum back to the final metrics, and the windows must tile the
// trace timeline in order. Per island, the windows' counts, per kind
// included, sum exactly to the island's totals, so the cost model
// applied to those sums is the host CPU the run reports.
func TestLoadSeriesDeltasSumToTotals(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	const winSec = 10
	r := monitoredRunner(t, 1, 1, winSec)
	res, err := r.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LoadSeries) == 0 {
		t.Fatal("monitored run produced no load series")
	}

	sums := make([]HostMetrics, len(res.Metrics.Hosts))
	for i, w := range res.LoadSeries {
		if w.Window != i {
			t.Fatalf("window %d has Window=%d; series must be dense from 0", i, w.Window)
		}
		if want := uint64(i * winSec); w.StartSec != want {
			t.Errorf("window %d starts at %d, want %d", i, w.StartSec, want)
		}
		if w.EndSec <= w.StartSec {
			t.Errorf("window %d is empty: [%d,%d)", i, w.StartSec, w.EndSec)
		}
		if len(w.Hosts) != len(sums) {
			t.Fatalf("window %d covers %d hosts, want %d", i, len(w.Hosts), len(sums))
		}
		for h, hw := range w.Hosts {
			if hw.Host != h {
				t.Fatalf("window %d host row %d labeled %d", i, h, hw.Host)
			}
			if hw.NetTuplesIn < 0 || hw.NetBytesIn < 0 || hw.IPCTuplesIn < 0 || hw.Tuples < 0 {
				t.Fatalf("window %d host %d has negative delta: %+v", i, h, hw)
			}
			sums[h].NetTuplesIn += hw.NetTuplesIn
			sums[h].NetBytesIn += hw.NetBytesIn
			sums[h].IPCTuplesIn += hw.IPCTuplesIn
			sums[h].Tuples += hw.Tuples
		}
	}
	for h, total := range res.Metrics.Hosts {
		got := sums[h]
		if got.NetTuplesIn != total.NetTuplesIn || got.NetBytesIn != total.NetBytesIn ||
			got.IPCTuplesIn != total.IPCTuplesIn || got.Tuples != total.Tuples {
			t.Errorf("host %d: window sums %+v != totals %+v", h, got, total)
		}
	}
	// Each window's CPU units are the cost of its counts; every packet
	// is scanned once, and the kind counts split Tuples.
	hosts := make([]HostMetrics, len(res.Metrics.Hosts))
	scans := int64(0)
	for i, isl := range r.islands {
		var sum HostMetrics
		for wi, w := range isl.wins {
			if w != r.cost.withCPU(w) {
				t.Errorf("island %d window %d: CPU units %v are not the cost of its counts", i, wi, w.CPUUnits)
			}
			sum.add(w)
		}
		sum.CPUUnits = 0
		if sum != isl.metrics() {
			t.Errorf("island %d: window sums %+v != totals %+v", i, sum, isl.metrics())
		}
		kinds := int64(0)
		for _, n := range sum.KindTuples {
			kinds += n
		}
		if kinds != sum.Tuples {
			t.Errorf("island %d: kind counts %v do not sum to %d tuples", i, sum.KindTuples, sum.Tuples)
		}
		scans += sum.KindTuples[optimizer.OpScan]
		h := i
		if i == len(hosts) { // the central island
			h = r.plan.AggregatorHost
		}
		hosts[h].add(r.cost.withCPU(sum))
	}
	if scans != int64(len(tr.Packets)) {
		t.Errorf("%d scan arrivals for %d packets", scans, len(tr.Packets))
	}
	if !reflect.DeepEqual(hosts, res.Metrics.Hosts) {
		t.Errorf("cost model over the window sums %+v != reported %+v", hosts, res.Metrics.Hosts)
	}
}

// TestLoadSeriesBitEqualAcrossEngines: the load series, CPU units
// included, must not move a byte between the sequential and parallel
// engines or across batch sizes.
func TestLoadSeriesBitEqualAcrossEngines(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	const winSec = 10
	want := runMonitored(t, streams, 1, 1, winSec)

	for _, batch := range []int{1, 64} {
		seq := runMonitored(t, streams, 1, batch, winSec)
		par := runMonitored(t, streams, 4, batch, winSec)
		if !reflect.DeepEqual(seq.LoadSeries, par.LoadSeries) {
			t.Errorf("batch=%d: load series differ between engines", batch)
		}
		if !reflect.DeepEqual(want.LoadSeries, seq.LoadSeries) {
			t.Errorf("batch=%d: load series differ from the scalar oracle's", batch)
		}
	}
}

// TestLoadSeriesMonitoringIsFree: monitoring must never perturb the
// run — results with and without LoadWindowSec are byte-identical
// apart from the series itself, and an unmonitored run has none.
func TestLoadSeriesMonitoringIsFree(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	plain := runMonitored(t, streams, 1, 1, 0)
	if plain.LoadSeries != nil {
		t.Fatal("unmonitored run grew a load series")
	}
	mon := runMonitored(t, streams, 1, 1, 10)
	if !reflect.DeepEqual(plain.Outputs, mon.Outputs) ||
		!reflect.DeepEqual(plain.NodeRows, mon.NodeRows) ||
		!reflect.DeepEqual(*plain.Metrics, *mon.Metrics) {
		t.Error("enabling monitoring perturbed the run")
	}
}
