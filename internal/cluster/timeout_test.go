package cluster

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"qap/internal/core"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/optimizer"
)

// newEngineRunner builds the plan and its runner, which must work.
func newEngineRunner(t testing.TB, queries string, ps core.Set, o optimizer.Options, cfg RunConfig) *Runner {
	t.Helper()
	p, err := optimizer.Build(buildGraph(t, queries), ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runEngineErr is runEngine without the success assertion: plan
// building must work, but the run itself hands back whatever the engine
// returns — the entry point for tests about the failure paths.
func runEngineErr(t testing.TB, queries string, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, cfg RunConfig) (*Result, error) {
	t.Helper()
	return newEngineRunner(t, queries, ps, o, cfg).RunStreams(streams)
}

// runWedged runs a parallel runner whose workers are all held by wedge
// before they ship a link message.
func runWedged(t testing.TB, queries string, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, cfg RunConfig, wedge chan struct{}) (*Result, error) {
	t.Helper()
	r := newEngineRunner(t, queries, ps, o, cfg)
	r.wedge = wedge
	return r.RunStreams(streams)
}

// stalledLiveConfig is a live run whose every transport write stalls
// long past its 150 ms drive guard.
func stalledLiveConfig() (RunConfig, *live.FaultPlan) {
	fp := &live.FaultPlan{Faults: []live.Fault{
		{Host: -1, Session: -1, Write: -1, Action: live.FaultStall, Stall: time.Second},
	}}
	cfg := liveRunConfig(1, 256, LiveConfig{Faults: fp, Timeout: 5 * time.Second})
	cfg.DriveTimeout = 150 * time.Millisecond
	return cfg, fp
}

// TestParallelDriveTimeout wedges every worker right before it ships
// its link batch: the replay loop must fail with the positioned
// drive-stalled error instead of hanging the run.
func TestParallelDriveTimeout(t *testing.T) {
	stall := make(chan struct{})
	tr := smallTrace(t)
	cfg := RunConfig{
		Costs: DefaultCosts(), Params: testParams,
		Workers: 2, BatchSize: 256,
		DriveTimeout: 100 * time.Millisecond,
	}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	_, err := runWedged(t, flowsQuery, core.MustParseSet("srcIP, destIP"), o,
		map[string][]netgen.Packet{"TCP": tr.Packets}, cfg, stall)
	close(stall) // release the wedged workers so the run's goroutines drain
	if err == nil {
		t.Fatal("wedged workers did not fail the run")
	}
	for _, want := range []string{"parallel drive stalled", "100ms", "shipped through round"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestParallelNoTimeoutByDefault: a zero DriveTimeout means no guard —
// the same workload without the wedge completes with the guard armed,
// proving the timer doesn't fire on a healthy run.
func TestParallelNoTimeoutByDefault(t *testing.T) {
	tr := smallTrace(t)
	cfg := RunConfig{
		Costs: DefaultCosts(), Params: testParams,
		Workers: 2, BatchSize: 256,
		DriveTimeout: 30 * time.Second,
	}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	if _, err := runEngineErr(t, flowsQuery, core.MustParseSet("srcIP, destIP"), o,
		map[string][]netgen.Packet{"TCP": tr.Packets}, cfg); err != nil {
		t.Fatalf("healthy run tripped the drive guard: %v", err)
	}
}

// TestLiveDriveTimeout stalls every transport write long past the drive
// guard: the live replay loop must fail with its positioned
// drive-stalled error instead of hanging on the wedged nodes.
func TestLiveDriveTimeout(t *testing.T) {
	tr := smallTrace(t)
	cfg, fp := stalledLiveConfig()
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	_, err := runEngineErr(t, flowsQuery, core.MustParseSet("srcIP, destIP"), o,
		map[string][]netgen.Packet{"TCP": tr.Packets}, cfg)
	if err == nil {
		t.Fatal("stalled nodes did not fail the run")
	}
	for _, want := range []string{"live drive stalled", "shipped through round"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q is not the positioned drive-stalled error: no %q", err, want)
		}
	}
	if fp.Hits() == 0 {
		t.Fatal("stall fault never fired")
	}
}

// settleGoroutines yields until no more than want goroutines are left,
// for a bounded number of turns — no sleep, no clock — and returns the
// count it saw last. A goroutine that a run has joined may still be on
// its way out when the run returns; one that is blocked never leaves.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunsLeaveNoGoroutine: every engine joins what it starts. After a
// clean run of the sequential engine (whose splitter runs on a goroutine
// of its own), of the parallel engine and of the in-process live engine,
// after a parallel run that fails on its drive timeout with every
// worker wedged, and after a live run that fails on its drive timeout
// with every transport write stalled, the goroutine count is back at
// its value before the run — the failed parallel one included, before
// the wedge is released.
func TestRunsLeaveNoGoroutine(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	ps := core.MustParseSet("srcIP, destIP")
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	sim := func(workers int) RunConfig {
		return RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: workers, BatchSize: 256}
	}
	for _, c := range []struct {
		name string
		cfg  RunConfig
	}{
		{"sequential", sim(1)},
		{"parallel", sim(2)},
		{"live", liveRunConfig(2, 256, LiveConfig{})},
	} {
		before := runtime.NumGoroutine()
		if _, err := runEngineErr(t, flowsQuery, ps, o, streams, c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := settleGoroutines(before); n > before {
			t.Errorf("%s run: %d goroutines before, %d after", c.name, before, n)
		}
	}

	stall := make(chan struct{})
	defer close(stall)
	cfg := sim(2)
	cfg.DriveTimeout = 100 * time.Millisecond
	before := runtime.NumGoroutine()
	if _, err := runWedged(t, flowsQuery, ps, o, streams, cfg, stall); err == nil {
		t.Fatal("wedged workers did not fail the run")
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("failed parallel run: %d goroutines before, %d after", before, n)
	}

	lcfg, _ := stalledLiveConfig()
	before = runtime.NumGoroutine()
	if _, err := runEngineErr(t, flowsQuery, ps, o, streams, lcfg); err == nil {
		t.Fatal("stalled nodes did not fail the run")
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("failed live run: %d goroutines before, %d after", before, n)
	}
}

// checkRoundStock asserts roundStock's invariant: it holds at most
// roundStockCap lists, and no stocked round — in a list's spare
// capacity too, where takeRounds' next caller finds it — keeps a group
// that still points at a ColBatch, which retire hands back to its run.
func checkRoundStock(t *testing.T, after string) int {
	t.Helper()
	roundStock.mu.Lock()
	defer roundStock.mu.Unlock()
	if n := len(roundStock.lists); n > roundStockCap {
		t.Errorf("after %s: roundStock holds %d lists, over its cap of %d", after, n, roundStockCap)
	}
	for li, l := range roundStock.lists {
		for ri, rd := range l[:cap(l)] {
			for gi, g := range rd.Groups[:cap(rd.Groups)] {
				if g.Cols != nil {
					t.Errorf("after %s: stocked list %d, round slot %d, group slot %d still points at a ColBatch", after, li, ri, gi)
					return len(roundStock.lists)
				}
			}
		}
	}
	return len(roundStock.lists)
}

// TestRoundStockInvariant checks roundStock after clean sequential,
// parallel and live runs, and after a parallel and a live run that fail
// on their drive timeouts.
func TestRoundStockInvariant(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	ps := core.MustParseSet("srcIP, destIP")
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	sim := func(workers int) RunConfig {
		return RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: workers, BatchSize: 256}
	}
	for _, c := range []struct {
		name string
		cfg  RunConfig
	}{
		{"sequential", sim(1)},
		{"parallel", sim(2)},
		{"live", liveRunConfig(2, 256, LiveConfig{})},
	} {
		if _, err := runEngineErr(t, flowsQuery, ps, o, streams, c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := checkRoundStock(t, c.name+" run"); n == 0 && c.name == "sequential" {
			t.Error("a sequential run stocked no round list: the check above saw nothing")
		}
	}

	stall := make(chan struct{})
	defer close(stall)
	cfg := sim(2)
	cfg.DriveTimeout = 100 * time.Millisecond
	if _, err := runWedged(t, flowsQuery, ps, o, streams, cfg, stall); err == nil {
		t.Fatal("wedged workers did not fail the run")
	}
	checkRoundStock(t, "a failed parallel run")

	lcfg, _ := stalledLiveConfig()
	if _, err := runEngineErr(t, flowsQuery, ps, o, streams, lcfg); err == nil {
		t.Fatal("stalled nodes did not fail the run")
	}
	checkRoundStock(t, "a failed live run")
}
