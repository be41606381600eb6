package cluster

import (
	"reflect"
	"testing"

	"qap/internal/core"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
	"qap/internal/sqlval"
)

// runWorkers builds and runs the flows/complex/suspicious plans with an
// explicit worker count, returning the full result. Stats collection is
// on so that the differential tests also cover the observability layer.
func runWorkers(t testing.TB, queries string, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, workers int) *Result {
	t.Helper()
	g := buildGraph(t, queries)
	p, err := optimizer.Build(g, ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: workers, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult asserts byte-identical results: same output rows in the
// same order, same node-row counts, bit-equal metrics, bit-equal
// per-operator stats, and byte-identical canonical run reports.
func sameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Errorf("Outputs differ")
	}
	if !reflect.DeepEqual(want.NodeRows, got.NodeRows) {
		t.Errorf("NodeRows differ: %v vs %v", want.NodeRows, got.NodeRows)
	}
	if !reflect.DeepEqual(*want.Metrics, *got.Metrics) {
		t.Errorf("Metrics differ:\n  want %+v\n  got  %+v", *want.Metrics, *got.Metrics)
	}
	if !reflect.DeepEqual(want.OpStats, got.OpStats) {
		t.Errorf("OpStats differ:\n  want %+v\n  got  %+v", want.OpStats, got.OpStats)
	}
	if (want.Report == nil) != (got.Report == nil) {
		t.Fatalf("Report presence differs: want %v, got %v", want.Report != nil, got.Report != nil)
	}
	if want.Report != nil {
		wj, err := want.Report.Canonical().JSON()
		if err != nil {
			t.Fatal(err)
		}
		gj, err := got.Report.Canonical().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(wj) != string(gj) {
			t.Errorf("canonical reports differ:\n  want %s\n  got  %s", wj, gj)
		}
	}
	checkStatsInvariants(t, want)
	checkStatsInvariants(t, got)
}

// checkStatsInvariants asserts the construction invariant that every
// edge.Push charges exactly one op's RowsIn and one host's Tuples:
// the two totals must always agree.
func checkStatsInvariants(t *testing.T, res *Result) {
	t.Helper()
	if res.OpStats == nil {
		return
	}
	var rowsIn int64
	for _, st := range res.OpStats {
		rowsIn += st.RowsIn
	}
	var tuples int64
	for _, hm := range res.Metrics.Hosts {
		tuples += hm.Tuples
	}
	if rowsIn != tuples {
		t.Errorf("sum(RowsIn)=%d != sum(Tuples)=%d", rowsIn, tuples)
	}
}

// TestParallelMatchesSequential is the parallel engine's correctness
// oracle inside the cluster package: for every workload and topology,
// Workers=N must reproduce the sequential engine byte for byte.
func TestParallelMatchesSequential(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	querySets := []struct {
		name    string
		queries string
		ps      core.Set
	}{
		{"flows", flowsQuery, core.MustParseSet("srcIP, destIP")},
		{"complex", complexSet, core.MustParseSet("srcIP")},
		{"suspicious", suspiciousQuery, core.MustParseSet("srcIP, destIP, srcPort, destPort")},
	}
	for _, qs := range querySets {
		for _, hosts := range []int{1, 2, 4} {
			for _, partial := range []bool{false, true} {
				o := optimizer.Options{Hosts: hosts, PartitionsPerHost: 2, PartialAgg: partial}
				t.Run(qs.name, func(t *testing.T) {
					want := runWorkers(t, qs.queries, qs.ps, o, streams, 1)
					for _, workers := range []int{2, 8} {
						got := runWorkers(t, qs.queries, qs.ps, o, streams, workers)
						sameResult(t, want, got)
					}
				})
			}
		}
	}
}

// TestParallelRoundRobin covers the round-robin splitter (no
// partitioning set): the route decision is driver-side state, which
// must not drift between engines.
func TestParallelRoundRobin(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 3, PartitionsPerHost: 2, PartialAgg: true}
	want := runWorkers(t, flowsQuery, nil, o, streams, 1)
	got := runWorkers(t, flowsQuery, nil, o, streams, 4)
	sameResult(t, want, got)
}

// TestParallelTwoStream exercises the multi-cursor merge (advance tags
// span streams) and a join across two input streams.
func TestParallelTwoStream(t *testing.T) {
	g := buildTwoStream(t)
	a, b := twoTraces(t)
	o := optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}
	p, err := optimizer.Build(g, core.MustParseSet("srcIP, destIP"), o)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]netgen.Packet{"PKT1": a.Packets, "PKT2": b.Packets}
	seq, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Outputs["combined"]) == 0 {
		t.Fatal("two-stream join found no matches")
	}
	p2, err := optimizer.Build(g, core.MustParseSet("srcIP, destIP"), o)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(p2, RunConfig{Costs: DefaultCosts(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got)
}

// TestParallelBatchSizes sweeps how many rounds a feed message carries
// (the runner's batchRounds, a constant outside tests): batching is a
// transport detail and must never leak into results.
func TestParallelBatchSizes(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}
	g := buildGraph(t, complexSet)
	ps := core.MustParseSet("srcIP")
	build := func() *optimizer.Plan {
		p, err := optimizer.Build(g, ps, o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	seq, err := NewRunner(build(), RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := seq.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 1024} {
		par, err := NewRunner(build(), RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		par.batchRounds = batch
		got, err := par.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got)
	}
}

// TestCursorOrderStable is the regression test for the unstable cursor
// sort: two equal-length streams sharing every timestamp must merge in
// the same order on every run, regardless of map iteration order. The
// join's output order is sensitive to the merge order, so identical
// outputs across fresh runners prove the tie-break works.
func TestCursorOrderStable(t *testing.T) {
	g := buildTwoStream(t)
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}

	// Two packets per stream at the same timestamps with crossed keys:
	// (k1, k2) on PKT1 and (k2, k1) on PKT2, so the probe-side emission
	// order of the join depends on which stream is pushed first.
	mk := func(tm, src, dst uint64) netgen.Packet {
		return netgen.Packet{Time: tm, SrcIP: src, DestIP: dst, Len: 10, Seq: 0}
	}
	a := []netgen.Packet{mk(0, 1, 1), mk(0, 2, 2), mk(1, 1, 1), mk(1, 2, 2)}
	b := []netgen.Packet{mk(0, 2, 2), mk(0, 1, 1), mk(1, 2, 2), mk(1, 1, 1)}

	var want *Result
	for i := 0; i < 30; i++ {
		p, err := optimizer.Build(g, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(p, RunConfig{Costs: DefaultCosts()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.RunStreams(map[string][]netgen.Packet{"PKT1": a, "PKT2": b})
		if err != nil {
			t.Fatal(err)
		}
		if rows := got.Outputs["combined"]; len(rows) != 4 {
			t.Fatalf("want 4 join rows, got %d", len(rows))
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want.Outputs, got.Outputs) {
			t.Fatalf("run %d: output order drifted across identical runs", i)
		}
	}
}

// TestSequentialFallback: a Workers>1 request on a 1-host 1-partition
// plan must still produce correct results (the parallel engine runs
// with a single leaf worker, or falls back when the plan shape demands
// it).
func TestSequentialFallback(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 1, PartitionsPerHost: 1}
	want := runWorkers(t, flowsQuery, nil, o, streams, 1)
	got := runWorkers(t, flowsQuery, nil, o, streams, 8)
	sameResult(t, want, got)
}

// benchRun measures a full run of the complex workload with stats
// collection on or off. Comparing the two benchmarks shows the cost of
// the observability layer; the disabled case installs no wrappers and
// only nil-checks a pointer per event, so it should be within noise of
// the pre-instrumentation engine.
func benchRun(b *testing.B, collect bool) {
	tr := smallTrace(b)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	g := buildGraph(b, complexSet)
	ps := core.MustParseSet("srcIP")
	o := optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := optimizer.Build(g, ps, o)
		if err != nil {
			b.Fatal(err)
		}
		r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: 1, CollectStats: collect})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunStreams(streams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunStatsDisabled(b *testing.B) { benchRun(b, false) }
func BenchmarkRunStatsEnabled(b *testing.B)  { benchRun(b, true) }

// jitterPairs is the Section 6.2 self-join on its own, so that its
// output is a query's and crosses to the central island.
const jitterPairs = `
query jitter_pairs:
SELECT S1.time, S1.srcIP, S1.destIP, S2.time - S1.time AS delay
FROM TCP S1, TCP S2
WHERE S1.time/60 = S2.time/60 AND S1.srcIP = S2.srcIP AND S1.destIP = S2.destIP
  AND S1.srcPort = S2.srcPort AND S1.destPort = S2.destPort AND S1.seq + 1 = S2.seq`

// underflowingPairs counts jitterPairs' rows whose delay is negative.
func underflowingPairs(res *Result) (n int) {
	for _, row := range res.Outputs["jitter_pairs"] {
		if row[3].Kind() == sqlval.KindInt {
			n++
		}
	}
	return n
}

// TestJoinOutputCrossesIslandAsBatch: a leaf-hosted join whose consumer
// is central hands each input batch's matches to the capture in one
// call, so the parallel engine ships fewer link items than rows and
// still reproduces the sequential engine's rows, OpStats and canonical
// trace byte for byte. The word-layout join emits columns, and its
// output crosses as column items only: a pair whose S2.time - S1.time
// underflows is an Int-marked row of its batch, and the items with Int
// bits are exactly the batches holding such a pair. The trace has such
// pairs; the item count is the one the row-emitting join had.
func TestJoinOutputCrossesIslandAsBatch(t *testing.T) {
	const jitterPairsItems = 2896 // Report.Timing.LinkItems when every item was a row batch
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	ps := core.MustParseSet("srcIP, destIP, srcPort, destPort")
	o := optimizer.Options{Hosts: 4, PartitionsPerHost: 2}
	cfg := RunConfig{
		Costs: DefaultCosts(), Params: testParams, Workers: 1, BatchSize: 256,
		CollectStats: true, Trace: &trace.Config{},
	}
	want := runEngine(t, jitterPairs, ps, o, streams, cfg)
	cfg.Workers = 4
	got := runEngine(t, jitterPairs, ps, o, streams, cfg)
	sameResult(t, want, got)
	sameTrace(t, want, got)
	rows, items := int64(len(got.Outputs["jitter_pairs"])), got.Report.Timing.LinkItems
	if rows == 0 || items != jitterPairsItems {
		t.Errorf("%d joined rows crossed in %d link items; want %d items", rows, items, jitterPairsItems)
	}
	underflows := underflowingPairs(got)
	crossed, _ := crossings(t, jitterPairs, ps, o, streams, 256)
	c := crossed[optimizer.OpJoin]
	if len(crossed) != 1 || c == nil || len(c.items) != 1 || c.items[live.ItemPushCols] == 0 || c.nonUint != 0 {
		t.Fatalf("what crossed is %+v; want the join's output alone, as uint column items", crossed)
	}
	if underflows == 0 || c.intRows != underflows || c.intBatches == 0 || c.intBatches > underflows {
		t.Errorf("%d column items with Int bits crossed, holding %d Int rows, for %d underflowing pairs; want one per batch holding such a pair, and every pair",
			c.intBatches, c.intRows, underflows)
	}
}
