package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"qap/internal/core"
	"qap/internal/netgen"
	"qap/internal/optimizer"
)

// runBatch builds and runs a plan with explicit worker count and batch
// size.
func runBatch(t testing.TB, queries string, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, workers, batch int) *Result {
	t.Helper()
	g := buildGraph(t, queries)
	p, err := optimizer.Build(g, ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{
		Costs: DefaultCosts(), Params: testParams,
		Workers: workers, BatchSize: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// canonOutputs renders the result's outputs order-insensitively: per
// query, the sorted row renderings. Production mode regroups deliveries
// within a round, which may permute join probe order, so its equivalence
// with the scalar oracle is canonical rather than positional.
func canonOutputs(res *Result) map[string][]string {
	out := make(map[string][]string, len(res.Outputs))
	for name, rows := range res.Outputs { //qap:allow maprange -- per-key sort; map rebuilt key-for-key
		rs := make([]string, len(rows))
		for i, r := range rows {
			rs[i] = r.String()
		}
		sort.Strings(rs)
		out[name] = rs
	}
	return out
}

// sameResultCanonical asserts batched-vs-scalar equivalence: canonical
// outputs, node-row counts, per-operator counters and per-host metrics
// must be identical, CPU units included.
func sameResultCanonical(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(canonOutputs(want), canonOutputs(got)) {
		t.Errorf("%s: canonical outputs differ", name)
	}
	if !reflect.DeepEqual(want.NodeRows, got.NodeRows) {
		t.Errorf("%s: NodeRows differ: %v vs %v", name, want.NodeRows, got.NodeRows)
	}
	if len(want.OpStats) != len(got.OpStats) {
		t.Fatalf("%s: OpStats count differs: %d vs %d", name, len(want.OpStats), len(got.OpStats))
	}
	for id, w := range want.OpStats { //qap:allow maprange -- per-id compare, order-free
		if g := got.OpStats[id]; g == nil || *g != *w {
			t.Errorf("%s: op %d counters differ:\n  scalar:  %+v\n  batched: %+v", name, id, *w, g)
		}
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Errorf("%s: metrics differ:\n  scalar:  %+v\n  batched: %+v", name, *want.Metrics, *got.Metrics)
	}
}

// TestBatchedMatchesScalar is the cluster-level equivalence gate for
// production mode (BatchSize > 1: column groups from the splitter,
// compiled column kernels, dense aggregate state): every workload and
// topology must produce the scalar oracle's canonical outputs and
// deterministic counters at every batch size, on both simulator
// engines. (The canonical trace bytes of the same cells are compared by
// TestTraceCanonicalBytesAcrossCells, the live engine's by
// TestLiveMatchesSim.)
func TestBatchedMatchesScalar(t *testing.T) {
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
		{"slidingwindow", slidingWindowSet(t), core.MustParseSet("srcIP, destIP")},
	}
	for _, qs := range querySets {
		for _, hosts := range []int{1, 4} {
			o := optimizer.Options{Hosts: hosts, PartitionsPerHost: 2, PartialAgg: true}
			t.Run(fmt.Sprintf("%s/hosts=%d", qs.name, hosts), func(t *testing.T) {
				want := runBatch(t, qs.queries, qs.ps, o, streams, 1, 1)
				for _, bs := range []int{7, 64, 1024} {
					for _, workers := range []int{1, 4} {
						got := runBatch(t, qs.queries, qs.ps, o, streams, workers, bs)
						sameResultCanonical(t, fmt.Sprintf("bs=%d workers=%d", bs, workers), want, got)
					}
				}
			})
		}
	}
}

// TestBatchedSameBatchBitIdentical: with the batch size held fixed,
// the worker count must not move a byte — the parallel engine's workers
// run the very rounds the sequential engine's executor runs, and the
// central replay reconstructs its delivery schedule exactly.
func TestBatchedSameBatchBitIdentical(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}
	for _, bs := range []int{7, 256} {
		want := runBatch(t, complexSet, core.MustParseSet("srcIP"), o, streams, 1, bs)
		got := runBatch(t, complexSet, core.MustParseSet("srcIP"), o, streams, 4, bs)
		sameResult(t, want, got)
	}
}

// TestBatchedAggregateOrderStable gates the epoch-drain map pre-sizing
// (Aggregate.emitBefore, Join.evict) against output reordering: an
// aggregation query's final rows are emitted in sorted (epoch, key)
// order per watermark, so a multi-epoch run — each epoch fully
// draining and rebuilding the group map pre-sized from the last — must
// produce *positionally* identical output on the scalar path, the
// batched path, and across repeated fresh runs.
func TestBatchedAggregateOrderStable(t *testing.T) {
	tr := smallTrace(t) // 3 epochs of 60s; every group drains at each boundary
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	ps := core.MustParseSet("srcIP, destIP")
	want := runBatch(t, flowsQuery, ps, o, streams, 1, 1)
	if len(want.Outputs["flows"]) == 0 {
		t.Fatal("flows query emitted nothing; bad workload")
	}
	for run := 0; run < 3; run++ {
		got := runBatch(t, flowsQuery, ps, o, streams, 1, 64)
		if !reflect.DeepEqual(want.Outputs, got.Outputs) {
			t.Fatalf("run %d: batched aggregate output order drifted from scalar", run)
		}
	}
}
