package cluster

import (
	"math"
	"testing"

	"qap/internal/exec"
	"qap/internal/optimizer"
)

// TestMomentSplitEquivalence checks VARIANCE and STDDEV through the
// sub/super-aggregate path: partials are (sum, sumsq, count) triples
// merged centrally, and the reconstructed values must match the
// centralized aggregation.
func TestMomentSplitEquivalence(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, `
query len_stats:
SELECT tb, srcIP, VARIANCE(len) AS v, STDDEV(len) AS s, AVG(len) AS a
FROM TCP GROUP BY time/60 AS tb, srcIP
HAVING STDDEV(len) > 100`)
	want := centralized(t, g, tr)
	got := runConfig(t, g, nil, optimizer.Options{
		Hosts: 3, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}, tr)

	wr, gr := want.Outputs["len_stats"], got.Outputs["len_stats"]
	if len(wr) == 0 {
		t.Fatal("no rows; HAVING too strict for the trace")
	}
	if len(wr) != len(gr) {
		t.Fatalf("row counts differ: %d vs %d", len(wr), len(gr))
	}
	index := make(map[string][]float64, len(wr))
	for _, r := range wr {
		v, _ := r[2].AsFloat()
		s, _ := r[3].AsFloat()
		a, _ := r[4].AsFloat()
		index[exec.Key(r[:2])] = []float64{v, s, a}
	}
	for _, r := range gr {
		wantVals, ok := index[exec.Key(r[:2])]
		if !ok {
			t.Fatalf("unexpected group %v", r)
		}
		for i, col := range []int{2, 3, 4} {
			f, _ := r[col].AsFloat()
			if rel := math.Abs(f-wantVals[i]) / math.Max(math.Abs(wantVals[i]), 1); rel > 1e-6 {
				t.Fatalf("group %v col %d: %g vs %g", r[:2], col, f, wantVals[i])
			}
		}
	}
}

// TestHLLSplitEquivalence checks APPROX_COUNT_DISTINCT through the
// sub/super path: sketches merge losslessly, so the distributed
// estimate must equal the centralized one exactly.
func TestHLLSplitEquivalence(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, `
query fanout:
SELECT tb, srcIP, APPROX_COUNT_DISTINCT(destIP) AS dests, COUNT(*) AS pkts
FROM TCP GROUP BY time/60 AS tb, srcIP`)
	want := centralized(t, g, tr)
	got := runConfig(t, g, nil, optimizer.Options{
		Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopePartition}, tr)
	sameOutputs(t, "fanout", want.Outputs["fanout"], got.Outputs["fanout"])
	if len(want.Outputs["fanout"]) == 0 {
		t.Fatal("no rows")
	}
	// And the estimates are in the right ballpark against the exact
	// distinct count.
	exact := centralized(t, buildGraph(t, `
query fanout:
SELECT tb, srcIP, COUNT_DISTINCT(destIP) AS dests, COUNT(*) AS pkts
FROM TCP GROUP BY time/60 AS tb, srcIP`), tr)
	exactIdx := make(map[string]uint64)
	for _, r := range exact.Outputs["fanout"] {
		d, _ := r[2].AsUint()
		exactIdx[exec.Key(r[:2])] = d
	}
	for _, r := range got.Outputs["fanout"] {
		est, _ := r[2].AsUint()
		truth := exactIdx[exec.Key(r[:2])]
		if truth == 0 {
			t.Fatalf("missing exact value for %v", r[:2])
		}
		diff := math.Abs(float64(est) - float64(truth))
		// Tiny groups can lose a register to a collision; allow ±2
		// absolute there and 35% relative elsewhere.
		if diff > 2 && diff/float64(truth) > 0.35 {
			t.Fatalf("estimate %d vs exact %d (error %.0f%%)", est, truth, 100*diff/float64(truth))
		}
	}
}

// TestHolisticStaysCentralButCorrect: COUNT_DISTINCT cannot split, so
// the optimizer centralizes it; results still match under round robin.
func TestHolisticStaysCentralButCorrect(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, `
query fanout:
SELECT tb, srcIP, COUNT_DISTINCT(destIP) AS dests
FROM TCP GROUP BY time/60 AS tb, srcIP`)
	p := optimizer.MustBuild(g, nil, optimizer.Options{
		Hosts: 3, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost})
	if p.CountKind(optimizer.OpAggSub) != 0 {
		t.Fatal("holistic aggregate must not split")
	}
	want := centralized(t, g, tr)
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run("TCP", tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "fanout", want.Outputs["fanout"], got.Outputs["fanout"])
}
