package core

import (
	"testing"
)

// sameDecision asserts two search results agree on everything the
// adaptive controller consumes: the recommendation, the baseline, and
// the costed candidate ranking (compared by set and cost — Queries
// lists of fully tied candidates may legally permute).
func sameDecision(t *testing.T, got, want *Result) {
	t.Helper()
	if !got.Best.Equal(want.Best) || got.BestCost != want.BestCost {
		t.Fatalf("best %s cost %v, want %s cost %v", got.Best, got.BestCost, want.Best, want.BestCost)
	}
	if got.CentralCost != want.CentralCost || got.CentralTotal != want.CentralTotal {
		t.Fatalf("central %v/%v, want %v/%v",
			got.CentralCost, got.CentralTotal, want.CentralCost, want.CentralTotal)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("candidate count %d, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		a, b := got.Candidates[i], want.Candidates[i]
		if !a.Set.Equal(b.Set) || a.Cost != b.Cost || a.Total != b.Total {
			t.Fatalf("candidate %d: %s cost %v/%v, want %s cost %v/%v",
				i, a.Set, a.Cost, a.Total, b.Set, b.Cost, b.Total)
		}
	}
}

// TestReoptimizeMatchesFreshOptimize pins the theorem Reoptimize leans
// on: the enumeration is stats-independent, so re-costing a prior
// candidate list under new statistics must reach exactly the decision
// a from-scratch search under those statistics reaches.
func TestReoptimizeMatchesFreshOptimize(t *testing.T) {
	g := buildGraph(t, tcpDDL, complexSet)
	prior, err := Optimize(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Same stats: the re-cost is a no-op and everything matches.
	re, err := Reoptimize(g, prior, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, re, prior)

	// Shifted stats: crank the stream rate and skew the selectivities
	// so the cost landscape genuinely moves, then compare against a
	// fresh search under the same stats.
	st := NewStaticStats()
	st.SetRate("TCP", 50000)
	for name := range prior.PerNode { //qap:allow maprange -- setting uniform per-node stats
		st.SetSelectivity(name, 0.7)
	}
	fresh, err := Optimize(g, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err = Reoptimize(g, prior, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, re, fresh)
	if re.Search.Enumerated != prior.Search.Enumerated {
		t.Errorf("Enumerated = %d, want carried-over %d", re.Search.Enumerated, prior.Search.Enumerated)
	}

	// Nil prior falls back to the full search.
	re, err = Reoptimize(g, nil, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameDecision(t, re, fresh)
}
