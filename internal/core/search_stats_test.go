package core

import "testing"

// TestSearchStatsPopulated: an optimization run must account for every
// recorded candidate and every costed set, with the bookkeeping
// identities holding exactly.
func TestSearchStatsPopulated(t *testing.T) {
	g := buildGraph(t, tcpDDL, complexSet)
	res, err := Optimize(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := &res.Search
	if s.Enumerated != int64(len(res.Candidates)) {
		t.Errorf("Enumerated=%d, want len(Candidates)=%d", s.Enumerated, len(res.Candidates))
	}
	if s.UniqueSets <= 0 || s.UniqueSets > s.Enumerated {
		t.Errorf("UniqueSets=%d out of range (Enumerated=%d)", s.UniqueSets, s.Enumerated)
	}
	if s.Deduped != s.Enumerated-s.UniqueSets {
		t.Errorf("Deduped=%d, want Enumerated-UniqueSets=%d", s.Deduped, s.Enumerated-s.UniqueSets)
	}
	// The baseline is evaluated twice (PlanCost + TotalCost of the
	// empty set); the second lookup must hit the memo cache.
	if s.CacheHits < 1 {
		t.Errorf("CacheHits=%d, want >= 1", s.CacheHits)
	}
	if s.EnumerateNanos < 0 || s.CostNanos < 0 {
		t.Errorf("negative wall-clock spans: enum=%d cost=%d", s.EnumerateNanos, s.CostNanos)
	}
}

// TestSearchStatsDeterminism: every counter except the wall-clock
// spans must be identical across repeated runs.
func TestSearchStatsDeterminism(t *testing.T) {
	g := buildGraph(t, tcpDDL, complexSet)
	canon := func(r *Result) SearchStatsView {
		return SearchStatsView{
			Enumerated: r.Search.Enumerated,
			Pruned:     r.Search.Pruned,
			UniqueSets: r.Search.UniqueSets,
			Deduped:    r.Search.Deduped,
			CacheHits:  r.Search.CacheHits,
		}
	}
	want, err := Optimize(g, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := Optimize(g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if canon(got) != canon(want) {
			t.Fatalf("rep=%d: stats %+v, want %+v", rep, canon(got), canon(want))
		}
	}
}

// SearchStatsView is the comparable subset of the search stats used by
// the determinism test (everything but the wall-clock spans).
type SearchStatsView struct {
	Enumerated, Pruned, UniqueSets, Deduped, CacheHits int64
}
