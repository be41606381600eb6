package core

import (
	"fmt"
	"testing"
)

// TestCandidateCostsMatchCostModel: the search costs each distinct set
// once, bypassing the memo cache, and copies the pair to every
// candidate that reconciled to it. Every candidate must carry exactly
// the (Cost, Total) a fresh cost model gives its set through the
// memoized PlanCost/TotalCost path, and Best must be costed the same.
func TestCandidateCostsMatchCostModel(t *testing.T) {
	g := buildGraph(t, tcpDDL, complexSet)
	res, err := Optimize(g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	if res.Search.Deduped == 0 {
		t.Fatal("no candidate shared a set; the dedup path is not exercised")
	}
	cm := NewCostModel(g, nil)
	for _, c := range res.Candidates {
		if cost, total := cm.PlanCost(c.Set), cm.TotalCost(c.Set); c.Cost != cost || c.Total != total {
			t.Errorf("candidate %s {%v}: cost %v total %v, cost model gives %v and %v",
				c.Set, c.Queries, c.Cost, c.Total, cost, total)
		}
	}
	if got := cm.PlanCost(res.Best); got != res.BestCost {
		t.Errorf("best %s: BestCost %v, cost model gives %v", res.Best, res.BestCost, got)
	}
	if res.CentralCost != cm.PlanCost(nil) || res.CentralTotal != cm.TotalCost(nil) {
		t.Errorf("central cost %v/%v, cost model gives %v/%v",
			res.CentralCost, res.CentralTotal, cm.PlanCost(nil), cm.TotalCost(nil))
	}
}

// TestPerStreamOneStreamMatchesOptimize: over a single source stream
// the per-stream search has one bucket holding every query node, so it
// must recommend exactly the set the shared-set search does, with the
// same ranked candidate list.
func TestPerStreamOneStreamMatchesOptimize(t *testing.T) {
	g := buildGraph(t, tcpDDL, complexSet)
	want, err := Optimize(g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want.Best.IsEmpty() {
		t.Fatal("shared-set search recommends nothing; the comparison is vacuous")
	}
	per, err := OptimizePerStream(g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(per.Sets) != 1 || !per.Sets.Get("TCP").Equal(want.Best) {
		t.Fatalf("per-stream sets %s, want {tcp:%s}", per.Sets, want.Best)
	}
	sub := per.PerStream["tcp"]
	if sub == nil {
		t.Fatal("no per-stream result for tcp")
	}
	if got, w := snapshot(sub), snapshot(want); got != w {
		t.Fatalf("per-stream result differs:\n--- got ---\n%s\n--- want ---\n%s", got, w)
	}
}

// TestSearchTruncationKeepsPrefix: MaxStates stops the breadth-first
// expansion early but changes nothing it already did, so every
// candidate of a truncated search appears, identically costed, in the
// unbounded search; and a cap above the explored space is no cap.
func TestSearchTruncationKeepsPrefix(t *testing.T) {
	g := buildGraph(t, tcpDDL, wideSet)
	full, err := Optimize(g, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	key := func(c Candidate) string {
		return fmt.Sprintf("%v|%s|%v|%v", c.Queries, c.Set, c.Cost, c.Total)
	}
	inFull := make(map[string]int)
	for _, c := range full.Candidates {
		inFull[key(c)]++
	}
	cut, err := Optimize(g, nil, Options{MaxStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cut.Search.Enumerated >= full.Search.Enumerated {
		t.Fatalf("MaxStates 8 enumerated %d candidates, full search %d: nothing was truncated",
			cut.Search.Enumerated, full.Search.Enumerated)
	}
	for _, c := range cut.Candidates {
		k := key(c)
		if inFull[k] == 0 {
			t.Errorf("truncated candidate %s is not in the full search", k)
			continue
		}
		inFull[k]--
	}
	roomy, err := Optimize(g, nil, Options{MaxStates: int(full.Search.Enumerated) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshot(roomy), snapshot(full); got != want {
		t.Fatalf("MaxStates above the explored space changed the result:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
