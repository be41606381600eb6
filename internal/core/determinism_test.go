package core

import (
	"sync"
	"testing"
)

// wideSet gives the search many distinct per-query requirement sets so
// the DP frontier branches and, with a small MaxStates, truncates.
const wideSet = `
query by_src:
SELECT tb, srcIP, COUNT(*) as c1 FROM TCP GROUP BY time/60 as tb, srcIP

query by_dst:
SELECT tb, destIP, COUNT(*) as c2 FROM TCP GROUP BY time/60 as tb, destIP

query by_ports:
SELECT tb, srcPort, destPort, COUNT(*) as c3
FROM TCP GROUP BY time/60 as tb, srcPort, destPort

query by_pair:
SELECT tb, srcIP, destIP, COUNT(*) as c4
FROM TCP GROUP BY time/60 as tb, srcIP, destIP

query by_subnet:
SELECT tb, subnet, COUNT(*) as c5
FROM TCP GROUP BY time/60 as tb, srcIP & 0xFFF0 as subnet

query by_flow:
SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as c6
FROM TCP GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort`

// snapshot reduces a Result to its deterministic content (Search holds
// quarantined wall-clock nanos, so it is compared field-by-field).
func snapshot(r *Result) string {
	s := r.Summary()
	for _, c := range r.Candidates {
		s += "|" + c.Set.String()
	}
	return s
}

// TestSearchDeterministic pins the fix for the DP expansion's former
// map-order dependence: the candidate list, the recommendation, and
// the explored-state accounting must be identical run to run,
// including when MaxStates truncates the frontier. The parallel cases
// run the searches at once over one shared graph: a search must keep
// all of its state to itself.
func TestSearchDeterministic(t *testing.T) {
	g := buildGraph(t, tcpDDL, wideSet)
	for _, tc := range []struct {
		name      string
		maxStates int
	}{
		{"full", 0},
		{"truncated", 8},
	} {
		run := func(t *testing.T) *Result {
			opts := DefaultOptions()
			if tc.maxStates > 0 {
				opts.MaxStates = tc.maxStates
			}
			res, err := Optimize(g, nil, opts)
			if err != nil {
				t.Error(err)
			}
			return res
		}
		check := func(t *testing.T, i int, res, first *Result) {
			if got, want := snapshot(res), snapshot(first); got != want {
				t.Errorf("run %d differs:\n--- got ---\n%s\n--- want ---\n%s", i, got, want)
			}
			if res.Search.Enumerated != first.Search.Enumerated ||
				res.Search.Pruned != first.Search.Pruned ||
				res.Search.UniqueSets != first.Search.UniqueSets {
				t.Errorf("run %d search accounting differs: %+v vs %+v",
					i, res.Search, first.Search)
			}
		}
		t.Run(tc.name+"/sequential", func(t *testing.T) {
			first := run(t)
			for i := 0; i < 5; i++ {
				if res := run(t); res != nil && first != nil {
					check(t, i, res, first)
				}
			}
		})
		t.Run(tc.name+"/parallel", func(t *testing.T) {
			first := run(t)
			results := make([]*Result, 4)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = run(t)
				}(i)
			}
			wg.Wait()
			for i, res := range results {
				if res != nil && first != nil {
					check(t, i, res, first)
				}
			}
		})
	}
}
