package core

import (
	"time"

	"qap/internal/plan"
)

// Reoptimize re-runs the partitioning decision under refreshed
// workload statistics without re-enumerating the candidate space. The
// Section 4.2.2 enumeration is a pure function of the query graph —
// requirements, reconciliation, and the DP expansion never look at
// stats; only the costing of the recorded candidates does — so an
// adaptive controller reacting to drift can reuse a prior search's
// candidate list and pay only the re-costing. At the MaxStates cap
// the enumeration and the candidate bookkeeping dominate a search, not
// the costing of the few distinct sets, so skipping the enumeration is
// where the saving lies.
//
// The result is identical to a fresh Optimize on the same graph and
// stats (asserted by TestReoptimizeMatchesFreshOptimize), minus the
// enumeration wall-clock. A nil prior falls back to a full Optimize.
func Reoptimize(g *plan.Graph, prior *Result, stats Stats, opts Options) (*Result, error) {
	if prior == nil {
		return Optimize(g, stats, opts)
	}
	cm := NewCostModel(g, stats)
	res := &Result{PerNode: make(map[string]Requirement, len(prior.PerNode))}
	for name, req := range prior.PerNode { //qap:allow maprange -- map-to-map copy, order-insensitive
		res.PerNode[name] = req
	}
	res.CentralCost = cm.PlanCost(nil)
	res.CentralTotal = cm.TotalCost(nil)
	// Carry the enumeration-phase counters over (the candidate list is
	// the prior enumeration's); the costing counters are refilled.
	res.Search.Enumerated = prior.Search.Enumerated
	res.Search.Pruned = prior.Search.Pruned
	res.Candidates = make([]Candidate, len(prior.Candidates))
	for i, c := range prior.Candidates {
		res.Candidates[i] = Candidate{Queries: c.Queries, Set: c.Set}
	}
	costStart := time.Now() //qap:allow walltime -- wall time quarantined in SearchStats nanos
	fillCandidateCosts(cm, res.Candidates, &res.Search)
	res.Search.CostNanos = int64(time.Since(costStart)) //qap:allow walltime -- wall time quarantined in SearchStats nanos
	res.Search.CacheHits = cm.cacheHits
	rankAndSelect(res)
	return res, nil
}
