package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qap/internal/obs"
	"qap/internal/plan"
)

// Candidate is one explored partitioning option: the reconciled set
// for a subset of query nodes and its plan cost.
type Candidate struct {
	// Queries whose requirements this candidate's set was reconciled
	// from, in topological order.
	Queries []string
	Set     Set
	Cost    float64
	// Total is the sum-of-nodes network cost, used to break ties in
	// the max objective (two partitionings can leave the same worst
	// node while differing in overall traffic).
	Total float64
}

// Result is the outcome of the optimal-partitioning search.
type Result struct {
	// Best is the recommended partitioning set; it may be empty when
	// no partitioning beats fully centralized execution.
	Best Set
	// BestCost is the plan cost under Best.
	BestCost float64
	// CentralCost is the plan cost of the empty (query-agnostic)
	// partitioning — the centralized baseline.
	CentralCost float64
	// CentralTotal is the sum-of-nodes cost of the baseline.
	CentralTotal float64
	// PerNode holds every query node's inferred requirement.
	PerNode map[string]Requirement
	// Candidates lists all explored non-empty candidates sorted by
	// cost (then by coverage).
	Candidates []Candidate
	// Search holds the instrumentation counters of this run. Every
	// field except the wall-clock Nanos spans is deterministic.
	Search obs.SearchStats
}

// Options configures the search.
type Options struct {
	// MaxStates caps the number of node subsets explored; the
	// candidate space is pruned by the paper's leaf-first heuristics
	// and reconciliation failures, but a runaway guard is kept for
	// adversarial query sets.
	MaxStates int
}

// DefaultOptions returns the standard search options.
func DefaultOptions() Options { return Options{MaxStates: 1 << 18} }

// Optimize runs the paper's Section 4.2.2 algorithm: enumerate
// candidate partitioning sets by reconciling the requirements of
// growing subsets of query nodes, using dynamic programming over
// subsets, restricted by two heuristics — initial candidates are leaf
// nodes only, and a subset may only grow by a leaf or by an immediate
// parent of a member — and return the set minimizing the plan cost.
func Optimize(g *plan.Graph, stats Stats, opts Options) (*Result, error) {
	return optimize(g, stats, opts, NodeRequirement, nil)
}

// optimize is the search core; reqOf lets the per-stream analysis
// substitute stream-scoped requirements, and validFor restricts which
// candidate sets are usable (nil applies the shared-set rule: every
// attribute must exist in every source stream).
func optimize(g *plan.Graph, stats Stats, opts Options, reqOf func(*plan.Node) Requirement, validFor func(Set) bool) (*Result, error) {
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultOptions().MaxStates
	}
	cm := NewCostModel(g, stats)
	res := &Result{PerNode: make(map[string]Requirement)}
	// Wall-clock spans are observational only: they are recorded in
	// Result.Search but never feed back into the search, and they are
	// excluded from the stats' JSON form.
	enumStart := time.Now() //qap:allow walltime -- wall time quarantined in SearchStats nanos

	// Constrained nodes: non-universal with a usable requirement.
	var nodes []*plan.Node
	reqs := make(map[*plan.Node]Requirement)
	for _, n := range g.QueryNodes() {
		r := reqOf(n)
		res.PerNode[n.QueryName] = r
		reqs[n] = r
		if !r.Universal && !r.Set.IsEmpty() {
			nodes = append(nodes, n)
		}
	}
	res.CentralCost = cm.PlanCost(nil)
	res.CentralTotal = cm.TotalCost(nil)
	if len(nodes) == 0 {
		res.Best, res.BestCost = nil, res.CentralCost
		res.Search.EnumerateNanos = int64(time.Since(enumStart)) //qap:allow walltime -- wall time quarantined in SearchStats nanos
		res.Search.CacheHits = cm.cacheHits
		return res, nil
	}
	if len(nodes) > 63 {
		return nil, fmt.Errorf("core: query set with %d constrained nodes exceeds the search limit of 63", len(nodes))
	}
	index := make(map[*plan.Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}

	// Under the shared-set assumption every source stream is
	// partitioned by the same set, so a candidate is only usable when
	// each of its attributes exists in every source stream's schema;
	// OptimizePerStream substitutes a single-stream check.
	if validFor == nil {
		validFor = func(s Set) bool {
			for _, src := range g.Sources() {
				for _, e := range s {
					if _, _, ok := src.Stream.Lookup(e.Attr); !ok {
						return false
					}
				}
			}
			return true
		}
	}

	// A node is a "leaf" for the heuristic when no other constrained
	// node lies beneath it.
	isLeaf := make([]bool, len(nodes))
	for i, n := range nodes {
		isLeaf[i] = !hasConstrainedBelow(n, index)
	}
	// parents[i] = constrained nodes reachable upward from node i
	// through universal/unconstrained nodes; precomputed once.
	parents := make([][]int, len(nodes))
	for i, n := range nodes {
		seen := make(map[*plan.Node]bool)
		var walk func(*plan.Node)
		walk = func(x *plan.Node) {
			for _, p := range x.Parents {
				if seen[p] {
					continue
				}
				seen[p] = true
				if j, ok := index[p]; ok {
					parents[i] = append(parents[i], j)
				} else {
					walk(p)
				}
			}
		}
		walk(n)
	}

	type state struct {
		mask uint64
		set  Set
	}
	visited := make(map[uint64]bool)
	var frontier []state
	// Costs are not consulted during the expansion, only by the final
	// ranking, so record defers them: candidates are costed in one
	// batch after the frontier is exhausted.
	record := func(mask uint64, set Set) {
		var names []string
		for i, n := range nodes {
			if mask&(1<<uint(i)) != 0 {
				names = append(names, n.QueryName)
			}
		}
		res.Candidates = append(res.Candidates, Candidate{Queries: names, Set: set})
		res.Search.Enumerated++
	}

	for i, n := range nodes {
		if !isLeaf[i] {
			continue
		}
		mask := uint64(1) << uint(i)
		visited[mask] = true
		if !validFor(reqs[n].Set) {
			res.Search.Pruned++
			continue
		}
		frontier = append(frontier, state{mask, reqs[n].Set})
		record(mask, reqs[n].Set)
	}
	states := len(frontier)
	for len(frontier) > 0 && states < opts.MaxStates {
		var next []state
		for _, st := range frontier {
			// Expansion candidates: leaves, plus immediate constrained
			// parents of members. Indexed by node position and scanned
			// in ascending order — a map iterated here would make the
			// candidate list (and MaxStates truncation) vary run to run.
			cand := make([]bool, len(nodes))
			for j := range nodes {
				if isLeaf[j] && st.mask&(1<<uint(j)) == 0 {
					cand[j] = true
				}
			}
			for i := range nodes {
				if st.mask&(1<<uint(i)) == 0 {
					continue
				}
				for _, j := range parents[i] {
					if st.mask&(1<<uint(j)) == 0 {
						cand[j] = true
					}
				}
			}
			for j := range cand {
				if !cand[j] {
					continue
				}
				mask := st.mask | 1<<uint(j)
				if visited[mask] {
					continue
				}
				visited[mask] = true
				merged := Reconcile(st.set, reqs[nodes[j]].Set)
				if merged.IsEmpty() {
					res.Search.Pruned++
					continue
				}
				record(mask, merged)
				next = append(next, state{mask, merged})
				states++
				if states >= opts.MaxStates {
					break
				}
			}
			if states >= opts.MaxStates {
				break
			}
		}
		frontier = next
	}

	res.Search.EnumerateNanos = int64(time.Since(enumStart)) //qap:allow walltime -- wall time quarantined in SearchStats nanos
	costStart := time.Now()                                  //qap:allow walltime -- wall time quarantined in SearchStats nanos
	fillCandidateCosts(cm, res.Candidates, &res.Search)
	res.Search.CostNanos = int64(time.Since(costStart)) //qap:allow walltime -- wall time quarantined in SearchStats nanos
	res.Search.CacheHits = cm.cacheHits

	rankAndSelect(res)
	return res, nil
}

// rankAndSelect orders the costed candidates (cost, then total, then
// coverage, then canonical set text) and picks Best: the top candidate
// when it strictly beats — or ties the max objective while beating the
// total-traffic tiebreak of — the centralized baseline. Shared by the
// full search and the incremental Reoptimize so re-costing can never
// diverge from a fresh search's selection logic.
func rankAndSelect(res *Result) {
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		a, b := res.Candidates[i], res.Candidates[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Total != b.Total {
			return a.Total < b.Total
		}
		if len(a.Queries) != len(b.Queries) {
			return len(a.Queries) > len(b.Queries)
		}
		return a.Set.String() < b.Set.String()
	})
	res.Best, res.BestCost = nil, res.CentralCost
	if len(res.Candidates) > 0 {
		top := res.Candidates[0]
		if top.Cost < res.CentralCost ||
			(top.Cost == res.CentralCost && top.Total < res.CentralTotal) {
			res.Best, res.BestCost = top.Set, top.Cost
		}
	}
}

// fillCandidateCosts computes every candidate's (Cost, Total). Many
// candidates reconcile to the same set, so the distinct sets are
// evaluated once each, in first-seen order; st receives the dedup
// counters. A deduplicated candidate is not a cost-model cache hit:
// the evaluations bypass evaluate's memo.
func fillCandidateCosts(cm *CostModel, cands []Candidate, st *obs.SearchStats) {
	uniq := make(map[string][2]float64)
	for i := range cands {
		key := cands[i].Set.String()
		v, ok := uniq[key]
		if !ok {
			v[0], v[1] = cm.evaluateUncached(cands[i].Set)
			uniq[key] = v
		}
		cands[i].Cost, cands[i].Total = v[0], v[1]
	}
	st.UniqueSets = int64(len(uniq))
	st.Deduped = int64(len(cands) - len(uniq))
}

// hasConstrainedBelow reports whether any constrained node is in n's
// input subtree.
func hasConstrainedBelow(n *plan.Node, index map[*plan.Node]int) bool {
	for _, in := range n.Inputs {
		if _, ok := index[in]; ok {
			return true
		}
		if hasConstrainedBelow(in, index) {
			return true
		}
	}
	return false
}

// Summary renders the result for tooling output.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "centralized cost: %.0f B/s\n", r.CentralCost)
	if r.Best.IsEmpty() {
		b.WriteString("recommended: none (no partitioning beats centralized)\n")
	} else {
		fmt.Fprintf(&b, "recommended: %s  cost %.0f B/s  (%.1fx better than centralized)\n",
			r.Best, r.BestCost, r.CentralCost/maxf(r.BestCost, 1e-9))
	}
	names := make([]string, 0, len(r.PerNode))
	for name := range r.PerNode { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		req := r.PerNode[name]
		switch {
		case req.Universal:
			fmt.Fprintf(&b, "  %-24s compatible with any partitioning\n", name)
		case req.Set.IsEmpty():
			fmt.Fprintf(&b, "  %-24s no compatible partitioning\n", name)
		default:
			fmt.Fprintf(&b, "  %-24s requires %s\n", name, req.Set)
		}
	}
	shown := len(r.Candidates)
	if shown > 8 {
		shown = 8
	}
	for i := 0; i < shown; i++ {
		c := r.Candidates[i]
		fmt.Fprintf(&b, "  candidate %-28s cost %.0f  satisfies {%s}\n", c.Set, c.Cost, strings.Join(c.Queries, ", "))
	}
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
