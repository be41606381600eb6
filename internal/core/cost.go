package core

import (
	"fmt"
	"sort"
	"strings"

	"qap/internal/plan"
	"qap/internal/schema"
)

// Stats supplies the workload statistics the cost model needs (paper
// Section 4.2.1): per-stream tuple rates and per-node selectivity
// factors (expected output tuples per input tuple during one epoch).
type Stats interface {
	// StreamTupleRate returns the tuple arrival rate of a source
	// stream in tuples per second.
	StreamTupleRate(stream string) float64
	// Selectivity returns the node's selectivity factor.
	Selectivity(n *plan.Node) float64
}

// StaticStats is a Stats implementation backed by explicit values with
// heuristic defaults, suitable both for hand configuration and for
// loading measured statistics.
type StaticStats struct {
	// DefaultRate applies to streams absent from Rates (tuples/sec).
	DefaultRate float64
	// Rates maps lower-case stream names to tuple rates.
	Rates map[string]float64
	// Selectivities maps lower-case query names to measured
	// selectivity factors, overriding the heuristics.
	Selectivities map[string]float64
}

// NewStaticStats returns stats with the package defaults.
func NewStaticStats() *StaticStats {
	return &StaticStats{
		DefaultRate:   100000,
		Rates:         make(map[string]float64),
		Selectivities: make(map[string]float64),
	}
}

// SetRate records a stream's tuple rate.
func (s *StaticStats) SetRate(stream string, rate float64) {
	s.Rates[strings.ToLower(stream)] = rate
}

// SetSelectivity records a query node's measured selectivity.
func (s *StaticStats) SetSelectivity(query string, sel float64) {
	s.Selectivities[strings.ToLower(query)] = sel
}

// StreamTupleRate implements Stats.
func (s *StaticStats) StreamTupleRate(stream string) float64 {
	if r, ok := s.Rates[strings.ToLower(stream)]; ok {
		return r
	}
	return s.DefaultRate
}

// Selectivity implements Stats. Heuristic defaults: aggregations
// reduce to 10% of their input (flow-style grouping), HAVING clauses
// halve that again, filters pass 30%, projections pass everything,
// joins emit 20% of the larger input.
func (s *StaticStats) Selectivity(n *plan.Node) float64 {
	if sel, ok := s.Selectivities[strings.ToLower(n.QueryName)]; ok {
		return sel
	}
	switch n.Kind {
	case plan.KindAggregate:
		sel := 0.1
		if n.Having != nil {
			sel *= 0.5
		}
		return sel
	case plan.KindJoin:
		return 0.2
	case plan.KindSelectProject:
		if n.Filter != nil {
			return 0.3
		}
		return 1.0
	default:
		return 1.0
	}
}

// TupleSize estimates the wire size in bytes of a tuple with the given
// columns: an 8-byte header plus each column's typical encoding.
func TupleSize(cols []plan.ColDef) float64 {
	size := 8.0
	for _, c := range cols {
		if c.Type == schema.TString {
			size += 24
		} else {
			size += 9
		}
	}
	return size
}

// CostModel evaluates the paper's Section 4.2.1 objective: the cost of
// a plan under a partitioning set is the maximum number of bytes any
// single node receives over the network per unit time.
type CostModel struct {
	Graph *plan.Graph
	Stats Stats

	tupleRates map[*plan.Node]float64
	// reqs caches every node's requirement; inference walks lineage
	// and clones expressions, far too costly to repeat per candidate.
	reqs map[*plan.Node]Requirement
	// costCache memoizes evaluated partitioning sets by their
	// canonical text: the subset search reconciles many node subsets
	// to the same set.
	costCache map[string][2]float64
	// cacheHits counts costCache lookups that hit; a deterministic
	// function of the evaluate() call sequence.
	cacheHits int64
}

// NewCostModel builds a cost model over a query graph.
func NewCostModel(g *plan.Graph, stats Stats) *CostModel {
	if stats == nil {
		stats = NewStaticStats()
	}
	cm := &CostModel{
		Graph:      g,
		Stats:      stats,
		tupleRates: make(map[*plan.Node]float64),
		reqs:       make(map[*plan.Node]Requirement, len(g.Nodes)),
		costCache:  make(map[string][2]float64),
	}
	for _, n := range g.Nodes {
		cm.reqs[n] = NodeRequirement(n)
	}
	return cm
}

// compatible is the cached-requirement version of Compatible.
func (c *CostModel) compatible(ps Set, n *plan.Node) bool {
	if ps.IsEmpty() {
		return false
	}
	req := c.reqs[n]
	if req.Universal {
		return true
	}
	return SubsetCompatible(ps, req.CompatSet)
}

// evaluate computes (max, total) node costs for a partitioning in one
// topological pass, memoized by the set's canonical text.
func (c *CostModel) evaluate(ps Set) (maxCost, total float64) {
	key := ps.String()
	if v, ok := c.costCache[key]; ok {
		c.cacheHits++
		return v[0], v[1]
	}
	maxCost, total = c.evaluateUncached(ps)
	c.costCache[key] = [2]float64{maxCost, total}
	return maxCost, total
}

// evaluateUncached is evaluate without the memo cache.
func (c *CostModel) evaluateUncached(ps Set) (maxCost, total float64) {
	distributable := make(map[*plan.Node]bool, len(c.Graph.Nodes))
	for _, n := range c.Graph.Nodes {
		if n.Kind == plan.KindSource {
			distributable[n] = true
			continue
		}
		ok := c.compatible(ps, n)
		for _, in := range n.Inputs {
			ok = ok && distributable[in]
		}
		distributable[n] = ok
	}
	for _, n := range c.Graph.QueryNodes() {
		var cost float64
		if distributable[n] {
			ships := len(n.Parents) == 0
			for _, parent := range n.Parents {
				if !distributable[parent] {
					ships = true
					break
				}
			}
			if ships {
				cost = c.OutputByteRate(n)
			}
		} else {
			for _, child := range n.Inputs {
				if child.Kind == plan.KindSource || distributable[child] {
					cost += c.OutputByteRate(child)
				}
			}
		}
		if cost > maxCost {
			maxCost = cost
		}
		total += cost
	}
	return maxCost, total
}

// OutputTupleRate returns the node's steady-state output rate in
// tuples per second: sources emit at the stream rate; other nodes
// scale the sum of their inputs by their selectivity factor.
func (c *CostModel) OutputTupleRate(n *plan.Node) float64 {
	if r, ok := c.tupleRates[n]; ok {
		return r
	}
	var rate float64
	if n.Kind == plan.KindSource {
		rate = c.Stats.StreamTupleRate(n.Stream.Name)
	} else {
		in := 0.0
		for _, child := range n.Inputs {
			in += c.OutputTupleRate(child)
		}
		rate = in * c.Stats.Selectivity(n)
	}
	c.tupleRates[n] = rate
	return rate
}

// OutputByteRate is the node's output in bytes per second.
func (c *CostModel) OutputByteRate(n *plan.Node) float64 {
	return c.OutputTupleRate(n) * TupleSize(n.OutCols)
}

// InputByteRate is the bytes per second arriving at the node from its
// children.
func (c *CostModel) InputByteRate(n *plan.Node) float64 {
	in := 0.0
	for _, child := range n.Inputs {
		in += c.OutputByteRate(child)
	}
	return in
}

// NodeCost is the network receive rate attributed to one node under
// partitioning ps (paper Section 4.2.1):
//
//   - 0 when the node processes only local data — it is distributable
//     and every consumer is distributable too (its output never
//     crosses the network), or it runs centrally with all inputs
//     already central;
//   - its input rate when it runs centrally but a child is distributed
//     (the full input crosses the network);
//   - its output rate when it is distributable and its output must be
//     unioned centrally (it is a root, or feeds a central consumer).
func (c *CostModel) NodeCost(n *plan.Node, ps Set) float64 {
	if n.Kind == plan.KindSource {
		return 0
	}
	if Distributable(ps, n) {
		for _, parent := range n.Parents {
			if !Distributable(ps, parent) {
				return c.OutputByteRate(n)
			}
		}
		if len(n.Parents) == 0 {
			return c.OutputByteRate(n)
		}
		return 0
	}
	// Central node: it pays for inputs arriving from distributed
	// children; inputs from other central nodes are local.
	cost := 0.0
	for _, child := range n.Inputs {
		if child.Kind == plan.KindSource || Distributable(ps, child) {
			cost += c.OutputByteRate(child)
		}
	}
	return cost
}

// PlanCost is max over all query nodes of NodeCost (the paper's
// objective: avoid overloading any single host).
func (c *CostModel) PlanCost(ps Set) float64 {
	maxCost, _ := c.evaluate(ps)
	return maxCost
}

// TotalCost is the sum variant of the objective, used by the
// cost-objective ablation and the search's tie-break.
func (c *CostModel) TotalCost(ps Set) float64 {
	_, total := c.evaluate(ps)
	return total
}

// Explain renders a per-node cost breakdown for diagnostics.
func (c *CostModel) Explain(ps Set) string {
	var b strings.Builder
	fmt.Fprintf(&b, "partitioning %s\n", ps)
	nodes := c.Graph.QueryNodes()
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		status := "central"
		if Distributable(ps, n) {
			status = "distributed"
		}
		fmt.Fprintf(&b, "  %-24s %-11s in=%.0f B/s out=%.0f B/s cost=%.0f B/s\n",
			n.QueryName, status, c.InputByteRate(n), c.OutputByteRate(n), c.NodeCost(n, ps))
	}
	fmt.Fprintf(&b, "  plan cost (max) = %.0f B/s\n", c.PlanCost(ps))
	return b.String()
}
