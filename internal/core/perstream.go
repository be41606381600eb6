package core

import (
	"sort"
	"strings"

	"qap/internal/gsql"
	"qap/internal/plan"
)

// StreamSets assigns each source stream its own partitioning set — the
// paper's stated future work ("expanding the analysis algorithms to
// handle different partitioning schemes for different input streams").
// Keys are lower-case stream names.
//
// Semantics: the splitter hashes stream s's tuples by the element
// vector StreamSets[s]; tuples of different streams land in the same
// partition when their element vectors hash equally. A cross-stream
// join is therefore compatible only when the two streams' sets are
// position-aligned: equal length, and position i of each set applies
// the same coarsening shape to the two sides of one join-key pair, so
// matching tuples produce identical vectors.
type StreamSets map[string]Set

// String renders the assignment deterministically.
func (ss StreamSets) String() string {
	names := make([]string, 0, len(ss))
	for name := range ss { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + ":" + ss[name].String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// Get returns the stream's set.
func (ss StreamSets) Get(stream string) Set { return ss[strings.ToLower(stream)] }

// IsEmpty reports whether no stream has a partitioning.
func (ss StreamSets) IsEmpty() bool {
	for _, s := range ss { //qap:allow maprange -- any-empty check, order-insensitive
		if !s.IsEmpty() {
			return false
		}
	}
	return true
}

// shapeOf extracts the coarsening shape of an element expression
// relative to its bare attribute: the canonical form for the
// mask/div lattice, so that R.custIP & 0xFF00 and S.srcIP & 0xFF00
// compare as "the same function".
func shapeOf(e Elem) form { return classify(e.Expr) }

func sameShape(a, b Elem) bool {
	fa, fb := shapeOf(a), shapeOf(b)
	if fa.kind == formOther || fb.kind == formOther {
		// Fall back to structural identity of the expressions with
		// attribute references erased.
		ea, _ := substituteRefs(a.Expr, func(*gsql.ColumnRef) (gsql.Expr, bool) {
			return &gsql.ColumnRef{Name: "_"}, true
		})
		eb, _ := substituteRefs(b.Expr, func(*gsql.ColumnRef) (gsql.Expr, bool) {
			return &gsql.ColumnRef{Name: "_"}, true
		})
		return gsql.EqualExpr(ea, eb)
	}
	return fa == fb
}

// CompatibleStreams reports whether the per-stream partitioning is
// compatible with node n. Single-stream nodes check their stream's set
// against the usual requirement; cross-stream joins additionally
// require position-aligned sets as described on StreamSets.
func CompatibleStreams(ss StreamSets, n *plan.Node) bool {
	switch n.Kind {
	case plan.KindSource, plan.KindSelectProject:
		return true
	case plan.KindAggregate:
		streams := nodeStreams(n)
		if len(streams) != 1 {
			return false
		}
		set := ss.Get(streams[0])
		if set.IsEmpty() {
			return false
		}
		req := NodeRequirement(n)
		return SubsetCompatible(set, req.CompatSet)
	case plan.KindJoin:
		return joinCompatibleStreams(ss, n)
	default:
		return false
	}
}

// nodeStreams lists the base streams a node's subtree reads.
func nodeStreams(n *plan.Node) []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(*plan.Node)
	walk = func(x *plan.Node) {
		if x.Kind == plan.KindSource {
			key := strings.ToLower(x.Stream.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
			return
		}
		for _, in := range x.Inputs {
			walk(in)
		}
	}
	walk(n)
	sort.Strings(out)
	return out
}

func joinCompatibleStreams(ss StreamSets, n *plan.Node) bool {
	ls := nodeStreams(n.Inputs[0])
	rs := nodeStreams(n.Inputs[1])
	if len(ls) != 1 || len(rs) != 1 {
		return false
	}
	leftSet, rightSet := ss.Get(ls[0]), ss.Get(rs[0])
	if leftSet.IsEmpty() || rightSet.IsEmpty() {
		return false
	}
	if ls[0] == rs[0] {
		// Self-join over one stream: the single-set compatibility test
		// applies.
		return SubsetCompatible(leftSet, NodeRequirement(n).CompatSet)
	}
	if len(leftSet) != len(rightSet) {
		return false
	}
	// Each position of the two sets must be a same-shaped coarsening
	// of the two sides of one join-key pair.
	type pair struct{ l, r Elem }
	var pairs []pair
	for i := range n.LeftKeys {
		ll := n.SideLineage(0, n.LeftKeys[i])
		rl := n.SideLineage(1, n.RightKeys[i])
		if ll.Base == nil || rl.Base == nil || ll.Temporal || rl.Temporal {
			continue
		}
		pairs = append(pairs, pair{
			l: Elem{Attr: ll.Base.Attr, Expr: ll.Base.Expr},
			r: Elem{Attr: rl.Base.Attr, Expr: rl.Base.Expr},
		})
	}
	for i := range leftSet {
		le, re := leftSet[i], rightSet[i]
		ok := false
		for _, p := range pairs {
			if IsCoarseningOf(le, p.l) && IsCoarseningOf(re, p.r) && sameShape(le, re) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// DistributableStreams is Distributable under per-stream partitioning.
func DistributableStreams(ss StreamSets, n *plan.Node) bool {
	if n.Kind == plan.KindSource {
		return true
	}
	if !CompatibleStreams(ss, n) {
		return false
	}
	for _, in := range n.Inputs {
		if !DistributableStreams(ss, in) {
			return false
		}
	}
	return true
}

// PerStreamResult is the outcome of the per-stream search.
type PerStreamResult struct {
	// Sets is the recommended assignment (streams with no useful
	// partitioning are absent).
	Sets StreamSets
	// PerStream holds the independent single-stream analyses.
	PerStream map[string]*Result
	// CrossJoins lists cross-stream joins whose position-aligned
	// requirements were added to both streams' candidate pools.
	CrossJoins []string
}

// OptimizePerStream extends the Section 4 analysis to one partitioning
// set per input stream: queries reading only one stream constrain only
// that stream's set (so two streams with disjoint monitoring queries
// no longer conflict, which the shared-set assumption forces), and
// cross-stream equi-joins contribute position-aligned requirements to
// both streams.
//
// The search runs the standard dynamic program once per stream over
// the nodes reading it; a cross-stream join participates in both
// streams' searches via its side's key expressions, and the final
// assignment is validated (and the join's own aligned sets substituted
// on failure) through CompatibleStreams.
func OptimizePerStream(g *plan.Graph, stats Stats, opts Options) (*PerStreamResult, error) {
	res := &PerStreamResult{
		Sets:      make(StreamSets),
		PerStream: make(map[string]*Result),
	}
	// Bucket query nodes by the single stream they read; cross-stream
	// joins are handled separately.
	buckets := make(map[string][]*plan.Node)
	var crossJoins []*plan.Node
	for _, n := range g.QueryNodes() {
		streams := nodeStreams(n)
		switch {
		case len(streams) == 1:
			buckets[streams[0]] = append(buckets[streams[0]], n)
		case n.Kind == plan.KindJoin && len(streams) == 2:
			crossJoins = append(crossJoins, n)
			res.CrossJoins = append(res.CrossJoins, n.QueryName)
		default:
			// A non-join node spanning streams (aggregation over a
			// cross-stream join): it constrains nothing directly; its
			// inputs already did.
		}
	}

	// Run the single-set analysis per stream over the sub-DAG of
	// nodes reading it. The existing Optimize works on the full graph;
	// requirements of nodes outside the bucket are universal there, so
	// restricting the candidate pool suffices: build a filtered view
	// by reusing Optimize on the whole graph but seeding only this
	// stream's nodes. Simplest correct approach: run Optimize on the
	// full graph with a stats view unchanged, then keep only elements
	// whose attributes belong to this stream.
	for _, src := range g.Sources() {
		stream := strings.ToLower(src.Stream.Name)
		nodes := buckets[stream]
		if len(nodes) == 0 && len(crossJoins) == 0 {
			continue
		}
		sub, err := optimizeBucket(g, stats, opts, nodes, crossJoins, stream)
		if err != nil {
			return nil, err
		}
		res.PerStream[stream] = sub
		if !sub.Best.IsEmpty() {
			res.Sets[stream] = sub.Best
		}
	}

	// Validate cross-stream joins; where the independent choices broke
	// the position alignment, repair by assigning both streams an
	// aligned subset of the join's key pairs — choosing, among the
	// non-empty subsets, the one keeping the most query nodes
	// compatible (ties: fewer elements, for cheaper hashing).
	for _, j := range crossJoins {
		if CompatibleStreams(res.Sets, j) {
			continue
		}
		ls := nodeStreams(j.Inputs[0])
		rs := nodeStreams(j.Inputs[1])
		if len(ls) != 1 || len(rs) != 1 {
			continue
		}
		lset, rset := joinSideSets(j)
		if lset.IsEmpty() {
			continue
		}
		k := len(lset)
		if k > 6 {
			k = 6
		}
		bestScore, bestSize := -1, 0
		var bestL, bestR Set
		for mask := 1; mask < 1<<k; mask++ {
			var cl, cr Set
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					cl = append(cl, lset[i])
					cr = append(cr, rset[i])
				}
			}
			trial := make(StreamSets, len(res.Sets))
			for s, set := range res.Sets { //qap:allow maprange -- map-to-map copy, order-insensitive
				trial[s] = set
			}
			trial[ls[0]], trial[rs[0]] = cl, cr
			if !CompatibleStreams(trial, j) {
				continue
			}
			score := 0
			for _, n := range g.QueryNodes() {
				if CompatibleStreams(trial, n) {
					score++
				}
			}
			if score > bestScore || (score == bestScore && len(cl) < bestSize) {
				bestScore, bestSize = score, len(cl)
				bestL, bestR = cl, cr
			}
		}
		if bestScore >= 0 {
			res.Sets[ls[0]], res.Sets[rs[0]] = bestL, bestR
		}
	}
	return res, nil
}

// joinSideSets extracts the position-aligned per-side requirement of a
// cross-stream join: the base expressions of each non-temporal key
// pair, in pair order.
func joinSideSets(n *plan.Node) (left, right Set) {
	for i := range n.LeftKeys {
		ll := n.SideLineage(0, n.LeftKeys[i])
		rl := n.SideLineage(1, n.RightKeys[i])
		if ll.Base == nil || rl.Base == nil || ll.Temporal || rl.Temporal {
			continue
		}
		left = append(left, Elem{Attr: ll.Base.Attr, Expr: ll.Base.Expr})
		right = append(right, Elem{Attr: rl.Base.Attr, Expr: rl.Base.Expr})
	}
	return left, right
}

// optimizeBucket runs the single-set DP restricted to one stream's
// nodes, including each cross-stream join via its side reading this
// stream.
func optimizeBucket(g *plan.Graph, stats Stats, opts Options, nodes []*plan.Node, crossJoins []*plan.Node, stream string) (*Result, error) {
	// Requirements for this bucket: the nodes' own, plus the
	// stream-side keys of cross joins touching the stream.
	extra := make(map[*plan.Node]Set)
	for _, j := range crossJoins {
		ls := nodeStreams(j.Inputs[0])
		rs := nodeStreams(j.Inputs[1])
		lset, rset := joinSideSets(j)
		if len(ls) == 1 && ls[0] == stream && !lset.IsEmpty() {
			extra[j] = lset
		}
		if len(rs) == 1 && rs[0] == stream && !rset.IsEmpty() {
			extra[j] = rset
		}
	}
	if len(nodes) == 0 && len(extra) == 0 {
		return &Result{PerNode: map[string]Requirement{}}, nil
	}
	inBucket := make(map[*plan.Node]bool, len(nodes))
	for _, b := range nodes {
		inBucket[b] = true
	}
	// The search core evaluates candidates with the global single-set
	// cost model, which undervalues candidates for *other* streams'
	// nodes; since those are marked universal here, the relative
	// ordering of this stream's candidates is preserved. Candidate
	// validity is scoped to this stream's schema.
	var streamSchema *plan.Node
	for _, src := range g.Sources() {
		if strings.ToLower(src.Stream.Name) == stream {
			streamSchema = src
			break
		}
	}
	validFor := func(s Set) bool {
		if streamSchema == nil {
			return false
		}
		for _, e := range s {
			if _, _, ok := streamSchema.Stream.Lookup(e.Attr); !ok {
				return false
			}
		}
		return true
	}
	return optimize(g, stats, opts, func(n *plan.Node) Requirement {
		if s, ok := extra[n]; ok {
			return Requirement{Set: s, CompatSet: s}
		}
		if inBucket[n] {
			return NodeRequirement(n)
		}
		// Nodes outside the bucket do not constrain this stream.
		return Requirement{Universal: true}
	}, validFor)
}
