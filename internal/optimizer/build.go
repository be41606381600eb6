package optimizer

import (
	"fmt"

	"qap/internal/core"
	"qap/internal/plan"
)

// Build constructs the distributed physical plan for a query graph
// under a given stream partitioning. An empty set means the splitter
// partitions query-agnostically (round robin), so over two or more
// partitions no node is partition-compatible and every stateful
// operator either centralizes or, when enabled, splits into partial
// aggregates.
func Build(g *plan.Graph, ps core.Set, opts Options) (*Plan, error) {
	if opts.Hosts <= 0 {
		return nil, fmt.Errorf("optimizer: Hosts must be positive, got %d", opts.Hosts)
	}
	if opts.PartitionsPerHost <= 0 {
		return nil, fmt.Errorf("optimizer: PartitionsPerHost must be positive, got %d", opts.PartitionsPerHost)
	}
	if opts.AggregatorHost < 0 || opts.AggregatorHost >= opts.Hosts {
		return nil, fmt.Errorf("optimizer: AggregatorHost %d out of range [0,%d)", opts.AggregatorHost, opts.Hosts)
	}
	b := &builder{
		plan: &Plan{
			Outputs:           make(map[string]*Op),
			Hosts:             opts.Hosts,
			Partitions:        opts.Hosts * opts.PartitionsPerHost,
			PartitionsPerHost: opts.PartitionsPerHost,
			AggregatorHost:    opts.AggregatorHost,
			Set:               ps,
			StreamSets:        opts.StreamSets,
			Graph:             g,
		},
		opts: opts,
		impl: make(map[*plan.Node]*implInfo),
	}
	for _, src := range g.Sources() {
		b.buildScans(src)
	}
	for _, n := range g.QueryNodes() {
		if err := b.buildNode(n); err != nil {
			return nil, err
		}
	}
	for _, root := range g.Roots() {
		in := b.centralize(b.impl[root])
		out := b.newOp(OpOutput, b.plan.AggregatorHost, -1, root)
		out.Inputs = []*Op{in}
		b.plan.Outputs[root.QueryName] = out
	}
	return b.plan, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func MustBuild(g *plan.Graph, ps core.Set, opts Options) *Plan {
	p, err := Build(g, ps, opts)
	if err != nil {
		panic(err)
	}
	return p
}

type implInfo struct {
	// parts holds per-partition producers when the node runs
	// partitioned; nil when it runs centrally.
	parts []*Op
	// central is the central producer: the node's own operator when
	// centralized, or the memoized union over parts.
	central *Op
}

type builder struct {
	plan   *Plan
	opts   Options
	nextID int
	impl   map[*plan.Node]*implInfo
}

// compatible applies the shared-set or per-stream compatibility test,
// whichever the plan was configured with. One partition is compatible
// with every node (§3): running a node once per partition and unioning
// the outputs is then the centralized run itself.
func (b *builder) compatible(n *plan.Node) bool {
	if b.plan.Partitions == 1 {
		return true
	}
	if b.plan.StreamSets != nil {
		return core.CompatibleStreams(b.plan.StreamSets, n)
	}
	return core.Compatible(b.plan.Set, n)
}

func (b *builder) newOp(kind OpKind, host, partition int, logical *plan.Node) *Op {
	op := &Op{ID: b.nextID, Kind: kind, Host: host, Partition: partition, Proc: partition, Logical: logical}
	b.nextID++
	b.plan.Ops = append(b.plan.Ops, op)
	return op
}

// centralize returns the operator producing the node's complete
// stream on the aggregator host, inserting (and memoizing) a union
// over per-partition producers when needed.
func (b *builder) centralize(info *implInfo) *Op {
	if info.central != nil {
		return info.central
	}
	union := b.newOp(OpUnion, b.plan.AggregatorHost, -1, nil)
	union.Inputs = append(union.Inputs, info.parts...)
	info.central = union
	return union
}

func (b *builder) buildScans(src *plan.Node) {
	info := &implInfo{}
	for p := 0; p < b.plan.Partitions; p++ {
		scan := b.newOp(OpScan, b.plan.HostOfPartition(p), p, src)
		scan.Stream = src.Stream.Name
		info.parts = append(info.parts, scan)
	}
	b.impl[src] = info
}

func (b *builder) buildNode(n *plan.Node) error {
	switch n.Kind {
	case plan.KindSelectProject:
		b.buildSelProj(n)
	case plan.KindAggregate:
		b.buildAggregate(n)
	case plan.KindJoin:
		b.buildJoin(n)
	default:
		return fmt.Errorf("optimizer: unexpected node kind %v for %s", n.Kind, n.QueryName)
	}
	return nil
}

// buildSelProj pushes selection/projection below the merge
// unconditionally (Section 5.4): it is compatible with any
// partitioning, and pushing it keeps the partitioned property alive
// for operators above it.
func (b *builder) buildSelProj(n *plan.Node) {
	child := b.impl[n.Inputs[0]]
	info := &implInfo{}
	if child.parts != nil {
		for p, in := range child.parts {
			op := b.newOp(OpSelProj, in.Host, p, n)
			op.Inputs = []*Op{in}
			info.parts = append(info.parts, op)
		}
	} else {
		op := b.newOp(OpSelProj, b.plan.AggregatorHost, -1, n)
		op.Inputs = []*Op{child.central}
		info.central = op
	}
	b.impl[n] = info
}

func (b *builder) buildAggregate(n *plan.Node) {
	child := b.impl[n.Inputs[0]]
	if n.WindowPanes > 1 {
		b.buildWindowedAggregate(n, child)
		return
	}
	info := &implInfo{}
	switch {
	case child.parts != nil && b.compatible(n):
		// Section 5.2.1: one full aggregation per partition; results
		// need no further processing centrally.
		for p, in := range child.parts {
			op := b.newOp(OpAggregate, in.Host, p, n)
			op.Inputs = []*Op{in}
			info.parts = append(info.parts, op)
		}
	case child.parts != nil && b.opts.PartialAgg && splittable(n):
		// Section 5.2.2: sub-aggregates close to the data, one
		// super-aggregate centrally.
		subs := b.buildSubAggs(n, child.parts)
		union := b.newOp(OpUnion, b.plan.AggregatorHost, -1, nil)
		union.Inputs = subs
		super := b.newOp(OpAggSuper, b.plan.AggregatorHost, -1, n)
		super.Inputs = []*Op{union}
		info.central = super
	default:
		in := b.centralize(child)
		op := b.newOp(OpAggregate, b.plan.AggregatorHost, -1, n)
		op.Inputs = []*Op{in}
		info.central = op
	}
	b.impl[n] = info
}

// buildWindowedAggregate lowers a pane-based sliding-window
// aggregation: per-pane sub-aggregates produce partials, a window
// operator merges the trailing panes. Under a compatible partitioning
// the whole chain runs per partition; otherwise the sub-aggregates
// stay close to the data and one central window merges across hosts
// and panes at once.
func (b *builder) buildWindowedAggregate(n *plan.Node, child *implInfo) {
	info := &implInfo{}
	switch {
	case child.parts != nil && b.compatible(n):
		for p, in := range child.parts {
			sub := b.newOp(OpAggSub, in.Host, p, n)
			sub.Inputs = []*Op{in}
			win := b.newOp(OpWindow, in.Host, p, n)
			win.Inputs = []*Op{sub}
			info.parts = append(info.parts, win)
		}
	case child.parts != nil && b.opts.PartialAgg:
		subs := b.buildSubAggs(n, child.parts)
		union := b.newOp(OpUnion, b.plan.AggregatorHost, -1, nil)
		union.Inputs = subs
		win := b.newOp(OpWindow, b.plan.AggregatorHost, -1, n)
		win.Inputs = []*Op{union}
		info.central = win
	default:
		in := b.centralize(child)
		sub := b.newOp(OpAggSub, b.plan.AggregatorHost, -1, n)
		sub.Inputs = []*Op{in}
		win := b.newOp(OpWindow, b.plan.AggregatorHost, -1, n)
		win.Inputs = []*Op{sub}
		info.central = win
	}
	b.impl[n] = info
}

// buildSubAggs creates the pre-aggregation layer: per partition, or
// per host with a local union in front.
func (b *builder) buildSubAggs(n *plan.Node, parts []*Op) []*Op {
	if b.opts.PartialScope == ScopePartition {
		subs := make([]*Op, len(parts))
		for p, in := range parts {
			sub := b.newOp(OpAggSub, in.Host, p, n)
			sub.Inputs = []*Op{in}
			subs[p] = sub
		}
		return subs
	}
	// ScopeHost: group the partitions living on each host.
	byHost := make(map[int][]*Op)
	order := make([]int, 0, b.plan.Hosts)
	for _, in := range parts {
		if _, seen := byHost[in.Host]; !seen {
			order = append(order, in.Host)
		}
		byHost[in.Host] = append(byHost[in.Host], in)
	}
	var subs []*Op
	for _, host := range order {
		ins := byHost[host]
		var feed *Op
		proc := ins[0].Proc // co-locate with the host's first partition
		if len(ins) == 1 {
			feed = ins[0]
		} else {
			local := b.newOp(OpUnion, host, -1, nil)
			local.Proc = proc
			local.Inputs = ins
			feed = local
		}
		sub := b.newOp(OpAggSub, host, -1, n)
		sub.Proc = proc
		sub.Inputs = []*Op{feed}
		subs = append(subs, sub)
	}
	return subs
}

func splittable(n *plan.Node) bool {
	for _, a := range n.Aggs {
		if !a.Spec.Splittable {
			return false
		}
	}
	return true
}

func (b *builder) buildJoin(n *plan.Node) {
	left := b.impl[n.Inputs[0]]
	right := b.impl[n.Inputs[1]]
	info := &implInfo{}
	if left.parts != nil && right.parts != nil && b.compatible(n) {
		// Section 5.3: pair-wise joins, one per partition. Matching
		// tuples are co-located by the compatible partitioning, so
		// outer-join padding is also correct per partition.
		for p := range left.parts {
			op := b.newOp(OpJoin, left.parts[p].Host, p, n)
			op.Inputs = []*Op{left.parts[p], right.parts[p]}
			info.parts = append(info.parts, op)
		}
	} else {
		l, rr := b.centralize(left), b.centralize(right)
		op := b.newOp(OpJoin, b.plan.AggregatorHost, -1, n)
		op.Inputs = []*Op{l, rr}
		info.central = op
	}
	b.impl[n] = info
}
