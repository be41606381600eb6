package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/plan"
	"qap/internal/schema"
)

const tcpDDL = `TCP(time increasing, srcIP, destIP, srcPort, destPort, len, flags)`

const flowsOnly = `
query flows:
SELECT tb, srcIP, destIP, COUNT(*) as cnt
FROM TCP
GROUP BY time/60 as tb, srcIP, destIP`

const complexSet = flowsOnly + `
query heavy_flows:
SELECT tb, srcIP, max(cnt) as max_cnt
FROM flows
GROUP BY tb, srcIP

query flow_pairs:
SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt
FROM heavy_flows S1, heavy_flows S2
WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1`

func buildGraph(t *testing.T, queries string) *plan.Graph {
	t.Helper()
	g, err := plan.Build(schema.MustParse(tcpDDL), gsql.MustParseQuerySet(queries))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func opts(hosts int) Options {
	return Options{Hosts: hosts, PartitionsPerHost: 2, PartialAgg: true, PartialScope: ScopeHost}
}

func TestFigure3PartitionAgnosticPlan(t *testing.T) {
	// Figure 3: 6 partitions over 3 hosts, one central merge feeding a
	// central aggregation. Reproduced with partial aggregation off and
	// no partitioning set.
	g := buildGraph(t, flowsOnly)
	o := opts(3)
	o.PartialAgg = false
	p := MustBuild(g, nil, o)
	if p.Partitions != 6 {
		t.Fatalf("partitions = %d", p.Partitions)
	}
	if got := p.CountKind(OpScan); got != 6 {
		t.Errorf("scans = %d, want 6", got)
	}
	if got := p.CountKind(OpUnion); got != 1 {
		t.Errorf("unions = %d, want 1", got)
	}
	if got := p.CountKind(OpAggregate); got != 1 {
		t.Errorf("aggregates = %d, want 1 central", got)
	}
	for _, op := range p.Ops {
		if op.Kind == OpAggregate && op.Host != p.AggregatorHost {
			t.Error("central aggregate must sit on the aggregator host")
		}
	}
	// Partitions are spread over hosts in blocks of 2.
	if p.HostOfPartition(0) != 0 || p.HostOfPartition(1) != 0 || p.HostOfPartition(5) != 2 {
		t.Error("partition placement wrong")
	}
}

func TestFigure4AggregationPushdown(t *testing.T) {
	// Compatible partitioning: one aggregate per partition, merged by
	// a plain union; no central aggregation at all.
	g := buildGraph(t, flowsOnly)
	p := MustBuild(g, core.MustParseSet("srcIP, destIP"), opts(3))
	if got := p.CountKind(OpAggregate); got != 6 {
		t.Errorf("per-partition aggregates = %d, want 6", got)
	}
	if got := p.CountKind(OpAggSuper) + p.CountKind(OpAggSub); got != 0 {
		t.Errorf("no partial aggregation expected, found %d", got)
	}
	// Each per-partition aggregate sits on its partition's host.
	for _, op := range p.Ops {
		if op.Kind == OpAggregate {
			if op.Partition < 0 || op.Host != p.HostOfPartition(op.Partition) {
				t.Errorf("aggregate %s misplaced", op.Label())
			}
		}
	}
}

func TestFigure5PartialAggregation(t *testing.T) {
	// Incompatible (round-robin) partitioning with host-scope partial
	// aggregation: per-host local union + sub-aggregate, one central
	// super-aggregate (Figure 5's plan).
	g := buildGraph(t, flowsOnly)
	p := MustBuild(g, nil, opts(3))
	if got := p.CountKind(OpAggSub); got != 3 {
		t.Errorf("sub-aggregates = %d, want 3 (one per host)", got)
	}
	if got := p.CountKind(OpAggSuper); got != 1 {
		t.Errorf("super-aggregates = %d, want 1", got)
	}
	// Local unions (per host) + central union above subs.
	if got := p.CountKind(OpUnion); got != 4 {
		t.Errorf("unions = %d, want 3 local + 1 central", got)
	}
	// Naive variant: sub-aggregate per partition, no local unions.
	o := opts(3)
	o.PartialScope = ScopePartition
	p2 := MustBuild(g, nil, o)
	if got := p2.CountKind(OpAggSub); got != 6 {
		t.Errorf("naive sub-aggregates = %d, want 6", got)
	}
	if got := p2.CountKind(OpUnion); got != 1 {
		t.Errorf("naive unions = %d, want 1 central", got)
	}
}

func TestFigure7JoinPushdown(t *testing.T) {
	// A compatible self-join runs pair-wise per partition.
	g := buildGraph(t, complexSet)
	p := MustBuild(g, core.MustParseSet("srcIP"), opts(3))
	if got := p.CountKind(OpJoin); got != 6 {
		t.Errorf("joins = %d, want 6 pair-wise", got)
	}
	for _, op := range p.Ops {
		if op.Kind == OpJoin {
			if len(op.Inputs) != 2 || op.Inputs[0] != op.Inputs[1] {
				t.Error("self-join partitions must read the same producer twice")
			}
			if op.Inputs[0].Partition != op.Partition {
				t.Error("pair-wise join must align partitions")
			}
		}
	}
	// Fully compatible chain: no central aggregation work at all; the
	// only central ops are the final union/outputs.
	if p.CountKind(OpAggSuper) != 0 {
		t.Error("no super-aggregate expected under (srcIP)")
	}
}

func TestFigure12PartiallyCompatiblePlan(t *testing.T) {
	// Under (srcIP, destIP), flows pushes down per partition but
	// heavy_flows and flow_pairs centralize (Figure 12 shows flows and
	// the filter below the merge, gamma2 and the join above).
	g := buildGraph(t, complexSet)
	p := MustBuild(g, core.MustParseSet("srcIP, destIP"), opts(4))
	flowsOps, hfCentral, joinCentral := 0, 0, 0
	for _, op := range p.Ops {
		if op.Logical == nil {
			continue
		}
		switch op.Logical.QueryName {
		case "flows":
			if op.Kind == OpAggregate && op.Partition >= 0 {
				flowsOps++
			}
		case "heavy_flows":
			if op.Partition == -1 && (op.Kind == OpAggregate || op.Kind == OpAggSuper) {
				hfCentral++
			}
		case "flow_pairs":
			if op.Kind == OpJoin && op.Partition == -1 {
				joinCentral++
			}
		}
	}
	if flowsOps != 8 {
		t.Errorf("flows per-partition aggregates = %d, want 8", flowsOps)
	}
	if hfCentral == 0 {
		t.Error("heavy_flows must centralize under (srcIP, destIP)")
	}
	if joinCentral != 1 {
		t.Errorf("flow_pairs central joins = %d, want 1", joinCentral)
	}
}

func TestSelectProjectAlwaysPushesDown(t *testing.T) {
	g := buildGraph(t, `SELECT time, srcIP FROM TCP WHERE destPort = 80`)
	p := MustBuild(g, nil, opts(2)) // even with round robin
	if got := p.CountKind(OpSelProj); got != 4 {
		t.Errorf("per-partition sel/proj = %d, want 4", got)
	}
}

func TestHolisticAggregateCannotSplit(t *testing.T) {
	g := buildGraph(t, `SELECT tb, COUNT_DISTINCT(srcIP) FROM TCP GROUP BY time/60 AS tb`)
	p := MustBuild(g, nil, opts(2))
	if p.CountKind(OpAggSub) != 0 || p.CountKind(OpAggSuper) != 0 {
		t.Error("holistic aggregate must not split")
	}
	if p.CountKind(OpAggregate) != 1 {
		t.Error("holistic aggregate should centralize")
	}
}

func TestSharedSourcePushdownForMultipleQueries(t *testing.T) {
	// Two independent aggregations over TCP, partitioned compatibly
	// with only one of them: the compatible one pushes down, the other
	// takes the partial-aggregation path. The shared scans feed both.
	g := buildGraph(t, `
query by_src: SELECT tb, srcIP, COUNT(*) FROM TCP GROUP BY time/60 AS tb, srcIP
query by_dst: SELECT tb, destIP, COUNT(*) FROM TCP GROUP BY time/60 AS tb, destIP`)
	p := MustBuild(g, core.MustParseSet("srcIP"), opts(2))
	if got := p.CountKind(OpScan); got != 4 {
		t.Errorf("scans = %d, want 4 shared", got)
	}
	if got := p.CountKind(OpAggregate); got != 4 {
		t.Errorf("by_src per-partition aggregates = %d, want 4", got)
	}
	if got := p.CountKind(OpAggSuper); got != 1 {
		t.Errorf("by_dst super-aggregates = %d, want 1", got)
	}
	if len(p.Outputs) != 2 {
		t.Errorf("outputs = %d", len(p.Outputs))
	}
}

func TestBuildValidation(t *testing.T) {
	g := buildGraph(t, flowsOnly)
	if _, err := Build(g, nil, Options{Hosts: 0, PartitionsPerHost: 2}); err == nil {
		t.Error("zero hosts should fail")
	}
	if _, err := Build(g, nil, Options{Hosts: 2, PartitionsPerHost: 0}); err == nil {
		t.Error("zero partitions should fail")
	}
	if _, err := Build(g, nil, Options{Hosts: 2, PartitionsPerHost: 1, AggregatorHost: 5}); err == nil {
		t.Error("out-of-range aggregator should fail")
	}
}

func TestPlanStringAndTopoOrder(t *testing.T) {
	g := buildGraph(t, complexSet)
	p := MustBuild(g, core.MustParseSet("srcIP"), opts(2))
	s := p.String()
	for _, want := range []string{"scan TCP[p0]", "join flow_pairs", "output"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan print missing %q:\n%s", want, s)
		}
	}
	pos := make(map[*Op]int)
	for i, op := range p.Ops {
		pos[op] = i
	}
	for _, op := range p.Ops {
		for _, in := range op.Inputs {
			if pos[in] >= pos[op] {
				t.Fatalf("op %s appears before its input %s", op.Label(), in.Label())
			}
		}
	}
}

// shape prints a plan one operator a line, as its label and its inputs'
// labels, in topological order.
func shape(p *Plan) string {
	var b strings.Builder
	for _, op := range p.Ops {
		ins := make([]string, len(op.Inputs))
		for i, in := range op.Inputs {
			ins[i] = in.Label()
		}
		fmt.Fprintf(&b, "%s <- [%s]\n", op.Label(), strings.Join(ins, ", "))
	}
	return b.String()
}

// TestOnePartitionIsCompatibleWithEveryQuery: over a single partition
// every node is compatible (§3: running it once per partition and
// unioning the outputs is the centralized run), so round robin at one
// host and one partition places the Figure 8 aggregate, HAVING and all,
// once on p0 with no sub- or super-aggregate, and the §6.2 join on p0.
// Two partitions, on one host or two, keep the partial-aggregation and
// central-join plans.
func TestOnePartitionIsCompatibleWithEveryQuery(t *testing.T) {
	const fig8 = `
query suspicious:
SELECT tb, srcIP, destIP, srcPort, destPort,
       OR_AGGR(flags) as orflag, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP
GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort
HAVING OR_AGGR(flags) = 41`
	const sec62 = `
query subnet_agg:
SELECT tb, subnet, destIP, COUNT(*) as cnt
FROM TCP
GROUP BY time/60 AS tb, srcIP & 0xFFF0 AS subnet, destIP

query jitter_pairs:
SELECT S1.time AS t1, S1.srcIP AS srcIP, S2.time - S1.time AS delay
FROM TCP S1, TCP S2
WHERE S1.time/60 = S2.time/60 AND S1.srcIP = S2.srcIP AND S1.seq + 1 = S2.seq`
	build := func(queries string, hosts, pph int) *Plan {
		g, err := plan.Build(schema.MustParse(netgen.SchemaDDL), gsql.MustParseQuerySet(queries))
		if err != nil {
			t.Fatal(err)
		}
		return MustBuild(g, nil, Options{Hosts: hosts, PartitionsPerHost: pph, PartialAgg: true, PartialScope: ScopeHost})
	}
	for _, c := range []struct {
		hosts, pph int
		want       string
	}{
		{1, 1, `scan TCP[p0] @host0 <- []
aggregate suspicious[p0] @host0 <- [scan TCP[p0] @host0]
union @host0 <- [aggregate suspicious[p0] @host0]
output suspicious @host0 <- [union @host0]
`},
		{1, 2, `scan TCP[p0] @host0 <- []
scan TCP[p1] @host0 <- []
union @host0 <- [scan TCP[p0] @host0, scan TCP[p1] @host0]
sub-aggregate suspicious @host0 <- [union @host0]
union @host0 <- [sub-aggregate suspicious @host0]
super-aggregate suspicious @host0 <- [union @host0]
output suspicious @host0 <- [super-aggregate suspicious @host0]
`},
		{2, 1, `scan TCP[p0] @host0 <- []
scan TCP[p1] @host1 <- []
sub-aggregate suspicious @host0 <- [scan TCP[p0] @host0]
sub-aggregate suspicious @host1 <- [scan TCP[p1] @host1]
union @host0 <- [sub-aggregate suspicious @host0, sub-aggregate suspicious @host1]
super-aggregate suspicious @host0 <- [union @host0]
output suspicious @host0 <- [super-aggregate suspicious @host0]
`},
	} {
		if got := shape(build(fig8, c.hosts, c.pph)); got != c.want {
			t.Errorf("Figure 8 at %d×%d:\n%swant\n%s", c.hosts, c.pph, got, c.want)
		}
		// One partition: the join and the aggregate on p0. More: the
		// join central, the aggregate split.
		one, joinPart := c.hosts*c.pph == 1, -1
		if one {
			joinPart = 0
		}
		p := build(sec62, c.hosts, c.pph)
		for _, op := range p.Ops {
			if op.Kind == OpJoin && op.Partition != joinPart {
				t.Errorf("§6.2 at %d×%d: %s, want partition %d", c.hosts, c.pph, op.Label(), joinPart)
			}
		}
		if got := p.CountKind(OpJoin); got != 1 {
			t.Errorf("§6.2 at %d×%d: %d joins, want 1", c.hosts, c.pph, got)
		}
		if sub, super := p.CountKind(OpAggSub), p.CountKind(OpAggSuper); one != (sub+super == 0) {
			t.Errorf("§6.2 at %d×%d: %d sub- and %d super-aggregates", c.hosts, c.pph, sub, super)
		}
	}
}
