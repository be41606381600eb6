package cluster

import (
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/optimizer"
)

// TestSelectProjectThroughCluster exercises pushed-down
// selection/projection end to end: a filter feeding an aggregation,
// plus a pure projection root.
func TestSelectProjectThroughCluster(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, `
query web:
SELECT time, srcIP, destIP, len
FROM TCP WHERE destPort = 80

query web_flows:
SELECT tb, srcIP, destIP, COUNT(*) AS cnt, SUM(len) AS bytes
FROM web GROUP BY time/60 AS tb, srcIP, destIP

query subnets:
SELECT time, srcIP & 0xFFF0 AS subnet, len FROM TCP`)
	want := centralized(t, g, tr)
	if len(want.Outputs["web_flows"]) == 0 || len(want.Outputs["subnets"]) == 0 {
		t.Fatal("workload produced no rows")
	}
	got := runConfig(t, g, core.MustParseSet("srcIP, destIP"),
		optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}, tr)
	for name, rows := range want.Outputs {
		sameOutputs(t, name, rows, got.Outputs[name])
	}
	// The projection roots at full stream volume: subnets row count
	// equals the trace length.
	if len(want.Outputs["subnets"]) != len(tr.Packets) {
		t.Errorf("projection dropped rows: %d vs %d", len(want.Outputs["subnets"]), len(tr.Packets))
	}
}

func TestOverloadFactor(t *testing.T) {
	m := &Metrics{Hosts: make([]HostMetrics, 1), DurationSec: 10, Capacity: 100}
	m.Hosts[0].CPUUnits = 500 // 50% loaded
	if got := m.OverloadFactor(0); got != 0 {
		t.Errorf("under capacity should be 0, got %f", got)
	}
	m.Hosts[0].CPUUnits = 2000 // 200% demanded
	if got := m.OverloadFactor(0); got != 0.5 {
		t.Errorf("2x demand sheds half the work: got %f", got)
	}
	// Unset capacity reports 0.
	m2 := &Metrics{Hosts: make([]HostMetrics, 1), DurationSec: 10}
	if m2.OverloadFactor(0) != 0 {
		t.Error("zero capacity should report 0")
	}
}

func TestNaiveOverloadsAtScaleLikeFigure8(t *testing.T) {
	// Figure 8's overload point: with a tight capacity, the naive
	// 4-host aggregator exceeds capacity (drops tuples) while the
	// partitioned deployment stays inside it.
	tr := smallTrace(t)
	g := buildGraph(t, suspiciousQuery)
	run := func(ps core.Set) *Metrics {
		p := optimizer.MustBuild(g, ps, optimizer.Options{
			Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopePartition})
		cost := DefaultCosts()
		cost.CapacityPerSec = 700 // tight
		r, err := NewRunner(p, RunConfig{Costs: cost, Params: testParams})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run("TCP", tr.Packets)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	naive := run(nil)
	part := run(core.MustParseSet("srcIP, destIP, srcPort, destPort"))
	if naive.OverloadFactor(0) <= 0 {
		t.Errorf("naive aggregator should overload: load %.1f%%", naive.CPULoad(0))
	}
	if part.OverloadFactor(0) > 0 {
		t.Errorf("partitioned aggregator should stay within capacity: load %.1f%%", part.CPULoad(0))
	}
}

func TestPhysicalPlanDOT(t *testing.T) {
	g := buildGraph(t, complexSet)
	p := optimizer.MustBuild(g, core.MustParseSet("srcIP"),
		optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true})
	dot := p.DOT()
	for _, want := range []string{
		"digraph physical", "cluster_host0", "cluster_host1",
		"⋈ flow_pairs", "γ flows", "color=red", // cross-host edge
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("physical DOT missing %q", want)
		}
	}
	ldot := g.DOT()
	for _, want := range []string{"digraph logical", "γ flows", "⋈ flow_pairs", "TCP"} {
		if !strings.Contains(ldot, want) {
			t.Errorf("logical DOT missing %q", want)
		}
	}
}

func TestJoinResolverErrors(t *testing.T) {
	// Compile-time failures in join expressions surface as NewRunner()
	// errors with context, not panics.
	g := buildGraph(t, complexSet)
	p := optimizer.MustBuild(g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	if _, err := NewRunner(p, RunConfig{Costs: DefaultCosts()}); err != nil {
		t.Fatalf("valid plan should compile: %v", err)
	}
}

func TestEmptyAndTinyTraces(t *testing.T) {
	g := buildGraph(t, complexSet)
	p := optimizer.MustBuild(g, core.MustParseSet("srcIP"),
		optimizer.Options{Hosts: 2, PartitionsPerHost: 2})
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("TCP", nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range res.Outputs {
		if len(rows) != 0 {
			t.Errorf("%s emitted %d rows on empty trace", name, len(rows))
		}
	}
	// Single packet: flows emits one group at flush; the join finds no
	// consecutive-epoch partner.
	r2, _ := NewRunner(optimizer.MustBuild(g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1}), RunConfig{Costs: DefaultCosts(), Params: testParams})
	tr := smallTrace(t)
	res2, err := r2.Run("TCP", tr.Packets[:1])
	if err != nil {
		t.Fatal(err)
	}
	if res2.NodeRows["flows"] != 1 {
		t.Errorf("single packet should yield one flow, got %d", res2.NodeRows["flows"])
	}
	if len(res2.Outputs["flow_pairs"]) != 0 {
		t.Error("single packet cannot produce flow pairs")
	}
}

func TestIntArithmeticThroughQueries(t *testing.T) {
	// Negative intermediate values (uint subtraction underflow
	// promotes to int) flow through aggregation correctly.
	tr := smallTrace(t)
	g := buildGraph(t, `
query deltas:
SELECT tb, srcIP, MIN(len - 800) AS min_delta, MAX(len - 800) AS max_delta
FROM TCP GROUP BY time/60 AS tb, srcIP`)
	res := centralized(t, g, tr)
	rows := res.Outputs["deltas"]
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	sawNegative := false
	for _, r := range rows {
		minV, _ := r[2].AsInt()
		maxV, _ := r[3].AsInt()
		if minV > maxV {
			t.Fatalf("min %d > max %d", minV, maxV)
		}
		if minV < 0 {
			sawNegative = true
		}
	}
	if !sawNegative {
		t.Error("expected some negative deltas (len < 800 exists in the trace)")
	}
}
