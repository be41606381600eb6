package qap

import (
	"strings"
	"testing"

	"qap/internal/netgen"
)

func TestLoadAndAnalyzeComplexSet(t *testing.T) {
	sys, err := Load(netgen.SchemaDDL, ComplexQuerySet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Analyze(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Section 3.2: (srcIP) satisfies all three queries.
	if !res.Best.Equal(MustParseSet("srcIP")) {
		t.Fatalf("recommended = %s, want (srcIP)\n%s", res.Best, res.Summary())
	}
	reqs := sys.Requirements()
	if len(reqs) != 3 {
		t.Fatalf("requirements for %d queries, want 3", len(reqs))
	}
	if !reqs["flows"].Set.Equal(MustParseSet("srcIP, destIP")) {
		t.Errorf("flows requirement = %s", reqs["flows"].Set)
	}
	ok, err := sys.Compatible(res.Best, "heavy_flows")
	if err != nil || !ok {
		t.Errorf("heavy_flows should be compatible with %s (err %v)", res.Best, err)
	}
	if _, err := sys.Compatible(res.Best, "nope"); err == nil {
		t.Error("unknown query should error")
	}
	// The cost model prefers the recommended set over centralized.
	if sys.PlanCost(res.Best, nil) >= sys.PlanCost(nil, nil) {
		t.Error("recommended set should cost less than centralized")
	}
}

func TestAnalyzeSection62PicksSubnetSet(t *testing.T) {
	sys := MustLoad(netgen.SchemaDDL, QuerySetSection62)
	stats := NewStats()
	// The subnet aggregation dominates the network volume.
	stats.SetSelectivity("subnet_agg", 0.4)
	stats.SetSelectivity("jitter_pairs", 0.5)
	stats.SetSelectivity("jitter", 0.2)
	res, err := sys.Analyze(stats)
	if err != nil {
		t.Fatal(err)
	}
	// The analyzer's set must satisfy every query in the set — the
	// Section 6.2 "optimal" (srcIP & 0xFFF0, destIP) does.
	for _, q := range []string{"subnet_agg", "jitter_pairs", "jitter"} {
		if ok, _ := sys.Compatible(res.Best, q); !ok {
			t.Errorf("recommended %s incompatible with %s\n%s", res.Best, q, res.Summary())
		}
	}
	if !res.Best.Equal(MustParseSet("srcIP & 0xFFF0, destIP")) {
		t.Errorf("recommended = %s, want (srcIP & 0xFFF0, destIP)", res.Best)
	}
}

func TestDeployAndRunQuickstart(t *testing.T) {
	sys := MustLoad(netgen.SchemaDDL, ComplexQuerySet)
	dep, err := sys.Deploy(DeployConfig{
		Hosts:        4,
		Partitioning: MustParseSet("srcIP"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := dep.PlanString(); !strings.Contains(s, "join flow_pairs") {
		t.Errorf("plan missing pushed-down join:\n%s", s)
	}
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 120, 300
	tr := netgen.Generate(cfg)
	res, err := dep.Run("TCP", tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["flow_pairs"]) == 0 {
		t.Error("flow_pairs produced no rows")
	}
	if res.Metrics.Hosts[0].Tuples == 0 {
		t.Error("no accounting recorded")
	}
	// Re-running the same deployment starts from clean state.
	res2, err := dep.Run("TCP", tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Outputs["flow_pairs"]) != len(res.Outputs["flow_pairs"]) {
		t.Error("deployment reuse is not stateless")
	}
}

func TestDeployDefaultsAndParams(t *testing.T) {
	sys := MustLoad(netgen.SchemaDDL, SuspiciousFlowsQuery)
	// Missing params must fail deployment-compile at Run.
	dep, err := sys.Deploy(DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run("TCP", nil); err == nil {
		t.Error("unbound #PATTERN# should fail")
	}
	dep, err = sys.Deploy(DeployConfig{
		Params: map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 120, 300
	res, err := dep.Run("TCP", netgen.Generate(cfg).Packets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["suspicious"]) == 0 {
		t.Error("no suspicious flows found")
	}
}

// TestDeployDefaultPartialScope pins DeployConfig.PartialScope's zero
// value: a deployment that leaves it unset pre-aggregates per
// partition (ScopePartition, the naive scope), not per host.
func TestDeployDefaultPartialScope(t *testing.T) {
	sys := MustLoad(netgen.SchemaDDL, ComplexQuerySet)
	plan := func(cfg DeployConfig) string {
		dep, err := sys.Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dep.PlanString()
	}
	def := plan(DeployConfig{})
	if want := plan(DeployConfig{PartialScope: ScopePartition}); def != want {
		t.Errorf("default plan differs from ScopePartition:\n--- default ---\n%s--- ScopePartition ---\n%s", def, want)
	}
	if def == plan(DeployConfig{PartialScope: ScopeHost}) {
		t.Error("ScopeHost renders the same plan as the default; the check above proves nothing")
	}
}

// figureConfig returns a fast trace for shape tests.
func figureConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.Trace.DurationSec = 150
	cfg.Trace.PacketsPerSec = 600
	return cfg
}

func series(f *Figure, name string) []float64 {
	for _, s := range f.Series {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

func TestFigures8and9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	cpu, net, err := Figures8and9(figureConfig())
	if err != nil {
		t.Fatal(err)
	}
	naive, part := series(cpu, "Naive"), series(cpu, "Partitioned")
	// Naive aggregator CPU grows with cluster size; Partitioned
	// declines and ends far below Naive.
	if naive[3] <= naive[1] {
		t.Errorf("naive CPU should grow: %v", naive)
	}
	if part[3] >= part[0] || part[3] >= naive[3]/2 {
		t.Errorf("partitioned CPU should fall well below naive: %v vs %v", part, naive)
	}
	nNaive, nOpt, nPart := series(net, "Naive"), series(net, "Optimized"), series(net, "Partitioned")
	if nNaive[3] <= nNaive[1] {
		t.Errorf("naive net should grow: %v", nNaive)
	}
	if nOpt[3] >= nNaive[3] {
		t.Errorf("optimized net should undercut naive: %v vs %v", nOpt, nNaive)
	}
	if nPart[3] >= nNaive[3]/10 {
		t.Errorf("partitioned net should be bounded by output size: %v vs %v", nPart, nNaive)
	}
}

// TestFigures10and11Shape holds Section 6.2's claims that hold here:
// Naive grows on both metrics, both partitioned curves end far below
// it, and the cost model's optimum (srcIP & 0xFFF0, destIP) costs the
// aggregator less CPU than the join-only set at every size of two nodes
// or more. One accepted deviation is pinned rather than skipped: at two
// nodes the optimum ships more tuples to the aggregator than the
// suboptimal set, since the model minimises the most loaded node's
// load, not aggregator traffic. A change that flips it updates this
// test and EXPERIMENTS.md together.
func TestFigures10and11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	cpu, net, err := Figures10and11(figureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{cpu, net} {
		naive := series(f, "Naive")
		sub, opt := series(f, "Partitioned (suboptimal)"), series(f, "Partitioned (optimal)")
		if naive[3] <= naive[1] {
			t.Errorf("figure %s: naive should grow: %v", f.ID, naive)
		}
		if sub[3] >= naive[3]/2 || opt[3] >= naive[3]/2 {
			t.Errorf("figure %s: both partitioned curves should end far below naive: suboptimal %v, optimal %v, naive %v", f.ID, sub, opt, naive)
		}
	}
	sub, opt := series(cpu, "Partitioned (suboptimal)"), series(cpu, "Partitioned (optimal)")
	for i := 1; i < len(opt); i++ {
		if opt[i] >= sub[i] {
			t.Errorf("optimal CPU should stay below suboptimal at %d nodes: %v vs %v", i+1, opt, sub)
		}
	}
	if nSub, nOpt := series(net, "Partitioned (suboptimal)"), series(net, "Partitioned (optimal)"); nOpt[1] <= nSub[1] {
		t.Errorf("the 2-node network inversion is gone (optimal %.1f, suboptimal %.1f tuples/s): update this test and EXPERIMENTS.md", nOpt[1], nSub[1])
	}
}

func TestFigures13and14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	cpu, net, err := Figures13and14(figureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering at 4 nodes: Naive > Optimized >
	// Partitioned(partial) > Partitioned(full), on both metrics.
	for _, f := range []*Figure{cpu, net} {
		naive := series(f, "Naive")[3]
		opt := series(f, "Optimized")[3]
		part := series(f, "Partitioned (partial)")[3]
		full := series(f, "Partitioned (full)")[3]
		if !(naive > opt && opt > part && part > full) {
			t.Errorf("figure %s ordering violated: naive=%.1f opt=%.1f partial=%.1f full=%.1f",
				f.ID, naive, opt, part, full)
		}
	}
	if s := cpu.Table(); !strings.Contains(s, "Figure 13") || !strings.Contains(s, "# nodes") {
		t.Errorf("table rendering broken:\n%s", s)
	}
}

func TestLeafLoadsDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	loads, err := LeafLoads(figureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Section 6.1: leaf load drops steeply from 1 to 4 hosts.
	if len(loads) != 4 || loads[3] >= loads[0]/2 {
		t.Errorf("leaf loads should drop sharply: %v", loads)
	}
}

func TestPerStreamPublicAPI(t *testing.T) {
	sys := MustLoad(`
TCP(time increasing, srcIP, destIP, srcPort, destPort, len, flags, seq)
DNS(time increasing, clientIP, server, clientPort, qtype, size, flags, qseq)`, `
query tcp_flows:
SELECT tb, srcIP, destIP, COUNT(*) FROM TCP GROUP BY time/60 AS tb, srcIP, destIP

query dns_volume:
SELECT tb, clientIP, COUNT(*) FROM DNS GROUP BY time/60 AS tb, clientIP`)

	// The shared-set analysis fails (no attribute exists in both
	// stream schemas), the per-stream analysis succeeds.
	shared, err := sys.Analyze(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Best.IsEmpty() {
		t.Errorf("shared-set best = %s, want empty", shared.Best)
	}
	per, err := sys.AnalyzePerStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if per.Sets.Get("TCP").IsEmpty() || per.Sets.Get("DNS").IsEmpty() {
		t.Fatalf("per-stream sets = %s", per.Sets)
	}
	dep, err := sys.Deploy(DeployConfig{Hosts: 2, PerStream: per.Sets})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTraceConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 120, 200
	a := GenerateTrace(cfg)
	cfg.Seed = 3
	b := GenerateTrace(cfg)
	res, err := dep.RunStreams(map[string][]netgen.Packet{"TCP": a.Packets, "DNS": b.Packets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["tcp_flows"]) == 0 || len(res.Outputs["dns_volume"]) == 0 {
		t.Error("per-stream deployment produced no rows")
	}
}

func TestParseSetErrors(t *testing.T) {
	if _, err := ParseSet("srcIP + destIP"); err == nil {
		t.Error("multi-attribute element should fail")
	}
	s, err := ParseSet("")
	if err != nil || !s.IsEmpty() {
		t.Errorf("empty set parse: %v %v", s, err)
	}
}
