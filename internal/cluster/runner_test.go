package cluster

import (
	"fmt"
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/schema"
	"qap/internal/sqlval"
)

const flowsQuery = `
query flows:
SELECT tb, srcIP, destIP, COUNT(*) as cnt
FROM TCP
GROUP BY time/60 as tb, srcIP, destIP`

const complexSet = flowsQuery + `
query heavy_flows:
SELECT tb, srcIP, max(cnt) as max_cnt
FROM flows
GROUP BY tb, srcIP

query flow_pairs:
SELECT S1.tb, S1.srcIP, S1.max_cnt, S2.max_cnt
FROM heavy_flows S1, heavy_flows S2
WHERE S1.srcIP = S2.srcIP and S1.tb = S2.tb+1`

// joinRowsSet takes the join's and the dense aggregate's row paths:
// ratio divides by a non-constant, so its projection has no column
// kernel and the word-layout join emits rows; avgs keeps a float
// column, so its join migrates to the row layout.
const joinRowsSet = `
query a:
SELECT tb, srcIP, destIP, COUNT(*) as cnt, SUM(len) as bytes, AVG(len) as al
FROM TCP
GROUP BY time/60 as tb, srcIP, destIP

query ratio:
SELECT S1.tb as t, S1.srcIP as s, S1.bytes / S2.cnt as r
FROM a S1, a S2
WHERE S1.tb = S2.tb AND S1.srcIP = S2.srcIP AND S1.destIP = S2.destIP

query avgs:
SELECT S1.tb as t, S1.srcIP as s, S1.al as al1, S2.cnt as c2
FROM a S1 LEFT OUTER JOIN a S2 ON S1.tb = S2.tb AND S1.srcIP = S2.srcIP`

const suspiciousQuery = `
query suspicious:
SELECT tb, srcIP, destIP, srcPort, destPort,
       OR_AGGR(flags) as orflag, COUNT(*) as cnt, SUM(len) as bytes
FROM TCP
GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort
HAVING OR_AGGR(flags) = #PATTERN#`

func buildGraph(t testing.TB, queries string) *plan.Graph {
	t.Helper()
	g, err := plan.Build(schema.MustParse(netgen.SchemaDDL), gsql.MustParseQuerySet(queries))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallTrace(t testing.TB) *netgen.Trace {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 180, 400
	cfg.SrcHosts, cfg.DstHosts = 100, 60
	return netgen.Generate(cfg)
}

var testParams = exec.Params{"PATTERN": sqlval.Uint(netgen.AttackPattern)}

func runConfig(t testing.TB, g *plan.Graph, ps core.Set, o optimizer.Options, tr *netgen.Trace) *Result {
	t.Helper()
	p, err := optimizer.Build(g, ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("TCP", tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func centralized(t testing.TB, g *plan.Graph, tr *netgen.Trace) *Result {
	t.Helper()
	o := optimizer.Options{Hosts: 1, PartitionsPerHost: 1, PartialAgg: false}
	return runConfig(t, g, nil, o, tr)
}

func rowMultiset(rows []exec.Tuple) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[exec.Key(r)]++
	}
	return m
}

func sameOutputs(t *testing.T, name string, a, b []exec.Tuple) {
	t.Helper()
	ma, mb := rowMultiset(a), rowMultiset(b)
	if len(a) != len(b) {
		t.Errorf("%s: row count %d vs %d", name, len(a), len(b))
		return
	}
	for k, c := range ma {
		if mb[k] != c {
			t.Errorf("%s: multiset mismatch for key %q: %d vs %d", name, k, c, mb[k])
			return
		}
	}
}

// TestDistributedEquivalence is the core correctness property of the
// whole system (the paper's partition-compatibility definition): for
// every strategy — naive round robin with per-partition partials,
// optimized per-host partials, suboptimal and optimal query-aware
// partitioning — the distributed outputs must equal the centralized
// run exactly.
func TestDistributedEquivalence(t *testing.T) {
	tr := smallTrace(t)
	querySets := []struct {
		name    string
		queries string
	}{
		{"flows", flowsQuery},
		{"complex", complexSet},
		{"suspicious", suspiciousQuery},
	}
	strategies := []struct {
		name string
		ps   string
		opts optimizer.Options
	}{
		{"naive-rr", "", optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopePartition}},
		{"optimized-rr", "", optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}},
		{"agnostic-central", "", optimizer.Options{Hosts: 3, PartitionsPerHost: 2, PartialAgg: false}},
		{"partitioned-srcip", "srcIP", optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}},
		{"partitioned-pair", "srcIP, destIP", optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}},
		{"partitioned-subnet", "srcIP & 0xFFF0", optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}},
	}
	for _, qs := range querySets {
		g := buildGraph(t, qs.queries)
		want := centralized(t, g, tr)
		for _, st := range strategies {
			t.Run(qs.name+"/"+st.name, func(t *testing.T) {
				var ps core.Set
				if st.ps != "" {
					ps = core.MustParseSet(st.ps)
				}
				got := runConfig(t, g, ps, st.opts, tr)
				for name, rows := range want.Outputs {
					sameOutputs(t, name, rows, got.Outputs[name])
				}
			})
		}
	}
}

func TestSuspiciousFlowsFiltered(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, suspiciousQuery)
	res := centralized(t, g, tr)
	rows := res.Outputs["suspicious"]
	if len(rows) == 0 {
		t.Fatal("no suspicious flows found; trace should contain ~5%")
	}
	// Every emitted flow has the attack OR pattern.
	for _, r := range rows {
		or, _ := r[5].AsUint()
		if or != netgen.AttackPattern {
			t.Fatalf("row %v passed HAVING with orflag %#x", r, or)
		}
	}
	// And suspicious flows are a small fraction of all flows.
	gAll := buildGraph(t, `
query all_flows:
SELECT tb, srcIP, destIP, srcPort, destPort, COUNT(*) as cnt
FROM TCP GROUP BY time/60 as tb, srcIP, destIP, srcPort, destPort`)
	all := centralized(t, gAll, tr)
	frac := float64(len(rows)) / float64(len(all.Outputs["all_flows"]))
	if frac < 0.01 || frac > 0.25 {
		t.Errorf("suspicious fraction %.3f out of expected band", frac)
	}
}

func TestHashSplitterCoLocatesKeys(t *testing.T) {
	// Under (srcIP) partitioning, all packets of one srcIP land in the
	// same partition: per-partition flow counts must be complete, so
	// no two output rows share a group key.
	tr := smallTrace(t)
	g := buildGraph(t, flowsQuery)
	res := runConfig(t, g, core.MustParseSet("srcIP"),
		optimizer.Options{Hosts: 4, PartitionsPerHost: 2}, tr)
	seen := make(map[string]bool)
	for _, r := range res.Outputs["flows"] {
		k := exec.Key(r[:3])
		if seen[k] {
			t.Fatalf("group %v emitted twice: partitioning split a group", r)
		}
		seen[k] = true
	}
}

func TestNetworkLoadShape(t *testing.T) {
	// The headline claim (Figures 8-9): with round robin the
	// aggregator's network load grows with cluster size; with a
	// compatible partitioning it stays bounded by the output size.
	tr := smallTrace(t)
	g := buildGraph(t, suspiciousQuery)

	load := func(ps core.Set, hosts int, scope optimizer.Scope) float64 {
		res := runConfig(t, g, ps, optimizer.Options{
			Hosts: hosts, PartitionsPerHost: 2, PartialAgg: true, PartialScope: scope}, tr)
		return res.Metrics.NetLoad(0)
	}
	naive2 := load(nil, 2, optimizer.ScopePartition)
	naive4 := load(nil, 4, optimizer.ScopePartition)
	opt4 := load(nil, 4, optimizer.ScopeHost)
	part4 := load(core.MustParseSet("srcIP, destIP, srcPort, destPort"), 4, optimizer.ScopeHost)

	if load(nil, 1, optimizer.ScopePartition) != 0 {
		t.Error("single host exchanges no network traffic")
	}
	if naive4 <= naive2 {
		t.Errorf("naive network load should grow with hosts: %f vs %f", naive2, naive4)
	}
	if opt4 >= naive4 {
		t.Errorf("per-host partials should reduce load: optimized %f vs naive %f", opt4, naive4)
	}
	if part4 >= opt4 {
		t.Errorf("compatible partitioning should beat partials: %f vs %f", part4, opt4)
	}
	// Partitioned load is bounded by the (tiny) query output, far
	// below the partial-aggregate volume.
	if part4 > naive4/10 {
		t.Errorf("partitioned load not flat: %f vs naive %f", part4, naive4)
	}
}

func TestLeafLoadDrops(t *testing.T) {
	// Section 6.1: leaf CPU load drops as hosts are added, under every
	// configuration.
	tr := smallTrace(t)
	g := buildGraph(t, suspiciousQuery)
	cost := DefaultCosts()
	cost.CapacityPerSec = 2000
	leafLoad := func(hosts int) float64 {
		p := optimizer.MustBuild(g, nil, optimizer.Options{
			Hosts: hosts, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopePartition})
		r, err := NewRunner(p, RunConfig{Costs: cost, Params: testParams})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run("TCP", tr.Packets)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.LeafCPULoad(0)
	}
	l1, l4 := leafLoad(1), leafLoad(4)
	if l4 >= l1/2 {
		t.Errorf("leaf load should drop sharply: 1 host %.1f%%, 4 hosts %.1f%%", l1, l4)
	}
}

func TestMetricsAccounting(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, flowsQuery)
	res := runConfig(t, g, nil, optimizer.Options{
		Hosts: 2, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}, tr)
	m := res.Metrics
	if m.DurationSec != 180 {
		t.Errorf("duration = %f", m.DurationSec)
	}
	// Host 1's sub-aggregate output crosses to host 0 (network);
	// host 0's own sub-aggregate reaches the central union via IPC.
	h0 := m.Hosts[0]
	if h0.NetTuplesIn <= 0 {
		t.Errorf("no network arrivals at aggregator: %+v", h0)
	}
	if h0.IPCTuplesIn <= 0 {
		t.Errorf("no IPC arrivals at aggregator: %+v", h0)
	}
	if h0.NetBytesIn <= h0.NetTuplesIn {
		t.Error("bytes should exceed tuple count")
	}
	// Leaf hosts send but receive nothing over the network.
	if m.Hosts[1].NetTuplesIn != 0 {
		t.Errorf("leaf host received network tuples: %+v", m.Hosts[1])
	}
	// Every host processed tuples.
	for h, hm := range m.Hosts {
		if hm.Tuples == 0 || hm.CPUUnits == 0 {
			t.Errorf("host %d idle: %+v", h, hm)
		}
	}
	if s := m.String(); s == "" {
		t.Error("empty metrics string")
	}
}

func TestRunUnknownStream(t *testing.T) {
	g := buildGraph(t, flowsQuery)
	p := optimizer.MustBuild(g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("UDP", nil); err == nil {
		t.Error("unknown stream should fail")
	}
}

func TestUnboundParamFailsAtCompile(t *testing.T) {
	g := buildGraph(t, suspiciousQuery)
	p := optimizer.MustBuild(g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	if _, err := NewRunner(p, RunConfig{Costs: DefaultCosts()}); err == nil {
		t.Error("missing #PATTERN# should fail at compile time")
	}
}

func TestAvgSplitEquivalence(t *testing.T) {
	// AVG decomposes into partial sums and counts; the merged result
	// must equal the centralized AVG.
	tr := smallTrace(t)
	g := buildGraph(t, `
query avg_len:
SELECT tb, srcIP, AVG(len) as alen, COUNT(*) as cnt
FROM TCP GROUP BY time/60 as tb, srcIP
HAVING AVG(len) > 500`)
	want := centralized(t, g, tr)
	got := runConfig(t, g, nil, optimizer.Options{
		Hosts: 3, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}, tr)
	// Partial sums reassociate floating-point addition, so AVG values
	// may differ in the last ulp: compare per group with tolerance.
	wr, gr := want.Outputs["avg_len"], got.Outputs["avg_len"]
	if len(wr) == 0 {
		t.Fatal("AVG test produced no rows; workload too small")
	}
	if len(wr) != len(gr) {
		t.Fatalf("row counts differ: %d vs %d", len(wr), len(gr))
	}
	type row struct {
		avg float64
		cnt uint64
	}
	index := make(map[string]row, len(wr))
	for _, r := range wr {
		a, _ := r[2].AsFloat()
		c, _ := r[3].AsUint()
		index[exec.Key(r[:2])] = row{a, c}
	}
	for _, r := range gr {
		wantRow, ok := index[exec.Key(r[:2])]
		if !ok {
			t.Fatalf("unexpected group %v", r)
		}
		a, _ := r[2].AsFloat()
		c, _ := r[3].AsUint()
		if c != wantRow.cnt {
			t.Fatalf("group %v count %d != %d", r[:2], c, wantRow.cnt)
		}
		if diff := a - wantRow.avg; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("group %v avg %g != %g", r[:2], a, wantRow.avg)
		}
	}
}

func TestJitterSelfJoinRuns(t *testing.T) {
	// The Section 6.2 jitter query: delays between packets of the same
	// flow in the same second.
	tr := smallTrace(t)
	g := buildGraph(t, `
query jitter:
SELECT S1.time, S1.srcIP, S1.destIP, S2.time - S1.time AS delay
FROM TCP S1, TCP S2
WHERE S1.time = S2.time AND S1.srcIP = S2.srcIP AND S1.destIP = S2.destIP
  AND S1.srcPort = S2.srcPort AND S1.destPort = S2.destPort`)
	want := centralized(t, g, tr)
	got := runConfig(t, g, core.MustParseSet("srcIP, destIP, srcPort, destPort"),
		optimizer.Options{Hosts: 4, PartitionsPerHost: 2}, tr)
	sameOutputs(t, "jitter", want.Outputs["jitter"], got.Outputs["jitter"])
	if len(want.Outputs["jitter"]) == 0 {
		t.Error("jitter produced no rows")
	}
}

func ExampleMetrics_CPULoad() {
	m := &Metrics{Hosts: make([]HostMetrics, 1), DurationSec: 10, Capacity: 100}
	m.Hosts[0].CPUUnits = 500
	fmt.Println(m.CPULoad(0))
	// Output: 50
}

// TestNewRunnerRefusesMisplacedOps: a plan the parallel and live
// engines cannot drive — a scan on the central island, or an edge from
// one leaf island into another — is refused by NewRunner on every
// engine, with an error naming the operator or edge.
func TestNewRunnerRefusesMisplacedOps(t *testing.T) {
	g := buildGraph(t, flowsQuery)
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 1}
	for _, c := range []struct {
		name string
		move func(p *optimizer.Plan) *optimizer.Op // misplaces an op, returning it
		want string
	}{
		{"central scan", func(p *optimizer.Plan) *optimizer.Op {
			for _, op := range p.Ops {
				if op.Kind == optimizer.OpScan {
					op.Proc = -1
					return op
				}
			}
			return nil
		}, "scan op %d runs on the central island"},
		{"leaf to leaf", func(p *optimizer.Plan) *optimizer.Op {
			for _, op := range p.Ops {
				if op.Proc != -1 && op.Kind != optimizer.OpScan && op.Host == 0 {
					op.Host = 1
					return op
				}
			}
			return nil
		}, "-> op %d crosses from island 0 to leaf island 1"},
	} {
		for _, engine := range []string{EngineSim, EngineLive} {
			p, err := optimizer.Build(g, core.MustParseSet("srcIP"), o)
			if err != nil {
				t.Fatal(err)
			}
			op := c.move(p)
			if op == nil {
				t.Fatalf("%s: the plan has no operator to misplace:\n%s", c.name, p)
			}
			_, err = NewRunner(p, RunConfig{Costs: DefaultCosts(), Engine: engine})
			if want := fmt.Sprintf(c.want, op.ID); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s engine: NewRunner returned %v, want an error containing %q", c.name, engine, err, want)
			}
		}
	}
}
