package cluster

import (
	"testing"

	"qap/internal/core"
	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/schema"
)

// A TCP stream and a DNS-ish stream whose client column plays the role
// of TCP's source address under a different name. Both reuse the
// generator's 8-column layout (DNS maps clientIP=srcIP's column).
const crossDDL = `
TCP(time increasing, srcIP, destIP, srcPort, destPort, len, flags, seq)
DNS(time increasing, clientIP, server, qtype, rcode, size, flags, seq)`

const crossQueries = `
query talkers:
SELECT TCP.time, TCP.srcIP, DNS.server, TCP.len + DNS.size AS effort
FROM TCP JOIN DNS
WHERE TCP.time = DNS.time AND TCP.srcIP = DNS.clientIP AND TCP.seq = DNS.seq

query dns_volume:
SELECT tb, clientIP, COUNT(*) AS lookups
FROM DNS GROUP BY time/60 AS tb, clientIP`

func buildCross(t testing.TB) *plan.Graph {
	t.Helper()
	g, err := plan.Build(schema.MustParse(crossDDL), gsql.MustParseQuerySet(crossQueries))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func crossTraces(t testing.TB) map[string][]netgen.Packet {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 120, 300
	cfg.SrcHosts, cfg.DstHosts = 40, 30
	a := netgen.Generate(cfg)
	cfg.Seed = 7
	b := netgen.Generate(cfg)
	return map[string][]netgen.Packet{"TCP": a.Packets, "DNS": b.Packets}
}

func runCross(t testing.TB, g *plan.Graph, ss core.StreamSets, o optimizer.Options) *Result {
	t.Helper()
	o.StreamSets = ss
	p, err := optimizer.Build(g, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(crossTraces(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPerStreamCrossJoinEquivalence(t *testing.T) {
	g := buildCross(t)
	want := runCross(t, g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	if len(want.Outputs["talkers"]) == 0 || len(want.Outputs["dns_volume"]) == 0 {
		t.Fatalf("workload produced no rows: talkers=%d dns=%d",
			len(want.Outputs["talkers"]), len(want.Outputs["dns_volume"]))
	}
	// Per-stream sets from the analyzer: TCP on srcIP, DNS on
	// clientIP — position-aligned for the join, and satisfying the
	// DNS aggregation.
	per, err := core.OptimizePerStream(g, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if per.Sets.Get("TCP").IsEmpty() || per.Sets.Get("DNS").IsEmpty() {
		t.Fatalf("per-stream analysis produced %s", per.Sets)
	}
	got := runCross(t, g, per.Sets, optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true})
	for name, rows := range want.Outputs {
		wm, gm := rowMultiset(rows), rowMultiset(got.Outputs[name])
		if len(rows) != len(got.Outputs[name]) {
			t.Fatalf("%s: %d vs %d rows", name, len(rows), len(got.Outputs[name]))
		}
		for k, c := range wm {
			if gm[k] != c {
				t.Fatalf("%s: multiset mismatch", name)
			}
		}
	}
}

func TestPerStreamCrossJoinPushesDown(t *testing.T) {
	g := buildCross(t)
	per, err := core.OptimizePerStream(g, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Build(g, nil, optimizer.Options{
		Hosts: 2, PartitionsPerHost: 2, PartialAgg: true, StreamSets: per.Sets})
	if err != nil {
		t.Fatal(err)
	}
	// The cross-stream join runs per partition; the DNS aggregation
	// runs per partition too (clientIP is in its stream's set).
	if got := p.CountKind(optimizer.OpJoin); got != 4 {
		t.Errorf("per-partition joins = %d, want 4\n%s", got, p)
	}
	if got := p.CountKind(optimizer.OpAggregate); got != 4 {
		t.Errorf("per-partition aggregates = %d, want 4\n%s", got, p)
	}
}
