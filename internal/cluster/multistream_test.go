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

// twoStreamDDL declares the paper's Section 3.1 PKT1/PKT2 pair with
// the generator's column layout.
const twoStreamDDL = `
PKT1(time increasing, srcIP, destIP, srcPort, destPort, len, flags, seq)
PKT2(time increasing, srcIP, destIP, srcPort, destPort, len, flags, seq)`

// The Section 3.1 join: combine the lengths of packets with matching
// addresses in the same second.
const twoStreamJoin = `
query combined:
SELECT PKT1.time, PKT1.srcIP, PKT1.destIP, PKT1.len + PKT2.len AS lens
FROM PKT1 JOIN PKT2
WHERE PKT1.time = PKT2.time AND PKT1.srcIP = PKT2.srcIP AND PKT1.destIP = PKT2.destIP
  AND PKT1.seq = PKT2.seq AND PKT1.srcPort = PKT2.srcPort AND PKT1.destPort = PKT2.destPort`

func twoTraces(t testing.TB) (a, b *netgen.Trace) {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 120, 300
	cfg.SrcHosts, cfg.DstHosts = 50, 30
	a = netgen.Generate(cfg)
	cfg.Seed = 2
	b = netgen.Generate(cfg)
	return a, b
}

func buildTwoStream(t testing.TB) *plan.Graph {
	t.Helper()
	g, err := plan.Build(schema.MustParse(twoStreamDDL), gsql.MustParseQuerySet(twoStreamJoin))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runTwoStream(t testing.TB, g *plan.Graph, ps core.Set, o optimizer.Options, a, b *netgen.Trace) *Result {
	t.Helper()
	p, err := optimizer.Build(g, ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(map[string][]netgen.Packet{
		"PKT1": a.Packets,
		"PKT2": b.Packets,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoStreamJoinEquivalence(t *testing.T) {
	g := buildTwoStream(t)
	a, b := twoTraces(t)
	want := runTwoStream(t, g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1}, a, b)
	if len(want.Outputs["combined"]) == 0 {
		t.Fatal("two-stream join found no matches; traces should overlap")
	}
	for _, cfg := range []struct {
		name string
		ps   core.Set
		o    optimizer.Options
	}{
		{"central-4hosts", nil, optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}},
		{"partitioned", core.MustParseSet("srcIP, destIP"), optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			got := runTwoStream(t, g, cfg.ps, cfg.o, a, b)
			if len(got.Outputs["combined"]) != len(want.Outputs["combined"]) {
				t.Fatalf("row count %d, want %d", len(got.Outputs["combined"]), len(want.Outputs["combined"]))
			}
			wm := rowMultiset(want.Outputs["combined"])
			gm := rowMultiset(got.Outputs["combined"])
			for k, c := range wm {
				if gm[k] != c {
					t.Fatal("row multiset mismatch")
				}
			}
		})
	}
}

func TestTwoStreamJoinPushdown(t *testing.T) {
	// Under (srcIP, destIP), the join's per-partition copies pair each
	// PKT1 partition with the PKT2 partition of the same index, and
	// the splitter routes matching tuples of both streams to the same
	// partition (the shared-partitioning-set assumption).
	g := buildTwoStream(t)
	p := optimizer.MustBuild(g, core.MustParseSet("srcIP, destIP"),
		optimizer.Options{Hosts: 2, PartitionsPerHost: 2})
	joins := 0
	for _, op := range p.Ops {
		if op.Kind == optimizer.OpJoin {
			joins++
			if op.Inputs[0] == op.Inputs[1] {
				t.Error("two-stream join must read distinct scans")
			}
			if op.Inputs[0].Partition != op.Inputs[1].Partition {
				t.Error("pair-wise join must align partitions")
			}
		}
	}
	if joins != 4 {
		t.Errorf("joins = %d, want 4", joins)
	}
}

func TestRunStreamsRejectsUnordered(t *testing.T) {
	g := buildTwoStream(t)
	p := optimizer.MustBuild(g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunStreams(map[string][]netgen.Packet{
		"PKT1": {{Time: 5}, {Time: 3}},
	}); err == nil {
		t.Error("unordered trace should be rejected")
	}
	if _, err := r.RunStreams(map[string][]netgen.Packet{"NOPE": nil}); err == nil {
		t.Error("unknown stream should be rejected")
	}
}

func TestRunStreamsOneSideEmpty(t *testing.T) {
	g := buildTwoStream(t)
	a, _ := twoTraces(t)
	p := optimizer.MustBuild(g, nil, optimizer.Options{Hosts: 2, PartitionsPerHost: 2})
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(map[string][]netgen.Packet{"PKT1": a.Packets})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["combined"]) != 0 {
		t.Error("join with an empty side must emit nothing (inner join)")
	}
}
