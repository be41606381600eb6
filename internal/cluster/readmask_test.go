package cluster

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/exec"
	"qap/internal/netgen"
	"qap/internal/optimizer"
)

// Packet column bits (netgen.SchemaDDL order) for the read-mask tables.
const (
	colTime uint64 = 1 << iota
	colSrcIP
	colDestIP
	colSrcPort
	colDestPort
	colLen
	colFlags
	colSeq
)

// readQueries reads one of examples/queries.
func readQueries(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../examples/queries/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReadMasks: every router's read mask is the packet columns read by
// the first operators its scans reach that do not forward them, on the
// four example query sets and the benchmark's three (complexSet is
// figure1.gsql, the Section 6.3 set; suspiciousQuery is Figure 8's;
// section62.gsql is the Section 6.2 set) — every column where a scan
// feeds a net edge or crosses islands, or where the runner is the scalar
// oracle. A hash-routed run is staged with the partitioning set's
// columns besides: a partition column no operator reads is staged, not
// gathered into the feed.
func TestReadMasks(t *testing.T) {
	flows := colTime | colSrcIP | colDestIP
	fiveTuple := flows | colSrcPort | colDestPort
	section62 := fiveTuple | colLen | colSeq
	hostPartial := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}
	cases := []struct {
		name, queries string
		ps            string
		o             optimizer.Options
		cfg           RunConfig
		mask, stage   uint64
	}{
		{name: "figure1 round robin, live", queries: readQueries(t, "figure1.gsql"), o: hostPartial,
			cfg: liveRunConfig(2, 256, LiveConfig{}), mask: flows, stage: flows},
		{name: "figure1 on srcIP, parallel", queries: complexSet, ps: "srcIP", o: hostPartial,
			cfg: RunConfig{Workers: 2}, mask: flows, stage: flows},
		// No partial aggregation: the scans feed the central aggregate
		// through a union, over net edges from host 1 and across islands.
		{name: "figure1 central, sequential", queries: complexSet, o: optimizer.Options{Hosts: 2, PartitionsPerHost: 2},
			cfg: RunConfig{Workers: 1}, mask: netgen.AllCols, stage: netgen.AllCols},
		{name: "figure1 central, one host, parallel", queries: complexSet, o: optimizer.Options{Hosts: 1, PartitionsPerHost: 2},
			cfg: RunConfig{Workers: 2}, mask: netgen.AllCols, stage: netgen.AllCols},
		// On one host the central union is no net edge, and the sequential
		// engine has no islands to cross: the central aggregate's reads.
		{name: "figure1 central, one host, sequential", queries: complexSet, o: optimizer.Options{Hosts: 1, PartitionsPerHost: 2},
			cfg: RunConfig{Workers: 1}, mask: flows, stage: flows},
		{name: "figure1 on srcPort", queries: complexSet, ps: "srcPort", o: hostPartial,
			cfg: RunConfig{Workers: 2}, mask: flows, stage: flows | colSrcPort},
		{name: "figure1 oracle", queries: complexSet, o: hostPartial,
			cfg: RunConfig{BatchSize: 1}, mask: netgen.AllCols, stage: netgen.AllCols},
		{name: "drift on destIP", queries: readQueries(t, "drift.gsql"), ps: "destIP", o: hostPartial,
			cfg: RunConfig{Workers: 2}, mask: flows | colLen, stage: flows | colLen},
		{name: "section62 on destIP, subnet", queries: readQueries(t, "section62.gsql"), ps: "destIP, srcIP & 0xFFF0",
			o:   optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost},
			cfg: RunConfig{Workers: 2}, mask: section62, stage: section62},
		{name: "slidingwindow on srcIP, destIP", queries: readQueries(t, "slidingwindow.gsql"), ps: "srcIP, destIP", o: hostPartial,
			cfg: RunConfig{Workers: 2}, mask: flows | colLen, stage: flows | colLen},
		{name: "suspicious, one partition", queries: suspiciousQuery, o: optimizer.Options{Hosts: 1, PartitionsPerHost: 1, PartialAgg: true},
			cfg: RunConfig{Workers: 1}, mask: fiveTuple | colLen | colFlags, stage: fiveTuple | colLen | colFlags},
		{name: "suspicious on seq", queries: suspiciousQuery, ps: "seq", o: hostPartial,
			cfg: RunConfig{Workers: 2}, mask: fiveTuple | colLen | colFlags, stage: netgen.AllCols},
	}
	for _, tc := range cases {
		var ps core.Set
		if tc.ps != "" {
			ps = core.MustParseSet(tc.ps)
		}
		tc.cfg.Costs, tc.cfg.Params = DefaultCosts(), testParams
		r := newEngineRunner(t, tc.queries, ps, tc.o, tc.cfg)
		rt := r.routers["tcp"]
		if rt.mask != tc.mask || rt.stage != tc.stage {
			t.Errorf("%s: mask %08b, stage %08b; want %08b, %08b", tc.name, rt.mask, rt.stage, tc.mask, tc.stage)
		}
	}
}

// TestPrunedFeedsStayOnColumns is the census of the benchmark's query
// sets on pruned feeds: the Figure 8 aggregation on one partition, the
// Section 6.2 set on four hosts and the Section 6.3 set dealt round
// robin to two live nodes. No aggregate takes a row into its row store
// and no join makes rows of its matches: a pruned column is never a
// reason to leave the column path. Outputs, OpStats and trace bytes are
// the scalar oracle's.
func TestPrunedFeedsStayOnColumns(t *testing.T) {
	tc := netgen.DefaultConfig()
	tc.DurationSec, tc.PacketsPerSec, tc.Seed = 180, 500, 7
	streams := map[string][]netgen.Packet{"TCP": netgen.Generate(tc).Packets}
	hostPartial := func(hosts int) optimizer.Options {
		return optimizer.Options{Hosts: hosts, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}
	}
	for _, c := range []struct {
		name, queries string
		ps            core.Set
		o             optimizer.Options
		engine        string
		workers       int
	}{
		{"figure 8", suspiciousQuery, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1, PartialAgg: true}, EngineSim, 1},
		{"section 6.2", readQueries(t, "section62.gsql"), core.MustParseSet("destIP, srcIP & 0xFFF0"), hostPartial(4), EngineSim, 2},
		{"section 6.3", complexSet, nil, hostPartial(2), EngineLive, 2},
	} {
		oracle := liveRunConfig(1, 1, LiveConfig{})
		oracle.Engine = EngineSim
		want := runEngine(t, c.queries, c.ps, c.o, streams, oracle)
		cfg := liveRunConfig(c.workers, 256, LiveConfig{})
		cfg.Engine = c.engine
		r := newEngineRunner(t, c.queries, c.ps, c.o, cfg)
		if r.routers["tcp"].mask == netgen.AllCols {
			t.Fatalf("%s: the feed is not pruned; the census tests nothing", c.name)
		}
		got, err := r.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		sameResultCanonical(t, c.name, want, got)
		sameTrace(t, want, got)
		aggs, joins := 0, 0
		for _, s := range r.sized {
			switch x := s.op.(type) {
			case *exec.Join:
				joins++
				if cols, rows := x.EmitCounts(); rows != 0 {
					t.Errorf("%s: join op %d made rows of %d batches' matches (columns of %d)", c.name, s.id, rows, cols)
				}
			case *exec.Aggregate:
				aggs++
				if dense, in := x.DenseRows(), got.OpStats[s.id].RowsIn; dense != in {
					t.Errorf("%s: aggregate op %d took %d of its %d input rows as columns", c.name, s.id, dense, in)
				}
			}
		}
		t.Logf("%s: feed mask %08b, %d aggregates and %d joins on columns", c.name, r.routers["tcp"].mask, aggs, joins)
	}
}

// TestDisorderedStreamFails: a trace out of time order mid-run fails
// every engine — the scalar oracle, the sequential engine, the parallel
// engine and the in-process live engine — with the position of the
// first packet earlier than the one before it, which the merge finds as
// it walks the trace, and leaves no goroutine behind.
func TestDisorderedStreamFails(t *testing.T) {
	pks := append([]netgen.Packet(nil), smallTrace(t).Packets...)
	k := len(pks) / 2
	for pks[k].Time == pks[k-1].Time {
		k++
	}
	pks[k].Time = pks[k-1].Time - 1
	streams := map[string][]netgen.Packet{"Tcp": pks}
	want := fmt.Sprintf(`cluster: stream "Tcp" is not time-ordered at index %d`, k)
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	sim := func(workers, bs int) RunConfig {
		return RunConfig{Costs: DefaultCosts(), Workers: workers, BatchSize: bs}
	}
	for _, c := range []struct {
		name string
		cfg  RunConfig
	}{
		{"oracle", sim(1, 1)},
		{"sequential", sim(1, 256)},
		{"parallel", sim(2, 256)},
		{"live", liveRunConfig(2, 256, LiveConfig{})},
	} {
		for _, ps := range []core.Set{nil, core.MustParseSet("srcIP")} {
			before := runtime.NumGoroutine()
			_, err := runEngineErr(t, flowsQuery, ps, o, streams, c.cfg)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s on %v: error %v, want %q", c.name, ps, err, want)
			}
			if n := settleGoroutines(before); n > before {
				t.Errorf("%s on %v: %d goroutines before, %d after", c.name, ps, before, n)
			}
		}
	}
}
