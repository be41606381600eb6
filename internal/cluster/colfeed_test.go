package cluster

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/optimizer"
	"qap/internal/sqlval"
)

// TestLiveHighRateMatchesSim: at 20 000 packets/s over two hosts a feed
// of defaultBatchRounds rounds would be ~20 MB, over the 16 MB frame
// bound, so the live driver must cut feeds by bytes — on round
// boundaries the (round, tag) replay cannot see. The run equals the
// simulator byte for byte.
// (Before feeds were cut by size this configuration died 30 s in with
// "live drive stalled", the node having refused every retransmission of
// the same oversized frame.)
func TestLiveHighRateMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("800 000-packet trace")
	}
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 40, 20000
	streams := map[string][]netgen.Packet{"TCP": netgen.Generate(cfg).Packets}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	ps := core.MustParseSet("srcIP")

	simCfg := liveRunConfig(1, 256, LiveConfig{})
	simCfg.Engine = EngineSim
	want := runEngine(t, complexSet, ps, o, streams, simCfg)
	got := runEngine(t, complexSet, ps, o, streams, liveRunConfig(1, 256, LiveConfig{}))
	sameResult(t, want, got)
	sameTrace(t, want, got)
	// 41 rounds fit two feeds of 32; the byte cut makes it more.
	if feeds := got.Report.Timing.Batches / int64(o.Hosts); feeds <= 2 {
		t.Errorf("%d feeds per host: the feeds were not cut by size", feeds)
	}
}

// TestLiveOversizedRoundFailsAtOnce: a single round too large for any
// frame cannot be cut, so the splitter refuses it — before it feeds any
// node anything, naming the host, the round and the byte count —
// instead of feeding the node a frame it rejects until the drive guard
// fires.
func TestLiveOversizedRoundFailsAtOnce(t *testing.T) {
	// One timestamp, 560 000 packets: ~17.9 MB of columns per host.
	packets := make([]netgen.Packet, 560000)
	for i := range packets {
		packets[i] = netgen.Packet{Time: 7, SrcIP: uint64(i), DestIP: 1, SrcPort: 2, DestPort: 3, Len: 40, Seq: uint64(i)}
	}
	g := buildGraph(t, flowsQuery)
	p, err := optimizer.Build(g, nil, optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, liveRunConfig(1, 256, LiveConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run("TCP", packets)
	if err == nil {
		t.Fatal("a round over the frame bound was accepted")
	}
	// The refusal must be the splitter's frame limit, not the drive guard
	// firing, and no node may have executed a scan: the in-process nodes
	// run on this runner's leaf islands.
	if strings.Contains(err.Error(), "drive stalled") {
		t.Errorf("the drive guard fired before the refusal: %v", err)
	}
	for _, isl := range r.islands {
		if isl.metrics().Tuples != 0 {
			t.Errorf("island %d accounted %d tuples: a node was fed before the refusal", isl.id, isl.metrics().Tuples)
		}
	}
	for _, want := range []string{"host 0", "rounds 0..", " bytes", "16777216-byte frame limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestLiveExecuteRejectsMisshapenColumnGroup: the column codec admits
// any well-formed batch, but a scan takes packets. A wire group of any
// other shape — a string column, NULLs, a missing column — is an error
// naming the round and the destination, never a panic on the node. So
// is a group of rows: the splitter sends column groups only, and the
// executor has no row path to run one on.
func TestLiveExecuteRejectsMisshapenColumnGroup(t *testing.T) {
	packet := func() *exec.ColBatch {
		cb := new(exec.ColBatch)
		for i := 0; i < 10; i++ {
			(&netgen.Packet{Time: 7, SrcIP: uint64(i)}).AppendCols(cb)
		}
		return cb
	}
	cases := map[string]func(cb *exec.ColBatch){
		"string column": func(cb *exec.ColBatch) {
			cb.Cols[2] = exec.ColVec{Kind: sqlval.KindString, Str: make([]string, cb.Len), U64: cb.Cols[2].U64[:0]}
		},
		"null column":     func(cb *exec.ColBatch) { cb.Cols[0] = exec.ColVec{Kind: sqlval.KindNull} },
		"validity bitmap": func(cb *exec.ColBatch) { cb.Cols[1].Valid = []uint64{1} },
		"missing column":  func(cb *exec.ColBatch) { cb.Cols = cb.Cols[:netgen.TupleCols-1] },
		"no columns":      func(cb *exec.ColBatch) { cb.Cols = cb.Cols[:0] },
	}
	for name, mangle := range cases {
		cb := packet()
		mangle(cb)
		x := &islandExec{r: &Runner{batchSize: 4}, isl: &island{}, outs: [][]exec.Consumer{{exec.Discard{}}}}
		_, err := x.Execute(&live.FeedMsg{Rounds: []live.Round{{Round: 3, Groups: []live.Group{{Cols: cb}}}}})
		if err == nil {
			t.Errorf("%s: the group was delivered", name)
			continue
		}
		for _, want := range []string{"round 3", "stream 0 partition 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
	feed := func(g live.Group) *live.FeedMsg {
		return &live.FeedMsg{Rounds: []live.Round{{Round: 3, Groups: []live.Group{g}}}}
	}
	rows := live.Group{Tuples: exec.Batch{netgen.Packet{Time: 7}.Tuple()}}
	x := &islandExec{r: &Runner{batchSize: 4}, isl: &island{}, outs: [][]exec.Consumer{{exec.Discard{}}}}
	if _, err := x.Execute(feed(live.Group{Cols: packet()})); err != nil {
		t.Fatalf("a packet-shaped group was refused: %v", err)
	}
	_, err := x.Execute(feed(rows))
	if err == nil {
		t.Fatal("a row group was delivered")
	}
	for _, want := range []string{"round 3", "stream 0 partition 0", "NULL-free uint columns of a packet"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("row group: error %q does not mention %q", err, want)
		}
	}
}

// Allocation budgets of a parallel-engine columnar replay (Workers 2,
// warm size hints). The aggregation figures were last set by the
// change that made island-crossing link items carry column batches;
// "parent" below is that change's parent, whose capture pivoted every
// crossing batch to rows. The Section 6.2 figure was set by the change
// that made the join emit columns.
//
// Section 6.3 set, two hosts, round-robin split, in bytes: parent 63
// B/packet, most of it the capture's row pivot of the sub-aggregates'
// output and the key string the central super-aggregate's row path made
// per group; the change measures 23 (the link copy, the dense stores).
//
// Section 6.2 set (examples/queries/section62.gsql), four hosts on a
// compatible partitioning, in objects for the whole run of 240 000
// packets: the scan's Tee forwards columns, the self-join stores words
// and gathers its matches into a column batch it reuses, and jitter
// behind it is dense, so what is left is the per-round feed, the panes
// and the gather batch a warm run sizes once, and the rows of the few
// batches holding an underflowing pair. 3 233 objects while every feed
// message built its round list and one group list per round; 2 333 since
// executed round lists go back to a stock the splitter ships from. In
// bytes, 214.7 to 219.4 B/packet (2 385 to 2 505 objects) while each
// temporal key had a pane per side, each with its own table and one key
// slab entry per row; 177.7 to 187.9 B/packet (2 372 to 2 492 objects)
// since one pane holds both sides under one table and one key slab entry
// per key. Both budgets are the larger + 15 %.
//
// Suspicious-flows aggregation on one host over a wide trace (one group
// per ~1.5 packets; 240 000 packets, 165 thousand groups), bytes and
// objects for the whole run. The leaf sub-aggregate is dense and emits
// columns, which reach the central super-aggregate as columns, so that
// one is dense too: parent 664 B/packet and 165.4 thousand objects — one
// key string per group — the change 137 to 180 B/packet, depending on
// which batches the pool still holds. 416 objects before round lists
// were recycled, 300 since; the object budget is the larger + 15 %.
const (
	allocBudgetParallelColumnarBytesPerPacket  = 40
	allocBudgetParallelSection62BytesPerPacket = 253.0
	allocBudgetParallelSection62Objects        = 2881
	allocBudgetParallelWideBytesPerPacket      = 200
	allocBudgetParallelWideObjects             = 479
)

func TestAllocsParallelColumnarReplay(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 120, 2000
	streams := map[string][]netgen.Packet{"TCP": netgen.Generate(cfg).Packets}
	// best replays the plan cold once (harvesting the size hints, warming
	// the pools), then warm three times: the cheapest run's bytes per
	// packet and objects.
	best := func(t *testing.T, streams map[string][]netgen.Packet, queries string, ps core.Set, o optimizer.Options) (bytes, objects float64) {
		p, err := optimizer.Build(buildGraph(t, queries), ps, o)
		if err != nil {
			t.Fatal(err)
		}
		run := func(hints map[int]int) (*Result, float64, float64) {
			r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: 2, SizeHints: hints})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := r.RunStreams(streams)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return res, float64(after.TotalAlloc-before.TotalAlloc) / float64(len(streams["TCP"])), float64(after.Mallocs - before.Mallocs)
		}
		res, _, _ := run(nil)
		for i := 0; i < 3; i++ {
			_, b, n := run(res.SizeHints)
			if i == 0 || b < bytes {
				bytes = b
			}
			if i == 0 || n < objects {
				objects = n
			}
		}
		return bytes, objects
	}
	t.Run("section63", func(t *testing.T) {
		b, _ := best(t, streams, complexSet, nil, optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost})
		if b > allocBudgetParallelColumnarBytesPerPacket {
			t.Errorf("parallel columnar replay: %.0f B/packet, budget %d", b, allocBudgetParallelColumnarBytesPerPacket)
		}
		t.Logf("parallel columnar replay: %.0f B/packet", b)
	})
	t.Run("section62", func(t *testing.T) {
		queries, err := os.ReadFile("../../examples/queries/section62.gsql")
		if err != nil {
			t.Fatal(err)
		}
		b, n := best(t, streams, string(queries), core.MustParseSet("destIP, srcIP & 0xFFF0"), optimizer.Options{Hosts: 4, PartitionsPerHost: 2})
		if b > allocBudgetParallelSection62BytesPerPacket || n > allocBudgetParallelSection62Objects {
			t.Errorf("parallel columnar replay of the Section 6.2 set: %.1f B/packet and %.0f objects, budgets %.1f and %d",
				b, n, allocBudgetParallelSection62BytesPerPacket, allocBudgetParallelSection62Objects)
		}
		t.Logf("parallel columnar replay of the Section 6.2 set: %.1f B/packet, %.0f objects for %d packets", b, n, len(streams["TCP"]))
	})
	t.Run("suspicious_wide", func(t *testing.T) {
		wide := cfg
		wide.MeanFlowPackets, wide.SrcHosts, wide.DstHosts, wide.ZipfS = 1.5, 200000, 100000, 1.01
		packets := netgen.Generate(wide).Packets
		b, n := best(t, map[string][]netgen.Packet{"TCP": packets}, suspiciousQuery, nil,
			optimizer.Options{Hosts: 1, PartitionsPerHost: 1, PartialAgg: true, PartialScope: optimizer.ScopeHost})
		if b > allocBudgetParallelWideBytesPerPacket || n > allocBudgetParallelWideObjects {
			t.Errorf("parallel columnar replay of the wide aggregation: %.0f B/packet and %.0f objects, budgets %d and %d",
				b, n, allocBudgetParallelWideBytesPerPacket, allocBudgetParallelWideObjects)
		}
		t.Logf("parallel columnar replay of the wide aggregation: %.0f B/packet, %.0f objects for %d packets", b, n, len(packets))
	})
}

// TestGrouperStockSurvivesCollector: the run's own stock is what makes
// its allocation independent of the collector. A recycled batch comes
// back from take — with its columns still shaped and its capacity kept —
// after two collector cycles, which empty the shared pool; release
// leaves the stock empty.
func TestGrouperStockSurvivesCollector(t *testing.T) {
	var gr colGrouper
	cb := gr.take()
	for i := 0; i < 100; i++ {
		netgen.Packet{Time: 1, SrcIP: uint64(i)}.AppendCols(cb)
	}
	groups := []live.Group{{Cols: cb}}
	gr.recycle([]live.Round{{Groups: groups}})
	if groups[0].Cols != nil {
		t.Fatal("recycle left the group holding its batch")
	}
	runtime.GC()
	runtime.GC()
	got := gr.take()
	if got != cb {
		t.Fatal("take did not return the run's own batch after two collector cycles")
	}
	if got.Len != 0 || len(got.Cols) != netgen.TupleCols || cap(got.Cols[0].U64) < 100 {
		t.Fatalf("recycled batch: Len %d, %d columns, capacity %d; want empty, shaped, capacity kept",
			got.Len, len(got.Cols), cap(got.Cols[0].U64))
	}
	gr.recycle([]live.Round{{Groups: []live.Group{{Cols: got}}}})
	gr.release()
	if len(gr.free) != 0 {
		t.Fatalf("release left %d batches in the stock", len(gr.free))
	}
}
