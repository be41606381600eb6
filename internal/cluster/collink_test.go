package cluster

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"qap/internal/core"
	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/optimizer"
	"qap/internal/sqlval"
)

// crossing is what one kind of leaf operator sent across its island's
// boundary: data items by kind, how many column items carried a
// validity bitmap, a column that is not uint, or Int rows, how many
// rows and Int rows the column items held, and how many continued the
// item before them (same edge, round and tag).
type crossing struct {
	items                                             map[live.ItemKind]int
	bitmaps, nonUint, intBatches, rows, intRows, cont int
}

// tallySink executes every island's rounds on the spot and tallies what
// the captures recorded, by producing operator kind, and all the items
// there were. Nothing is replayed: what crosses, and in which shape, is
// decided on the leaves alone.
type tallySink struct {
	from  []optimizer.OpKind // producerKinds(r)
	xs    []islandExec
	gr    *colGrouper
	got   map[optimizer.OpKind]*crossing
	total int64
}

// producerKinds lists, by edge id, the kind of the operator producing
// into each captured edge: compile numbers them producer by producer in
// reverse plan order, a producer's consumers by operator ID and port.
func producerKinds(t *testing.T, r *Runner) []optimizer.OpKind {
	t.Helper()
	var kinds []optimizer.OpKind
	for i := len(r.plan.Ops) - 1; i >= 0; i-- {
		op := r.plan.Ops[i]
		var cons []*optimizer.Op
		for _, c := range r.plan.Ops {
			for _, in := range c.Inputs {
				if in == op {
					cons = append(cons, c)
				}
			}
		}
		slices.SortStableFunc(cons, func(a, b *optimizer.Op) int { return cmp.Compare(a.ID, b.ID) })
		for _, c := range cons {
			if r.islandOf(c) != r.islandOf(op) {
				if len(kinds) == len(r.edges) {
					t.Fatalf("the plan has more crossings than the %d captured edges", len(r.edges))
				}
				if e := r.edges[len(kinds)]; e.width != outWidth(op) {
					t.Fatalf("edge %d is %d columns wide, its producer op %d emits %d", e.id, e.width, op.ID, outWidth(op))
				}
				kinds = append(kinds, op.Kind)
			}
		}
	}
	if len(kinds) != len(r.edges) {
		t.Fatalf("%d captured edges, the plan has %d crossings", len(r.edges), len(kinds))
	}
	return kinds
}

func (s *tallySink) closed(pend [][]live.Round) error { return s.finish(pend) }

func (s *tallySink) finish(pend [][]live.Round) error {
	for i := range pend {
		x := &s.xs[i]
		x.execRounds(pend[i])
		s.gr.recycle(pend[i])
		pend[i] = pend[i][:0]
		s.total += int64(len(x.isl.outbox))
		for n, it := range x.isl.outbox {
			if it.Kind == live.ItemAdvance || it.Kind == live.ItemFlush {
				continue
			}
			from := s.from[it.Edge]
			c := s.got[from]
			if c == nil {
				c = &crossing{items: map[live.ItemKind]int{}}
				s.got[from] = c
			}
			c.items[it.Kind]++
			c.rows += it.Cols.Len
			if n > 0 {
				if prev := &x.isl.outbox[n-1]; prev.Kind == it.Kind && prev.Round == it.Round && prev.Tag == it.Tag && prev.Edge == it.Edge {
					c.cont++
				}
			}
			bitmap, nonUint, ints := false, false, false
			for ci := range it.Cols.Cols {
				v := &it.Cols.Cols[ci]
				bitmap = bitmap || len(v.Valid) != 0
				nonUint = nonUint || v.Kind != sqlval.KindUint
				ints = ints || len(v.Int) != 0
				for r := 0; r < it.Cols.Len; r++ {
					if v.Kind == sqlval.KindUint && v.Value(r).Kind() == sqlval.KindInt {
						c.intRows++
					}
				}
			}
			if bitmap {
				c.bitmaps++
			}
			if nonUint {
				c.nonUint++
			}
			if ints {
				c.intBatches++
			}
		}
		live.ReleaseCols(x.isl.outbox)
		x.isl.outbox = x.isl.outbox[:0]
	}
	return nil
}

// crossings runs the leaf side of a parallel runner at batch size bs:
// what crossed by producing operator kind, and how many items in all.
func crossings(t *testing.T, queries string, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, bs int) (map[optimizer.OpKind]*crossing, int64) {
	t.Helper()
	p, err := optimizer.Build(buildGraph(t, queries), ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: 4, BatchSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	if !r.parallel {
		t.Fatal("the plan is not parallelizable: nothing crosses")
	}
	cursors, err := r.makeCursors(streams)
	if err != nil {
		t.Fatal(err)
	}
	adv, flush := r.buildTargets(cursors)
	s := &tallySink{from: producerKinds(t, r), gr: new(colGrouper), got: map[optimizer.OpKind]*crossing{}}
	for i := 0; i < p.Hosts; i++ {
		s.xs = append(s.xs, islandExec{
			r: r, isl: r.islands[i], wins: r.islands[i : i+1],
			adv: adv[i], flush: flush[i], outs: scanEntries(cursors),
		})
	}
	if _, _, err := r.split(cursors, s.gr, s); err != nil {
		t.Fatal(err)
	}
	s.gr.release()
	return s.got, s.total
}

// nonUintSet crosses what a bare uint column cannot carry. odd's MAX is
// NULL for the groups whose packets all have an even flags word, so its
// sub-aggregate's batch gains a validity bitmap; skew's SUM is negative
// for some groups and not for others, so its sub-aggregate's batch
// gains an Int bitmap.
const nonUintSet = `
query odd:
SELECT tb, srcIP, MAX(len / (flags & 1)) as odd_len, COUNT(*) as cnt
FROM TCP
GROUP BY time/60 as tb, srcIP

query skew:
SELECT tb, destIP, SUM(len - 700) as skew
FROM TCP
GROUP BY time/60 as tb, destIP`

// TestColumnItemsCrossIslands: a producer that delivers columns crosses
// its island's boundary as a column item — every aggregate and
// sub-aggregate at batch size 256, Int rows and NULLs included. The
// items are the ones the row-only link carried, count for count, and
// rows, OpStats and canonical trace bytes are the sequential engine's on
// the parallel engine and on the live backend, also when a duplicated
// and a cut link connection make a node retransmit column frames.
func TestColumnItemsCrossIslands(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	section62, err := os.ReadFile("../../examples/queries/section62.gsql")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		queries string
		ps      core.Set
		o       optimizer.Options
		// items is Report.Timing.LinkItems, as measured on the row-only
		// link this test's parent commit had.
		items int64
	}{
		{"figure8", suspiciousQuery, nil,
			optimizer.Options{Hosts: 1, PartitionsPerHost: 1, PartialAgg: true, PartialScope: optimizer.ScopeHost}, figure8Items},
		{"section63", complexSet, nil,
			optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true, PartialScope: optimizer.ScopeHost}, section63Items},
		{"section62", string(section62), core.MustParseSet("destIP, srcIP & 0xFFF0"),
			optimizer.Options{Hosts: 4, PartitionsPerHost: 2}, section62Items},
		{"non-uint", nonUintSet, nil,
			optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}, nonUintItems},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, _ := crossings(t, tc.queries, tc.ps, tc.o, streams, 256)
			cols := 0
			for _, c := range got {
				cols += c.items[live.ItemPushCols]
			}
			if cols == 0 {
				t.Fatalf("no column item crossed: %+v", got)
			}
			// jitter runs on section62's leaves, behind the join, dense, and
			// its AVG is a float column.
			if tc.name == "section62" && got[optimizer.OpAggregate].nonUint == 0 {
				t.Error("no column item carried a column that is not uint")
			}
			if sub := got[optimizer.OpAggSub]; tc.name == "non-uint" && (sub.intBatches == 0 || sub.bitmaps == 0) {
				t.Errorf("%d column items with Int rows, %d with a validity bitmap: the case tests nothing",
					sub.intBatches, sub.bitmaps)
			}
			cfg := liveRunConfig(1, 256, LiveConfig{})
			cfg.Engine = EngineSim
			want := runEngine(t, tc.queries, tc.ps, tc.o, streams, cfg)
			cfg.Workers = 4
			par := runEngine(t, tc.queries, tc.ps, tc.o, streams, cfg)
			sameResult(t, want, par)
			sameTrace(t, want, par)
			if par.Report().Timing.LinkItems != tc.items {
				t.Errorf("%d link items crossed, the row-only link carried %d", par.Report().Timing.LinkItems, tc.items)
			}
			faults := &live.FaultPlan{Faults: []live.Fault{
				{Host: 0, Session: -1, Write: 1, Action: live.FaultDup},
				{Host: 0, Session: 0, Write: 3, Action: live.FaultCut},
			}}
			for _, lc := range []LiveConfig{{}, {Faults: faults, Timeout: 2 * time.Second}} {
				got := runEngine(t, tc.queries, tc.ps, tc.o, streams, liveRunConfig(1, 256, lc))
				sameResult(t, want, got)
				sameTrace(t, want, got)
				if got.Report().Timing.LinkItems != tc.items {
					t.Errorf("live: %d link items crossed, the row-only link carried %d", got.Report().Timing.LinkItems, tc.items)
				}
			}
			if faults.Hits() < 2 {
				t.Errorf("the fault plan fired %d times, want the duplicate and the cut", faults.Hits())
			}
		})
	}
}

// Link item counts of TestColumnItemsCrossIslands' four deployments.
const (
	figure8Items   = 184
	section63Items = 368
	section62Items = 2944
	nonUintItems   = 1472
)

// slidingWindowSet is examples/queries/slidingwindow.gsql, whose leaf
// window merges, partitioned on (srcIP, destIP), push row runs across
// the island boundary (capture.Push, sealRun's row path).
func slidingWindowSet(t testing.TB) string {
	t.Helper()
	queries, err := os.ReadFile("../../examples/queries/slidingwindow.gsql")
	if err != nil {
		t.Fatal(err)
	}
	return string(queries)
}

// TestRowRunsCrossAsOneItem: a leaf operator that pushes rows into an
// island-crossing edge — the sliding window's merge, on
// examples/queries/slidingwindow.gsql partitioned on (srcIP, destIP) —
// sends each run it emits across as one column item, not one item per
// row. The runs are maximal (no item continues the one before it in its
// island's outbox) and together hold every row the windows emitted, and
// Report().Timing.LinkItems counts runs, not rows, on the parallel engine
// and on the live backend alike, whose rows, OpStats and canonical trace
// bytes are the scalar oracle's.
func TestRowRunsCrossAsOneItem(t *testing.T) {
	queries := slidingWindowSet(t)
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	ps, o := core.MustParseSet("srcIP, destIP"), optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}
	cfg := liveRunConfig(1, 1, LiveConfig{})
	cfg.Engine = EngineSim
	oracle := runEngine(t, queries, ps, o, streams, cfg)
	rows := len(oracle.Outputs["flow_rates"])

	got, items := crossings(t, queries, ps, o, streams, 256)
	c := got[optimizer.OpWindow]
	if len(got) != 1 || c == nil || c.rows != rows {
		t.Fatalf("what crossed is %+v; want the windows' %d rows alone", got, rows)
	}
	if runs := c.items[live.ItemPushCols]; c.cont != 0 || runs == 0 || 4*runs > rows {
		t.Errorf("%d rows crossed in %d column items, %d of which continue the item before them; want maximal runs, far fewer than rows",
			rows, runs, c.cont)
	}

	cfg.BatchSize, cfg.Workers = 256, 4
	par := runEngine(t, queries, ps, o, streams, cfg)
	sameResultCanonical(t, "workers 4, batch 256", oracle, par)
	sameTrace(t, oracle, par)
	lv := runEngine(t, queries, ps, o, streams, liveRunConfig(1, 256, LiveConfig{}))
	sameResult(t, par, lv)
	sameTrace(t, par, lv)
	for _, res := range []*Result{par, lv} {
		if got := res.Report().Timing.LinkItems; got != items {
			t.Errorf("%s: %d link items crossed; the leaves captured %d", res.Report().Timing.Engine, got, items)
		}
	}
	t.Logf("%d window rows crossed in %d runs, %d link items in all", rows, c.items[live.ItemPushCols], items)
}

// TestMixedRunCrossesRowByRow: a row run SetFromRows refuses — a column
// mixing kinds, which no typed plan emits — crosses as one single-row
// column item per row, in the run's order and under its round, tag and
// watermark, and the replay hands the consumer the very rows pushed,
// byte for byte.
func TestMixedRunCrossesRowByRow(t *testing.T) {
	run := exec.Batch{
		{sqlval.Uint(1), sqlval.Str("a")},
		{sqlval.Str("b"), sqlval.Null},
		{sqlval.Int(-2), sqlval.Float(1.5)},
		{sqlval.Bool(true), sqlval.Uint(4)},
	}
	if new(exec.ColBatch).SetFromRows(run) {
		t.Fatal("the run pivots to columns: the case tests nothing")
	}
	out := &exec.Collector{}
	e := &edge{st: &obs.OpStats{}, next: out}
	isl := &island{curRound: 3, curTag: phasePush | 9, curWM: 180}
	c := &capture{isl: isl, e: e}
	for _, row := range run {
		c.Push(row)
	}
	isl.curTag = phaseFlush
	c.Flush()
	items := isl.outbox
	if len(items) != len(run)+1 {
		t.Fatalf("the run and the flush crossed as %d items, want %d", len(items), len(run)+1)
	}
	for i, it := range items[:len(run)] {
		if it.Kind != live.ItemPushCols || it.Round != 3 || it.Tag != phasePush|9 || it.MWM != 180 || it.Cols.Len != 1 {
			t.Fatalf("item %d is %+v; want row %d alone as columns, under the run's round, tag and watermark", i, it, i)
		}
	}
	r := &Runner{edges: []*edge{e}}
	err := r.replayLinks(1, func(func() string) (live.LinkMsg, error) {
		return live.LinkMsg{Through: 3, Done: true, Items: items}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exec.AppendBatchWire(nil, out.Rows), exec.AppendBatchWire(nil, run); !bytes.Equal(got, want) || !out.Flushed {
		t.Errorf("the replay delivered %v (flushed %t); want %v, then the flush", out.Rows, out.Flushed, run)
	}
}

// TestLiveLinkRejectsMisshapenItem: the link codec admits any
// well-formed item, but the replay indexes Runner.edges by an item's
// edge id and the central kernels index its columns by position. An item
// the compiled plan could not have produced — wider or narrower than the
// operator producing into its edge, an edge the plan does not have — is
// an error naming host, round and edge, before any of its message is
// replayed, never a panic.
func TestLiveLinkRejectsMisshapenItem(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	p, err := optimizer.Build(buildGraph(t, flowsQuery), nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1, PartialAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(lc LiveConfig) *Runner {
		r, err := NewRunner(p, liveRunConfig(1, 256, lc))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// flows' sub-aggregate emits tb, srcIP, destIP and the count.
	cols := func(width int) *exec.ColBatch {
		row := make(exec.Tuple, width)
		for i := range row {
			row[i] = sqlval.Uint(uint64(i))
		}
		cb := exec.GetColBatch()
		cb.SetFromRows(exec.Batch{row, row})
		return cb
	}
	cases := []struct {
		name string
		it   live.Item
		want string // "" accepts
	}{
		{"columns", live.Item{Kind: live.ItemPushCols, Cols: cols(4)}, ""},
		{"advance", live.Item{Kind: live.ItemAdvance, WM: 60}, ""},
		{"narrow columns", live.Item{Kind: live.ItemPushCols, Cols: cols(3)}, "column batch of 3 columns, the producer emits 4"},
		{"wide columns", live.Item{Kind: live.ItemPushCols, Cols: cols(5)}, "column batch of 5 columns, the producer emits 4"},
		{"edge past the plan", live.Item{Kind: live.ItemFlush, Edge: 1}, "unknown edge"},
		{"negative edge", live.Item{Kind: live.ItemAdvance, Edge: -1}, "unknown edge"},
	}
	for _, tc := range cases {
		tc.it.Round = 3
		err := runner(LiveConfig{}).checkLink(&live.LinkMsg{Host: 0, Items: []live.Item{{Kind: live.ItemFlush}, tc.it}})
		exec.PutColBatch(tc.it.Cols)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: a well-formed item was refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: the item was accepted", tc.name)
		case tc.want != "":
			for _, want := range []string{"host 0", "round 3", fmt.Sprintf("edge %d", tc.it.Edge), tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, want)
				}
			}
		}
	}

	// End to end: a node whose first link carries a narrow column item
	// fails the run with that error; the central island has seen nothing.
	node, err := live.NewNode(live.Config{Timeout: 2 * time.Second}, live.NodeOptions{
		NewExecutor: func(*live.Hello) (live.Executor, error) { return narrowExec{cols(3)}, nil },
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- node.Serve() }()
	r := runner(LiveConfig{Nodes: []string{node.Addr()}, Timeout: 2 * time.Second})
	_, err = r.RunStreams(streams)
	node.Close()
	<-served
	if err == nil || !strings.Contains(err.Error(), "live link from host 0, round 0, edge 0: column batch of 3 columns") {
		t.Fatalf("the run's error is %v, want the narrow column item's refusal", err)
	}
	if got := r.islands[1].metrics().Tuples; got != 0 {
		t.Errorf("the central island accounted %d tuples of a refused message", got)
	}
}

// narrowExec answers every feed with one column item narrower than any
// operator of the plan emits, behind a well-formed advance.
type narrowExec struct{ cols *exec.ColBatch }

func (x narrowExec) Execute(m *live.FeedMsg) (*live.LinkMsg, error) {
	cp := exec.GetColBatch()
	cp.CopyFrom(x.cols)
	return &live.LinkMsg{Through: m.Rounds[len(m.Rounds)-1].Round, Done: m.Last, Items: []live.Item{
		{Kind: live.ItemAdvance, WM: m.Rounds[0].WM, MWM: m.Rounds[0].WM},
		{Kind: live.ItemPushCols, Cols: cp},
	}}, nil
}

func (narrowExec) Result() ([]byte, error) { return nil, nil }

// TestAllocsCaptureCols: capturing a column batch copies it into a
// pooled batch whose word vectors carve from one slab, so a capture
// costs at most the slab and the column headers, and nothing once the
// pool's batches have held the shape — not one allocation per column.
func TestAllocsCaptureCols(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	src := new(exec.ColBatch)
	rows := make(exec.Batch, 256)
	for i := range rows {
		rows[i] = exec.Tuple{sqlval.Uint(60), sqlval.Uint(uint64(i)), sqlval.Uint(uint64(i * 7)), sqlval.Uint(1), sqlval.Uint(1500)}
	}
	if !src.SetFromRows(rows) {
		t.Fatal("uint rows are not columnar")
	}
	isl := &island{}
	c := &capture{isl: isl, e: &edge{}}
	capture := func() {
		c.PushCols(src)
		live.ReleaseCols(isl.outbox) // what the replay does with an applied item
		isl.outbox = isl.outbox[:0]
	}
	capture()
	if got := testing.AllocsPerRun(100, capture); got > 2 {
		t.Errorf("capturing a warm 5-column x 256-row batch costs %.1f objects, budget 2", got)
	}
}

// TestSection62StaysOnColumns: the paper's Section 6.2 pipeline — the
// jitter self-join rolled up per flow — runs on columns from the scan to
// the link, on traces whose S2.time - S1.time underflows for some pairs
// (12 on seed 7, 32 on seed 11). The join hands those pairs on as
// Int-marked rows of a column batch, so it makes no row, and every
// aggregate — jitter's MAX and AVG over the Int rows included — takes
// all of its input into its dense store, so none migrates. That holds
// on the parallel engine and on the live backend alike (the census:
// batch 256, Workers 4), whose rows, OpStats and canonical trace bytes
// are the scalar oracle's.
func TestSection62StaysOnColumns(t *testing.T) {
	queries, err := os.ReadFile("../../examples/queries/section62.gsql")
	if err != nil {
		t.Fatal(err)
	}
	ps, o := core.MustParseSet("destIP, srcIP & 0xFFF0"), optimizer.Options{Hosts: 4, PartitionsPerHost: 2}
	p, err := optimizer.Build(buildGraph(t, string(queries)), ps, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{7, 11} {
		tc := netgen.DefaultConfig()
		tc.DurationSec, tc.PacketsPerSec, tc.Seed = 180, 500, seed
		streams := map[string][]netgen.Packet{"TCP": netgen.Generate(tc).Packets}
		cfg := liveRunConfig(1, 1, LiveConfig{})
		cfg.Engine = EngineSim
		oracle := runEngine(t, string(queries), ps, o, streams, cfg)
		pairs := runEngine(t, jitterPairs, ps, o, streams, cfg)
		underflows := underflowingPairs(pairs)
		if underflows == 0 {
			t.Fatalf("seed %d: no joined pair underflows on this trace: the case tests nothing", seed)
		}
		for _, engine := range []string{EngineSim, EngineLive} {
			cfg := liveRunConfig(4, 256, LiveConfig{})
			cfg.Engine = engine
			r, err := NewRunner(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.RunStreams(streams)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d, %s engine", seed, engine)
			sameResultCanonical(t, name, oracle, res)
			sameTrace(t, oracle, res)

			var colEmits, rowEmits int
			for _, s := range r.sized {
				switch x := s.op.(type) {
				case *exec.Join:
					c, rw := x.EmitCounts()
					colEmits, rowEmits = colEmits+c, rowEmits+rw
				case *exec.Aggregate:
					q := p.Ops[s.id].Logical.QueryName
					if dense, in := x.DenseRows(), res.OpStats[s.id].RowsIn; dense != in {
						t.Errorf("%s: %s took %d of its %d input rows into its dense store; want all of them", name, q, dense, in)
					}
				}
			}
			if rowEmits != 0 || colEmits == 0 {
				t.Errorf("%s: the joins made rows of %d input batches' matches and columns of %d; want columns only",
					name, rowEmits, colEmits)
			}
			t.Logf("%s: %d underflowing pairs of %d, %d column emits", name, underflows, len(pairs.Outputs["jitter_pairs"]), colEmits)
		}
	}
}
