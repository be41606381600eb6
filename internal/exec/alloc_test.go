package exec

import (
	"fmt"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// Committed allocation budgets for the hot path, in allocations per
// operation as measured by testing.AllocsPerRun. A change that pushes
// a measured value above its budget is an allocation regression on the
// batched execution path and should be either fixed or justified by
// raising the budget here with a comment.
const (
	// Key materializes a fresh string per call: the []byte encoding
	// plus the string copy (append growth can add one more).
	allocBudgetKey = 4
	// AppendKey into a warmed buffer is allocation-free.
	allocBudgetAppendKeySteady = 0
	// FilterProject.Push per input tuple: projected rows carve from a
	// slab of slabChunk rows, so a projection allocates once per chunk,
	// not per row (the per-row allocation it had cost 1).
	allocBudgetFilterProjectPerTuple = 1.0 / 64
	// Aggregate.Push per input tuple in the steady state (every group
	// already exists): group values and the key encode into reused
	// scratch and the map is probed without materializing a string. It
	// allocated the values and the key string per tuple before.
	allocBudgetAggregatePerTupleSteady = 0.0
	// A join watermark that expires nothing compares the boundary with
	// each side's oldest pane and touches no entry.
	allocBudgetJoinAdvanceNoExpiry = 0
	// Inner-join expiry drops whole panes and recycles their index and
	// slabs; nothing is allocated per expired row.
	allocBudgetJoinExpiryPerRow = 0.1
	// Join build/probe per pushed row in the recycled steady state. Word
	// layout: row and key words, chains and the slot table are recycled
	// slabs, so only the output slab refill is left (measured 0.002; the
	// bench probe, which builds a fresh join per pass, reads 0.008). Row
	// layout: one key string per new key (shared with the other side
	// when it holds the key); entries, chains and output rows come from
	// slabs. The per-key []*joinEntry layout spent more than 2.
	allocBudgetJoinPushPerRowWords = 0.05
	allocBudgetJoinPushPerRowRows  = 1.25
	// A row-store group created by Aggregate.Push and retired by the
	// next Advance: its key string and COUNT accumulator, plus shares of
	// the slab chunks, the output slab and the map rebuilt pre-sized at
	// each epoch boundary (measured 2.025; per-key deletes measured
	// 3.020).
	allocBudgetRowStoreTurnoverPerGroup = 2.1
)

// skipIfRace skips allocation-count assertions under the race
// detector, whose instrumentation allocates on its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestAllocsKey(t *testing.T) {
	skipIfRace(t)
	vals := []sqlval.Value{u(1), u(0xABCD), u(99)}
	var s string
	got := testing.AllocsPerRun(100, func() { s = Key(vals) })
	if got > allocBudgetKey {
		t.Errorf("Key: %.2f allocs/op, budget %d", got, allocBudgetKey)
	}
	_ = s
}

func TestAllocsAppendKeySteadyState(t *testing.T) {
	skipIfRace(t)
	vals := []sqlval.Value{u(1), u(0xABCD), u(99)}
	buf := AppendKey(nil, vals) // warm the buffer to full size
	got := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], vals) })
	if got > allocBudgetAppendKeySteady {
		t.Errorf("AppendKey into warm buffer: %.2f allocs/op, budget %d",
			got, allocBudgetAppendKeySteady)
	}
}

func TestAllocsFilterProjectBatch(t *testing.T) {
	skipIfRace(t)
	r := res("time", "srcIP", "len")
	op := &FilterProject{
		Filter: MustCompile(gsql.MustParseExpr("len > 10"), r, nil),
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP & 0xFF00"), r, nil),
		},
		Out: Discard{},
	}
	const n = 64
	b := make(Batch, n)
	for i := range b {
		b[i] = Tuple{u(uint64(i)), u(0xABCD), u(uint64(5 + i))} // ~90% pass the filter
	}
	perBatch := testing.AllocsPerRun(100, func() {
		for _, t := range b {
			op.Push(t)
		}
	})
	if perTuple := perBatch / n; perTuple > allocBudgetFilterProjectPerTuple {
		t.Errorf("FilterProject.Push: %.4f allocs/tuple (%.2f per %d tuples), budget %.4f",
			perTuple, perBatch, n, allocBudgetFilterProjectPerTuple)
	}
}

func TestAllocsAggregateBatchSteadyState(t *testing.T) {
	skipIfRace(t)
	agg := buildFlowsAgg(Discard{})
	// 64 tuples spread over 16 groups, all in epoch 0.
	const n = 64
	b := make(Batch, n)
	for i := range b {
		b[i] = Tuple{u(uint64(i % 50)), u(uint64(i % 16)), u(2), u(100)}
	}
	push := func() {
		for _, t := range b {
			agg.Push(t)
		}
	}
	push() // create every group up front
	perBatch := testing.AllocsPerRun(100, push)
	if perTuple := perBatch / n; perTuple > allocBudgetAggregatePerTupleSteady {
		t.Errorf("Aggregate.Push steady state: %.4f allocs/tuple (%.1f per %d tuples), budget %.4f",
			perTuple, perBatch, n, allocBudgetAggregatePerTupleSteady)
	}
	if agg.GroupCount() != 16 {
		t.Fatalf("expected 16 groups, got %d", agg.GroupCount())
	}
}

// TestAllocsRowStoreEpochTurnover holds the row store's per-group cost
// as a tumbling window turns over: every pass creates 1024 groups in a
// fresh epoch and the next watermark retires them all. The
// four uint key columns encode to 36 bytes, past the 32 Go converts to
// a string without allocating, so emptying the map by per-key deletes
// would cost an object per group on top of the key string and the COUNT
// accumulator; emitBefore's pre-sized rebuild costs a few per epoch.
func TestAllocsRowStoreEpochTurnover(t *testing.T) {
	skipIfRace(t)
	const groups = 1024
	r := res("time", "srcIP", "destIP", "len")
	countFac, _ := NewAccumFactory("COUNT")
	agg := NewAggregate(AggregateConfig{
		GroupBy: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time / 60"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
			MustCompile(gsql.MustParseExpr("destIP"), r, nil),
			MustCompile(gsql.MustParseExpr("len"), r, nil),
		},
		EpochIdx:  0,
		EpochOfWM: func(wm uint64) sqlval.Value { return u(wm / 60) },
		Aggs:      []AggColumn{{Factory: countFac}},
		Out:       Discard{},
	})
	epoch := uint64(0)
	pass := func() {
		for i := 0; i < groups; i++ {
			agg.Push(Tuple{u(epoch*60 + uint64(i%60)), u(uint64(i)), u(uint64(i % 7)), u(100)})
		}
		epoch++
		agg.Advance(epoch * 60)
	}
	for i := 0; i < 4; i++ {
		pass() // reach the steady epoch size
	}
	perGroup := testing.AllocsPerRun(20, pass) / groups
	if perGroup > allocBudgetRowStoreTurnoverPerGroup {
		t.Errorf("row-store epoch turnover: %.4f allocs/group (%d groups an epoch), budget %.4f",
			perGroup, groups, allocBudgetRowStoreTurnoverPerGroup)
	}
	if agg.GroupCount() != 0 {
		t.Fatalf("%d groups left live after their epoch closed", agg.GroupCount())
	}
}

// bothLayouts runs f on joinTestConfig's inner same-epoch join (60
// watermark units per epoch) into a Discard, once per state layout.
func bothLayouts(t *testing.T, f func(t *testing.T, j *Join)) {
	cfg := joinTestConfig(t, gsql.JoinInner, false, Discard{})
	t.Run("words", func(t *testing.T) { f(t, NewJoin(cfg)) })
	t.Run("rows", func(t *testing.T) { f(t, NewJoin(rowLayout(cfg))) })
}

// joinEpochBatch is n rows of epoch tb with distinct keys and payload v.
func joinEpochBatch(tb uint64, n int, v sqlval.Value) Batch {
	b := make(Batch, n)
	for i := range b {
		b[i] = Tuple{u(tb), u(uint64(i)), v}
	}
	return b
}

func TestAllocsJoinAdvanceNoExpiry(t *testing.T) {
	skipIfRace(t)
	bothLayouts(t, func(t *testing.T, j *Join) {
		b := joinEpochBatch(0, 5000, u(7))
		PushAll(j.LeftIn(), b)
		PushAll(j.RightIn(), b)
		if j.StoredTuples() != 10000 {
			t.Fatalf("stored %d tuples, want 10000", j.StoredTuples())
		}
		wm := uint64(0)
		got := testing.AllocsPerRun(50, func() { // stays inside epoch 0
			wm++
			j.LeftIn().Advance(wm)
			j.RightIn().Advance(wm)
		})
		if got > allocBudgetJoinAdvanceNoExpiry {
			t.Errorf("Join.Advance expiring nothing over 10000 stored entries: %.2f allocs/op, budget %d",
				got, allocBudgetJoinAdvanceNoExpiry)
		}
		if j.StoredTuples() != 10000 {
			t.Fatalf("an advance inside the epoch evicted: %d stored", j.StoredTuples())
		}
	})
}

func TestAllocsJoinPaneExpiry(t *testing.T) {
	skipIfRace(t)
	bothLayouts(t, func(t *testing.T, j *Join) {
		const runs, n = 50, 256
		for tb := uint64(0); tb <= runs; tb++ { // AllocsPerRun adds a warm-up run
			b := joinEpochBatch(tb, n, u(7))
			PushAll(j.LeftIn(), b)
			PushAll(j.RightIn(), b)
		}
		epoch := uint64(0)
		perPane := testing.AllocsPerRun(runs, func() {
			epoch++
			j.LeftIn().Advance(epoch * 60) // drops epoch-1 on both sides
			j.RightIn().Advance(epoch * 60)
		})
		if perRow := perPane / (2 * n); perRow > allocBudgetJoinExpiryPerRow {
			t.Errorf("Join pane expiry: %.4f allocs/row (%.1f per %d expired rows), budget %.2f",
				perRow, perPane, 2*n, allocBudgetJoinExpiryPerRow)
		}
		if j.StoredTuples() != 0 {
			t.Fatalf("%d tuples left after every epoch expired", j.StoredTuples())
		}
	})
}

// TestAllocsJoinBuildProbe pins both layouts of one join configuration,
// key kernels compiled: uint rows stay words; an Int payload, which
// words cannot hold, migrates the join on its first batch and pins the
// row path it falls back to.
func TestAllocsJoinBuildProbe(t *testing.T) {
	skipIfRace(t)
	for _, c := range []struct {
		layout string
		v      sqlval.Value
		budget float64
	}{
		{"words", u(7), allocBudgetJoinPushPerRowWords},
		{"rows", sqlval.Int(7), allocBudgetJoinPushPerRowRows},
	} {
		t.Run(c.layout, func(t *testing.T) {
			const n = 256
			j := NewJoin(joinTestConfig(t, gsql.JoinInner, false, Discard{}))
			epoch := uint64(0)
			cycle := func() {
				b := joinEpochBatch(epoch, n, c.v)
				PushAll(j.LeftIn(), b)
				PushAll(j.RightIn(), b) // every row matches its left twin
				if got := joinLayout(j); got != c.layout {
					t.Fatalf("state is in %s, want %s", got, c.layout)
				}
				epoch++
				j.LeftIn().Advance(epoch * 60)
				j.RightIn().Advance(epoch * 60)
			}
			cycle() // size the panes the later epochs recycle
			perCycle := testing.AllocsPerRun(50, cycle)
			perCycle -= float64(n + 1) // joinEpochBatch: n tuples and the container
			perRow := perCycle / (2 * n)
			if perRow > c.budget {
				t.Errorf("Join build/probe: %.3f allocs/pushed row (%.1f per cycle of %d), budget %.2f",
					perRow, perCycle, 2*n, c.budget)
			}
			t.Logf("Join build/probe, %s layout: %.4f allocs/pushed row", c.layout, perRow)
		})
	}
}

// countCols counts what reaches it, by form, and keeps nothing.
type countCols struct{ colRows, rowRows int }

func (c *countCols) Push(Tuple)            { c.rowRows++ }
func (c *countCols) PushCols(cb *ColBatch) { c.colRows += cb.Len }
func (c *countCols) Advance(uint64)        {}
func (c *countCols) Flush()                {}

// TestAllocsJoinColumnEmit: with the residual and the projections
// compiled, a warm word-layout join — panes recycled, the gather batch
// and the FilterProject scratch sized by an earlier batch — takes a
// 256-row batch with 200 matches, half of which the residual drops,
// for no allocation at all: the matches leave as columns.
func TestAllocsJoinColumnEmit(t *testing.T) {
	skipIfRace(t)
	const n, matching = 256, 200
	var sink countCols
	cfg := joinTestConfig(t, gsql.JoinInner, false, &sink)
	comb := res("tb", "k", "v", "tb2", "k2", "v2")
	cfg.ColResidual = colPtr(mustCompileCol(t, "v <= v2", comb, nil))
	cfg.Projs = nil
	for _, src := range []string{"tb", "k", "v2 - v", "v2"} {
		ce := mustCompileCol(t, src, comb, nil)
		cfg.Projs, cfg.ColProjs = append(cfg.Projs, ce.Row), append(cfg.ColProjs, ce)
	}
	j := NewJoin(cfg)
	var left, right ColBatch
	l, r := make(Batch, n), make(Batch, n)
	for i := range l {
		k := uint64(i)
		l[i] = Tuple{u(0), u(k), u(10)}
		if i >= matching {
			k += 1000 // no left twin
		}
		r[i] = Tuple{u(0), u(k), u(uint64(9 + i%2))} // v2 is 9 or 10: every other pair passes
	}
	if !left.SetFromRows(l) || !right.SetFromRows(r) {
		t.Fatal("SetFromRows failed")
	}
	epoch := uint64(0)
	cycle := func() {
		for i := 0; i < n; i++ {
			left.Cols[0].U64[i], right.Cols[0].U64[i] = epoch, epoch
		}
		j.LeftIn().(*joinPort).PushCols(&left)
		j.RightIn().(*joinPort).PushCols(&right)
		epoch++
		j.LeftIn().Advance(epoch * 60)
		j.RightIn().Advance(epoch * 60)
	}
	cycle() // sizes the panes, gather and the kernel scratch
	sink = countCols{}
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("warm column-emitting join: %.2f allocs per cycle of %d pushed rows, want 0", got, 2*n)
	}
	if want := 51 * matching / 2; sink.colRows != want || sink.rowRows != 0 || j.rowEmits != 0 {
		t.Fatalf("%d rows arrived as columns and %d as rows (%d row emits); want %d and none", sink.colRows, sink.rowRows, j.rowEmits, want)
	}
}

// TestAllocsReport prints the measured values next to their budgets so
// a budget bump has numbers to cite; it never fails.
func TestAllocsReport(t *testing.T) {
	skipIfRace(t)
	vals := []sqlval.Value{u(1), u(0xABCD), u(99)}
	var s string
	key := testing.AllocsPerRun(100, func() { s = Key(vals) })
	_ = s
	buf := AppendKey(nil, vals)
	ak := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], vals) })
	t.Log(fmt.Sprintf("Key: %.2f allocs/op (budget %d); AppendKey steady: %.2f (budget %d)",
		key, allocBudgetKey, ak, allocBudgetAppendKeySteady))
}
