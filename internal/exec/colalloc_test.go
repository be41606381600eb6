package exec

import (
	"math/rand"
	"runtime"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// Committed allocation budgets for the columnar path, in allocations
// per operation as measured by testing.AllocsPerRun. The columnar
// contract is stricter than the row path's: compiled kernels own
// their scratch vectors and the dense aggregate store its arrays, so
// the steady state is exactly zero, not merely small.
const (
	// A compiled kernel over a warmed ColBatch refills private
	// scratch; nothing escapes.
	allocBudgetColKernelSteady = 0
	// SetFromRows into a warmed ColBatch reuses every column slice
	// and validity bitmap.
	allocBudgetColPivotSteady = 0
	// FilterProject.PushCols per input tuple: the selection vector,
	// projection scratch, and output ColBatch are all reused.
	allocBudgetFilterProjectColsPerTuple = 0.02
	// Aggregate.PushCols per input tuple in the dense steady state
	// (every group resident in the word store): key words hash into
	// the generation-tagged slot table and accumulators update in
	// place, so per-tuple allocations round to zero.
	allocBudgetAggregateColsPerTupleSteady = 0.02
	// Bytes a warm dense aggregate allocates per retired group when a
	// HAVING keeps 1% of a 50 k-group epoch: the emit columns and kernel
	// scratch are reused, and only kept rows ever become values (sized
	// for every retired group, as before, this is 256).
	allocBudgetAggregateEmitBytesPerGroup = 16
	// The column-batch wire codec moves payload words between a
	// caller-sized buffer and a warm batch: neither direction allocates.
	// (The row codec it replaces on the live feed path decodes every
	// field into a 32 B slab value: 256 B and 0.011 allocs a packet.)
	allocBudgetColWireSteady = 0
)

// colAllocBatch builds a warmed all-uint ColBatch over the 5-column
// schema with n rows in 16 groups.
func colAllocBatch(t *testing.T, n int) (*ColBatch, Batch) {
	t.Helper()
	rows := make(Batch, n)
	for i := range rows {
		rows[i] = Tuple{
			u(uint64(i % 50)),        // time
			u(uint64(i % 16)),        // srcIP
			u(2),                     // destIP
			u(uint64(i) & 0x3f),      // flags
			u(uint64(41 + (i % 11))), // len
		}
	}
	cb := &ColBatch{}
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	return cb, rows
}

func TestAllocsColKernelSteadyState(t *testing.T) {
	skipIfRace(t)
	cb, _ := colAllocBatch(t, 64)
	for _, src := range []string{
		"srcIP + len * 2",
		"flags & 0x26",
		"time / 60",
		"srcIP << len",
	} {
		ce := mustCompileCol(t, src, colTestResolver, nil)
		if ce.U == nil {
			t.Fatalf("%q: no uint kernel", src)
		}
		ce.U(cb) // warm the scratch vector
		got := testing.AllocsPerRun(100, func() { ce.U(cb) })
		if got > allocBudgetColKernelSteady {
			t.Errorf("uint kernel %q: %.2f allocs/op, budget %d", src, got, allocBudgetColKernelSteady)
		}
	}
	for _, src := range []string{
		"len > 45",
		"srcIP = 1 AND (destIP = 2 OR len < 43)",
		"NOT flags",
	} {
		ce := mustCompileCol(t, src, colTestResolver, nil)
		if ce.Truth == nil {
			t.Fatalf("%q: no truth kernel", src)
		}
		ce.Truth(cb)
		got := testing.AllocsPerRun(100, func() { ce.Truth(cb) })
		if got > allocBudgetColKernelSteady {
			t.Errorf("truth kernel %q: %.2f allocs/op, budget %d", src, got, allocBudgetColKernelSteady)
		}
	}
}

func TestAllocsColBatchPivotSteadyState(t *testing.T) {
	skipIfRace(t)
	cb, rows := colAllocBatch(t, 64)
	got := testing.AllocsPerRun(100, func() {
		if !cb.SetFromRows(rows) {
			t.Fatal("SetFromRows failed")
		}
	})
	if got > allocBudgetColPivotSteady {
		t.Errorf("SetFromRows into warm batch: %.2f allocs/op, budget %d", got, allocBudgetColPivotSteady)
	}
}

func TestAllocsColWireSteadyState(t *testing.T) {
	skipIfRace(t)
	cb, _ := colAllocBatch(t, 256)
	buf := make([]byte, 0, ColBatchWireSize(cb))
	got := testing.AllocsPerRun(100, func() { buf = AppendColBatchWire(buf[:0], cb) })
	if got > allocBudgetColWireSteady {
		t.Errorf("AppendColBatchWire into a sized buffer: %.2f allocs/op, budget %d", got, allocBudgetColWireSteady)
	}
	dec := GetColBatch()
	defer PutColBatch(dec)
	if err := DecodeColBatchWire(buf, dec); err != nil { // warm the batch
		t.Fatal(err)
	}
	got = testing.AllocsPerRun(100, func() {
		if err := DecodeColBatchWire(buf, dec); err != nil {
			t.Fatal(err)
		}
	})
	if got > allocBudgetColWireSteady {
		t.Errorf("DecodeColBatchWire into a warm batch: %.2f allocs/op, budget %d", got, allocBudgetColWireSteady)
	}
}

func TestAllocsFilterProjectPushCols(t *testing.T) {
	skipIfRace(t)
	r := colTestResolver
	op := &FilterProject{
		Filter:    MustCompile(gsql.MustParseExpr("len > 42"), r, nil),
		ColFilter: colPtr(mustCompileCol(t, "len > 42", r, nil)),
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP & 0xFF00"), r, nil),
		},
		ColProjs: []ColExpr{
			mustCompileCol(t, "time", r, nil),
			mustCompileCol(t, "srcIP & 0xFF00", r, nil),
		},
		Out: Discard{},
	}
	const n = 64
	cb, _ := colAllocBatch(t, n)
	op.PushCols(cb) // warm selection vector and output columns
	perBatch := testing.AllocsPerRun(100, func() { op.PushCols(cb) })
	if perTuple := perBatch / n; perTuple > allocBudgetFilterProjectColsPerTuple {
		t.Errorf("FilterProject.PushCols: %.3f allocs/tuple (%.1f per %d-tuple batch), budget %.3f",
			perTuple, perBatch, n, allocBudgetFilterProjectColsPerTuple)
	}
}

func TestAllocsAggregatePushColsSteadyState(t *testing.T) {
	skipIfRace(t)
	r := colTestResolver
	agg := NewAggregate(AggregateConfig{
		PreFilter:    MustCompile(gsql.MustParseExpr("len > 40"), r, nil),
		ColPreFilter: colPtr(mustCompileCol(t, "len > 40", r, nil)),
		GroupBy: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
		},
		ColGroupBy: []ColExpr{
			mustCompileCol(t, "time", r, nil),
			mustCompileCol(t, "srcIP", r, nil),
		},
		EpochIdx:  0,
		EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm / 16) },
		Aggs: []AggColumn{
			{Factory: mustFactory(t, "COUNT")},
			{Factory: mustFactory(t, "SUM"), Arg: MustCompile(gsql.MustParseExpr("len"), r, nil)},
		},
		ColArgs: []*ColExpr{
			nil,
			colPtr(mustCompileCol(t, "len", r, nil)),
		},
		Out: Discard{},
	})
	const n = 64
	cb, _ := colAllocBatch(t, n)
	agg.PushCols(cb) // create every dense group up front
	if agg.denseN == 0 {
		t.Fatal("dense columnar store did not engage; this test must measure the dense path")
	}
	perBatch := testing.AllocsPerRun(100, func() { agg.PushCols(cb) })
	if perTuple := perBatch / n; perTuple > allocBudgetAggregateColsPerTupleSteady {
		t.Errorf("Aggregate.PushCols dense steady state: %.4f allocs/tuple (%.1f per %d-tuple batch), budget %.4f",
			perTuple, perBatch, n, allocBudgetAggregateColsPerTupleSteady)
	}
	if agg.GroupCount() == 0 {
		t.Fatal("no groups formed")
	}
}

// TestAllocsAggregateSortedInputBuildsNoTable: an aggregate fed in
// (epoch, key) order — a super-aggregate behind one sub-aggregate —
// appends its groups without a word table and never allocates one, and
// a warm epoch of it (push, then retire) allocates nothing. The same
// rows shuffled build the table at the first backward row.
func TestAllocsAggregateSortedInputBuildsNoTable(t *testing.T) {
	skipIfRace(t)
	const groups = 4096
	rows := make(Batch, groups)
	for i := range rows {
		rows[i] = Tuple{u(0), u(uint64(i / 4)), u(uint64(i % 4)), u(1), u(uint64(40 + i%7))}
	}
	for _, shuffled := range []bool{false, true} {
		if shuffled {
			rand.New(rand.NewSource(3)).Shuffle(groups, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		var sink countCols
		agg := denseTestAgg(t, &sink, "", nil, true, nil)
		var cb ColBatch
		if !cb.SetFromRows(rows) {
			t.Fatal("SetFromRows failed")
		}
		e := uint64(0)
		epoch := func() {
			for i := range cb.Cols[0].U64 {
				cb.Cols[0].U64[i] = e
			}
			agg.PushCols(&cb)
			e++
			agg.Advance(16 * e)
		}
		epoch() // warm: dense arrays, emit columns
		perEpoch := testing.AllocsPerRun(20, epoch)
		if sink.colRows != int(e)*groups || sink.rowRows != 0 {
			t.Fatalf("shuffled %v: %d column rows and %d rows emitted over %d epochs of %d groups", shuffled, sink.colRows, sink.rowRows, e, groups)
		}
		if filed := agg.colTab.slots != nil; filed != shuffled {
			t.Errorf("shuffled %v: word table built = %v (%d slots)", shuffled, filed, len(agg.colTab.slots))
		}
		if perEpoch != 0 {
			t.Errorf("shuffled %v: a warm %d-group epoch allocates %.1f objects, want 0", shuffled, groups, perEpoch)
		}
	}
}

// TestAllocsAggregateEmitSelectiveHaving: retiring an epoch costs what
// HAVING keeps, not what the epoch held — on the kernel emit and on the
// row branch a nil kernel falls back to (the form the benchmark's
// aggregate probe builds) alike.
func TestAllocsAggregateEmitSelectiveHaving(t *testing.T) {
	skipIfRace(t)
	const groups = 50000
	rows := make(Batch, groups)
	for kernel := 0; kernel < 2; kernel++ {
		var calls, kept int
		// cnt is 1 for every group and bytes is the row's len: 1% pass.
		agg := denseTestAgg(t, Discard{}, "bytes = 7", nil, kernel == 1, func(_ uint64, _, r int) { calls, kept = calls+1, r })
		var cb ColBatch
		epoch := func(e uint64) uint64 {
			for i := range rows {
				rows[i] = Tuple{u(e), u(uint64(i)), u(1), u(2), u(uint64(i % 100))}
			}
			if !cb.SetFromRows(rows) {
				t.Fatal("SetFromRows failed")
			}
			agg.PushCols(&cb)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			agg.Advance(16 * (e + 1))
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		epoch(0) // warm: tables, dense arrays, emit columns, kernel scratch
		got := float64(epoch(1)) / groups
		if calls != 2 || kept != groups/100 || (agg.kernelEmits > 0) != (kernel == 1) {
			t.Fatalf("kernel %d: %d emissions, %d rows kept, %d kernel emits", kernel, calls, kept, agg.kernelEmits)
		}
		if got > allocBudgetAggregateEmitBytesPerGroup {
			t.Errorf("kernel %d: emit allocates %.1f B/group, budget %d", kernel, got, allocBudgetAggregateEmitBytesPerGroup)
		}
		t.Logf("kernel %d: emit allocates %.2f B/group", kernel, got)
	}
}
