package exec

import (
	"fmt"
	"math"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// sameValue compares two values exactly — kind and payload bits —
// which is stricter than Equal (NaN payloads, kind distinctions).
func sameValue(a, b sqlval.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case sqlval.KindNull:
		return true
	case sqlval.KindString:
		as, _ := a.AsString()
		bs, _ := b.AsString()
		return as == bs
	case sqlval.KindFloat:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	default:
		au, _ := a.AsUint()
		bu, _ := b.AsUint()
		return au == bu
	}
}

func TestColBatchPivotRoundTrip(t *testing.T) {
	rows := Batch{
		{sqlval.Uint(1), sqlval.Int(-7), sqlval.Float(2.5), sqlval.Bool(true), sqlval.Str("a"), sqlval.Null, sqlval.Uint(3)},
		{sqlval.Uint(math.MaxUint64), sqlval.Int(9), sqlval.Float(math.NaN()), sqlval.Bool(false), sqlval.Str(""), sqlval.Null, sqlval.Int(-2)},
		{sqlval.Uint(0), sqlval.Null, sqlval.Null, sqlval.Null, sqlval.Null, sqlval.Null, sqlval.Null},
	}
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows rejected representable rows")
	}
	if cb.Len != len(rows) {
		t.Fatalf("Len = %d, want %d", cb.Len, len(rows))
	}
	if len(cb.Cols[6].Int) == 0 || len(cb.Cols[1].Valid) == 0 {
		t.Fatal("sample lost its Int or validity bitmap")
	}
	checkWireSize(t, &cb)
	back := cb.AppendRows(nil)
	if len(back) != len(rows) {
		t.Fatalf("pivoted %d rows, want %d", len(back), len(rows))
	}
	for r := range rows {
		for c := range rows[r] {
			if !sameValue(rows[r][c], back[r][c]) {
				t.Errorf("row %d col %d: %v != %v", r, c, rows[r][c], back[r][c])
			}
		}
	}
}

// checkWireSize asserts the column-wise wire size equals the sum of the
// pivoted rows' wire sizes.
func checkWireSize(t *testing.T, cb *ColBatch) {
	t.Helper()
	want := 0
	for _, row := range cb.AppendRows(nil) {
		want += row.WireSize()
	}
	if got := cb.WireSize(); got != want {
		t.Fatalf("WireSize = %d, want %d (sum over the rows)", got, want)
	}
}

func TestColBatchRejectsMixedKinds(t *testing.T) {
	var cb ColBatch
	if cb.SetFromRows(Batch{{sqlval.Uint(1)}, {sqlval.Str("x")}}) {
		t.Error("mixed uint/string column accepted")
	}
	if cb.SetFromRows(Batch{{sqlval.Uint(1)}, {sqlval.Uint(2), sqlval.Uint(3)}}) {
		t.Error("ragged rows accepted")
	}
}

func TestColBatchAllUint(t *testing.T) {
	var cb ColBatch
	if !cb.SetFromRows(Batch{{sqlval.Uint(1)}, {sqlval.Uint(2)}}) || !cb.AllUint() {
		t.Error("all-uint batch not detected")
	}
	if !cb.SetFromRows(Batch{{sqlval.Uint(1)}, {sqlval.Null}}) {
		t.Fatal("nullable uint column rejected")
	}
	if cb.AllUint() {
		t.Error("column with NULLs reported AllUint")
	}
}

func TestColBatchSlice(t *testing.T) {
	var cb ColBatch
	rows := Batch{}
	for i := 0; i < 10; i++ {
		rows = append(rows, Tuple{sqlval.Uint(uint64(i)), sqlval.Uint(uint64(i * i))})
	}
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	var view ColBatch
	cb.Slice(3, 7, &view)
	if view.Len != 4 {
		t.Fatalf("view.Len = %d", view.Len)
	}
	for i := 0; i < 4; i++ {
		if !sameValue(view.Cols[0].Value(i), sqlval.Uint(uint64(3+i))) {
			t.Errorf("view row %d = %v", i, view.Cols[0].Value(i))
		}
	}
}

// TestColBatchCopyFrom: the copy equals its source on every kind and
// NULL pattern and shares nothing with it, a cold copy costs the column
// headers and one slab, and a batch that has held a copy of the same
// shape takes the next one without allocating — also when it comes back
// from the pool.
func TestColBatchCopyFrom(t *testing.T) {
	src := colWireSample(t)
	want := src.AppendRows(nil)
	cp := new(ColBatch)
	cp.CopyFrom(src)
	for c := range src.Cols { // scribble over the source: the copy must not move
		for i := range src.Cols[c].U64 {
			src.Cols[c].U64[i] = ^uint64(0)
		}
		for i := range src.Cols[c].Valid {
			src.Cols[c].Valid[i] ^= ^uint64(0)
		}
		for i := range src.Cols[c].Str {
			src.Cols[c].Str[i] = "gone"
		}
	}
	diffBatches(t, "copy after the source changed", want, cp.AppendRows(nil))

	var packets ColBatch
	packets.SetFromRows(fuzzUintRows(3, 256))
	if got := testing.AllocsPerRun(20, func() { new(ColBatch).CopyFrom(&packets) }); got > 3 {
		t.Errorf("a cold copy costs %.0f objects, want the batch, its headers and one slab", got)
	}
	warm := GetColBatch()
	warm.CopyFrom(&packets)
	PutColBatch(warm)
	if got := testing.AllocsPerRun(20, func() {
		cb := GetColBatch()
		cb.CopyFrom(&packets)
		PutColBatch(cb)
	}); got > 0.5 && !raceEnabled { // the race detector's pool drops entries at random
		t.Errorf("a warm copy costs %.1f objects, want none", got)
	}
	// A shorter source into a longer batch: lengths follow the source.
	var short ColBatch
	short.SetFromRows(fuzzUintRows(4, 5))
	cp.CopyFrom(&short)
	diffBatches(t, "shorter copy", short.AppendRows(nil), cp.AppendRows(nil))
}

// colTestRows builds an all-uint batch over (time, srcIP, destIP,
// flags, len) with enough key collisions to exercise grouping.
func colTestRows(n int) Batch {
	b := make(Batch, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, Tuple{
			sqlval.Uint(uint64(i / 16)),        // time
			sqlval.Uint(uint64(i % 7)),         // srcIP
			sqlval.Uint(uint64(i % 3)),         // destIP
			sqlval.Uint(uint64(i) & 0x3f),      // flags
			sqlval.Uint(uint64(40 + (i % 11))), // len
		})
	}
	return b
}

var colTestResolver = ColsResolver("", []string{"time", "srcIP", "destIP", "flags", "len"})

func mustCompileCol(t *testing.T, src string, r Resolver, params Params) ColExpr {
	t.Helper()
	ce, err := CompileCol(gsql.MustParseExpr(src), r, params)
	if err != nil {
		t.Fatalf("CompileCol(%q): %v", src, err)
	}
	return ce
}

// TestCompileColKernelMatchesRow drives every whitelisted kernel shape
// over an all-uint batch and checks the vector result against the row
// closure, value for value and kind for kind.
func TestCompileColKernelMatchesRow(t *testing.T) {
	rows := colTestRows(97)
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	params := Params{"P": sqlval.Uint(0x26)}
	uintExprs := []string{
		"srcIP",
		"time / 60",
		"time % 7",
		"len * 3 + 1",
		"flags & 0x26",
		"flags | 16",
		"flags ^ srcIP",
		"srcIP << 2",
		"len >> 1",
		"srcIP << len",
		"~flags",
		"ABS(len)",
		"#P#",
		"2 + 3 * 4",
		"100 / 10 % 7",
	}
	for _, src := range uintExprs {
		ce := mustCompileCol(t, src, colTestResolver, params)
		if ce.U == nil {
			t.Errorf("%q: no uint kernel", src)
			continue
		}
		v := ce.U(&cb)
		for i, row := range rows {
			want := ce.Row(row)
			if !sameValue(want, sqlval.Uint(v[i])) {
				t.Fatalf("%q row %d: kernel %d, row eval %v", src, i, v[i], want)
			}
		}
	}
	truthExprs := []string{
		"srcIP = destIP",
		"srcIP != destIP",
		"srcIP < destIP",
		"srcIP <= destIP",
		"len > 45",
		"len >= 45",
		"flags & 0x26 = 0x26",
		"srcIP = 1 AND len > 44",
		"srcIP = 1 OR destIP = 2",
		"NOT (srcIP = 1)",
		"NOT flags",
		"flags", // truthiness of a uint expression
		"srcIP = 1 AND (destIP = 2 OR len < 43)",
	}
	for _, src := range truthExprs {
		ce := mustCompileCol(t, src, colTestResolver, params)
		if ce.Truth == nil {
			t.Errorf("%q: no truth kernel", src)
			continue
		}
		v := ce.Truth(&cb)
		for i, row := range rows {
			want := ce.Row(row).AsBool()
			if (v[i] != 0) != want {
				t.Fatalf("%q row %d: kernel %d, row eval %v", src, i, v[i], want)
			}
		}
	}
}

// TestCompileColUnsupportedFallsBack pins the shapes that must NOT get
// kernels: their value kind leaves uint (or goes NULL) at runtime in a
// way no kernel carries. A subtraction is not one of them where its Int
// rows can go — the root, a comparison, truthiness — and is one
// anywhere else.
func TestCompileColUnsupportedFallsBack(t *testing.T) {
	for _, src := range []string{
		"-srcIP",      // Neg yields Int
		"len / srcIP", // runtime zero divisor yields NULL
		"len % srcIP",
		"len / 0", // constant zero divisor
		"1.5 * len",
		"SQRT(len)",
		"'x'",
		"3 - 5",              // folds to an Int
		"(srcIP - 1.5) * 2",  // a float inside
		"len / (srcIP - 1)",  // non-constant divisor, subtraction or not
		"-(srcIP - destIP)",  // unary minus over a kernel
		"SQRT(srcIP - len)",  // no kernel above it
		"srcIP - SQRT(len)",  // no kernel below it
		"(3 - 5) + srcIP",    // a folded Int operand
		"srcIP - #F#",        // float parameter
		"len % (5 - 5)",      // folds to a zero divisor
		"ABS(-len) - srcIP",  // unary minus below
		"NOT (1.5 - srcIP)",  // float subtraction
		"destIP - (len / 0)", // NULL operand
		// A may-be-Int operand under anything but a comparison or truthiness.
		"(srcIP - destIP) / 2",
		"(srcIP - destIP) * len",
		"(srcIP - destIP) + 1",
		"~(srcIP - destIP)",
		"ABS(srcIP - len)",
		"len - (srcIP - destIP)",
	} {
		ce := mustCompileCol(t, src, colTestResolver, Params{"F": sqlval.Float(1.5)})
		if ce.U != nil || ce.Truth != nil {
			t.Errorf("%q: unexpectedly has a kernel", src)
		}
	}
	// Param of non-uint kind must not fold as a uint constant.
	ce := mustCompileCol(t, "#F#", colTestResolver, Params{"F": sqlval.Float(1.5)})
	if ce.U != nil {
		t.Error("float param folded into uint kernel")
	}
	for _, src := range []string{"srcIP - destIP", "len - 5", "5 - len"} {
		if ce := mustCompileCol(t, src, colTestResolver, nil); ce.U == nil || ce.Truth == nil || ce.Const != nil || ce.ints == nil {
			t.Errorf("%q: want may-be-Int uint and truth kernels and no constant", src)
		}
	}
	for _, src := range []string{"(srcIP - destIP) > len", "NOT (srcIP - destIP)", "srcIP - destIP = len - flags AND flags"} {
		if ce := mustCompileCol(t, src, colTestResolver, nil); ce.Truth == nil {
			t.Errorf("%q: want a truth kernel", src)
		}
	}
	if ce := mustCompileCol(t, "5 - 3", colTestResolver, nil); ce.Const == nil || *ce.Const != 2 {
		t.Error("5 - 3 did not fold to the constant 2")
	}
}

// runAggBoth drives the same input through a row-path and a
// columnar-path aggregate, interleaving watermarks, and returns the
// two collected outputs.
func runAggBoth(t *testing.T, rows Batch, batch int) (scalar, columnar Batch, lateS, lateC int64) {
	t.Helper()
	build := func(out Consumer, columnar bool) *Aggregate {
		cfg := AggregateConfig{
			PreFilter: MustCompile(gsql.MustParseExpr("len > 40"), colTestResolver, nil),
			GroupBy: []EvalFunc{
				MustCompile(gsql.MustParseExpr("time"), colTestResolver, nil),
				MustCompile(gsql.MustParseExpr("srcIP"), colTestResolver, nil),
				MustCompile(gsql.MustParseExpr("destIP"), colTestResolver, nil),
			},
			EpochIdx:  0,
			EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm / 16) },
			Aggs: []AggColumn{
				{Factory: mustFactory(t, "COUNT")},
				{Factory: mustFactory(t, "OR_AGGR"), Arg: MustCompile(gsql.MustParseExpr("flags"), colTestResolver, nil)},
				{Factory: mustFactory(t, "SUM"), Arg: MustCompile(gsql.MustParseExpr("len"), colTestResolver, nil)},
			},
			Having: MustCompile(gsql.MustParseExpr("cnt >= 1"), ColsResolver("", []string{"tb", "s", "d", "cnt", "orf", "bytes"}), nil),
			Out:    out,
		}
		if columnar {
			cfg.ColPreFilter = colPtr(mustCompileCol(t, "len > 40", colTestResolver, nil))
			cfg.ColGroupBy = []ColExpr{
				mustCompileCol(t, "time", colTestResolver, nil),
				mustCompileCol(t, "srcIP", colTestResolver, nil),
				mustCompileCol(t, "destIP", colTestResolver, nil),
			}
			cfg.ColArgs = []*ColExpr{
				nil,
				colPtr(mustCompileCol(t, "flags", colTestResolver, nil)),
				colPtr(mustCompileCol(t, "len", colTestResolver, nil)),
			}
		}
		return NewAggregate(cfg)
	}
	var outS, outC Collector
	aggS := build(&outS, false)
	aggC := build(&outC, true)
	var cb ColBatch
	for off := 0; off < len(rows); off += batch {
		end := off + batch
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[off:end]
		PushAll(aggS, chunk)
		if !cb.SetFromRows(chunk) {
			t.Fatal("SetFromRows failed")
		}
		aggC.PushCols(&cb)
		wm := uint64(off)
		aggS.Advance(wm)
		aggC.Advance(wm)
	}
	aggS.Flush()
	aggC.Flush()
	return outS.Rows, outC.Rows, aggS.Late, aggC.Late
}

func colPtr(ce ColExpr) *ColExpr { return &ce }

func mustFactory(t *testing.T, name string) AccumFactory {
	t.Helper()
	f, err := NewAccumFactory(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAggregatePushColsMatchesPush(t *testing.T) {
	rows := colTestRows(500)
	// Shuffle some rows backwards in time so the late path fires.
	rows[490], rows[10] = rows[10], rows[490]
	rows[491], rows[11] = rows[11], rows[491]
	for _, batch := range []int{1, 7, 64, 500} {
		scalar, columnar, lateS, lateC := runAggBoth(t, rows, batch)
		if lateS != lateC {
			t.Fatalf("batch %d: Late %d (scalar) != %d (columnar)", batch, lateS, lateC)
		}
		diffBatches(t, fmt.Sprintf("agg batch %d", batch), scalar, columnar)
	}
}

func diffBatches(t *testing.T, label string, a, b Batch) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for c := range a[i] {
			if !sameValue(a[i][c], b[i][c]) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, c, a[i][c], b[i][c])
			}
		}
	}
}

// TestAggregateColumnarScalarInterleave drives the SAME aggregate with
// alternating Push and PushCols and checks it against a pure
// row-path oracle: the slot cache must stay coherent with groups the
// row path creates and with epoch drains in between.
func TestAggregateColumnarScalarInterleave(t *testing.T) {
	rows := colTestRows(512)
	build := func(out Consumer) *Aggregate {
		return NewAggregate(AggregateConfig{
			GroupBy: []EvalFunc{
				MustCompile(gsql.MustParseExpr("time"), colTestResolver, nil),
				MustCompile(gsql.MustParseExpr("srcIP"), colTestResolver, nil),
			},
			ColGroupBy: []ColExpr{
				mustCompileCol(t, "time", colTestResolver, nil),
				mustCompileCol(t, "srcIP", colTestResolver, nil),
			},
			EpochIdx:  0,
			EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm / 16) },
			Aggs:      []AggColumn{{Factory: mustFactory(t, "COUNT")}},
			Out:       out,
		})
	}
	var outMix, outRow Collector
	mix := build(&outMix)
	oracle := build(&outRow)
	var cb ColBatch
	for off := 0; off < len(rows); off += 32 {
		chunk := rows[off : off+32]
		if (off/32)%2 == 0 {
			if !cb.SetFromRows(chunk) {
				t.Fatal("SetFromRows failed")
			}
			mix.PushCols(&cb)
		} else {
			PushAll(mix, chunk)
		}
		PushAll(oracle, chunk)
		mix.Advance(uint64(off))
		oracle.Advance(uint64(off))
	}
	mix.Flush()
	oracle.Flush()
	diffBatches(t, "interleave", outRow.Rows, outMix.Rows)
}

func TestFilterProjectPushColsMatchesPush(t *testing.T) {
	rows := colTestRows(300)
	cases := []struct {
		name   string
		filter string
		projs  []string
	}{
		{"passthrough", "", nil},
		{"filter-only", "flags & 0x20 = 0x20 AND len > 42", nil},
		{"filter-none-pass", "srcIP > 100", nil},
		{"filter-all-pass", "len > 0", nil},
		{"projs-only", "", []string{"time / 60", "srcIP", "len * 2"}},
		{"filter-and-projs", "destIP = 1", []string{"srcIP", "flags | 1"}},
		{"subtraction's truthiness", "srcIP - destIP", nil},
	}
	for _, tc := range cases {
		var outS, outC Collector
		mk := func(out Consumer, columnar bool) *FilterProject {
			fp := &FilterProject{Out: out}
			if tc.filter != "" {
				fp.Filter = MustCompile(gsql.MustParseExpr(tc.filter), colTestResolver, nil)
				if columnar {
					fp.ColFilter = colPtr(mustCompileCol(t, tc.filter, colTestResolver, nil))
				}
			}
			for _, p := range tc.projs {
				fp.Projs = append(fp.Projs, MustCompile(gsql.MustParseExpr(p), colTestResolver, nil))
				if columnar {
					fp.ColProjs = append(fp.ColProjs, mustCompileCol(t, p, colTestResolver, nil))
				}
			}
			return fp
		}
		fpS := mk(&outS, false)
		fpC := mk(&outC, true)
		var cb ColBatch
		for off := 0; off < len(rows); off += 64 {
			end := off + 64
			if end > len(rows) {
				end = len(rows)
			}
			PushAll(fpS, rows[off:end])
			if !cb.SetFromRows(rows[off:end]) {
				t.Fatal("SetFromRows failed")
			}
			fpC.PushCols(&cb)
		}
		diffBatches(t, tc.name, outS.Rows, outC.Rows)
	}
}

func TestJoinPushColsMatchesPush(t *testing.T) {
	r := ColsResolver("", []string{"time", "srcIP", "destIP", "flags", "len"})
	jr := ColsResolver("", []string{"lt", "ls", "ld", "lf", "ll", "rt", "rs", "rd", "rf", "rl"})
	left := colTestRows(200)
	right := colTestRows(200)
	mk := func(out Consumer, columnar bool) *Join {
		keys := func() []EvalFunc {
			return []EvalFunc{
				MustCompile(gsql.MustParseExpr("time"), r, nil),
				MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
			}
		}
		colKeys := func() []ColExpr {
			return []ColExpr{
				mustCompileCol(t, "time", r, nil),
				mustCompileCol(t, "srcIP", r, nil),
			}
		}
		cfg := JoinConfig{
			Left:     JoinSideConfig{Keys: keys(), Width: 5, TemporalIdx: 0},
			Right:    JoinSideConfig{Keys: keys(), Width: 5, TemporalIdx: 0},
			Residual: MustCompile(gsql.MustParseExpr("ll <= rl"), jr, nil),
			Projs: []EvalFunc{
				MustCompile(gsql.MustParseExpr("lt"), jr, nil),
				MustCompile(gsql.MustParseExpr("ls"), jr, nil),
				MustCompile(gsql.MustParseExpr("ll + rl"), jr, nil),
			},
			Out: out,
		}
		if columnar {
			cfg.Left.ColKeys = colKeys()
			cfg.Right.ColKeys = colKeys()
		}
		return NewJoin(cfg)
	}
	var outS, outC Collector
	jS := mk(&outS, false)
	jC := mk(&outC, true)
	var cbL, cbR ColBatch
	for off := 0; off < len(left); off += 50 {
		PushAll(jS.LeftIn(), left[off:off+50])
		PushAll(jS.RightIn(), right[off:off+50])
		if !cbL.SetFromRows(left[off:off+50]) || !cbR.SetFromRows(right[off:off+50]) {
			t.Fatal("SetFromRows failed")
		}
		jC.LeftIn().(*joinPort).PushCols(&cbL)
		jC.RightIn().(*joinPort).PushCols(&cbR)
	}
	jS.LeftIn().Flush()
	jS.RightIn().Flush()
	jC.LeftIn().Flush()
	jC.RightIn().Flush()
	diffBatches(t, "join", outS.Rows, outC.Rows)
}

// rowOnlyConsumer deliberately implements only Consumer, to exercise
// the PushColsAll pivot fallback.
type rowOnlyConsumer struct{ rows Batch }

func (c *rowOnlyConsumer) Push(t Tuple)   { c.rows = append(c.rows, t) }
func (c *rowOnlyConsumer) Advance(uint64) {}
func (c *rowOnlyConsumer) Flush()         {}

// TestPushColsAllPivots checks the generic fallback delivers pivoted
// rows to a plain consumer and drops empty batches.
func TestPushColsAllPivots(t *testing.T) {
	var out rowOnlyConsumer
	var cb ColBatch
	if !cb.SetFromRows(colTestRows(10)) {
		t.Fatal("SetFromRows failed")
	}
	PushColsAll(&out, &cb)
	diffBatches(t, "pivot fallback", colTestRows(10), out.rows)
	cb.Reset()
	PushColsAll(&out, &cb)
	if len(out.rows) != 10 {
		t.Error("empty batch was not dropped")
	}
}

// teeOut records how a Tee delivered to it; rowOut hides PushCols, as a
// consumer with no column path would.
type teeOut struct {
	Discard
	cols []*ColBatch
	rows Batch
}

func (o *teeOut) PushCols(cb *ColBatch) { o.cols = append(o.cols, cb) }
func (o *teeOut) Push(t Tuple)          { o.rows = append(o.rows, t) }

type rowOut struct{ *teeOut }

func (rowOut) PushCols() {}

// TestTeeForwardsUintColumns: an all-uint batch reaches every column
// consumer as the batch itself — no pivot, no allocation — while the
// consumers that need rows, which for a batch with a NULL is all of
// them, share one pivot's backing rows.
func TestTeeForwardsUintColumns(t *testing.T) {
	var uints, nulls ColBatch
	if !uints.SetFromRows(Batch{{u(1), u(2)}, {u(3), u(4)}}) || !nulls.SetFromRows(Batch{{u(1), sqlval.Null}, {u(3), u(4)}}) {
		t.Fatal("SetFromRows failed")
	}
	sameRows := func(when string, outs ...*teeOut) {
		t.Helper()
		for _, o := range outs {
			if len(o.cols) != 0 || len(o.rows) != 2 {
				t.Fatalf("%s: an out saw %d column deliveries and %d rows, want the 2 rows", when, len(o.cols), len(o.rows))
			}
			if &o.rows[0][0] != &outs[0].rows[0][0] {
				t.Fatalf("%s: outs received different backing rows: the batch was pivoted twice", when)
			}
		}
	}

	a, b, c := &teeOut{}, &teeOut{}, &teeOut{}
	tee := &Tee{Outs: []Consumer{a, b, c}}
	tee.PushCols(&uints)
	for i, o := range []*teeOut{a, b, c} {
		if len(o.rows) != 0 || len(o.cols) != 1 || o.cols[0] != &uints {
			t.Fatalf("all-uint batch: out %d saw %d rows and columns %v, want the batch itself once", i, len(o.rows), o.cols)
		}
	}
	*a, *b, *c = teeOut{}, teeOut{}, teeOut{}
	tee.PushCols(&nulls)
	sameRows("batch with a NULL", a, b, c)

	// Two row-only outs beside a column out: one pivot between them.
	*a, *b, *c = teeOut{}, teeOut{}, teeOut{}
	(&Tee{Outs: []Consumer{rowOut{a}, b, rowOut{c}}}).PushCols(&uints)
	if len(b.cols) != 1 || len(b.rows) != 0 {
		t.Fatalf("the column out beside row-only outs saw %d column deliveries and %d rows", len(b.cols), len(b.rows))
	}
	sameRows("row-only outs", a, c)

	if !raceEnabled {
		quiet := &Tee{Outs: []Consumer{Discard{}, Discard{}, Discard{}}}
		if got := testing.AllocsPerRun(100, func() { quiet.PushCols(&uints) }); got != 0 {
			t.Errorf("forwarding an all-uint batch: %.1f allocs/op, want 0", got)
		}
	}
}
