package exec

import (
	"reflect"
	"testing"

	"qap/internal/sqlval"
)

// colSpy counts the rows that reach it by form and collects them all.
type colSpy struct {
	Collector
	colRows, rowRows int
}

func (s *colSpy) Push(t Tuple) { s.rowRows++; s.Collector.Push(t) }
func (s *colSpy) PushCols(cb *ColBatch) {
	s.colRows += cb.Len
	s.Collector.PushCols(cb)
}

// prunedFeed is rows as the splitter feeds them under read mask mask:
// the columns outside it pruned, in a chunk window as deliverCols slices
// a group — and the rows an operator reading only mask's columns sees
// the same, those columns NULL.
func prunedFeed(t *testing.T, rows Batch, mask uint64) (*ColBatch, Batch) {
	t.Helper()
	var full, view ColBatch
	if !full.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	nulled := make(Batch, len(rows))
	for i, r := range rows {
		nulled[i] = append(Tuple(nil), r...)
	}
	for c := range full.Cols {
		if mask&colBit(c) == 0 {
			full.Cols[c] = ColVec{Kind: sqlval.KindNull}
			for _, r := range nulled {
				r[c] = sqlval.Null
			}
		}
	}
	full.Slice(0, full.Len, &view)
	return &view, nulled
}

// TestKernelOnPrunedColumnFails: a pruned column holds no payload, so a
// kernel that reached one would fail on the spot rather than read stale
// words; every column-path gate that covers the column turns it away.
func TestKernelOnPrunedColumnFails(t *testing.T) {
	cb, _ := prunedFeed(t, colTestRows(64), colBit(0)|colBit(2))
	if cb.plainWords(colBit(1)) || cb.uintWords(colBit(1)) || !cb.plainWords(colBit(0)|colBit(2)) {
		t.Fatal("the gates do not tell the pruned srcIP from the filled time and destIP")
	}
	if got := cb.filled(); got&0b11111 != colBit(0)|colBit(2) {
		t.Fatalf("filled = %05b, want time and destIP", got&0b11111)
	}
	k := mustCompileCol(t, "srcIP + 1", colTestResolver, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a kernel read the pruned srcIP without failing")
		}
	}()
	k.U(cb)
}

// TestPrunedFeedStaysOnColumns: a batch whose unread columns are pruned
// stays on every operator's column path — a filter and projection, a
// filter that forwards its input, a dense aggregate, and a Tee in front
// of them — and each emits what it emits for the full rows, but for the
// NULLs a forwarded pruned column holds. An operator that reads a pruned
// column takes the row path and sees NULL there, as the row oracle does.
func TestPrunedFeedStaysOnColumns(t *testing.T) {
	rows := colTestRows(256)
	const mask = 1<<0 | 1<<1 | 1<<2 | 1<<4 // time, srcIP, destIP, len: flags pruned
	cb, nulled := prunedFeed(t, rows, mask)
	if InputReads(&FilterProject{Filter: mustCompileCol(t, "flags", colTestResolver, nil).Row}) != allCols {
		t.Fatal("a filter without its column form names a read set")
	}

	selProj := func(out Consumer) *FilterProject {
		f, p0, p1 := mustCompileCol(t, "srcIP > 2", colTestResolver, nil), mustCompileCol(t, "time", colTestResolver, nil), mustCompileCol(t, "len * 2", colTestResolver, nil)
		return &FilterProject{Filter: f.Row, ColFilter: &f, Projs: []EvalFunc{p0.Row, p1.Row}, ColProjs: []ColExpr{p0, p1}, Out: out}
	}
	filter := func(src string, out Consumer) *FilterProject {
		f := mustCompileCol(t, src, colTestResolver, nil)
		return &FilterProject{Filter: f.Row, ColFilter: &f, Out: out}
	}
	agg := func(out Consumer) *Aggregate {
		g0, g1, a := mustCompileCol(t, "time", colTestResolver, nil), mustCompileCol(t, "srcIP", colTestResolver, nil), mustCompileCol(t, "len", colTestResolver, nil)
		return NewAggregate(AggregateConfig{
			GroupBy: []EvalFunc{g0.Row, g1.Row}, ColGroupBy: []ColExpr{g0, g1}, EpochIdx: 0,
			EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm) },
			Aggs:      []AggColumn{{Factory: mustFactory(t, "SUM"), Arg: a.Row}}, ColArgs: []*ColExpr{&a},
			Out: out,
		})
	}
	if got := InputReads(selProj(nil)); got != 1<<0|1<<1|1<<4 {
		t.Errorf("filter and projection read %05b, want time, srcIP, len", got)
	}
	if got := InputReads(agg(nil)); got != 1<<0|1<<1|1<<4 {
		t.Errorf("aggregate reads %05b, want time, srcIP, len", got)
	}

	var spies [3]colSpy
	a := agg(&spies[2])
	tee := &Tee{Outs: []Consumer{selProj(&spies[0]), filter("destIP = 1", &spies[1]), a}}
	tee.PushCols(cb)
	tee.Flush()
	var refs [3]Collector
	ref := &Tee{Outs: []Consumer{selProj(&refs[0]), filter("destIP = 1", &refs[1]), agg(&refs[2])}}
	PushAll(ref, nulled)
	ref.Flush()
	for i, name := range []string{"filter and projection", "forwarding filter", "aggregate"} {
		if i < 2 && (spies[i].rowRows != 0 || spies[i].colRows == 0) {
			t.Errorf("%s: %d rows came as columns, %d as rows; want columns only", name, spies[i].colRows, spies[i].rowRows)
		}
		if !reflect.DeepEqual(spies[i].Rows, refs[i].Rows) {
			t.Errorf("%s: emitted %v, the row path %v", name, spies[i].Rows, refs[i].Rows)
		}
	}
	if a.DenseRows() != int64(len(rows)) {
		t.Errorf("the aggregate took %d of %d rows into its dense store", a.DenseRows(), len(rows))
	}

	// Reading the pruned flags: the row path, over NULLs.
	var spy colSpy
	var want Collector
	filter("flags > 3", &spy).PushCols(cb)
	PushAll(filter("flags > 3", &want), nulled)
	if spy.colRows != 0 || !reflect.DeepEqual(spy.Rows, want.Rows) {
		t.Errorf("a filter over the pruned flags: %d rows as columns, emitted %v; want the row path's %v", spy.colRows, spy.Rows, want.Rows)
	}
}
