package exec

import (
	"fmt"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// buildColAgg builds a columnar-configured aggregate grouping by
// (time, srcIP) with the given aggregate columns, mirroring what the
// cluster runner compiles for the columnar engine.
func buildColAgg(t *testing.T, out Consumer, aggs []AggColumn, colArgs []*ColExpr, mutate func(*AggregateConfig)) *Aggregate {
	t.Helper()
	r := colTestResolver
	cfg := AggregateConfig{
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
		Aggs:      aggs,
		ColArgs:   colArgs,
		Out:       out,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return NewAggregate(cfg)
}

// TestDenseDeliverHaving drives the dense store's emit through HAVING
// both ways: with the compiled form the predicate runs as a kernel over
// the emit columns and no row is made; without it rows materialize and
// the row closure filters them. Either way the output is the row
// path's.
func TestDenseDeliverHaving(t *testing.T) {
	havingRes := ColsResolver("", []string{"tb", "s", "cnt"})
	aggs := []AggColumn{{Factory: mustFactory(t, "COUNT")}}
	colArgs := []*ColExpr{nil}
	having := mustCompileCol(t, "cnt > 2", havingRes, nil)
	rows := colTestRows(200)
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	var outS Collector
	aggS := buildColAgg(t, &outS, aggs, colArgs, func(cfg *AggregateConfig) { cfg.Having = having.Row })
	PushAll(aggS, rows)
	aggS.Flush()
	if len(outS.Rows) == 0 || len(outS.Rows) == aggS.hiGroups {
		t.Fatalf("Having kept %d of %d groups; pick a predicate that splits them", len(outS.Rows), aggS.hiGroups)
	}
	for _, kernel := range []bool{true, false} {
		var outC Collector
		aggC := buildColAgg(t, &outC, aggs, colArgs, func(cfg *AggregateConfig) {
			cfg.Having, cfg.ColEmit = having.Row, true
			if kernel {
				cfg.ColHaving = &having
			}
		})
		aggC.PushCols(&cb)
		if aggC.denseN == 0 {
			t.Fatal("dense store did not engage")
		}
		aggC.Flush()
		if got := aggC.kernelEmits > 0; got != kernel {
			t.Fatalf("compiled Having %v: kernel emit ran = %v", kernel, got)
		}
		diffBatches(t, fmt.Sprintf("dense Having, kernel %v", kernel), outS.Rows, outC.Rows)
	}
}

// TestDenseDeliverPost drives the dense emit through the Post
// projection fallback.
func TestDenseDeliverPost(t *testing.T) {
	postRes := ColsResolver("", []string{"tb", "s", "cnt"})
	post := []EvalFunc{
		MustCompile(gsql.MustParseExpr("s"), postRes, nil),
		MustCompile(gsql.MustParseExpr("cnt * 2"), postRes, nil),
	}
	aggs := []AggColumn{{Factory: mustFactory(t, "COUNT")}}
	colArgs := []*ColExpr{nil}
	var outS, outC Collector
	aggS := buildColAgg(t, &outS, aggs, colArgs, func(cfg *AggregateConfig) { cfg.Post = post })
	aggC := buildColAgg(t, &outC, aggs, colArgs, func(cfg *AggregateConfig) { cfg.Post = post; cfg.ColEmit = true })

	rows := colTestRows(200)
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	aggC.PushCols(&cb)
	PushAll(aggS, rows)
	if aggC.denseN == 0 {
		t.Fatal("dense store did not engage")
	}
	aggS.Flush()
	aggC.Flush()
	diffBatches(t, "dense Post", outS.Rows, outC.Rows)
}

// TestDenseDeliverNegativeSum overflows an integer SUM negative: the
// column emission marks it an Int row, and what arrives must match the
// row path's Int result exactly.
func TestDenseDeliverNegativeSum(t *testing.T) {
	r := colTestResolver
	aggs := []AggColumn{
		{Factory: mustFactory(t, "SUM"), Arg: MustCompile(gsql.MustParseExpr("len"), r, nil)},
	}
	colArgs := []*ColExpr{colPtr(mustCompileCol(t, "len", r, nil))}
	var outS, outC Collector
	aggS := buildColAgg(t, &outS, aggs, colArgs, nil)
	aggC := buildColAgg(t, &outC, aggs, colArgs, func(cfg *AggregateConfig) { cfg.ColEmit = true })

	// One row whose len is 2^63: int64(sum) < 0.
	rows := Batch{Tuple{u(0), u(1), u(2), u(3), u(1 << 63)}}
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	aggC.PushCols(&cb)
	PushAll(aggS, rows)
	if aggC.denseN == 0 {
		t.Fatal("dense store did not engage")
	}
	aggS.Flush()
	aggC.Flush()
	if len(outC.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(outC.Rows))
	}
	if k := outC.Rows[0][2].Kind(); k != sqlval.KindInt {
		t.Fatalf("overflowed SUM emitted as %v, want int", k)
	}
	diffBatches(t, "negative sum", outS.Rows, outC.Rows)
}

// TestUnionPortPushCols checks the union port's columnar forward: a
// batch pushed into any port must reach Out exactly once, pivoted or
// not.
func TestUnionPortPushCols(t *testing.T) {
	var out Collector
	un := NewUnion(2, &out)
	rows := colTestRows(8)
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	p0, ok := un.Port(0).(ColConsumer)
	if !ok {
		t.Fatal("union port does not implement ColConsumer")
	}
	p0.PushCols(&cb)
	if len(out.Rows) != len(rows) {
		t.Fatalf("union forwarded %d rows, want %d", len(out.Rows), len(rows))
	}
	diffBatches(t, "union forward", rows, out.Rows)
}

// TestTrivialColConsumers covers the leaf ColConsumer implementations.
func TestTrivialColConsumers(t *testing.T) {
	rows := colTestRows(4)
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	Discard{}.PushCols(&cb)

	var c Collector
	c.PushCols(&cb)
	diffBatches(t, "collector", rows, c.Rows)

	var a, b Collector
	te := &Tee{Outs: []Consumer{&a, &b}}
	te.PushCols(&cb)
	diffBatches(t, "tee a", rows, a.Rows)
	diffBatches(t, "tee b", rows, b.Rows)
}
