package exec

import (
	"testing"

	"qap/internal/gsql"
)

// TestGroupHighWater: the high water is the peak live group count —
// sampled just before emission — not the post-emit residue, since the
// peak is what a warm-started run must presize for.
func TestGroupHighWater(t *testing.T) {
	aggs := []AggColumn{{Factory: mustFactory(t, "COUNT")}}
	agg := buildColAgg(t, Discard{}, aggs, []*ColExpr{nil}, nil)

	// Epoch 0 (time 0, wm < 16): 8 distinct srcIP groups.
	var rows Batch
	for i := 0; i < 8; i++ {
		rows = append(rows, Tuple{u(0), u(uint64(i)), u(0), u(0), u(1)})
	}
	PushAll(agg, rows)
	if hw := agg.GroupHighWater(); hw != 8 {
		t.Fatalf("high water = %d, want 8", hw)
	}
	// Advance past epoch 0: all 8 emit; live count drops to 0 but the
	// high water must hold.
	agg.Advance(16)
	if n := agg.GroupCount(); n != 0 {
		t.Fatalf("live groups after advance = %d, want 0", n)
	}
	if hw := agg.GroupHighWater(); hw != 8 {
		t.Fatalf("high water after emit = %d, want 8", hw)
	}
	// Epoch 1 with fewer groups must not lower it; more must raise it.
	rows = rows[:0]
	for i := 0; i < 12; i++ {
		rows = append(rows, Tuple{u(16), u(uint64(i)), u(0), u(0), u(1)})
	}
	PushAll(agg, rows)
	agg.Flush()
	if hw := agg.GroupHighWater(); hw != 12 {
		t.Fatalf("high water after flush = %d, want 12", hw)
	}
}

// TestColRowInterleave: an aggregate the dense store cannot hold
// (COUNT_DISTINCT) takes a column batch into its row store and then
// rows into the same groups; the merged result must match a pure
// row-path run byte for byte.
func TestColRowInterleave(t *testing.T) {
	r := colTestResolver
	aggs := []AggColumn{
		{Factory: mustFactory(t, "COUNT_DISTINCT"), Arg: MustCompile(gsql.MustParseExpr("len"), r, nil)},
	}
	colArgs := []*ColExpr{colPtr(mustCompileCol(t, "len", r, nil))}
	var outRef, outMix Collector
	ref := buildColAgg(t, &outRef, aggs, colArgs, nil)
	mix := buildColAgg(t, &outMix, aggs, colArgs, nil)

	first, second := colTestRows(64), colTestRows(64)
	var cb ColBatch
	if !cb.SetFromRows(first) {
		t.Fatal("SetFromRows failed")
	}
	mix.PushCols(&cb) // COUNT_DISTINCT is map-backed: the batch pivots into the row store
	if len(mix.groups) == 0 || mix.denseN != 0 {
		t.Fatal("the column batch did not land in the row store")
	}
	PushAll(mix, second)

	PushAll(ref, first)
	PushAll(ref, second)

	ref.Flush()
	mix.Flush()
	diffBatches(t, "interleaved push", outRef.Rows, outMix.Rows)
}

// TestJoinPaneHighWater: the high water is the most entries one side
// of a pane held when it expired, and a join built with it as its size
// hint stores that many rows a side of a pane, under as many keys,
// without growing a slab or the table.
func TestJoinPaneHighWater(t *testing.T) {
	cfg := joinTestConfig(t, gsql.JoinInner, false, Discard{})
	j := NewJoin(cfg)
	PushAll(j.LeftIn(), joinEpochBatch(0, 1000, u(7)))
	PushAll(j.RightIn(), joinEpochBatch(0, 600, u(7)))
	j.LeftIn().Advance(60) // drops epoch 0
	j.RightIn().Advance(60)
	PushAll(j.RightIn(), joinEpochBatch(1, 800, u(7)))
	j.LeftIn().Flush()
	j.RightIn().Flush()
	if hw := j.PaneHighWater(); hw != 1000 {
		t.Fatalf("pane high water = %d, want 1000", hw)
	}

	cfg.SizeHint = 1000
	warm := NewJoin(cfg)
	PushAll(warm.LeftIn(), joinEpochBatch(0, 1, u(7)))
	p := warm.panes[0]
	stride := len(warm.left.rowCols)
	type caps struct{ rows, links, keys, groups, slots int }
	capsOf := func() caps {
		s := &p.side[0]
		return caps{cap(s.rows), cap(s.links), cap(p.keys), cap(p.groups), len(p.tab.slots)}
	}
	c := capsOf()
	if c.rows < 1000*stride || c.links < 1000 || c.keys < 1000*2 || c.groups < 1000 || c.slots*3 < 1000*4 {
		t.Fatalf("hinted pane holds %+v; want room for 1000 entries of %d words under 1000 keys", c, stride)
	}
	PushAll(warm.LeftIn(), joinEpochBatch(0, 1000, u(7))[1:])
	if capsOf() != c {
		t.Fatal("a hinted pane grew while filling to the hint")
	}
}
