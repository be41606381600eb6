package exec

import (
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// buildPaneSub builds the per-pane sub-aggregation feeding a window:
// GROUP BY time/10 AS pane, srcIP with COUNT partials.
func buildPaneSub(out Consumer) *Aggregate {
	r := res("time", "srcIP")
	countFac, _ := NewAccumFactory("COUNT")
	return NewAggregate(AggregateConfig{
		GroupBy: []EvalFunc{
			MustCompile(gsql.MustParseExpr("time / 10"), r, nil),
			MustCompile(gsql.MustParseExpr("srcIP"), r, nil),
		},
		EpochIdx:  0,
		EpochOfWM: func(wm uint64) sqlval.Value { return u(wm / 10) },
		Aggs:      []AggColumn{{Factory: countFac}},
		Out:       out,
	})
}

func newCountWindow(panes uint64, out Consumer) *SlidingWindow {
	sumFac, _ := NewAccumFactory("SUM")
	return NewSlidingWindow(SlidingWindowConfig{
		GroupCols: 2,
		EpochIdx:  0,
		PaneOfWM:  func(wm uint64) sqlval.Value { return u(wm / 10) },
		Panes:     panes,
		Mergers:   []AccumFactory{sumFac},
		Out:       out,
	})
}

func TestSlidingWindowMergesPanes(t *testing.T) {
	sink := &Collector{}
	win := newCountWindow(3, sink) // window = 3 panes of 10s = 30s
	sub := buildPaneSub(win)
	// Source 1: 2 packets in pane 0, 1 in pane 1, 1 in pane 3.
	for _, tm := range []uint64{1, 5, 12, 35} {
		sub.Push(Tuple{u(tm), u(1)})
		sub.Advance(tm)
		win.Advance(tm)
	}
	sub.Flush()
	win.Flush()
	// Windows ending at panes 0..3:
	//   p0: panes {0}      -> 2
	//   p1: panes {0,1}    -> 3
	//   p2: panes {0,1,2}  -> 3
	//   p3: panes {1,2,3}  -> 2
	want := map[uint64]uint64{0: 2, 1: 3, 2: 3, 3: 2}
	if len(sink.Rows) != len(want) {
		t.Fatalf("rows = %v", sink.Rows)
	}
	for _, row := range sink.Rows {
		pane, _ := row[0].AsUint()
		cnt, _ := row[2].AsUint()
		if want[pane] != cnt {
			t.Errorf("window ending pane %d = %d, want %d", pane, cnt, want[pane])
		}
	}
}

func TestSlidingWindowPerGroup(t *testing.T) {
	sink := &Collector{}
	win := newCountWindow(2, sink)
	sub := buildPaneSub(win)
	sub.Push(Tuple{u(1), u(7)})
	sub.Push(Tuple{u(11), u(8)})
	sub.Flush()
	win.Flush()
	// Group 7 appears in windows ending p0 and p1 (its pane-0 data is
	// inside both); group 8 only in the window ending p1.
	byKey := map[string]int{}
	for _, row := range sink.Rows {
		src, _ := row[1].AsUint()
		pane, _ := row[0].AsUint()
		byKey[string(rune('0'+src))+":"+string(rune('0'+pane))]++
	}
	if len(sink.Rows) != 3 {
		t.Fatalf("rows = %v", sink.Rows)
	}
	if byKey["7:0"] != 1 || byKey["7:1"] != 1 || byKey["8:1"] != 1 {
		t.Errorf("window membership wrong: %v", byKey)
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	win := newCountWindow(3, Discard{})
	sub := buildPaneSub(win)
	for tm := uint64(0); tm < 500; tm += 5 {
		sub.Push(Tuple{u(tm), u(tm % 2)})
		sub.Advance(tm)
		win.Advance(tm)
	}
	// Only ~window-size panes per group stay buffered.
	if got := win.BufferedPanes(); got > 10 {
		t.Errorf("buffered panes = %d, eviction broken", got)
	}
}

func TestSlidingWindowHavingAndPost(t *testing.T) {
	sumFac, _ := NewAccumFactory("SUM")
	gr := res("pane", "srcIP", "cnt")
	sink := &Collector{}
	win := NewSlidingWindow(SlidingWindowConfig{
		GroupCols: 2,
		EpochIdx:  0,
		PaneOfWM:  func(wm uint64) sqlval.Value { return u(wm / 10) },
		Panes:     2,
		Mergers:   []AccumFactory{sumFac},
		Having:    MustCompile(gsql.MustParseExpr("cnt >= 2"), gr, nil),
		Post: []EvalFunc{
			MustCompile(gsql.MustParseExpr("srcIP"), gr, nil),
			MustCompile(gsql.MustParseExpr("cnt * 100"), gr, nil),
		},
		Out: sink,
	})
	sub := buildPaneSub(win)
	sub.Push(Tuple{u(1), u(9)})
	sub.Push(Tuple{u(11), u(9)})
	sub.Push(Tuple{u(11), u(5)}) // count 1: filtered by HAVING
	sub.Flush()
	win.Flush()
	// Window p0 for group 9 has count 1 (filtered); window p1 has 2.
	if len(sink.Rows) != 1 {
		t.Fatalf("rows = %v", sink.Rows)
	}
	if !sink.Rows[0][0].Equal(u(9)) || !sink.Rows[0][1].Equal(u(200)) {
		t.Errorf("row = %v", sink.Rows[0])
	}
}

// TestSlidingWindowFlushCoversStreamsLastPane: a window instance that
// holds one partition's groups closes, at Flush, every pane up to the
// stream's last one — which the last watermark names — not up to the
// last pane its own groups had rows in. The union of two partitioned
// instances is then what one instance over the whole stream emits.
func TestSlidingWindowFlushCoversStreamsLastPane(t *testing.T) {
	type pkt struct{ tm, src uint64 }
	stream := []pkt{{1, 1}, {3, 2}, {12, 1}, {14, 2}, {25, 2}} // source 1 is silent in pane 2
	run := func(keep func(src uint64) bool) Batch {
		sink := &Collector{}
		win := newCountWindow(3, sink)
		sub := buildPaneSub(win)
		for _, p := range stream {
			sub.Advance(p.tm) // every instance sees every watermark
			win.Advance(p.tm)
			if keep(p.src) {
				sub.Push(Tuple{u(p.tm), u(p.src)})
			}
		}
		sub.Flush()
		win.Flush()
		return sink.Rows
	}
	whole := run(func(uint64) bool { return true })
	parts := append(run(func(src uint64) bool { return src == 1 }), run(func(src uint64) bool { return src == 2 })...)
	emitted := map[string]bool{}
	for _, row := range parts {
		emitted[row.String()] = true
	}
	if len(whole) != 6 || len(parts) != 6 || len(emitted) != 6 {
		t.Fatalf("one instance emitted %v, the two partitions %v; want the same 6 windows", whole, parts)
	}
	for _, row := range whole {
		if !emitted[row.String()] {
			t.Errorf("the partitioned instances never emitted %s", row)
		}
	}
}
