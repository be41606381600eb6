package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// joinTestConfig builds a join over (tb, k, v) rows. Same-epoch shape:
// both sides key on (k, tb). Cross-epoch shape (ComplexQuerySet's
// S1.tb = S2.tb+1): the right side keys on (k, tb+1), so a row's two
// sides live in different panes. The residual keeps about half of the
// key-equal pairs.
func joinTestConfig(t *testing.T, jt gsql.JoinType, cross bool, out Consumer) JoinConfig {
	r := res("tb", "k", "v")
	comb := res("tb", "k", "v", "tb2", "k2", "v2")
	rightTB, shift := "tb", uint64(0)
	if cross {
		rightTB, shift = "tb + 1", 1
	}
	side := func(tb string, shift uint64) JoinSideConfig {
		return JoinSideConfig{
			Keys: []EvalFunc{
				MustCompile(gsql.MustParseExpr("k"), r, nil),
				MustCompile(gsql.MustParseExpr(tb), r, nil),
			},
			ColKeys: []ColExpr{
				mustCompileCol(t, "k", r, nil),
				mustCompileCol(t, tb, r, nil),
			},
			Width:        3,
			TemporalIdx:  1,
			MinFutureKey: func(wm uint64) sqlval.Value { return u(wm/60 + shift) },
		}
	}
	return JoinConfig{
		Left:     side("tb", 0),
		Right:    side(rightTB, shift),
		Type:     jt,
		Residual: MustCompile(gsql.MustParseExpr("v <= v2"), comb, nil),
		Projs: []EvalFunc{
			MustCompile(gsql.MustParseExpr("tb"), comb, nil),
			MustCompile(gsql.MustParseExpr("k"), comb, nil),
			MustCompile(gsql.MustParseExpr("v"), comb, nil),
			MustCompile(gsql.MustParseExpr("tb2"), comb, nil),
			MustCompile(gsql.MustParseExpr("v2"), comb, nil),
		},
		Out: out,
	}
}

// naiveJoin is the reference the paned join is held to: every stored
// row in one list per side, a nested loop over all of them on every
// push, a boundary filter over all of them on every advance. It shares
// only the configuration with Join.
type naiveJoin struct {
	cfg    JoinConfig
	rows   [2][]*naiveRow // left, right, in arrival order
	out    []Tuple
	lastWM uint64
	wmSeen bool
}

type naiveRow struct {
	t       Tuple
	tkey    sqlval.Value
	key     string
	matched bool
}

func (n *naiveJoin) emit(comb Tuple) {
	row := make(Tuple, len(n.cfg.Projs))
	for i, p := range n.cfg.Projs {
		row[i] = p(comb)
	}
	n.out = append(n.out, row)
}

func (n *naiveJoin) push(t Tuple, left bool) {
	side, mine, other := &n.cfg.Left, 0, 1
	if !left {
		side, mine, other = &n.cfg.Right, 1, 0
	}
	vals := make([]sqlval.Value, len(side.Keys))
	for i, k := range side.Keys {
		vals[i] = k(t)
	}
	nr := &naiveRow{t: t, tkey: vals[side.TemporalIdx], key: Key(vals)}
	for _, o := range n.rows[other] {
		if o.key != nr.key {
			continue
		}
		comb := append(append(Tuple{}, t...), o.t...)
		if !left {
			comb = append(append(Tuple{}, o.t...), t...)
		}
		if n.cfg.Residual != nil && !n.cfg.Residual(comb).AsBool() {
			continue
		}
		nr.matched, o.matched = true, true
		n.emit(comb)
	}
	n.rows[mine] = append(n.rows[mine], nr)
}

func (n *naiveJoin) evict(sideIdx int, boundary *sqlval.Value) {
	var keep, gone []*naiveRow
	for _, r := range n.rows[sideIdx] {
		if boundary != nil && r.tkey.Compare(*boundary) >= 0 {
			keep = append(keep, r)
		} else if !r.matched {
			gone = append(gone, r)
		}
	}
	n.rows[sideIdx] = keep
	left := sideIdx == 0
	pads := n.cfg.Type == gsql.JoinFullOuter ||
		(left && n.cfg.Type == gsql.JoinLeftOuter) || (!left && n.cfg.Type == gsql.JoinRightOuter)
	if !pads {
		return
	}
	sort.SliceStable(gone, func(a, b int) bool {
		if c := gone[a].tkey.Compare(gone[b].tkey); c != 0 {
			return c < 0
		}
		return gone[a].key < gone[b].key
	})
	for _, r := range gone {
		nulls := make(Tuple, 3)
		for i := range nulls {
			nulls[i] = sqlval.Null
		}
		if left {
			n.emit(append(append(Tuple{}, r.t...), nulls...))
		} else {
			n.emit(append(nulls, r.t...))
		}
	}
}

func (n *naiveJoin) advance(wm uint64) {
	if n.wmSeen && wm <= n.lastWM {
		return
	}
	n.lastWM, n.wmSeen = wm, true
	b := n.cfg.Right.MinFutureKey(wm)
	n.evict(0, &b)
	b = n.cfg.Left.MinFutureKey(wm)
	n.evict(1, &b)
}

func (n *naiveJoin) flush() {
	n.evict(0, nil)
	n.evict(1, nil)
}

// TestJoinPanesMatchNaiveReference drives the paned join and the naive
// reference with the same seeded random stream — duplicate keys, a
// residual, tuples below the last boundary, and every push interface
// interleaved — and requires the same output sequence and the same
// stored-tuple count after every advance.
func TestJoinPanesMatchNaiveReference(t *testing.T) {
	types := []gsql.JoinType{gsql.JoinInner, gsql.JoinLeftOuter, gsql.JoinRightOuter, gsql.JoinFullOuter}
	for _, jt := range types {
		for _, cross := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("type=%v/cross=%v/seed=%d", jt, cross, seed)
				t.Run(name, func(t *testing.T) { joinVsNaive(t, jt, cross, seed) })
			}
		}
	}
}

func joinVsNaive(t *testing.T, jt gsql.JoinType, cross bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sink := &Collector{}
	j := NewJoin(joinTestConfig(t, jt, cross, sink))
	ref := &naiveJoin{cfg: joinTestConfig(t, jt, cross, Discard{})}
	var cb ColBatch
	check := func(when string) {
		t.Helper()
		diffBatches(t, when, ref.out, sink.Rows)
		if want := len(ref.rows[0]) + len(ref.rows[1]); j.StoredTuples() != want {
			t.Fatalf("%s: StoredTuples = %d, reference holds %d", when, j.StoredTuples(), want)
		}
	}
	epoch, late := uint64(0), 0
	for step := 0; step < 120; step++ {
		chunk := make(Batch, 1+rng.Intn(24))
		for i := range chunk {
			tb := epoch
			if epoch >= 2 && rng.Intn(12) == 0 {
				tb, late = epoch-2, late+1 // below the boundary of the last advance
			}
			chunk[i] = Tuple{u(tb), u(uint64(rng.Intn(5))), u(uint64(rng.Intn(40)))}
		}
		for _, left := range []bool{true, false} {
			if rng.Intn(5) == 0 {
				continue // not every chunk reaches both sides
			}
			for _, tp := range chunk {
				ref.push(tp, left)
			}
			port := j.RightIn().(*joinPort)
			if left {
				port = j.LeftIn().(*joinPort)
			}
			switch rng.Intn(3) {
			case 0:
				for _, tp := range chunk {
					port.Push(tp)
				}
			case 1:
				port.PushBatch(chunk)
			default:
				if !cb.SetFromRows(chunk) {
					t.Fatal("SetFromRows failed")
				}
				port.PushCols(&cb)
			}
		}
		if rng.Intn(3) == 0 {
			epoch += uint64(rng.Intn(2))
			wm := epoch*60 + uint64(rng.Intn(60))
			ref.advance(wm)
			j.LeftIn().Advance(wm)
			j.RightIn().Advance(wm)
			check(fmt.Sprintf("step %d advance(%d)", step, wm))
		}
	}
	emitted := len(ref.out)
	ref.flush()
	j.LeftIn().Flush()
	j.RightIn().Flush()
	check("flush")
	if !sink.Flushed {
		t.Error("flush did not reach the consumer")
	}
	if late == 0 || emitted == 0 || epoch < 3 {
		t.Fatalf("weak stream: %d late tuples, %d rows before flush, %d epochs", late, emitted, epoch)
	}
}

// TestOuterJoinPaddingDuplicateKeysDeterministic pads 128 unmatched
// left rows, 16 per key: equal keys must come out in arrival order, and
// 50 fresh joins must produce the same bytes.
func TestOuterJoinPaddingDuplicateKeysDeterministic(t *testing.T) {
	run := func() string {
		sink := &Collector{}
		j := buildPairsJoin(gsql.JoinLeftOuter, sink)
		var b Batch
		for i := uint64(0); i < 128; i++ {
			b = append(b, Tuple{u(1), u(i % 8), u(i)}) // (tb, srcIP, cnt): cnt is the arrival order
		}
		PushAll(j.LeftIn(), b)
		j.LeftIn().Flush()
		j.RightIn().Flush()
		if len(sink.Rows) != 128 {
			t.Fatalf("padded %d rows, want 128", len(sink.Rows))
		}
		for i := 1; i < len(sink.Rows); i++ {
			prev, cur := sink.Rows[i-1], sink.Rows[i]
			if c := prev[1].Compare(cur[1]); c > 0 || (c == 0 && prev[2].Compare(cur[2]) >= 0) {
				t.Fatalf("row %d out of (key, arrival) order: %v then %v", i, prev, cur)
			}
		}
		return fmt.Sprint(sink.Rows)
	}
	want := run()
	for i := 1; i < 50; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}
