package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// withCols replaces the residual and the projections of cfg, which read
// columns of comb, by src and projs compiled with their column forms, as
// the cluster compiles them: a word-layout join then keeps only the
// columns these read. An empty src means no residual.
func withCols(t *testing.T, cfg JoinConfig, comb Resolver, src string, projs ...string) JoinConfig {
	cfg.Residual, cfg.ColResidual, cfg.Projs, cfg.ColProjs = nil, nil, nil, nil
	if src != "" {
		ce := mustCompileCol(t, src, comb, nil)
		cfg.Residual, cfg.ColResidual = ce.Row, &ce
	}
	for _, p := range projs {
		ce := mustCompileCol(t, p, comb, nil)
		cfg.Projs, cfg.ColProjs = append(cfg.Projs, ce.Row), append(cfg.ColProjs, ce)
	}
	return cfg
}

// prunedJoinTestConfig is joinTestConfig whose output reads a strict
// subset of each side: (tb, v) on the left, v2 on the right. The
// residual still keeps about half of the key-equal pairs.
func prunedJoinTestConfig(t *testing.T, jt gsql.JoinType, cross bool, out Consumer) JoinConfig {
	comb := res("tb", "k", "v", "tb2", "k2", "v2")
	return withCols(t, joinTestConfig(t, jt, cross, out), comb, "v <= v2", "tb", "v", "v2", "v + v2")
}

// rowLayout strips the key kernels, which is what BatchSize 1 compiles:
// the join then keeps its state as rows from the start.
func rowLayout(cfg JoinConfig) JoinConfig {
	cfg.Left.ColKeys, cfg.Right.ColKeys = nil, nil
	return cfg
}

// joinLayout names where the join's stored tuples sit: "words" or
// "rows" when every one of them is in that layout and the join's own
// flag agrees, else what disagrees.
func joinLayout(j *Join) string {
	rows, words := 0, 0
	for _, p := range j.panes {
		for _, s := range p.side {
			rows, words = rows+len(s.entries), words+len(s.links)
		}
	}
	switch {
	case j.words && rows == 0 && words == j.stored:
		return "words"
	case !j.words && words == 0 && rows == j.stored:
		return "rows"
	}
	return fmt.Sprintf("mixed (words=%v: %d row entries, %d word entries, %d stored)", j.words, rows, words, j.stored)
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
		if left {
			n.emit(append(append(Tuple{}, r.t...), make(Tuple, n.cfg.Right.Width)...))
		} else {
			n.emit(append(make(Tuple, n.cfg.Left.Width), r.t...))
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
// stored-tuple count after every advance. Each stream runs in the word
// layout (which it fits: the state must still be words at the end of
// every epoch, so the case cannot pass on the fallback), in the row
// layout from the start, and across a migrate in the middle of an epoch.
// Each runs twice: with row closures only, so that a word pane keeps
// every column, and with column forms whose output reads a strict subset
// of each side (pruned), so that word panes store, pad and migrate
// pruned rows.
func TestJoinPanesMatchNaiveReference(t *testing.T) {
	types := []gsql.JoinType{gsql.JoinInner, gsql.JoinLeftOuter, gsql.JoinRightOuter, gsql.JoinFullOuter}
	for _, jt := range types {
		for _, cross := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				name := fmt.Sprintf("type=%v/cross=%v/seed=%d", jt, cross, seed)
				t.Run(name, func(t *testing.T) {
					for _, layout := range []string{"words", "rows", "migrate"} {
						t.Run("layout="+layout, func(t *testing.T) { joinVsNaive(t, jt, cross, seed, layout, false) })
						t.Run("pruned,layout="+layout, func(t *testing.T) { joinVsNaive(t, jt, cross, seed, layout, true) })
					}
				})
			}
		}
	}
}

func joinVsNaive(t *testing.T, jt gsql.JoinType, cross bool, seed int64, layout string, pruned bool) {
	rng := rand.New(rand.NewSource(seed))
	sink := &Collector{}
	config := joinTestConfig
	if pruned {
		config = prunedJoinTestConfig
	}
	cfg := config(t, jt, cross, sink)
	if layout == "rows" {
		cfg = rowLayout(cfg)
	}
	j := NewJoin(cfg)
	if kept := [2]int{len(j.left.keep), len(j.right.keep)}; layout != "rows" && pruned != (kept != [2]int{3, 3}) {
		t.Fatalf("the word panes keep %v columns of 3 + 3 (pruned %v)", kept, pruned)
	}
	ref := &naiveJoin{cfg: config(t, jt, cross, Discard{})}
	var cb ColBatch
	wantLayout := "words"
	if layout == "rows" {
		wantLayout = "rows"
	}
	check := func(when string) {
		t.Helper()
		diffBatches(t, when, ref.out, sink.Rows)
		if want := len(ref.rows[0]) + len(ref.rows[1]); j.StoredTuples() != want {
			t.Fatalf("%s: StoredTuples = %d, reference holds %d", when, j.StoredTuples(), want)
		}
		if got := joinLayout(j); got != wantLayout {
			t.Fatalf("%s: state is in %s, want %s", when, got, wantLayout)
		}
	}
	ports := map[bool]*joinPort{true: j.LeftIn().(*joinPort), false: j.RightIn().(*joinPort)}
	both := func(b Batch) {
		for _, left := range []bool{true, false} {
			for _, tp := range b {
				ref.push(tp, left)
			}
			PushAll(ports[left], b)
		}
	}
	// The migrate layout leaves the word layout once, at a step drawn
	// from its own generator so that all three layouts see one stream.
	migrateAt := -1
	if layout == "migrate" {
		migrateAt = 30 + rand.New(rand.NewSource(seed+1000)).Intn(40)
	}
	epoch, late := uint64(0), 0
	for step := 0; step < 120; step++ {
		if migrateAt >= 0 && step >= migrateAt && epoch >= 2 {
			migrateAt = -1
			// Uint(5) entries in both of the epochs that can still match
			// (the cross shape pairs tb with tb+1), stored as words.
			seeds := Batch{{u(epoch - 1), u(5), u(1)}, {u(epoch), u(5), u(1)}}
			both(seeds)
			check(fmt.Sprintf("step %d before migrate", step))
			// A column batch with a NULL in a kept column cannot be held
			// as words: v is kept on the right in either shape.
			if !cb.SetFromRows(Batch{{u(epoch), u(uint64(rng.Intn(5))), sqlval.Null}, {u(epoch), u(5), u(2)}}) {
				t.Fatal("SetFromRows failed")
			}
			for _, tp := range cb.AppendRows(nil) {
				ref.push(tp, false)
			}
			ports[false].PushCols(&cb)
			wantLayout = "rows"
			check(fmt.Sprintf("step %d migrated", step))
			// Int and Float keys equal to the stored Uint(5) must find it
			// from either side (the residual is left v <= right v).
			for _, five := range []sqlval.Value{sqlval.Int(5), sqlval.Float(5.0)} {
				before := len(ref.out)
				for _, left := range []bool{true, false} {
					v := u(30)
					if left {
						v = u(0)
					}
					probes := Batch{{u(epoch - 1), five, v}, {u(epoch), five, v}}
					for _, tp := range probes {
						ref.push(tp, left)
					}
					PushAll(ports[left], probes)
				}
				if len(ref.out) == before {
					t.Fatalf("step %d: %v probes matched no stored Uint(5) row", step, five)
				}
			}
			both(Batch{{u(epoch - 2), u(5), u(9)}}) // below the last boundary
			late++
			check(fmt.Sprintf("step %d after migrate", step))
		}
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
			port := ports[left]
			if rng.Intn(3) < 2 {
				PushAll(port, chunk)
				continue
			}
			if !cb.SetFromRows(chunk) {
				t.Fatal("SetFromRows failed")
			}
			port.PushCols(&cb)
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
	if late == 0 || emitted == 0 || epoch < 3 || migrateAt >= 0 {
		t.Fatalf("weak stream: %d late tuples, %d rows before flush, %d epochs, migrate pending %v", late, emitted, epoch, migrateAt >= 0)
	}
}

// TestJoinMisshapenBatchTakesRowPath: the word layout's stride is the
// side's width, so a column batch of any other width must not reach the
// slabs. It gets what it got before the word layout existed: the row
// path, which reads the columns its closures name.
func TestJoinMisshapenBatchTakesRowPath(t *testing.T) {
	sink := &Collector{}
	j := NewJoin(joinTestConfig(t, gsql.JoinInner, false, sink))
	PushAll(j.LeftIn(), Batch{{u(1), u(5), u(1)}})
	if got := joinLayout(j); got != "words" {
		t.Fatalf("state is in %s before the wide batch, want words", got)
	}
	var cb ColBatch
	if !cb.SetFromRows(Batch{{u(1), u(5), u(2), u(99)}, {u(1), u(6), u(2), u(99)}}) {
		t.Fatal("SetFromRows failed")
	}
	j.RightIn().(*joinPort).PushCols(&cb)
	if got := joinLayout(j); got != "rows" || j.StoredTuples() != 3 {
		t.Fatalf("after the wide batch: state in %s, %d stored; want rows, 3", got, j.StoredTuples())
	}
	if len(sink.Rows) != 1 {
		t.Fatalf("the wide batch's k=5 row joined %d times, want 1", len(sink.Rows))
	}
}

// TestKeyWordOrderMatchesEncodingOrder: outer-join padding sorts word
// panes by key words and row panes by key encodings, and the two orders
// must be one. A uint encodes as tag 2 up to 1<<63-1 and tag 4 above,
// then big-endian, so the boundary is the case that could break it.
func TestKeyWordOrderMatchesEncodingOrder(t *testing.T) {
	edge := []uint64{0, 1, 255, 256, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	word := func() uint64 {
		if rng.Intn(2) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	enc := func(ws []uint64) string {
		vals := make([]sqlval.Value, len(ws))
		for i, w := range ws {
			vals[i] = u(w)
		}
		return Key(vals)
	}
	for n := 0; n < 20000; n++ {
		a, b := []uint64{word(), word()}, []uint64{word(), word()}
		if rng.Intn(3) == 0 {
			b[0] = a[0] // decide on the second word
		}
		if got, want := slices.Compare(a, b), strings.Compare(enc(a), enc(b)); got != want {
			t.Fatalf("words %x vs %x compare %d, their encodings %d", a, b, got, want)
		}
	}
}

// TestOuterJoinPaddingDuplicateKeysDeterministic pads 128 unmatched
// left rows, 16 per key, one key above 1<<63-1: equal keys must come out
// in arrival order, 50 fresh joins must produce the same bytes, and the
// word layout the same bytes as the row layout.
func TestOuterJoinPaddingDuplicateKeysDeterministic(t *testing.T) {
	run := func(layout string) string {
		sink := &Collector{}
		cfg := joinTestConfig(t, gsql.JoinLeftOuter, false, sink)
		if layout == "rows" {
			cfg = rowLayout(cfg)
		}
		j := NewJoin(cfg)
		var b Batch
		for i := uint64(0); i < 128; i++ {
			k := i % 8
			if k == 3 {
				k = 1<<63 + 3 // sorts last in both layouts
			}
			b = append(b, Tuple{u(1), u(k), u(i)}) // (tb, k, v): v is the arrival order
		}
		PushAll(j.LeftIn(), b)
		if got := joinLayout(j); got != layout {
			t.Fatalf("state is in %s, want %s", got, layout)
		}
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
	want := run("rows")
	for i := 1; i < 50; i++ {
		layout := []string{"rows", "words"}[i%2]
		if got := run(layout); got != want {
			t.Fatalf("run %d (%s layout) differs from run 0 (row layout)", i, layout)
		}
	}
}

// TestJoinColumnEmitMatchesRowLayout pushes one stream through a
// word-layout join, which gathers each input's matches into a column
// batch, and through a row-layout join: the rows and their order —
// outer-join padding included — must be the same whatever the join
// type, the residual, the projections and the input form (a column
// batch per input, or through the row port a row per input), and the
// counters and the recording consumer must show columns downstream for
// every input except the ones that cannot: a residual or a projection
// without a kernel, and an outer join with a residual (matched flags
// wait for the verdict per pair). The input holding the pair on which
// w2 - w underflows goes as columns too, its Int row marked.
func TestJoinColumnEmitMatchesRowLayout(t *testing.T) {
	side := res("tb", "k", "v", "w")
	comb := res("tb", "k", "v", "w", "tb2", "k2", "v2", "w2")
	build := func(jt gsql.JoinType, residual string, projs []string, out Consumer) JoinConfig {
		cfg := JoinConfig{Type: jt, Out: out}
		for _, sc := range []*JoinSideConfig{&cfg.Left, &cfg.Right} {
			sc.Width, sc.TemporalIdx = 4, 1
			sc.MinFutureKey = func(wm uint64) sqlval.Value { return u(wm / 60) }
			for _, src := range []string{"k", "tb"} {
				ce := mustCompileCol(t, src, side, nil)
				sc.Keys, sc.ColKeys = append(sc.Keys, ce.Row), append(sc.ColKeys, ce)
			}
		}
		if residual != "" {
			ce := mustCompileCol(t, residual, comb, nil)
			cfg.Residual, cfg.ColResidual = ce.Row, &ce
		}
		for _, src := range projs {
			ce := mustCompileCol(t, src, comb, nil)
			cfg.Projs, cfg.ColProjs = append(cfg.Projs, ce.Row), append(cfg.ColProjs, ce)
		}
		return cfg
	}
	residuals := []struct {
		src    string
		kernel bool
	}{{"", true}, {"v <= v2", true}, {"v * 1.0 <= v2", false}}
	projections := []struct {
		srcs   []string
		kernel bool
	}{{[]string{"tb", "k", "v", "w2 - w", "v2"}, true}, {[]string{"tb", "k", "-v", "w2 - w", "v2"}, false}}
	types := []gsql.JoinType{gsql.JoinInner, gsql.JoinLeftOuter, gsql.JoinRightOuter, gsql.JoinFullOuter}
	for c := 0; c < len(types)*len(residuals)*len(projections)*4; c++ {
		jt, rv, pv := types[c%4], residuals[c/4%3], projections[c/12%2]
		underflow, colInput := c/24%2 == 1, c/48 == 1
		name := fmt.Sprintf("%v, residual %q, projections %v, underflow %v, column input %v", jt, rv.src, pv.srcs, underflow, colInput)
		columns := rv.kernel && pv.kernel && (jt == gsql.JoinInner || rv.src == "")

		var ws, rs recSink
		words, rows := NewJoin(build(jt, rv.src, pv.srcs, &ws)), NewJoin(rowLayout(build(jt, rv.src, pv.srcs, &rs)))
		rng := rand.New(rand.NewSource(int64(c)))
		var cb ColBatch
		ints, padded := 0, 0
		// push hands one input to the same side of both joins.
		push := func(chunk Batch, left bool) {
			t.Helper()
			for _, j := range []*Join{words, rows} {
				port := j.RightIn().(*joinPort)
				if left {
					port = j.LeftIn().(*joinPort)
				}
				if !colInput {
					PushAll(port, chunk)
					continue
				}
				if !cb.SetFromRows(chunk) {
					t.Fatal("SetFromRows failed")
				}
				port.PushCols(&cb)
			}
		}
		for step, epoch := 0, uint64(0); step < 90; step++ {
			for _, left := range []bool{true, false} {
				chunk := make(Batch, 1+rng.Intn(40))
				for i := range chunk {
					// Left w below 100, right w from 100 up: w2 - w is a uint.
					w := uint64(rng.Intn(100))
					if !left {
						w += 100
					}
					chunk[i] = Tuple{u(epoch), u(uint64(rng.Intn(12))), u(uint64(rng.Intn(30))), u(w)}
				}
				if underflow && step == 40 {
					// Key 77 exists once on each side; the right row sits
					// mid-batch and has the smaller w: 0 - 50.
					if left {
						chunk = append(chunk, Tuple{u(epoch), u(77), u(0), u(50)})
					} else {
						chunk[len(chunk)/2] = Tuple{u(epoch), u(77), u(10), u(0)}
					}
				}
				size := 1
				if colInput {
					size = len(chunk)
				}
				for lo := 0; lo < len(chunk); lo += size {
					cols, fell, out, colOut := words.colEmits, words.rowEmits, len(ws.rows), ws.colRows
					push(chunk[lo:lo+size], left)
					cols, fell, out, colOut = words.colEmits-cols, words.rowEmits-fell, len(ws.rows)-out, ws.colRows-colOut
					switch {
					case cols+fell > 1:
						t.Fatalf("%s step %d: one input made %d column and %d row emits", name, step, cols, fell)
					case !columns && (cols != 0 || colOut != 0):
						t.Fatalf("%s step %d: an input that needs rows went downstream as columns", name, step)
					case columns && (fell != 0 || colOut != out):
						t.Fatalf("%s step %d: an input the kernels carry went downstream as rows (%d row emits, %d of %d rows columns)", name, step, fell, colOut, out)
					}
				}
			}
			if rng.Intn(4) == 0 {
				epoch++
				for _, j := range []*Join{words, rows} {
					j.LeftIn().Advance(epoch * 60)
					j.RightIn().Advance(epoch * 60)
				}
			}
		}
		for _, j := range []*Join{words, rows} {
			j.LeftIn().Flush()
			j.RightIn().Flush()
		}
		if got := joinLayout(words); got != "words" {
			t.Fatalf("%s: the word-layout join ended in %s", name, got)
		}
		diffBatches(t, name, rs.rows, ws.rows)
		for _, row := range ws.rows {
			if row[0].IsNull() || row[4].IsNull() {
				padded++
			}
			if row[3].Kind() == sqlval.KindInt {
				ints++
			}
		}
		if (ints > 0) != underflow || (words.colEmits > 0) != columns ||
			(jt != gsql.JoinInner) != (padded > 0) || words.rowEmits+words.colEmits < 80 {
			t.Fatalf("%s: %d Int rows, %d column and %d row emits, %d padded rows",
				name, ints, words.colEmits, words.rowEmits, padded)
		}
	}
}

// wideComb resolves the columns of a wide join's output over left ++
// right.
var wideComb = res("tb", "k", "v", "w", "tb2", "k2", "v2", "w2")

// wideJoinTestConfig joins (tb, k, v, w) rows on (k, tb) — on the right
// (k, tb+1) in the cross shape — keeping the pairs with v <= v2 and
// projecting (tb, k, v, v2): w is read by no key and no output on
// either side, v by the output on both.
func wideJoinTestConfig(t *testing.T, jt gsql.JoinType, cross bool, out Consumer) JoinConfig {
	side := res("tb", "k", "v", "w")
	cfg := JoinConfig{Type: jt, Out: out}
	for i, sc := range []*JoinSideConfig{&cfg.Left, &cfg.Right} {
		tb, shift := "tb", uint64(0)
		if cross && i == 1 {
			tb, shift = "tb + 1", 1
		}
		sc.Width, sc.TemporalIdx = 4, 1
		sc.MinFutureKey = func(wm uint64) sqlval.Value { return u(wm/60 + shift) }
		for _, src := range []string{"k", tb} {
			ce := mustCompileCol(t, src, side, nil)
			sc.Keys, sc.ColKeys = append(sc.Keys, ce.Row), append(sc.ColKeys, ce)
		}
	}
	return withCols(t, cfg, wideComb, "v <= v2", "tb", "k", "v", "v2")
}

// TestJoinUnusedColumnKeepsWords: a NULL, and separately an Int row, in
// a column that no key and no output reads leaves a join in the word
// layout, matching the naive reference; the same value in a kept column
// migrates it, matching too. Inputs arrive as column batches and as rows.
func TestJoinUnusedColumnKeepsWords(t *testing.T) {
	for _, c := range []struct {
		name string
		odd  sqlval.Value
		col  int // 3 is w, unused; 2 is v, kept
		want string
	}{
		{"NULL in w", sqlval.Null, 3, "words"},
		{"Int in w", sqlval.Int(-3), 3, "words"},
		{"NULL in v", sqlval.Null, 2, "rows"},
		{"Int in v", sqlval.Int(-3), 2, "rows"},
	} {
		for _, jt := range []gsql.JoinType{gsql.JoinInner, gsql.JoinFullOuter} {
			for _, cols := range []bool{true, false} {
				name := fmt.Sprintf("%s/%v/columns=%v", c.name, jt, cols)
				sink := &Collector{}
				j := NewJoin(wideJoinTestConfig(t, jt, false, sink))
				ref := &naiveJoin{cfg: wideJoinTestConfig(t, jt, false, Discard{})}
				rng := rand.New(rand.NewSource(7))
				var cb ColBatch
				for step := 0; step < 40; step++ {
					tb := uint64(step / 10)
					for _, left := range []bool{true, false} {
						chunk := make(Batch, 1+rng.Intn(8))
						for i := range chunk {
							chunk[i] = Tuple{u(tb), u(uint64(rng.Intn(4))), u(uint64(rng.Intn(20))), u(uint64(rng.Intn(9)))}
						}
						if step >= 20 {
							chunk[rng.Intn(len(chunk))][c.col] = c.odd
						}
						for _, tp := range chunk {
							ref.push(tp, left)
						}
						port := j.RightIn().(*joinPort)
						if left {
							port = j.LeftIn().(*joinPort)
						}
						if !cols {
							PushAll(port, chunk)
							continue
						}
						if !cb.SetFromRows(chunk) {
							t.Fatalf("%s: SetFromRows failed", name)
						}
						port.PushCols(&cb)
					}
					if step%10 == 9 {
						wm := (tb + 1) * 60
						ref.advance(wm)
						j.LeftIn().Advance(wm)
						j.RightIn().Advance(wm)
						diffBatches(t, fmt.Sprintf("%s step %d", name, step), ref.out, sink.Rows)
					}
				}
				if got := joinLayout(j); got != c.want {
					t.Fatalf("%s: state is in %s, want %s", name, got, c.want)
				}
				ref.flush()
				j.LeftIn().Flush()
				j.RightIn().Flush()
				diffBatches(t, name+" flush", ref.out, sink.Rows)
				if len(sink.Rows) == 0 {
					t.Fatalf("%s: the stream joined nothing", name)
				}
			}
		}
	}
}

// jitterJoinConfig is Section 6.2's jitter_pairs as the cluster compiles
// it over packet rows: keys time/60 and the flow's 4-tuple, S1.seq+1 =
// S2.seq, projecting S1's time and 4-tuple and S2.time - S1.time.
func jitterJoinConfig(t *testing.T, hint int, out Consumer) JoinConfig {
	cols := []string{"time", "srcIP", "destIP", "srcPort", "destPort", "len", "flags", "seq"}
	cfg := JoinConfig{Type: gsql.JoinInner, Out: out, SizeHint: hint}
	for side, seq := range []string{"seq + 1", "seq"} {
		sc := &cfg.Left
		if side == 1 {
			sc = &cfg.Right
		}
		sc.Width, sc.TemporalIdx = len(cols), 0
		sc.MinFutureKey = func(wm uint64) sqlval.Value { return u(wm / 60) }
		for _, src := range []string{"time/60", "srcIP", "destIP", "srcPort", "destPort", seq} {
			ce := mustCompileCol(t, src, res(cols...), nil)
			sc.Keys, sc.ColKeys = append(sc.Keys, ce.Row), append(sc.ColKeys, ce)
		}
	}
	var both []string
	for _, prefix := range []string{"l_", "r_"} {
		for _, c := range cols {
			both = append(both, prefix+c)
		}
	}
	return withCols(t, cfg, res(both...), "", "l_time", "l_srcIP", "l_destIP", "l_srcPort", "l_destPort", "r_time - l_time")
}

// TestJitterJoinStoresKeptColumns: the Section 6.2 self-join keeps 5
// columns on the left (S1's time and 4-tuple) and 1 on the right
// (S2.time), and its word panes store 1 word an entry on each side: the
// 4-tuple is a bare key reference, read back from the key words. That
// holds cold and warm (sized by the cold run's PaneHighWater), and the
// output is the row layout's either way.
func TestJitterJoinStoresKeptColumns(t *testing.T) {
	var packets Batch
	seq := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for tm := uint64(0); tm < 600; tm++ {
		for k := 0; k < 8; k++ {
			flow := uint64(rng.Intn(40))
			seq[flow] += uint64(1 + rng.Intn(2)) // a gap breaks a pair now and then
			packets = append(packets, Tuple{u(tm), u(flow), u(flow * 7), u(80), u(1024 + flow), u(60), u(16), u(seq[flow])})
		}
	}
	run := func(cfg JoinConfig, check func(j *Join)) *Join {
		j := NewJoin(cfg)
		var cb ColBatch
		for lo := 0; lo < len(packets); lo += 256 {
			if !cb.SetFromRows(packets[lo:min(lo+256, len(packets))]) {
				t.Fatal("SetFromRows failed")
			}
			j.LeftIn().(*joinPort).PushCols(&cb)
			j.RightIn().(*joinPort).PushCols(&cb)
			if check != nil {
				check(j)
			}
			wm, _ := packets[min(lo+256, len(packets))-1][0].AsUint()
			j.LeftIn().Advance(wm)
			j.RightIn().Advance(wm)
		}
		j.LeftIn().Flush()
		j.RightIn().Flush()
		return j
	}
	var want Collector
	run(rowLayout(jitterJoinConfig(t, 0, &want)), nil)
	if len(want.Rows) == 0 {
		t.Fatal("the trace makes no pairs")
	}
	hint := 0
	for _, warm := range []bool{false, true} {
		var got Collector
		j := run(jitterJoinConfig(t, hint, &got), func(j *Join) {
			if !slices.Equal(j.left.keep, []int{0, 1, 2, 3, 4}) || !slices.Equal(j.right.keep, []int{0}) {
				t.Fatalf("warm %v: kept columns %v + %v, want [0 1 2 3 4] + [0]", warm, j.left.keep, j.right.keep)
			}
			if !slices.Equal(j.left.rowCols, []int{0}) || !slices.Equal(j.right.rowCols, []int{0}) || len(j.left.keyCols) != 4 {
				t.Fatalf("warm %v: stored columns %v + %v, %d read from keys; want [0] + [0], 4", warm, j.left.rowCols, j.right.rowCols, len(j.left.keyCols))
			}
			for _, p := range j.panes {
				for _, s := range p.side {
					if len(s.rows) != len(s.links) {
						t.Fatalf("warm %v: a pane side of %d entries holds %d row words, want 1 a row", warm, len(s.links), len(s.rows))
					}
				}
			}
		})
		if got := joinLayout(j); got != "words" {
			t.Fatalf("warm %v: state is in %s, want words", warm, got)
		}
		diffBatches(t, fmt.Sprintf("warm %v", warm), want.Rows, got.Rows)
		hint = j.PaneHighWater()
	}
}

// TestHashRowsMatchesHashWords: the batch hash of every row equals the
// word-slice hash of its key words, which reinsertion relies on.
func TestHashRowsMatchesHashWords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for nk := 1; nk <= 4; nk++ {
		kvs := make([][]uint64, nk)
		for k := range kvs {
			kvs[k] = make([]uint64, 300)
			for i := range kvs[k] {
				kvs[k][i] = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		for _, lo := range []int{0, 17} {
			hs := hashRows(make([]uint64, 300-lo), kvs, lo)
			words := make([]uint64, nk)
			for i, h := range hs {
				for k := range kvs {
					words[k] = kvs[k][lo+i]
				}
				if want := hashWords(words); h != want {
					t.Fatalf("%d keys, row %d: hashRows %x, hashWords %x", nk, lo+i, h, want)
				}
			}
		}
	}
}

// sidesApartStream is TestJoinPaneSidesExpireApart's stream in
// FuzzJoinWords' encoding, four bytes a step: an advance (op 0, +4 for
// the next epoch; wm is epoch*60 + a), a left (op 1) or right (op 2) row
// (tb is the epoch; k, v, w are a, b, c) for the side's pending batch,
// or a delivery of one (op 3, +4 for the right side, +8 as columns).
// Over wideJoinTestConfig's cross shape a right row of tb 1 and a left
// row of tb 2 share the pane of temporal key 2, whose left side expires
// at wm 120 and its right side at wm 180.
var sidesApartStream = []byte{
	4, 0, 0, 0, // wm 60, epoch 1
	2, 0, 6, 1, 2, 1, 4, 2, 2, 3, 9, 3, 2, 2, 1, 4, // right rows R1
	15, 0, 0, 0, // R1 as columns: pane 2's right side
	2, 2, 8, 5, 2, 1, 1, 6, // right rows R2, held back
	4, 0, 0, 0, // wm 120, epoch 2
	1, 0, 5, 0, 1, 1, 10, 0, 1, 2, 3, 0, 1, 0, 7, 0, // left rows L1
	3, 0, 0, 0, // L1 as rows: both sides of pane 2 hold rows
	0, 10, 0, 0, // wm 130: pane 2's left side expires, L1 padded
	1, 1, 2, 0, 1, 3, 9, 0, 1, 2, 8, 0, 1, 0, 19, 0, // late left rows L2
	11, 0, 0, 0, // L2 as columns: they match R1
	7, 0, 0, 0, // R2 as rows: they match L2, not L1
	0, 20, 0, 0, // wm 140: L2 padded, R1 and R2 stay
	4, 0, 0, 0, // wm 180, epoch 3: pane 2's right side expires
}

// sidesApartProjs are the projection bits FuzzJoinWords reads for
// wideJoinTestConfig's projections (tb, k, v, v2).
const sidesApartProjs = 1<<0 | 1<<1 | 1<<2 | 1<<6

// TestJoinPaneSidesExpireApart: in the cross shape a pane's left side
// expires an epoch before its right. Both sides of one temporal key hold
// rows; an advance expires only the left side, padding it while the
// right side stays; late left rows refill the side, match the right rows
// stored and those pushed after them, and the next advance pads them;
// then the right side expires and only then does the pane go to the
// free list. Every join type, in both layouts and across a migrate
// while the pane is half expired, against the naive reference.
func TestJoinPaneSidesExpireApart(t *testing.T) {
	types := []gsql.JoinType{gsql.JoinInner, gsql.JoinLeftOuter, gsql.JoinRightOuter, gsql.JoinFullOuter}
	for _, jt := range types {
		for _, layout := range []string{"words", "rows", "migrate"} {
			t.Run(fmt.Sprintf("%v/%s", jt, layout), func(t *testing.T) {
				sink := &Collector{}
				cfg := wideJoinTestConfig(t, jt, true, sink)
				if layout == "rows" {
					cfg = rowLayout(cfg)
				}
				j := NewJoin(cfg)
				ref := &naiveJoin{cfg: wideJoinTestConfig(t, jt, true, Discard{})}
				var cb ColBatch
				push := func(b Batch, left, cols bool) {
					for _, tp := range b {
						ref.push(tp, left)
					}
					port := j.RightIn().(*joinPort)
					if left {
						port = j.LeftIn().(*joinPort)
					}
					if !cols {
						PushAll(port, b)
						return
					}
					if !cb.SetFromRows(b) {
						t.Fatal("SetFromRows failed")
					}
					port.PushCols(&cb)
				}
				check := func(when string) {
					t.Helper()
					diffBatches(t, when, ref.out, sink.Rows)
					if want := len(ref.rows[0]) + len(ref.rows[1]); j.StoredTuples() != want {
						t.Fatalf("%s: StoredTuples = %d, reference holds %d", when, j.StoredTuples(), want)
					}
				}
				var pane *joinPane // temporal key 2's, once opened
				var pending [2]Batch
				epoch, advances := uint64(0), 0
				for step := 0; step+4 <= len(sidesApartStream); step += 4 {
					op, a, b, c := sidesApartStream[step], sidesApartStream[step+1], sidesApartStream[step+2], sidesApartStream[step+3]
					switch op & 3 {
					case 0:
						epoch += uint64(op>>2) & 1
						wm := epoch*60 + uint64(a)
						ref.advance(wm)
						j.LeftIn().Advance(wm)
						j.RightIn().Advance(wm)
						advances++
						when := fmt.Sprintf("advance(%d)", wm)
						check(when)
						live := slices.Contains(j.panes, pane)
						switch {
						case advances == 3 || advances == 4: // wm 130 and 140
							if !live || pane.side[0].size() != 0 || pane.side[1].size() == 0 || slices.Contains(j.free, pane) {
								t.Fatalf("%s: pane 2 live %v, %d left and %d right entries; want live with only the right side", when, live, pane.side[0].size(), pane.side[1].size())
							}
						case advances == 5: // wm 180
							if live || !slices.Contains(j.free, pane) {
								t.Fatalf("%s: pane 2 live %v, recycled %v; want recycled", when, live, slices.Contains(j.free, pane))
							}
						}
						if layout == "migrate" && advances == 3 {
							// A NULL in v, which the right side keeps, cannot
							// be held as words.
							push(Batch{{u(1), u(1), sqlval.Null, u(0)}}, false, true)
							if got := joinLayout(j); got != "rows" {
								t.Fatalf("after the NULL row: state is in %s, want rows", got)
							}
							check("migrated")
						}
					case 1, 2:
						s := int(op&3) - 1
						pending[s] = append(pending[s], Tuple{u(epoch), u(uint64(a % 4)), u(uint64(b % 20)), u(uint64(c % 9))})
					default:
						s := int(op>>2) & 1
						push(pending[s], s == 0, op&8 != 0)
						pending[s] = nil
					}
					if pane == nil && len(j.panes) > 0 {
						pane = j.panes[0]
					}
				}
				ref.flush()
				j.LeftIn().Flush()
				j.RightIn().Flush()
				check("flush")
				want := map[string]string{"words": "words", "rows": "rows", "migrate": "rows"}[layout]
				if got := joinLayout(j); got != want || len(j.panes) != 0 || len(sink.Rows) < 4 {
					t.Fatalf("flush: state in %s with %d panes, %d rows out; want %s, none, 4 or more", got, len(j.panes), len(sink.Rows), want)
				}
			})
		}
	}
}

// TestJoinGatherStaysBounded: gather, sized by the join's longest batch
// or chain of pairs, holds a 256-row batch's pairs of the Section 6.2
// self-join, epoch after epoch, at gatherMin rows. One input whose row
// matches a 4 000-entry chain doubles it to 4 096 rows, and later
// short-chain batches leave it there.
func TestJoinGatherStaysBounded(t *testing.T) {
	j := NewJoin(jitterJoinConfig(t, 0, Discard{}))
	var cb ColBatch
	push := func(b Batch, left bool) {
		t.Helper()
		for lo := 0; lo < len(b); lo += 256 {
			if !cb.SetFromRows(b[lo:min(lo+256, len(b))]) {
				t.Fatal("SetFromRows failed")
			}
			port := j.RightIn().(*joinPort)
			if left {
				port = j.LeftIn().(*joinPort)
			}
			port.PushCols(&cb)
		}
	}
	seq := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	tm := uint64(0)
	epochs := func(n int) {
		t.Helper()
		for end := tm + uint64(n)*60; tm < end; tm += 2 {
			b := make(Batch, 256)
			for i := range b {
				flow := uint64(rng.Intn(64))
				seq[flow]++
				b[i] = Tuple{u(tm), u(flow), u(flow * 7), u(80), u(1024 + flow), u(60), u(16), u(seq[flow])}
			}
			push(b, true)
			push(b, false)
			j.LeftIn().Advance(tm)
			j.RightIn().Advance(tm)
			if len(j.hashes) != gatherMin && len(j.hashes) != 4096 {
				t.Fatalf("time %d: gather holds %d rows", tm, len(j.hashes))
			}
		}
	}
	epochs(5)
	if len(j.hashes) != gatherMin {
		t.Fatalf("jitter batches grew gather to %d rows, want %d", len(j.hashes), gatherMin)
	}
	chain := make(Batch, 4000)
	for i := range chain {
		chain[i] = Tuple{u(tm), u(99), u(1), u(2), u(3), u(60), u(16), u(7)} // left key seq+1 = 8
	}
	push(chain, true)
	before := len(j.hashes)
	push(Batch{{u(tm), u(99), u(1), u(2), u(3), u(60), u(16), u(8)}}, false)
	if before != gatherMin || len(j.hashes) != 4096 {
		t.Fatalf("a 4 000-pair chain took gather from %d to %d rows, want %d to 4096", before, len(j.hashes), gatherMin)
	}
	epochs(5)
	if len(j.hashes) != 4096 {
		t.Fatalf("short chains after the long one left gather at %d rows, want 4096", len(j.hashes))
	}
}
