package exec

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"qap/internal/sqlval"
)

// TestWordTable exercises the index shared by the join panes and both
// columnar aggregate stores on its own: sizing, growth under collisions,
// the O(1) reset and the generation wrap.
func TestWordTable(t *testing.T) {
	if sz := unsafe.Sizeof(wordSlot{}); sz != 16 {
		t.Fatalf("wordSlot is %d bytes, want 16", sz)
	}
	// tableSize keeps n strictly under the 75% load at which insert doubles.
	for _, c := range []struct{ min, n, want int }{
		{1024, 0, 1024}, {1024, 767, 1024}, {1024, 768, 2048}, {256, 191, 256}, {256, 192, 512}, {256, 100000, 262144},
	} {
		if got := tableSize(c.min, c.n); got != c.want {
			t.Errorf("tableSize(%d, %d) = %d, want %d", c.min, c.n, got, c.want)
		}
	}

	// Keys are (i, i*7) pairs in column-major vectors, appended to the flat
	// slab in step with the inserts. Every third key shares one hash, so
	// long probe runs survive several doublings.
	const nk, n = 2, 4 * colTableMin
	kvs := [][]uint64{make([]uint64, n), make([]uint64, n)}
	for i := range kvs[0] {
		kvs[0][i], kvs[1][i] = uint64(i)|1<<63, uint64(i)*7
	}
	hs := hashRows(make([]uint64, n), kvs, 0)
	hash := func(i int) uint64 {
		if i%3 == 0 {
			return 42
		}
		return hs[i]
	}
	var tab wordTable
	var keys []uint64
	fill := func() {
		t.Helper()
		keys = keys[:0]
		for i := 0; i < n; i++ {
			ref, at := tab.find(hash(i), keys, kvs, i)
			if ref >= 0 {
				t.Fatalf("key %d found before it was inserted (ref %d)", i, ref)
			}
			keys = append(keys, kvs[0][i], kvs[1][i])
			tab.insert(at, hash(i), int32(i))
		}
		if tab.n != n {
			t.Fatalf("table counts %d live slots, want %d", tab.n, n)
		}
		for i := 0; i < n; i++ {
			if ref, _ := tab.find(hash(i), keys, kvs, i); ref != int32(i) {
				t.Fatalf("key %d resolves to ref %d, want %d", i, ref, i)
			}
		}
	}
	tab.init(joinSlotsMin, 0)
	if len(tab.slots) != joinSlotsMin {
		t.Fatalf("unhinted table has %d slots, want %d", len(tab.slots), joinSlotsMin)
	}
	fill()
	if want := tableSize(joinSlotsMin, n); len(tab.slots) != want || want <= colTableMin {
		t.Fatalf("table grew to %d slots, want %d (past colTableMin)", len(tab.slots), want)
	}

	// Reset-then-reuse: every key is gone at once, the slots are kept, and
	// the same keys file again without growing them.
	grown := len(tab.slots)
	tab.reset()
	if tab.n != 0 || len(tab.slots) != grown {
		t.Fatalf("reset left %d live slots of %d, want 0 of %d", tab.n, len(tab.slots), grown)
	}
	for i := 0; i < n; i += 97 {
		if ref, _ := tab.find(hash(i), keys, kvs, i); ref >= 0 {
			t.Fatalf("key %d survived reset", i)
		}
	}
	fill()
	if len(tab.slots) != grown {
		t.Fatalf("refilling a reset table changed it from %d to %d slots", grown, len(tab.slots))
	}

	// Generation wrap: the reset that would land on 0 — the generation of
	// never-touched slots — clears physically and restarts at 1.
	tab.gen = ^uint32(0)
	for i := range tab.slots {
		tab.slots[i].gen = tab.gen // every slot live in the last generation
	}
	tab.reset()
	if tab.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", tab.gen)
	}
	for i := range tab.slots {
		if tab.slots[i] != (wordSlot{}) {
			t.Fatalf("slot %d not cleared on generation wrap: %+v", i, tab.slots[i])
		}
	}
	fill()
}

// recSink records what an operator delivers: the rows, the size of
// every downstream call, whichever form it took, and the column kinds
// of, and the rows in, the calls that came as columns.
type recSink struct {
	rows    Batch
	calls   []int
	kinds   [][]sqlval.Kind
	colRows int
}

func (s *recSink) Push(t Tuple) { s.rows, s.calls = append(s.rows, t), append(s.calls, 1) }
func (s *recSink) PushCols(cb *ColBatch) {
	s.rows, s.calls, s.colRows = cb.AppendRows(s.rows), append(s.calls, cb.Len), s.colRows+cb.Len
	kinds := make([]sqlval.Kind, len(cb.Cols))
	for c := range cb.Cols {
		kinds[c] = cb.Cols[c].Kind
	}
	s.kinds = append(s.kinds, kinds)
}
func (s *recSink) Advance(uint64) {}
func (s *recSink) Flush()         {}

// emitBytes is the canonical encoding of an emission, row by row.
func emitBytes(rows Batch) []byte {
	var b []byte
	for _, r := range rows {
		b = AppendKey(b, r)
	}
	return b
}

// TestDenseEmitOrderIndependentOfArrival: the dense store emits in
// (epoch, key) order whatever order the groups were created in. Input
// that arrives in that order — a super-aggregate fed by one
// sub-aggregate — never leaves the unfiled run: no word table, no hash,
// no sort. Any other order files the store at its first backward row.
func TestDenseEmitOrderIndependentOfArrival(t *testing.T) {
	const n = 3000
	sorted := make(Batch, n)
	for i := range sorted {
		src := uint64(i / 3)
		if i >= n/2 {
			src |= 1 << 63 // encoded under the other uint tag; still word order
		}
		sorted[i] = Tuple{u(0), u(src), u(uint64(i % 3)), u(uint64(i) & 0x3f), u(uint64(40 + i%11))}
	}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	shuffled := slices.Clone(sorted)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// Two sorted producers, one after the other: what the central
	// super-aggregate of a multi-host plan sees.
	var runs Batch
	for _, rem := range []int{0, 1} {
		for i := rem; i < n; i += 2 {
			runs = append(runs, sorted[i])
		}
	}
	var want []byte
	for _, c := range []struct {
		name   string
		rows   Batch
		radix  bool // also: the store filed
		batchN int
	}{
		{"sorted", sorted, false, n}, {"sorted, batch 256", sorted, false, 256},
		{"reversed", reversed, true, n}, {"shuffled", shuffled, true, 256}, {"two sorted runs", runs, true, n},
	} {
		var out recSink
		agg := denseTestAgg(t, &out, "", nil, true, nil)
		var cb ColBatch
		for off := 0; off < n; off += c.batchN {
			if !cb.SetFromRows(c.rows[off:min(off+c.batchN, n)]) {
				t.Fatal("SetFromRows failed")
			}
			agg.PushCols(&cb)
		}
		if agg.denseN != n {
			t.Fatalf("%s: %d dense groups, want %d", c.name, agg.denseN, n)
		}
		if agg.denseFiled != c.radix || (agg.colTab.slots != nil) != c.radix {
			t.Errorf("%s: filed = %v with a %d-slot table, want filed = %v", c.name, agg.denseFiled, len(agg.colTab.slots), c.radix)
		}
		agg.Flush()
		if got := agg.radixSorts > 0; got != c.radix {
			t.Errorf("%s: radix sort ran = %v, want %v", c.name, got, c.radix)
		}
		got := emitBytes(out.rows)
		if want == nil {
			want = got
		}
		if len(out.rows) != n || !bytes.Equal(got, want) {
			t.Errorf("%s: emission differs from the sorted arrival's (%d rows)", c.name, len(out.rows))
		}
	}

	// A sorted store survives a partial Advance unfiled, files on a
	// backward row, and later rows still find the survivors: denseFile
	// files them under hashWords, the probes hash with hashRows.
	var out, rowOut recSink
	agg := denseTestAgg(t, &out, "", nil, true, nil)
	rowAgg := denseTestAgg(t, &rowOut, "", nil, true, nil)
	push := func(rows ...Tuple) {
		t.Helper()
		var cb ColBatch
		if !cb.SetFromRows(rows) {
			t.Fatal("SetFromRows failed")
		}
		agg.PushCols(&cb)
		PushAll(rowAgg, rows)
	}
	var epochs Batch
	for tb := uint64(0); tb < 2; tb++ {
		for src := uint64(0); src < 100; src += 2 {
			epochs = append(epochs, Tuple{u(tb), u(src), u(1), u(2), u(40 + src)})
		}
	}
	push(epochs...)
	agg.Advance(16)
	rowAgg.Advance(16)
	if agg.denseN != 50 || agg.denseFiled || agg.colTab.slots != nil || agg.minWord != 1 {
		t.Fatalf("after a partial advance: %d groups, filed %v, %d slots, min epoch %d; want 50 unfiled survivors of epoch 1 and no table",
			agg.denseN, agg.denseFiled, len(agg.colTab.slots), agg.minWord)
	}
	push(Tuple{u(1), u(51), u(1), u(2), u(7)}, Tuple{u(1), u(0), u(1), u(2), u(7)}, Tuple{u(1), u(98), u(1), u(2), u(7)})
	if !agg.denseFiled || agg.denseN != 51 {
		t.Fatalf("after a backward row: filed %v with %d groups, want filed with 51", agg.denseFiled, agg.denseN)
	}
	push(epochs[50:]...)
	if agg.denseN != 51 {
		t.Fatalf("rows equal to the survivors made %d groups, want 51", agg.denseN)
	}
	agg.Flush()
	rowAgg.Flush()
	if !bytes.Equal(emitBytes(out.rows), emitBytes(rowOut.rows)) || len(out.rows) != 101 {
		t.Errorf("emitted %d rows, differing from the row store's %d", len(out.rows), len(rowOut.rows))
	}
}

// The HAVING and projection variants the kernel-emit property test
// draws from, over the row tb, s, d, orf, cnt, bytes. kernel says
// whether CompileCol derives a kernel for all of the variant.
var (
	denseHavings = []struct {
		src    string
		kernel bool
	}{
		{"", true},
		{"cnt > 1", true},
		{"orf = 3 OR bytes > 100 AND s < 9223372036854775808", true},
		{"bytes - cnt > 0", true},               // an Int for a group with bytes < cnt
		{"cnt > 1000000", true},                 // drops every group
		{"bytes * 1.0 / cnt > 45", false},       // AVG's reconstruction from its moments
		{"cnt / (orf & 1) > 0 OR d = 1", false}, // non-constant divisor: NULL on zero
		{"cnt > 0", true},                       // keeps every group
	}
	densePosts = []struct {
		srcs   []string
		kernel bool
	}{
		{nil, true},
		{[]string{"s", "cnt * 2", "tb", "bytes"}, true},
		{[]string{"s", "bytes - cnt"}, true},
		// AVG and VARIANCE as the super-aggregate rebuilds them.
		{[]string{"tb", "bytes * 1.0 / cnt", "bytes * 1.0 / cnt - (cnt * 1.0 / cnt) * (cnt * 1.0 / cnt)"}, false},
	}
)

// denseTestAgg builds a dense-eligible aggregate over colTestResolver's
// schema grouping by (time, srcIP, destIP) with OR_AGGR(flags), COUNT(*)
// and SUM(len). kernels also sets the compiled HAVING and projection;
// without them a ColEmit aggregate emits through the row branch.
func denseTestAgg(t *testing.T, out Consumer, having string, post []string, kernels bool, onFlush func(uint64, int, int)) *Aggregate {
	t.Helper()
	r := colTestResolver
	cfg := AggregateConfig{
		EpochIdx:     0,
		EpochOfWM:    func(wm uint64) sqlval.Value { return sqlval.Uint(wm / 16) },
		ColEmit:      true,
		Out:          out,
		OnEpochFlush: onFlush,
	}
	for _, src := range []string{"time", "srcIP", "destIP"} {
		ce := mustCompileCol(t, src, r, nil)
		cfg.GroupBy, cfg.ColGroupBy = append(cfg.GroupBy, ce.Row), append(cfg.ColGroupBy, ce)
	}
	for _, a := range []struct{ fn, arg string }{{"OR_AGGR", "flags"}, {"COUNT", ""}, {"SUM", "len"}} {
		ac, colArg := AggColumn{Factory: mustFactory(t, a.fn)}, (*ColExpr)(nil)
		if a.arg != "" {
			ce := mustCompileCol(t, a.arg, r, nil)
			ac.Arg, colArg = ce.Row, &ce
		}
		cfg.Aggs, cfg.ColArgs = append(cfg.Aggs, ac), append(cfg.ColArgs, colArg)
	}
	rowRes := ColsResolver("", []string{"tb", "s", "d", "orf", "cnt", "bytes"})
	if having != "" {
		ce := mustCompileCol(t, having, rowRes, nil)
		cfg.Having = ce.Row
		if kernels {
			cfg.ColHaving = &ce
		}
	}
	for _, src := range post {
		ce := mustCompileCol(t, src, rowRes, nil)
		cfg.Post = append(cfg.Post, ce.Row)
		if kernels {
			cfg.ColPost = append(cfg.ColPost, ce)
		}
	}
	return NewAggregate(cfg)
}

// TestDenseKernelEmitMatchesRowOracle holds the column emit — HAVING
// and the projection as kernels over the dense arrays — to the row
// branch: the same all-uint stream through a dense aggregate with the
// compiled forms and through one without must deliver the same rows in
// the same downstream calls and report the same OnEpochFlush numbers,
// and both must agree with the pure row path. kernelEmits says the
// kernels really ran wherever they can read the columns, and only
// there: an epoch whose negative SUM is an Int row emits as rows when a
// HAVING or computed projection reads it. An epoch in which one group's
// bytes - cnt underflows runs on the kernels all the same. Where the
// kernels run, HAVING is judged before the sort: only the groups it
// keeps are sorted — none, some or all of a filed store's — and every
// other epoch sorts all it retires.
func TestDenseKernelEmitMatchesRowOracle(t *testing.T) {
	type flush struct {
		wm           uint64
		groups, rows int
	}
	const cases = 280
	var kernelRan, rowRan, compacted, migrated, allDropped, late, underflowed int
	var filedKeptNone, filedKeptSome, filedKeptAll int
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		hv, pv := c%len(denseHavings), (c/len(denseHavings))%len(densePosts)
		negative, migrate := rng.Intn(4) == 0, rng.Intn(5) == 0
		kernels := denseHavings[hv].kernel && densePosts[pv].kernel
		// The HAVING subtracts, or the projection does and the HAVING
		// (none, or cnt > 1) lets the underflowing group through to it.
		subtracts := hv == 3 || pv == 2 && hv <= 1
		// A kernel reads bytes, the SUM the negative group makes an Int.
		readsBytes := hv == 2 || hv == 3 || pv == 2

		var sinks [3]recSink
		var flushes [3][]flush
		var aggs [3]*Aggregate
		for i := range aggs {
			i := i
			aggs[i] = denseTestAgg(t, &sinks[i], denseHavings[hv].src, densePosts[pv].srcs, i == 0, func(wm uint64, g, r int) {
				flushes[i] = append(flushes[i], flush{wm, g, r})
			})
		}
		kern, rowsOnly, oracle := aggs[0], aggs[1], aggs[2]

		// The stream: epochs 0..5 in order, each epoch's rows mixed with
		// early rows of the next so a watermark leaves survivors behind.
		epochs, perEpoch := uint64(3+rng.Intn(3)), 30+rng.Intn(120)
		migrateAt := uint64(rng.Intn(int(epochs)))
		underflowAt := uint64(rng.Intn(2 * int(epochs))) // half the cases: never
		var cb ColBatch
		for e := uint64(0); e < epochs; e++ {
			rows := make(Batch, 0, perEpoch+1)
			for i := 0; i < perEpoch; i++ {
				tb := e
				if e+1 < epochs && rng.Intn(6) == 0 {
					tb = e + 1
				} else if e > 0 && rng.Intn(25) == 0 {
					tb = e - 1 // late: every path drops and counts it
				}
				src := uint64(rng.Intn(12))
				if rng.Intn(3) == 0 {
					src |= 1 << 63
				}
				rows = append(rows, Tuple{u(tb), u(src), u(uint64(rng.Intn(3))), u(uint64(rng.Intn(8))), u(uint64(40 + rng.Intn(12)))})
			}
			if negative {
				// A group of its own whose single len has the top bit set:
				// its SUM is an Int, the other groups' stay Uint.
				rows = append(rows, Tuple{u(e), u(1 << 40), u(0), u(1), u(1<<63 | 5)})
			}
			if e == underflowAt {
				// A group of its own with no bytes: bytes - cnt is 0 - 2.
				rows = append(rows, Tuple{u(e), u(1 << 41), u(0), u(1), u(0)}, Tuple{u(e), u(1 << 41), u(0), u(1), u(0)})
			}
			for off := 0; off < len(rows); {
				end := min(off+1+rng.Intn(64), len(rows))
				chunk := rows[off:end]
				off = end
				if !cb.SetFromRows(chunk) {
					t.Fatal("SetFromRows failed")
				}
				if migrate && e == migrateAt && off == len(rows) && kern.denseN > 0 {
					// A row-path push mid-epoch: both dense stores migrate.
					PushAll(kern, chunk)
					PushAll(rowsOnly, chunk)
					if kern.denseN != 0 || len(kern.groups) == 0 {
						t.Fatalf("case %d: Push did not migrate the dense store", c)
					}
					migrated++
				} else {
					kern.PushCols(&cb)
					rowsOnly.PushCols(&cb)
				}
				PushAll(oracle, chunk)
			}
			wasDense, before, nf := kern.denseN > 0, kern.kernelEmits, len(flushes[0])
			filed, sortedBefore := kern.denseFiled, kern.sortedGroups
			for _, a := range aggs {
				if e+1 == epochs {
					a.Flush()
				} else {
					a.Advance(16 * (e + 1)) // closes epoch e
				}
			}
			emitted := len(flushes[0]) > nf
			if want := emitted && wasDense && kernels && !(negative && readsBytes); (kern.kernelEmits > before) != want {
				t.Fatalf("case %d (having %q, post %v, negative %v, underflow at %d) epoch %d: kernel emit ran = %v, want %v",
					c, denseHavings[hv].src, densePosts[pv].srcs, negative, underflowAt, e, kern.kernelEmits > before, want)
			} else if want {
				kernelRan++
				if subtracts && e == underflowAt {
					underflowed++
				}
			} else if emitted {
				rowRan++
			}
			if emitted && wasDense {
				f, judged := flushes[0][nf], kern.kernelEmits > before && denseHavings[hv].src != ""
				sorted, wantSorted := kern.sortedGroups-sortedBefore, f.groups
				if judged {
					wantSorted = f.rows
				}
				if sorted != wantSorted {
					t.Fatalf("case %d (having %q, post %v, negative %v) epoch %d: %d groups sorted, want %d (HAVING judged first %v, %d retired, %d kept)",
						c, denseHavings[hv].src, densePosts[pv].srcs, negative, e, sorted, wantSorted, judged, f.groups, f.rows)
				}
				switch {
				case !judged || !filed:
				case f.rows == 0:
					filedKeptNone++
				case f.rows < f.groups:
					filedKeptSome++
				default:
					filedKeptAll++
				}
				if kern.denseN > 0 {
					compacted++
				}
			}
			if emitted && flushes[0][nf].rows == 0 {
				allDropped++
			}
		}
		if (hv != 0 || pv != 0) && rowsOnly.kernelEmits != 0 {
			t.Fatalf("case %d: an aggregate without the compiled HAVING/Post ran the kernel emit", c)
		}
		label := fmt.Sprintf("case %d (having %q, post %v, negative %v, migrate %v)", c, denseHavings[hv].src, densePosts[pv].srcs, negative, migrate)
		for i, name := range []string{"", "row branch", "row path"} {
			if i == 0 {
				continue
			}
			diffBatches(t, label+" vs "+name, sinks[i].rows, sinks[0].rows)
			if !slices.Equal(sinks[i].calls, sinks[0].calls) {
				t.Fatalf("%s: downstream calls %v, %s made %v", label, sinks[0].calls, name, sinks[i].calls)
			}
			if !slices.Equal(flushes[i], flushes[0]) {
				t.Fatalf("%s: OnEpochFlush saw %v, %s saw %v", label, flushes[0], name, flushes[i])
			}
			if aggs[i].Late != kern.Late {
				t.Fatalf("%s: Late %d, %s counted %d", label, kern.Late, name, aggs[i].Late)
			}
		}
		late += int(kern.Late)
	}
	// Non-vacuous: each shape was really drawn.
	for _, s := range []struct {
		name string
		n    int
	}{{"kernel emits", kernelRan}, {"row-branch emits", rowRan}, {"partial drains (denseCompact)", compacted},
		{"mid-epoch migrations", migrated}, {"all-filtered epochs", allDropped}, {"late rows", late},
		{"kernel-emitted epochs with an underflowing subtraction", underflowed},
		{"filed epochs HAVING kept none of", filedKeptNone}, {"filed epochs HAVING kept some of", filedKeptSome},
		{"filed epochs HAVING kept all of", filedKeptAll}} {
		if s.n < 10 {
			t.Errorf("only %d %s in %d cases", s.n, s.name, cases)
		}
	}
}

// TestDenseIntMinMaxAvgMatchesRowOracle feeds the dense store arguments
// with Int rows — a subtraction at the argument's root, as the §6.2
// jitter query has behind its join — and holds MIN, MAX, AVG and SUM to
// the row path bit for bit, kind included: groups whose values are all
// negative (MAX is an Int), ties between an Int and a Uint of one value
// (the first seen stays), words past 2^63 on both kinds, AVG sums past
// 2^53, survivors compacted with Int state, a mid-epoch denseMigrate
// with Int state, and a HAVING that reads an Int-marked SUM (which
// emits rows), beside a bare projection of it (which emits columns).
func TestDenseIntMinMaxAvgMatchesRowOracle(t *testing.T) {
	r := colTestResolver
	rowRes := ColsResolver("", []string{"tb", "s", "mn", "mx", "av", "sm", "cnt"})
	build := func(out Consumer, having string, post []string) *Aggregate {
		cfg := AggregateConfig{
			EpochIdx:  0,
			EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm / 16) },
			ColEmit:   true,
			Out:       out,
		}
		for _, src := range []string{"time", "srcIP"} {
			ce := mustCompileCol(t, src, r, nil)
			cfg.GroupBy, cfg.ColGroupBy = append(cfg.GroupBy, ce.Row), append(cfg.ColGroupBy, ce)
		}
		for _, fn := range []string{"MIN", "MAX", "AVG", "SUM", "COUNT"} {
			ce := mustCompileCol(t, "len - destIP", r, nil)
			cfg.Aggs = append(cfg.Aggs, AggColumn{Factory: mustFactory(t, fn), Arg: ce.Row})
			cfg.ColArgs = append(cfg.ColArgs, &ce)
		}
		if having != "" {
			ce := mustCompileCol(t, having, rowRes, nil)
			cfg.Having, cfg.ColHaving = ce.Row, &ce
		}
		for _, src := range post {
			ce := mustCompileCol(t, src, rowRes, nil)
			cfg.Post, cfg.ColPost = append(cfg.Post, ce.Row), append(cfg.ColPost, ce)
		}
		return NewAggregate(cfg)
	}
	// row draws one (len, destIP) pair for group s: its class picks what
	// len - destIP is.
	row := func(rng *rand.Rand, tb, s uint64) Tuple {
		var l, d uint64
		switch s % 4 {
		case 0: // all negative
			l, d = uint64(rng.Intn(100)), uint64(200+rng.Intn(100))
		case 1: // W as a Uint or as an Int, the first seen deciding
			w := 1000 + s
			if rng.Intn(2) == 0 {
				l, d = w, 0
			} else {
				l, d = 0, -w // 0 - (2^64 - w) borrows: Int(w)
			}
		case 2: // past 2^63 as a Uint, or a negative Int whose word is
			if rng.Intn(3) == 0 {
				l, d = 1, uint64(2+rng.Intn(9))
			} else {
				l, d = 1<<63|uint64(rng.Intn(1<<20)), uint64(rng.Intn(8))
			}
		default: // sums past 2^53, now and then below zero
			l, d = uint64(rng.Intn(1<<20))<<33|1, uint64(rng.Intn(8))
			if rng.Intn(8) == 0 {
				l, d = d, l
			}
		}
		return Tuple{u(tb), u(s), u(d), u(0), u(l)}
	}
	for _, c := range []struct {
		name   string
		having string
		post   []string
		kernel bool
	}{
		{"groups ++ aggs", "", nil, true},
		{"HAVING on the Int-marked SUM", "sm > 0", nil, false},
		{"bare projection of the Int-marked columns", "cnt > 1", []string{"s", "mx", "mn", "sm", "av"}, true},
	} {
		rng := rand.New(rand.NewSource(31))
		var sinks [3]recSink
		dense, migrating, oracle := build(&sinks[0], c.having, c.post), build(&sinks[1], c.having, c.post), build(&sinks[2], c.having, c.post)
		var cb ColBatch
		var pushed int64
		compacted := false
		const epochs = 4
		for e := uint64(0); e < epochs; e++ {
			var rows Batch
			for i := 0; i < 300; i++ {
				tb := e
				if e+1 < epochs && rng.Intn(5) == 0 {
					tb = e + 1 // survives this epoch's watermark
				}
				rows = append(rows, row(rng, tb, uint64(rng.Intn(16))))
			}
			for off := 0; off < len(rows); {
				end := min(off+1+rng.Intn(96), len(rows))
				chunk := rows[off:end]
				off = end
				if !cb.SetFromRows(chunk) {
					t.Fatal("SetFromRows failed")
				}
				dense.PushCols(&cb)
				pushed += int64(len(chunk))
				if e == 2 && off == len(rows) {
					if migrating.denseN == 0 {
						t.Fatalf("%s: nothing dense to migrate", c.name)
					}
					PushAll(migrating, chunk)
				} else {
					migrating.PushCols(&cb)
				}
				PushAll(oracle, chunk)
			}
			compacted = compacted || (e > 0 && dense.denseN > 0 && dense.denseInts)
			for _, a := range []*Aggregate{dense, migrating, oracle} {
				if e+1 == epochs {
					a.Flush()
				} else {
					a.Advance(16 * (e + 1))
				}
			}
		}
		if dense.DenseRows() != pushed {
			t.Fatalf("%s: the dense store took %d of %d rows", c.name, dense.DenseRows(), pushed)
		}
		diffBatches(t, c.name+": dense vs row path", sinks[2].rows, sinks[0].rows)
		diffBatches(t, c.name+": migrated vs row path", sinks[2].rows, sinks[1].rows)
		if !slices.Equal(sinks[0].calls, sinks[2].calls) || !slices.Equal(sinks[1].calls, sinks[2].calls) {
			t.Fatalf("%s: downstream calls %v and %v, the row path made %v", c.name, sinks[0].calls, sinks[1].calls, sinks[2].calls)
		}
		if got := dense.kernelEmits > 0; got != c.kernel {
			t.Fatalf("%s: kernel emit ran = %v, want %v", c.name, got, c.kernel)
		}
		if c.having != "" {
			continue // the cases below see what the first one saw, filtered
		}
		var negMax, intTies, uintTies, bigUint int
		for _, row := range sinks[2].rows {
			s, _ := row[1].AsUint()
			switch mx := row[3]; {
			case s%4 == 0 && mx.Kind() == sqlval.KindInt:
				negMax++
			case s%4 == 1 && mx.Kind() == sqlval.KindInt:
				intTies++
			case s%4 == 1:
				uintTies++
			case s%4 == 2 && mx.Kind() == sqlval.KindUint:
				bigUint++
			}
		}
		if !compacted || negMax == 0 || intTies == 0 || uintTies == 0 || bigUint == 0 {
			t.Fatalf("%s: vacuous — Int state compacted %v, %d Int MAXes of all-negative groups, %d Int and %d Uint ties, %d MAXes past 2^63",
				c.name, compacted, negMax, intTies, uintTies, bigUint)
		}
	}
}

// TestAggregateMapMadeOnFirstRowInsert: a dense run never makes the
// groups map; the first row-path insert does, from the size hint.
func TestAggregateMapMadeOnFirstRowInsert(t *testing.T) {
	var out recSink
	agg := denseTestAgg(t, &out, "", nil, true, nil)
	rows := colTestRows(64)
	var cb ColBatch
	if !cb.SetFromRows(rows) {
		t.Fatal("SetFromRows failed")
	}
	agg.PushCols(&cb)
	agg.Advance(16)
	if agg.groups != nil {
		t.Fatal("a dense-only aggregate made its groups map")
	}
	PushAll(agg, rows[40:])
	if agg.groups == nil || agg.denseN != 0 {
		t.Fatal("the row path did not take the groups over")
	}
	agg.Flush()
	var ref recSink
	oracle := denseTestAgg(t, &ref, "", nil, false, nil)
	PushAll(oracle, rows)
	oracle.Advance(16)
	PushAll(oracle, rows[40:])
	oracle.Flush()
	diffBatches(t, "lazy map", ref.rows, out.rows)
}

// TestDenseMinMaxAvgMatchesRowOracle holds MIN, MAX and AVG in the dense
// store to the row path bit for bit: arguments at and past 2^63, AVG sums
// that left the exactly-representable integers long ago (so the order
// of the additions shows in the low bits), a watermark that leaves
// survivors to compact — they keep their AVG count and go on
// accumulating — and a mid-epoch row push that migrates the store into
// minmaxAccum/avgAccum. What reads the AVG column decides the emit: a
// HAVING or a computed projection over it needs rows (the kernels would
// take float bits for a uint); nothing, or a bare reference, sends it
// downstream as a KindFloat column.
func TestDenseMinMaxAvgMatchesRowOracle(t *testing.T) {
	r := colTestResolver
	rowRes := ColsResolver("", []string{"tb", "s", "mn", "mx", "av", "cnt"})
	build := func(out Consumer, having string, post []string) *Aggregate {
		cfg := AggregateConfig{
			EpochIdx:  0,
			EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm / 16) },
			ColEmit:   true,
			Out:       out,
		}
		for _, src := range []string{"time", "srcIP"} {
			ce := mustCompileCol(t, src, r, nil)
			cfg.GroupBy, cfg.ColGroupBy = append(cfg.GroupBy, ce.Row), append(cfg.ColGroupBy, ce)
		}
		for _, fn := range []string{"MIN", "MAX", "AVG", "COUNT"} {
			ce := mustCompileCol(t, "len", r, nil)
			cfg.Aggs = append(cfg.Aggs, AggColumn{Factory: mustFactory(t, fn), Arg: ce.Row})
			cfg.ColArgs = append(cfg.ColArgs, &ce)
		}
		if having != "" {
			ce := mustCompileCol(t, having, rowRes, nil)
			cfg.Having, cfg.ColHaving = ce.Row, &ce
		}
		for _, src := range post {
			ce := mustCompileCol(t, src, rowRes, nil)
			cfg.Post, cfg.ColPost = append(cfg.Post, ce.Row), append(cfg.ColPost, ce)
		}
		return NewAggregate(cfg)
	}
	for _, c := range []struct {
		name     string
		having   string
		post     []string
		kernel   bool
		floatCol int // where AVG arrives downstream, on the kernel emit
	}{
		{"groups ++ aggs", "", nil, true, 4},
		{"HAVING on the counts", "cnt > 1 AND mx >= mn", nil, true, 4},
		{"bare projection", "cnt > 1", []string{"s", "av", "mx", "tb"}, true, 1},
		{"HAVING on AVG", "av > 100", nil, false, 0},
		{"computed projection of AVG", "", []string{"s", "av * 2"}, false, 0},
		{"subtraction over MIN and MAX", "mx - mn >= 0", []string{"tb", "s", "mx - mn", "av"}, true, 3},
	} {
		rng := rand.New(rand.NewSource(11))
		var sinks [3]recSink
		dense, migrating, oracle := build(&sinks[0], c.having, c.post), build(&sinks[1], c.having, c.post), build(&sinks[2], c.having, c.post)
		var cb ColBatch
		compacted, sawBig := false, false
		const epochs = 4
		for e := uint64(0); e < epochs; e++ {
			var rows Batch
			for i := 0; i < 400; i++ {
				tb := e
				if e+1 < epochs && rng.Intn(5) == 0 {
					tb = e + 1 // survives this epoch's watermark
				}
				v := uint64(rng.Intn(1 << 20))
				switch rng.Intn(4) {
				case 0:
					v |= 1 << 63 // above every int64
				case 1:
					v = v<<33 | 1 // sums pass 2^53 within a few rows
				}
				rows = append(rows, Tuple{u(tb), u(uint64(rng.Intn(9))), u(0), u(0), u(v)})
			}
			for off := 0; off < len(rows); {
				end := min(off+1+rng.Intn(96), len(rows))
				chunk := rows[off:end]
				off = end
				if !cb.SetFromRows(chunk) {
					t.Fatal("SetFromRows failed")
				}
				dense.PushCols(&cb)
				if e == 1 && off == len(rows) {
					if migrating.denseN == 0 {
						t.Fatalf("%s: nothing dense to migrate", c.name)
					}
					PushAll(migrating, chunk)
					if migrating.denseN != 0 {
						t.Fatalf("%s: a row push left the dense store live", c.name)
					}
				} else {
					migrating.PushCols(&cb)
				}
				PushAll(oracle, chunk)
			}
			if dense.denseN == 0 {
				t.Fatalf("%s: MIN/MAX/AVG/COUNT did not engage the dense store", c.name)
			}
			for _, a := range []*Aggregate{dense, migrating, oracle} {
				if e+1 == epochs {
					a.Flush()
				} else {
					a.Advance(16 * (e + 1))
				}
			}
			compacted = compacted || dense.denseN > 0
		}
		for _, row := range sinks[2].rows {
			for _, v := range row {
				if f, ok := v.AsFloat(); ok && v.Kind() == sqlval.KindFloat && f > 1<<53 {
					sawBig = true
				}
			}
		}
		if !compacted || (!sawBig && c.post == nil) {
			t.Fatalf("%s: vacuous — compacted %v, an AVG past 2^53 %v", c.name, compacted, sawBig)
		}
		diffBatches(t, c.name+": dense vs row path", sinks[2].rows, sinks[0].rows)
		diffBatches(t, c.name+": migrated vs row path", sinks[2].rows, sinks[1].rows)
		if !slices.Equal(sinks[0].calls, sinks[2].calls) || !slices.Equal(sinks[1].calls, sinks[2].calls) {
			t.Fatalf("%s: downstream calls %v and %v, the row path made %v", c.name, sinks[0].calls, sinks[1].calls, sinks[2].calls)
		}
		if got := dense.kernelEmits > 0; got != c.kernel {
			t.Fatalf("%s: kernel emit ran = %v, want %v", c.name, got, c.kernel)
		}
		if !c.kernel {
			continue
		}
		if dense.kernelEmits != epochs || len(sinks[0].kinds) != epochs {
			t.Fatalf("%s: %d kernel emits, %d column deliveries; want %d of each", c.name, dense.kernelEmits, len(sinks[0].kinds), epochs)
		}
		for _, kinds := range sinks[0].kinds {
			for col, k := range kinds {
				want := sqlval.KindUint
				if col == c.floatCol {
					want = sqlval.KindFloat
				}
				if k != want {
					t.Fatalf("%s: column %d arrived as %v, want %v", c.name, col, k, want)
				}
			}
		}
	}
}
