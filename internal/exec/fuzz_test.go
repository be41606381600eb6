package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// FuzzExprCompile cross-checks the column-compiled kernels against the
// row evaluator oracle. The fuzzer supplies an arbitrary GSQL
// expression source plus a data seed; the test parses it, compiles it
// with CompileCol over the canonical 5-column network schema, and then
// asserts the whitelist's soundness claim on a generated all-uint
// batch: wherever a kernel exists, its vector output must match the
// row closure value for value (and the row result must actually be
// KindUint — a kernel on an expression that can leave uint at runtime
// is exactly the bug class this fuzzer hunts). The generated data is
// biased toward overflow edges (0, 1, MaxUint64, 1<<63, shift counts
// near 64) so wraparound in +, *, <<, >> is exercised on every run.
//
// A kernel either exists for the expression's shape or it does not; one
// that exists answers every batch with a vector, never nil. Where a
// subtraction underflows, the row result is a KindInt: the kernel's Int
// bitmap must mark exactly the rows whose Row() result is KindInt, and
// every word must equal the result's AsUint bits.
//
// A second batch mixes NULLs and every value kind to fuzz the
// row↔column pivot itself: SetFromRows must round-trip each value
// through the validity bitmaps exactly, and plainWords must reject the
// batch so no kernel could legally touch it.
func FuzzExprCompile(f *testing.F) {
	for _, src := range []string{
		"srcIP + len * 2",
		"time / 60",
		"flags & 0x26 = 0x26",
		"srcIP = 1 AND (destIP = 2 OR len < 43)",
		"NOT flags",
		"~flags ^ srcIP",
		"srcIP << len",
		"len >> 1",
		"ABS(len) % 7",
		"#P# + time",
		"srcIP - destIP",
		"len / srcIP",
		"-srcIP",
		"1.5 * len",
		"(srcIP - destIP) * len",
		"(srcIP - destIP) > len",
		"(srcIP - destIP) > len AND flags",
		"NOT (srcIP - destIP)",
		"3 - 5",
		"5 - 3",
		"(srcIP - destIP) / 2",
		"len - 18446744073709551615 < len",   // r - l > 2^63: an Int whose int64 is >= 0
		"srcIP - 18446744073709551611 = 5",   // Int(5) against Uint(5) where srcIP is 0
		"srcIP - destIP <= len - flags",      // two may-be-Int operands
		"ABS(srcIP - destIP) OR srcIP - len", // no kernel beside truthiness
	} {
		f.Add(src, uint64(0x9e3779b97f4a7c15), uint8(97))
	}
	// srcIP - destIP over one row: seed 2's underflows, seed 1's does
	// not; of seed 6's five rows exactly one does, mid-batch — at the
	// root, under < and =, and under * (no kernel).
	for _, src := range []string{"srcIP - destIP", "srcIP - destIP < len", "srcIP - destIP = len", "(srcIP - destIP) * len"} {
		f.Add(src, uint64(2), uint8(0))
		f.Add(src, uint64(1), uint8(0))
		f.Add(src, uint64(6), uint8(4))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64, nrows uint8) {
		e, err := gsql.ParseExpr(src)
		if err != nil {
			t.Skip()
		}
		params := Params{
			"P": sqlval.Uint(seed | 1),
			"F": sqlval.Float(1.5),
		}
		ce, err := CompileCol(e, colTestResolver, params)
		if err != nil {
			// CompileCol's error cases are exactly Compile's; an
			// unresolvable column or unknown function is not a bug.
			t.Skip()
		}
		n := int(nrows)%256 + 1
		rows := fuzzUintRows(seed, n)

		var cb ColBatch
		if !cb.SetFromRows(rows) {
			t.Fatalf("SetFromRows failed on an all-uint batch (n=%d)", n)
		}
		if !cb.plainWords(allCols) {
			t.Fatal("plainWords is false for a batch of pure uints")
		}
		if back := cb.AppendRows(nil); len(back) != n {
			t.Fatalf("pivot round-trip length %d, want %d", len(back), n)
		} else {
			for i, row := range back {
				for c, v := range row {
					if !sameValue(v, rows[i][c]) {
						t.Fatalf("pivot round-trip row %d col %d: %v != %v", i, c, v, rows[i][c])
					}
				}
			}
		}

		if ce.U != nil {
			// Scratch reuse must be deterministic: a second call over
			// the same batch yields the same vector and bitmap.
			for call := 0; call < 2; call++ {
				v, ints := ce.U(&cb), intsNow(ce.ints)
				if v == nil || len(v) != n {
					t.Fatalf("%q: uint kernel returned %d words for %d rows (nil %v)", src, len(v), n, v == nil)
				}
				for i, row := range rows {
					want := ce.Row(row)
					isInt := want.Kind() == sqlval.KindInt
					if want.Kind() != sqlval.KindUint && !isInt {
						t.Fatalf("%q row %d: kernel exists but row eval is %v (%v), not an integer — unsound whitelist",
							src, i, want, want.Kind())
					}
					if bitAt(ints, i) != isInt {
						t.Fatalf("%q row %d (call %d): Int bitmap says %v, row eval is %v (%v)", src, i, call, bitAt(ints, i), want, want.Kind())
					}
					if w, _ := want.AsUint(); w != v[i] {
						t.Fatalf("%q row %d (call %d): kernel %d, row eval %v", src, i, call, v[i], want)
					}
					if ce.Const != nil && v[i] != *ce.Const {
						t.Fatalf("%q row %d: Const=%d but kernel yields %d", src, i, *ce.Const, v[i])
					}
				}
			}
		}
		if ce.Truth != nil {
			v := ce.Truth(&cb)
			if v == nil || len(v) != n {
				t.Fatalf("%q: truth kernel length %d, want %d", src, len(v), n)
			}
			for i, row := range rows {
				want := ce.Row(row).AsBool()
				if (v[i] != 0) != want {
					t.Fatalf("%q row %d: truth kernel %d, row eval %v", src, i, v[i], want)
				}
			}
		}

		// Pivot fuzz: a batch mixing NULLs and every kind must
		// round-trip exactly and must never claim plainWords.
		mixed, hasNonUint := fuzzMixedRows(seed^0xabcd, n)
		var mb ColBatch
		if !mb.SetFromRows(mixed) {
			t.Fatalf("SetFromRows failed on mixed batch (n=%d)", n)
		}
		if hasNonUint && mb.plainWords(allCols) {
			t.Fatal("plainWords is true for a batch holding non-uint values")
		}
		for i, row := range mixed {
			for c, want := range row {
				if got := mb.Cols[c].Value(i); !sameValue(got, want) {
					t.Fatalf("mixed pivot row %d col %d: %v != %v", i, c, got, want)
				}
			}
		}
	})
}

// fuzzEdges is the value pool uint columns draw from: overflow and
// shift boundaries first, so arithmetic wraparound is the common case
// rather than a lottery win.
var fuzzEdges = [...]uint64{
	0, 1, 2, 62, 63, 64, 65, 0x3f, 0x26,
	1 << 31, 1 << 32, 1 << 63,
	math.MaxUint64, math.MaxUint64 - 1, math.MaxInt64,
}

// fuzzNext is splitmix64: a tiny deterministic PRNG so every fuzz
// input maps to one reproducible batch.
func fuzzNext(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fuzzUintRows builds n rows over the 5-column schema, half edge
// values, half raw PRNG output.
func fuzzUintRows(seed uint64, n int) Batch {
	s := seed
	b := make(Batch, 0, n)
	for i := 0; i < n; i++ {
		row := make(Tuple, 5)
		for c := range row {
			r := fuzzNext(&s)
			if r&1 == 0 {
				row[c] = sqlval.Uint(fuzzEdges[(r>>1)%uint64(len(fuzzEdges))])
			} else {
				row[c] = sqlval.Uint(r >> 1)
			}
		}
		b = append(b, row)
	}
	return b
}

// fuzzMixedRows builds n rows where each column commits to one value
// kind (SetFromRows rejects kind-mixing columns by contract) and
// sprinkles NULLs per cell, and reports whether any value is non-uint
// or NULL (forcing plainWords to reject the batch).
func fuzzMixedRows(seed uint64, n int) (Batch, bool) {
	s := seed
	kinds := make([]uint64, 5)
	for c := range kinds {
		kinds[c] = fuzzNext(&s) % 5
	}
	b := make(Batch, 0, n)
	nonUint := false
	for i := 0; i < n; i++ {
		row := make(Tuple, 5)
		for c := range row {
			r := fuzzNext(&s)
			if r%5 == 0 {
				row[c] = sqlval.Null
				nonUint = true
				continue
			}
			switch kinds[c] {
			case 0:
				row[c] = sqlval.Uint(r >> 3)
			case 1:
				row[c] = sqlval.Int(-int64(r >> 33))
				nonUint = true
			case 2:
				row[c] = sqlval.Float(float64(r>>40) / 8)
				nonUint = true
			case 3:
				row[c] = sqlval.Bool(r&8 != 0)
				nonUint = true
			default:
				row[c] = sqlval.Str(string(rune('a' + r%26)))
				nonUint = true
			}
		}
		b = append(b, row)
	}
	return b, nonUint
}

// FuzzJoinWords drives a word-layout join and the naive reference
// (join_test.go) with one stream and requires the same output and the
// same StoredTuples after every advance, with the state still in words.
// shape picks the join type, whether a residual (v <= v2) runs and the
// cross-epoch key shape; proj's low ten bits pick a subset of the
// projections below, so the panes keep a random subset of each side.
// data is the stream, four bytes a step: a row for either side's
// pending batch — duplicate keys, late rows and a NULL in a column
// that side does not read —, a pending batch delivered as columns or
// as rows, or an advance.
func FuzzJoinWords(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		data := make([]byte, 4*(60+rng.Intn(190)))
		rng.Read(data)
		f.Add(uint8(i), uint16(rng.Intn(1<<10)), data)
	}
	for jt := uint8(0); jt < 4; jt++ {
		f.Add(jt|4|8, uint16(sidesApartProjs), sidesApartStream) // the residual, the cross shape
	}
	projs := []string{"tb", "k", "v", "w", "tb2", "k2", "v2", "w2", "v + v2", "w2 - w"}
	types := []gsql.JoinType{gsql.JoinInner, gsql.JoinLeftOuter, gsql.JoinRightOuter, gsql.JoinFullOuter}
	f.Fuzz(func(t *testing.T, shape uint8, proj uint16, data []byte) {
		if len(data) > 1024 {
			data = data[:1024] // the reference, and the output, can be quadratic
		}
		jt, residual, cross := types[shape&3], "", shape&8 != 0
		if shape&4 != 0 {
			residual = "v <= v2"
		}
		var srcs []string
		for i, p := range projs {
			if proj&(1<<i) != 0 {
				srcs = append(srcs, p)
			}
		}
		if len(srcs) == 0 {
			srcs = projs[1:2]
		}
		build := func(out Consumer) JoinConfig {
			return withCols(t, wideJoinTestConfig(t, jt, cross, out), wideComb, residual, srcs...)
		}
		sink := &Collector{}
		j := NewJoin(build(sink))
		ref := &naiveJoin{cfg: build(Discard{})}
		// unused lists, per side, the columns of v and w no output reads.
		var unused [2][]int
		for s, keep := range [][]int{j.left.keep, j.right.keep} {
			for _, c := range []int{2, 3} {
				if !slices.Contains(keep, c) {
					unused[s] = append(unused[s], c)
				}
			}
		}
		check := func(when string) {
			t.Helper()
			diffBatches(t, when, ref.out, sink.Rows)
			if want := len(ref.rows[0]) + len(ref.rows[1]); j.StoredTuples() != want {
				t.Fatalf("%s: StoredTuples = %d, reference holds %d", when, j.StoredTuples(), want)
			}
			if got := joinLayout(j); got != "words" {
				t.Fatalf("%s: state is in %s, want words", when, got)
			}
		}
		var pending [2]Batch
		var cb ColBatch
		deliver := func(s int, cols bool) {
			b, left := pending[s], s == 0
			if len(b) == 0 {
				return
			}
			for _, tp := range b {
				ref.push(tp, left)
			}
			port := j.RightIn().(*joinPort)
			if left {
				port = j.LeftIn().(*joinPort)
			}
			if cols {
				if !cb.SetFromRows(b) {
					t.Fatal("SetFromRows failed")
				}
				port.PushCols(&cb)
			} else {
				PushAll(port, b)
			}
			pending[s] = nil
		}
		epoch := uint64(0)
		for step := 0; step+4 <= len(data); step += 4 {
			op, a, b, c := data[step], data[step+1], data[step+2], data[step+3]
			s := int(op>>2) & 1
			switch op & 3 {
			case 0:
				epoch += uint64(op>>2) & 1
				wm := epoch*60 + uint64(a)%60
				ref.advance(wm)
				j.LeftIn().Advance(wm)
				j.RightIn().Advance(wm)
				check(fmt.Sprintf("step %d advance(%d)", step/4, wm))
			case 1, 2:
				s = int(op&3) - 1
				tb := epoch
				if op&4 != 0 && epoch >= 2 {
					tb = epoch - 2 // below the boundary of the last advance
				}
				row := Tuple{u(tb), u(uint64(a % 4)), u(uint64(b % 20)), u(uint64(c % 9))}
				if op&8 != 0 && len(unused[s]) > 0 {
					row[unused[s][int(op>>4)%len(unused[s])]] = sqlval.Null
				}
				pending[s] = append(pending[s], row)
			default:
				deliver(s, op&8 != 0)
			}
		}
		deliver(0, true)
		deliver(1, false)
		ref.flush()
		j.LeftIn().Flush()
		j.RightIn().Flush()
		check("flush")
	})
}

// FuzzDenseAggregate holds the dense group store to the row store: the
// same uint rows go once as column batches into a dense aggregate and
// once row by row through Push into another, and both must emit the
// same rows and report the same OnEpochFlush numbers and Late counts.
// data is the stream, three bytes a step: a row over a small key domain
// (an epoch at or up to three past the watermark's, or one behind it,
// late), a cut that delivers the pending rows as one batch, or an
// advance. After every batch and advance the dense store must hold its
// mode's invariant (denseCheck): an unfiled store a strictly increasing
// run, a filed one every group findable in its table.
func FuzzDenseAggregate(f *testing.F) {
	for _, seed := range denseFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*2048 {
			data = data[:3*2048]
		}
		type flush struct {
			wm           uint64
			groups, rows int
		}
		var outs [2]recSink
		var flushes [2][]flush
		var aggs [2]*Aggregate
		for s := range aggs {
			aggs[s] = denseTestAgg(t, &outs[s], "", nil, true, func(wm uint64, g, r int) {
				flushes[s] = append(flushes[s], flush{wm, g, r})
			})
		}
		dense, rowStore := aggs[0], aggs[1]
		var pending Batch
		var cb ColBatch
		deliver := func() {
			if len(pending) == 0 {
				return
			}
			if !cb.SetFromRows(pending) {
				t.Fatal("SetFromRows failed")
			}
			dense.PushCols(&cb)
			pending = pending[:0]
			denseCheck(t, dense)
		}
		check := func(when string) {
			t.Helper()
			if len(dense.groups) != 0 || rowStore.denseN != 0 {
				t.Fatalf("%s: a store left its mode", when)
			}
			if !bytes.Equal(emitBytes(outs[0].rows), emitBytes(outs[1].rows)) {
				t.Fatalf("%s: dense emitted %v, row store %v", when, outs[0].rows, outs[1].rows)
			}
			if !slices.Equal(flushes[0], flushes[1]) || dense.Late != rowStore.Late {
				t.Fatalf("%s: flushes %v late %d, row store %v late %d", when, flushes[0], dense.Late, flushes[1], rowStore.Late)
			}
		}
		epoch := uint64(0)
		for k := 0; k+3 <= len(data); k += 3 {
			op, a, b := data[k], data[k+1], data[k+2]
			switch op & 3 {
			case 0, 1:
				tb := epoch + uint64(op>>2)&3
				if op&0x80 != 0 && epoch > 0 {
					tb = epoch - 1
				}
				row := Tuple{u(tb), u(uint64(a & 7)), u(uint64(b & 3)), u(uint64(b >> 2)), u(uint64(a))}
				pending = append(pending, row)
				rowStore.Push(row)
			case 2:
				deliver()
			default:
				deliver()
				epoch += uint64(a & 1)
				wm := epoch*16 + uint64(b&15)
				dense.Advance(wm)
				rowStore.Advance(wm)
				denseCheck(t, dense)
				check(fmt.Sprintf("step %d advance(%d)", k/3, wm))
			}
		}
		deliver()
		dense.Flush()
		rowStore.Flush()
		check("flush")
	})
}

// denseCheck asserts the dense store's mode invariant: unfiled, its
// groups are a strictly increasing run in denseKeyLess order and its
// table holds nothing; filed, the table resolves every group's key
// words to that group.
func denseCheck(t *testing.T, o *Aggregate) {
	t.Helper()
	nk, eIdx := len(o.cfg.GroupBy), o.cfg.EpochIdx
	if !o.denseFiled {
		if o.colTab.n != 0 {
			t.Fatalf("unfiled store with %d table entries", o.colTab.n)
		}
		for g := 1; g < o.denseN; g++ {
			if !o.denseKeyLess(int32(g-1), int32(g), nk, eIdx) {
				t.Fatalf("unfiled store out of key order at group %d: %v", g, o.colWords[(g-1)*nk:(g+1)*nk])
			}
		}
		return
	}
	if o.colTab.n != o.denseN {
		t.Fatalf("filed store: %d table entries for %d groups", o.colTab.n, o.denseN)
	}
	kvs := make([][]uint64, nk)
	for g := 0; g < o.denseN; g++ {
		words := o.colWords[g*nk : (g+1)*nk]
		for c := range kvs {
			kvs[c] = words[c : c+1]
		}
		if got, _ := o.colTab.find(hashWords(words), o.colWords, kvs, 0); got != int32(g) {
			t.Fatalf("filed store: group %d's key %v resolves to %d", g, words, got)
		}
	}
}

// denseFuzzSeeds are FuzzDenseAggregate's committed inputs, one per
// way a store leaves or keeps its key order.
func denseFuzzSeeds() [][]byte {
	row := func(dt, src, dst uint8) []byte { return []byte{dt << 2, src, dst} }
	late := func(src, dst uint8) []byte { return []byte{0x80, src, dst} }
	cut := []byte{2, 0, 0}
	advance := func(next bool, off uint8) []byte { return []byte{3, uint8(b2u(next)), off} }
	// run is every (src, dst) of the epoch dt ahead, in key order.
	run := func(dt uint8, srcs ...uint8) []byte {
		var b []byte
		for _, s := range srcs {
			for d := uint8(0); d < 4; d++ {
				b = append(b, row(dt, s, d)...)
				if d == 1 {
					b = append(b, row(dt, s, d)...) // an equal row updates the last group
				}
			}
		}
		return b
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	return [][]byte{
		// One sorted run across two epochs, cut mid-run, closed in order.
		cat(run(0, 0, 1, 2), cut, run(0, 3, 5), run(1, 0, 4), advance(true, 3), run(1, 6, 7), advance(true, 0)),
		// Two sorted runs, as from two producers: the second files.
		cat(run(0, 0, 2, 4, 6), cut, run(0, 1, 3, 5, 7), advance(true, 1)),
		// A backward row equal to an earlier group.
		cat(run(0, 1, 2, 3), row(0, 1, 2), cut, row(0, 3, 3), row(0, 2, 0), advance(true, 0)),
		// A backward row that is new.
		cat(run(0, 1, 3, 5), cut, row(0, 2, 0), row(0, 4, 1), run(0, 6), advance(true, 0)),
		// Partial retirement leaves survivors unfiled; late rows, then a
		// backward row files them, and later rows must find them.
		cat(run(0, 0, 1), run(1, 2, 5), run(2, 1), advance(true, 7), late(0, 0), late(3, 1),
			row(0, 3, 0), cut, row(0, 2, 1), row(0, 5, 3), row(1, 1, 2), advance(true, 2), advance(true, 9)),
	}
}
