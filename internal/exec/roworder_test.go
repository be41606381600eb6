package exec

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qap/internal/sqlval"
)

// rowOrderAgg groups input rows (epoch, k1, k2) on all three columns
// with COUNT(*), tumbling on column 0 with one epoch per watermark
// unit. Only Push feeds it, so every group lives in the row store.
func rowOrderAgg(out Consumer) *Aggregate {
	col := func(i int) EvalFunc { return func(t Tuple) sqlval.Value { return t[i] } }
	countFac, _ := NewAccumFactory("COUNT")
	return NewAggregate(AggregateConfig{
		GroupBy:   []EvalFunc{col(0), col(1), col(2)},
		EpochIdx:  0,
		EpochOfWM: func(wm uint64) sqlval.Value { return sqlval.Uint(wm) },
		Aggs:      []AggColumn{{Factory: countFac}},
		Out:       out,
	})
}

// rowOrderKeys are the (k1, k2) shapes the order test draws groups from:
// group i of an epoch gets keys(i), distinct in i.
var rowOrderKeys = []struct {
	name string
	keys func(i int) (sqlval.Value, sqlval.Value)
}{
	// Variable-width keys; "k1" is a strict prefix of "k10" and "k100",
	// and k2 runs from "" through "zzzz".
	{"strings", func(i int) (sqlval.Value, sqlval.Value) {
		return sqlval.Str("k" + strconv.Itoa(i)), sqlval.Str(strings.Repeat("z", i%5))
	}},
	// Fixed-width keys: an odd multiplier scatters i over the whole
	// word, so about half the k1 values are >= 2^63 and encode under
	// their own tag; k2 stays small.
	{"uints", func(i int) (sqlval.Value, sqlval.Value) {
		return sqlval.Uint(uint64(i) * 0x9E3779B97F4A7C15), sqlval.Uint(uint64(i % 3))
	}},
	// Every kind in one key column, floats both integral (encoded as
	// ints) and not; k2 keeps the groups distinct.
	{"mixed", func(i int) (sqlval.Value, sqlval.Value) {
		var k1 sqlval.Value
		switch i % 7 {
		case 0:
			k1 = sqlval.Str(strings.Repeat("ab", i%4))
		case 1:
			k1 = sqlval.Uint(1<<63 + uint64(i))
		case 2:
			k1 = sqlval.Int(-int64(i))
		case 3:
			k1 = sqlval.Float(float64(i) + 0.5)
		case 4:
			k1 = sqlval.Float(float64(i))
		case 5:
			k1 = sqlval.Bool(i%2 == 0)
		default:
			k1 = sqlval.Null
		}
		return k1, sqlval.Uint(uint64(i))
	}},
}

// TestRowStoreEmitOrder checks each emission of the row store against
// a reference the test computes on its own: the groups every drain
// must retire, sorted by epoch (sqlval Compare) and then by their
// encoded key bytes. The input covers drains on both sides of the
// small-segment cutoff, single-epoch drains at Advance, numerically
// equal Int and Uint epochs retiring together, NULL epochs held until
// Flush, and one multi-epoch Flush.
func TestRowStoreEmitOrder(t *testing.T) {
	for _, shape := range rowOrderKeys {
		for _, n := range []int{25, 300} {
			for _, drain := range []string{"advance", "flush"} {
				name := shape.name + "/" + strconv.Itoa(n) + "/" + drain
				t.Run(name, func(t *testing.T) {
					checkRowStoreOrder(t, shape.keys, n, drain == "advance")
				})
			}
		}
	}
}

func checkRowStoreOrder(t *testing.T, keys func(int) (sqlval.Value, sqlval.Value), n int, advance bool) {
	// Epoch 0 and 2 hold Uint epochs only; epoch 1 alternates Uint(1)
	// and Int(1); the last block has NULL epochs.
	epochs := []func(i int) sqlval.Value{
		func(int) sqlval.Value { return sqlval.Uint(0) },
		func(i int) sqlval.Value {
			if i%2 == 0 {
				return sqlval.Int(1)
			}
			return sqlval.Uint(1)
		},
		func(int) sqlval.Value { return sqlval.Uint(2) },
		func(int) sqlval.Value { return sqlval.Null },
	}
	type group struct {
		vals  Tuple
		count uint64
	}
	var input []Tuple
	blocks := make([][]group, len(epochs))
	for e, epoch := range epochs {
		for i := 0; i < n; i++ {
			k1, k2 := keys(i)
			g := group{vals: Tuple{epoch(i), k1, k2}, count: uint64(1 + i%3)}
			blocks[e] = append(blocks[e], g)
			for c := uint64(0); c < g.count; c++ {
				input = append(input, g.vals)
			}
		}
	}
	rand.New(rand.NewSource(int64(n))).Shuffle(len(input), func(i, j int) {
		input[i], input[j] = input[j], input[i]
	})

	// drains lists, per emission, the blocks it retires.
	drains := [][]int{{0, 1, 2, 3}}
	if advance {
		drains = [][]int{{0}, {1}, {2}, {3}}
	}
	var want []Tuple
	for _, d := range drains {
		var gs []group
		for _, b := range d {
			gs = append(gs, blocks[b]...)
		}
		sort.Slice(gs, func(i, j int) bool {
			if c := gs[i].vals[0].Compare(gs[j].vals[0]); c != 0 {
				return c < 0
			}
			return string(AppendKey(nil, gs[i].vals)) < string(AppendKey(nil, gs[j].vals))
		})
		for _, g := range gs {
			want = append(want, append(append(Tuple{}, g.vals...), sqlval.Uint(g.count)))
		}
	}

	sink := &Collector{}
	agg := rowOrderAgg(sink)
	for _, tup := range input {
		agg.Push(tup)
	}
	if advance {
		for wm := uint64(1); wm <= 3; wm++ {
			before := len(sink.Rows)
			agg.Advance(wm)
			if got := len(sink.Rows) - before; got != n {
				t.Fatalf("Advance(%d) emitted %d rows, want one epoch of %d", wm, got, n)
			}
		}
	}
	agg.Flush()
	if len(sink.Rows) != len(want) {
		t.Fatalf("emitted %d rows, want %d", len(sink.Rows), len(want))
	}
	for i, row := range sink.Rows {
		if len(row) != len(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, row, want[i])
		}
		for c := range row {
			if row[c] != want[i][c] {
				t.Fatalf("row %d = %v, want %v", i, row, want[i])
			}
		}
	}
}
