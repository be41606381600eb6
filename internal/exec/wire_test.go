package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"qap/internal/sqlval"
)

// wireSampleBatch is a batch covering every value kind, including the
// float edge cases that text encodings mangle (NaN, ±Inf, -0, ULP
// neighbors) and empty/non-ASCII strings.
func wireSampleBatch() Batch {
	return Batch{
		{sqlval.Null, sqlval.Uint(0), sqlval.Uint(math.MaxUint64), sqlval.Int(-1)},
		{sqlval.Int(math.MinInt64), sqlval.Int(math.MaxInt64)},
		{sqlval.Float(0), sqlval.Float(math.Copysign(0, -1)), sqlval.Float(math.NaN()),
			sqlval.Float(math.Inf(1)), sqlval.Float(math.Inf(-1)),
			sqlval.Float(1.0000000000000002), sqlval.Float(-1.7976931348623157e308)},
		{sqlval.Bool(true), sqlval.Bool(false)},
		{sqlval.Str(""), sqlval.Str("srcIP"), sqlval.Str("αβγ\x00\xff")},
		{}, // the empty tuple is legal on the wire
	}
}

// sameWireValue compares decoded against original bit-exactly: floats
// by their IEEE bits (NaN == NaN on the wire), everything else by kind
// and payload.
func sameWireValue(a, b sqlval.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqlval.KindFloat {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return reflect.DeepEqual(a, b)
}

func sameWireBatch(t *testing.T, want, got Batch) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("tuple count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("tuple %d: column count want %d, got %d", i, len(want[i]), len(got[i]))
		}
		for c := range want[i] {
			if !sameWireValue(want[i][c], got[i][c]) {
				t.Fatalf("tuple %d col %d: want %v, got %v", i, c, want[i][c], got[i][c])
			}
		}
	}
}

// TestWireRoundTripSample: the codec is the identity on a batch
// covering every kind and the float edge cases, and the re-encoding is
// byte-identical (the canonical fixed point).
func TestWireRoundTripSample(t *testing.T) {
	b := wireSampleBatch()
	enc := AppendBatchWire(nil, b)
	dec, err := DecodeBatchWire(enc)
	if err != nil {
		t.Fatal(err)
	}
	sameWireBatch(t, b, dec)
	re := AppendBatchWire(nil, dec)
	if !bytes.Equal(enc, re) {
		t.Fatal("re-encoding a decoded batch changed the bytes")
	}
}

// TestWireRoundTripGenerated is the property over realistic traffic:
// tuples built exactly like the live splitter builds them (a
// deterministic packet-shaped generator over the TCP schema's column
// mix) must survive the wire bit-exactly at every batch size,
// including ragged final chunks.
//
// The generator lives here rather than importing netgen: exec is
// below netgen in the dependency order.
func TestWireRoundTripGenerated(t *testing.T) {
	rng := uint64(1)
	next := func() uint64 { // xorshift64
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	mkTuple := func() Tuple {
		return Tuple{
			sqlval.Uint(next() % 1000),       // time
			sqlval.Uint(next() & 0xFFFFFFFF), // srcIP
			sqlval.Uint(next() & 0xFFFFFFFF), // destIP
			sqlval.Uint(next() & 0xFFFF),     // srcPort
			sqlval.Uint(next() & 0xFFFF),     // destPort
			sqlval.Uint(next() % 1500),       // len
			sqlval.Uint(next()),              // seq
			sqlval.Uint(next() & 0xFF),       // flags
		}
	}
	for _, n := range []int{0, 1, 7, 256, 1024} {
		b := make(Batch, 0, n)
		for i := 0; i < n; i++ {
			b = append(b, mkTuple())
		}
		enc := AppendBatchWire(nil, b)
		dec, err := DecodeBatchWire(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameWireBatch(t, b, dec)
		if re := AppendBatchWire(nil, dec); !bytes.Equal(enc, re) {
			t.Fatalf("n=%d: re-encoding changed the bytes", n)
		}
	}
}

// TestWireRejectsTruncation: every strict prefix of a valid encoding
// must be rejected (no partial decode), and so must trailing garbage.
// Every rejection must be a positioned *WireError.
func TestWireRejectsTruncation(t *testing.T) {
	enc := AppendBatchWire(nil, wireSampleBatch())
	for n := 0; n < len(enc); n++ {
		_, err := DecodeBatchWire(enc[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
		we, ok := err.(*WireError)
		if !ok {
			t.Fatalf("prefix %d: error is %T, want *WireError", n, err)
		}
		if we.Offset < 0 || we.Offset > n {
			t.Fatalf("prefix %d: error offset %d out of range", n, we.Offset)
		}
	}
	trailing := append(append([]byte(nil), enc...), 0)
	if _, err := DecodeBatchWire(trailing); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// TestWireRejectsOversized: the wire limits bound every
// attacker-controlled length before it sizes an allocation.
func TestWireRejectsOversized(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"tuples", binary.BigEndian.AppendUint32(nil, MaxWireTuples+1)},
		{"cols", append(binary.BigEndian.AppendUint32(nil, 1), 0xFF, 0xFF)},
		{"string", append(append(append(binary.BigEndian.AppendUint32(nil, 1),
			0, 1), byte(sqlval.KindString)), binary.BigEndian.AppendUint32(nil, MaxWireString+1)...)},
	}
	for _, tc := range cases {
		if _, err := DecodeBatchWire(tc.data); err == nil {
			t.Errorf("%s: oversized input decoded without error", tc.name)
		}
	}
}

// TestWireRejectsNonCanonical: inputs with no canonical preimage —
// bool bytes other than 0/1, unknown kinds — must be rejected, or
// encode(decode(x)) == x breaks.
func TestWireRejectsNonCanonical(t *testing.T) {
	// One single-column tuple with a bool value of 2.
	bad := append(binary.BigEndian.AppendUint32(nil, 1), 0, 1, byte(sqlval.KindBool), 2)
	if _, err := DecodeBatchWire(bad); err == nil {
		t.Error("non-canonical bool byte decoded without error")
	}
	// Unknown kind byte.
	bad = append(binary.BigEndian.AppendUint32(nil, 1), 0, 1, 0xEE)
	if _, err := DecodeBatchWire(bad); err == nil {
		t.Error("unknown value kind decoded without error")
	}
}

// TestWireKindsPinned pins the sqlval.Kind numbering the codec puts on
// the wire. Renumbering sqlval is a wire break: this test is the tripwire.
func TestWireKindsPinned(t *testing.T) {
	pins := []struct {
		kind sqlval.Kind
		want byte
	}{
		{sqlval.KindNull, 0},
		{sqlval.KindUint, 1},
		{sqlval.KindInt, 2},
		{sqlval.KindFloat, 3},
		{sqlval.KindBool, 4},
		{sqlval.KindString, 5},
	}
	for _, p := range pins {
		if byte(p.kind) != p.want {
			t.Errorf("sqlval kind %v renumbered to %d (wire pins %d); bump the live ProtocolVersion", p.kind, byte(p.kind), p.want)
		}
	}
}

// TestWireDecodedTuplesAreClamped: decoded tuples must be
// capacity-clamped so appending to one cannot clobber its slab
// neighbor (the immutable-tuple contract).
func TestWireDecodedTuplesAreClamped(t *testing.T) {
	b := Batch{{sqlval.Uint(1)}, {sqlval.Uint(2)}}
	dec, err := DecodeBatchWire(AppendBatchWire(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(dec[0], sqlval.Uint(99)) // must copy, not overwrite dec[1][0]
	if u, _ := dec[1][0].AsUint(); u != 2 {
		t.Fatal("append through a decoded tuple clobbered its neighbor")
	}
}

// FuzzBatchCodec holds the codec to its canonical fixed point: any
// input that decodes must re-encode to the identical bytes, and the
// decoded batch must survive a second round trip.
func FuzzBatchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint32(nil, 0))
	f.Add(AppendBatchWire(nil, wireSampleBatch()))
	f.Add(AppendBatchWire(nil, Batch{{sqlval.Uint(7), sqlval.Str("x")}}))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1), 0, 1, byte(sqlval.KindBool), 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatchWire(data)
		if err != nil {
			// Rejected input must carry a positioned error.
			if _, ok := err.(*WireError); !ok {
				t.Fatalf("decode error is %T, want *WireError: %v", err, err)
			}
			return
		}
		re := AppendBatchWire(nil, b)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode accepted non-canonical input:\n in:  %x\n out: %x", data, re)
		}
		b2, err := DecodeBatchWire(re)
		if err != nil {
			t.Fatalf("re-encoded bytes failed to decode: %v", err)
		}
		if len(b2) != len(b) {
			t.Fatalf("round trip changed tuple count: %d vs %d", len(b), len(b2))
		}
	})
}

// ---- column-batch codec ----

// colWireSample is a batch covering every column kind, NULLs in each
// payload shape, an all-NULL (KindNull) column, and a row count that
// leaves a ragged last validity word.
func colWireSample(t testing.TB) *ColBatch {
	t.Helper()
	const n = 70
	rows := make(Batch, n)
	for r := range rows {
		null := func(v sqlval.Value) sqlval.Value {
			if r%7 == 3 {
				return sqlval.Null
			}
			return v
		}
		rows[r] = Tuple{
			sqlval.Uint(uint64(r) * 0x9E3779B97F4A7C15),
			null(sqlval.Uint(uint64(r))),
			sqlval.Int(int64(-r)),
			null(sqlval.Float(math.Float64frombits(0x7FF8000000000001 + uint64(r)))), // NaN payloads
			null(sqlval.Bool(r%2 == 0)),
			null(sqlval.Str(string(rune('a'+r%26)) + "αβ\x00")),
			sqlval.Str(""),
			sqlval.Null,
		}
	}
	cb := new(ColBatch)
	if !cb.SetFromRows(rows) {
		t.Fatal("sample rows are not columnar")
	}
	return cb
}

// colWireInts is n rows of two uint columns with Int rows: the first
// mixes Uints, Ints and NULLs, the second Uints and Ints.
func colWireInts(t testing.TB, n int) *ColBatch {
	t.Helper()
	rows := make(Batch, n)
	for r := range rows {
		a, b := sqlval.Uint(uint64(r)), sqlval.Uint(uint64(r)*0x9E3779B97F4A7C15)
		switch {
		case r%5 == 0:
			a = sqlval.Null
		case r%3 == 0:
			a = sqlval.Int(-int64(r))
		}
		if r%4 == 1 {
			b = sqlval.Int(int64(r) - 1<<62)
		}
		rows[r] = Tuple{a, b}
	}
	cb := new(ColBatch)
	if !cb.SetFromRows(rows) || len(cb.Cols[0].Int) == 0 || len(cb.Cols[0].Valid) == 0 || len(cb.Cols[1].Int) == 0 {
		t.Fatal("the rows are not uint columns with Int rows and NULLs")
	}
	return cb
}

// sameColBatch compares two batches value by value, bit-exactly.
func sameColBatch(t *testing.T, want, got *ColBatch) {
	t.Helper()
	if want.Len != got.Len || len(want.Cols) != len(got.Cols) {
		t.Fatalf("shape: want %dx%d, got %dx%d", want.Len, len(want.Cols), got.Len, len(got.Cols))
	}
	for c := range want.Cols {
		for r := 0; r < want.Len; r++ {
			if w, g := want.Cols[c].Value(r), got.Cols[c].Value(r); !sameWireValue(w, g) {
				t.Fatalf("col %d row %d: want %v, got %v", c, r, w, g)
			}
		}
	}
}

// TestColWireRoundTrip: the column codec is the identity on every kind
// and NULL pattern, re-encoding is byte-identical (the canonical fixed
// point), the size functions are exact, and the packet shape — eight
// NULL-free uint columns — survives at every batch size.
func TestColWireRoundTrip(t *testing.T) {
	batches := []*ColBatch{colWireSample(t), {}, colWireInts(t, 7), colWireInts(t, 64), colWireInts(t, 130)}
	for _, n := range []int{0, 1, 63, 64, 65, 256, 1000} {
		cb := new(ColBatch)
		if !cb.SetFromRows(fuzzUintRows(uint64(n)+1, n)) {
			t.Fatal("uint rows are not columnar")
		}
		batches = append(batches, cb)
	}
	for i, cb := range batches {
		enc := AppendColBatchWire(nil, cb)
		if got := ColBatchWireSize(cb); got != len(enc) {
			t.Fatalf("batch %d: ColBatchWireSize = %d, encoding is %d bytes", i, got, len(enc))
		}
		dec := new(ColBatch)
		if err := DecodeColBatchWire(enc, dec); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		sameColBatch(t, cb, dec)
		if re := AppendColBatchWire(nil, dec); !bytes.Equal(enc, re) {
			t.Fatalf("batch %d: re-encoding a decoded batch changed the bytes", i)
		}
		rows := cb.AppendRows(nil)
		if got := BatchWireSize(rows); got != len(AppendBatchWire(nil, rows)) {
			t.Fatalf("batch %d: BatchWireSize = %d, row encoding is %d bytes", i, got, len(AppendBatchWire(nil, rows)))
		}
	}
}

// TestColWireEncoderNormalizes: what the canonical form pins, the
// encoder enforces on whatever the batch holds in memory — an all-ones
// bitmap and an Int bitmap marking no valid row are dropped, bitmap bits
// past Len, Int marks and payload under a NULL are zeroed, a bool word
// is 0 or 1 — so every encoding decodes.
func TestColWireEncoderNormalizes(t *testing.T) {
	cb := &ColBatch{Len: 3, Cols: []ColVec{
		{Kind: sqlval.KindUint, U64: []uint64{1, 2, 3}, Valid: []uint64{^uint64(0)}}, // all valid, junk tail
		{Kind: sqlval.KindUint, U64: []uint64{1, 99, 3}, Valid: []uint64{0xF5}},      // row 1 NULL over 99, junk tail
		{Kind: sqlval.KindBool, U64: []uint64{0, 7, 1}},
		{Kind: sqlval.KindString, Str: []string{"a", "junk", "c"}, Valid: []uint64{0x5}},
		{Kind: sqlval.KindUint, U64: []uint64{1, 0, 3}, Valid: []uint64{0x5}, Int: []uint64{0xFE}}, // Int mark on the NULL, junk tail
		{Kind: sqlval.KindUint, U64: []uint64{1, 0, 3}, Valid: []uint64{0x5}, Int: []uint64{0x2}},  // marks the NULL alone
	}}
	enc := AppendColBatchWire(nil, cb)
	if got := ColBatchWireSize(cb); got != len(enc) {
		t.Fatalf("ColBatchWireSize = %d, encoding is %d bytes", got, len(enc))
	}
	dec := new(ColBatch)
	if err := DecodeColBatchWire(enc, dec); err != nil {
		t.Fatal(err)
	}
	sameColBatch(t, cb, dec)
	if len(dec.Cols[0].Valid) != 0 {
		t.Fatal("an all-valid bitmap travelled")
	}
	if got := dec.Cols[4].Int; len(got) != 1 || got[0] != 0x4 {
		t.Fatalf("the Int bitmap travelled as %#x, want the one valid Int row, 0x4", got)
	}
	if len(dec.Cols[5].Int) != 0 {
		t.Fatal("an Int bitmap marking no valid row travelled")
	}
}

// TestColWireRejectsTruncation: every strict prefix of a valid encoding
// and any trailing byte is a positioned *WireError.
func TestColWireRejectsTruncation(t *testing.T) {
	enc := AppendColBatchWire(nil, colWireSample(t))
	dec := new(ColBatch)
	for n := 0; n < len(enc); n++ {
		err := DecodeColBatchWire(enc[:n], dec)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
		we, ok := err.(*WireError)
		if !ok {
			t.Fatalf("prefix %d: error is %T, want *WireError", n, err)
		}
		if we.Offset < 0 || we.Offset > n {
			t.Fatalf("prefix %d: error offset %d out of range", n, we.Offset)
		}
	}
	if err := DecodeColBatchWire(append(append([]byte(nil), enc...), 0), dec); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// colWireHeader is a column batch's rows/cols header.
func colWireHeader(rows, cols int) []byte {
	return binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(nil, uint32(rows)), uint16(cols))
}

func colWireWords(dst []byte, words ...uint64) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// TestColWireRejectsOversizedAndNonCanonical: the limits bound every
// attacker-controlled length before it sizes an allocation, and input
// with no canonical preimage is refused, or encode(decode(x)) == x
// breaks. Each case names the message fragment its rejection carries.
func TestColWireRejectsOversizedAndNonCanonical(t *testing.T) {
	uintCol := func(flags byte) []byte { return []byte{byte(sqlval.KindUint), flags} }
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"rows over the limit", "row limit", colWireHeader(MaxWireTuples+1, 0)},
		{"cols over the limit", "column limit", colWireHeader(1, MaxWireCols+1)},
		{"cells over the limit", "cell limit", colWireHeader(MaxWireTuples, 17)},
		{"rows the input cannot hold", "truncated payload", append(colWireHeader(MaxWireTuples, 1), uintCol(0)...)},
		{"string over the limit", "byte limit", binary.LittleEndian.AppendUint32(
			append(colWireHeader(1, 1), byte(sqlval.KindString), 0), MaxWireString+1)},
		{"unknown kind", "unknown value kind", append(colWireHeader(0, 1), 0xEE, 0)},
		{"flags above 3", "flags byte", append(colWireHeader(0, 1), uintCol(4)...)},
		{"bitmap on a null column", "flags byte", append(colWireHeader(1, 1), byte(sqlval.KindNull), 1)},
		{"Int bitmap on a null column", "flags byte", append(colWireHeader(1, 1), byte(sqlval.KindNull), 2)},
		{"Int bitmap on an int column", "Int bitmap on a non-uint (int) column", colWireWords(append(colWireHeader(1, 1), byte(sqlval.KindInt), 2), 1, 5)},
		{"Int bitmap on a float column", "Int bitmap on a non-uint (float) column", colWireWords(append(colWireHeader(1, 1), byte(sqlval.KindFloat), 2), 1, 5)},
		{"Int bit on a NULL row", "Int bit on the NULL at row 1", colWireWords(append(colWireHeader(2, 1), uintCol(3)...), 0b01, 0b11, 5, 0)},
		{"Int bit on a NULL row past 64", "Int bit on the NULL at row 65", colWireWords(append(colWireHeader(70, 1), uintCol(3)...),
			^uint64(0), 0b1, ^uint64(0)>>63, 0b11)},
		{"Int bits past Len", "Int bits set past row 2", colWireWords(append(colWireHeader(2, 1), uintCol(2)...), 0b101, 5, 6)},
		{"Int bitmap all zero", "all-zero Int bitmap", colWireWords(append(colWireHeader(2, 1), uintCol(2)...), 0, 5, 6)},
		{"Int bitmap on an empty batch", "all-zero Int bitmap", append(colWireHeader(0, 1), uintCol(2)...)},
		{"validity bits past Len", "past row", colWireWords(append(colWireHeader(2, 1), uintCol(1)...), 0b101, 5, 0)},
		{"validity all ones", "all-valid", colWireWords(append(colWireHeader(2, 1), uintCol(1)...), 0b11, 5, 6)},
		{"validity on an empty batch", "all-valid", append(colWireHeader(0, 1), uintCol(1)...)},
		{"payload under a NULL", "under the NULL", colWireWords(append(colWireHeader(2, 1), uintCol(1)...), 0b01, 5, 6)},
		{"bool word above 1", "bool word", colWireWords(append(colWireHeader(1, 1), byte(sqlval.KindBool), 0), 2)},
		{"string under a NULL", "under the NULL", append(colWireWords(
			append(colWireHeader(1, 1), byte(sqlval.KindString), 1), 0), 1, 0, 0, 0, 'x')},
	}
	dec := new(ColBatch)
	for _, tc := range cases {
		err := DecodeColBatchWire(tc.data, dec)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if _, ok := err.(*WireError); !ok || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q (%T), want a *WireError mentioning %q", tc.name, err, err, tc.want)
		}
	}
}

// sameColSlice holds cb.Slice(lo, hi) to rows [lo, hi) of cb.
func sameColSlice(t *testing.T, cb *ColBatch, lo, hi int) {
	t.Helper()
	var view ColBatch
	cb.Slice(lo, hi, &view)
	if view.Len != hi-lo || len(view.Cols) != len(cb.Cols) {
		t.Fatalf("slice [%d,%d): shape %dx%d", lo, hi, view.Len, len(view.Cols))
	}
	for c := range cb.Cols {
		for r := lo; r < hi; r++ {
			if w, g := cb.Cols[c].Value(r), view.Cols[c].Value(r-lo); !sameWireValue(w, g) {
				t.Fatalf("slice [%d,%d) col %d row %d: want %v, got %v", lo, hi, c, r, w, g)
			}
		}
	}
}

// TestColWireDecodeWarmThenSlice: a batch decoded into a recycled one
// slices by column kind. The vectors a kind does not use keep the
// previous shape's capacity (here 4 uint words under a 10-row string
// and an all-NULL column), and Slice must not read them as payload.
func TestColWireDecodeWarmThenSlice(t *testing.T) {
	warm := new(ColBatch)
	if !warm.SetFromRows(fuzzUintRows(3, 4)) {
		t.Fatal("uint rows are not columnar")
	}
	rows := make(Batch, 10)
	for r := range rows {
		rows[r] = Tuple{sqlval.Str(string(rune('a' + r))), sqlval.Null, sqlval.Uint(uint64(r)), sqlval.Bool(r%3 == 0)}
	}
	src := new(ColBatch)
	if !src.SetFromRows(rows) {
		t.Fatal("rows are not columnar")
	}
	if err := DecodeColBatchWire(AppendColBatchWire(nil, src), warm); err != nil {
		t.Fatal(err)
	}
	sameColBatch(t, src, warm)
	sameColSlice(t, warm, 0, 10)
	sameColSlice(t, warm, 3, 9)
	// No columns at all, rows on the header: nothing to slice, no panic.
	if err := DecodeColBatchWire(colWireHeader(5, 0), warm); err != nil {
		t.Fatal(err)
	}
	sameColSlice(t, warm, 1, 4)
}

// TestColBatchPoolHandsOutUnshapedBatches: a pooled batch comes back
// with no columns, so a producer of another shape can never append
// payload words under a stale kind.
func TestColBatchPoolHandsOutUnshapedBatches(t *testing.T) {
	cb := GetColBatch()
	if err := DecodeColBatchWire(AppendColBatchWire(nil, colWireSample(t)), cb); err != nil {
		t.Fatal(err)
	}
	PutColBatch(cb)
	for i := 0; i < 4; i++ { // whichever batch the pool returns
		got := GetColBatch()
		if got.Len != 0 || len(got.Cols) != 0 {
			t.Fatalf("pooled batch is shaped: %d rows, %d columns", got.Len, len(got.Cols))
		}
		defer PutColBatch(got)
	}
}

// FuzzColBatchCodec holds the column codec to its canonical fixed
// point: input that decodes re-encodes to the identical bytes, and
// rejected input carries a positioned error. Decoding the same bytes
// into a batch still warm from another shape must give the same batch,
// and the same slices of it: nothing leaks from one decode into the next.
func FuzzColBatchCodec(f *testing.F) {
	sample := AppendColBatchWire(nil, colWireSample(f))
	f.Add([]byte{})
	f.Add(colWireHeader(0, 0))
	f.Add(sample)
	packets := new(ColBatch)
	packets.SetFromRows(fuzzUintRows(7, 5))
	f.Add(AppendColBatchWire(nil, packets))
	f.Add(colWireWords(append(colWireHeader(2, 1), byte(sqlval.KindUint), 1), 0b11, 5, 6))
	f.Add(colWireWords(append(colWireHeader(1, 1), byte(sqlval.KindBool), 0), 2))
	f.Add(AppendColBatchWire(nil, colWireInts(f, 11)))
	f.Add(AppendColBatchWire(nil, colWireInts(f, 70)))
	f.Add(colWireWords(append(colWireHeader(2, 1), byte(sqlval.KindUint), 3), 0b01, 0b11, 5, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := new(ColBatch)
		if err := DecodeColBatchWire(data, dec); err != nil {
			if _, ok := err.(*WireError); !ok {
				t.Fatalf("decode error is %T, want *WireError: %v", err, err)
			}
			return
		}
		if got := ColBatchWireSize(dec); got != len(data) {
			t.Fatalf("ColBatchWireSize = %d for a %d-byte encoding", got, len(data))
		}
		if re := AppendColBatchWire(nil, dec); !bytes.Equal(re, data) {
			t.Fatalf("decode accepted non-canonical input:\n in:  %x\n out: %x", data, re)
		}
		warm := new(ColBatch)
		if err := DecodeColBatchWire(sample, warm); err != nil {
			t.Fatal(err)
		}
		if err := DecodeColBatchWire(data, warm); err != nil {
			t.Fatalf("decode into a warm batch failed: %v", err)
		}
		if dec.Len*len(dec.Cols) > 1<<16 { // NULL columns are free on the wire, not to compare
			return
		}
		sameColBatch(t, dec, warm)
		// Mark the odd words of every uint column Int as well: the batch
		// still sizes a column at a time and round-trips value for value.
		for c := range dec.Cols {
			if v := &dec.Cols[c]; v.Kind == sqlval.KindUint {
				for r, w := range v.U64[:dec.Len] {
					if w&1 == 1 && v.IsValid(r) {
						v.Int = markInt(v.Int, r, dec.Len)
					}
				}
			}
		}
		checkWireSize(t, dec)
		marked := AppendColBatchWire(nil, dec)
		if got := ColBatchWireSize(dec); got != len(marked) {
			t.Fatalf("ColBatchWireSize = %d for a %d-byte encoding with Int rows", got, len(marked))
		}
		if err := DecodeColBatchWire(marked, warm); err != nil {
			t.Fatalf("a batch with Int rows does not decode: %v", err)
		}
		sameColBatch(t, dec, warm)
		if err := DecodeColBatchWire(data, warm); err != nil {
			t.Fatal(err)
		}
		for c := range warm.Cols {
			if len(warm.Cols[c].Valid) != 0 {
				return // only all-valid columns slice
			}
		}
		sameColSlice(t, warm, 0, warm.Len)
		sameColSlice(t, warm, warm.Len/2, warm.Len)
	})
}
