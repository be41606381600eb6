package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"qap/internal/sqlval"
)

// Batch wire codec (the live TCP backend's tuple serialization).
//
// The encoding is canonical: every batch has exactly one byte
// sequence, and every byte sequence decodes to at most one batch —
// DecodeBatch rejects truncated, oversized, and non-canonical input,
// so encode(decode(data)) == data whenever decode succeeds. That
// fixed point is what FuzzBatchCodec holds the codec to, and it is
// also what makes the live backend's canonical outputs byte-identical
// to the simulator's: a value round-trips to a bit-equal sqlval.Value
// (floats travel as IEEE-754 bits, never as text).
//
// Layout, all integers big-endian:
//
//	batch := u32 tupleCount , tuple*
//	tuple := u16 colCount , value*
//	value := u8 kind , payload
//	  null   -> (nothing)
//	  uint   -> u64
//	  int    -> u64 (two's complement)
//	  float  -> u64 (IEEE-754 bits)
//	  bool   -> u8 (0 or 1; anything else is rejected)
//	  string -> u32 length , bytes
//
// The kind byte is the sqlval.Kind value itself, so the codec needs no
// translation table and a schema bump in sqlval is a wire break by
// construction (guarded by TestWireKindsPinned).

// Wire limits. Frames larger than these are rejected before any
// allocation is sized from attacker-controlled lengths.
const (
	// MaxWireCols bounds the columns of one tuple on the wire.
	MaxWireCols = 1 << 10
	// MaxWireTuples bounds the tuples of one batch on the wire.
	MaxWireTuples = 1 << 20
	// MaxWireString bounds one string value's bytes on the wire.
	MaxWireString = 1 << 20
	// MaxWireCells bounds rows x columns of one column batch. An
	// all-NULL column costs no bytes per row, so without it a few
	// kilobytes could announce a billion cells for a consumer to pivot;
	// the bound is what a 16 MB frame of NULLs carries in the row codec.
	MaxWireCells = 1 << 24
)

// WireError is a positioned batch-codec decode failure.
type WireError struct {
	// Offset is the byte offset in the input where decoding failed.
	Offset int
	// Msg describes the failure.
	Msg string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("exec: batch wire: offset %d: %s", e.Offset, e.Msg)
}

func wireErr(off int, format string, args ...any) error {
	return &WireError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// AppendBatchWire appends the canonical wire encoding of b to dst and
// returns the extended slice.
func AppendBatchWire(dst []byte, b Batch) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	for _, t := range b {
		dst = AppendTupleWire(dst, t)
	}
	return dst
}

// AppendTupleWire appends the canonical wire encoding of one tuple.
func AppendTupleWire(dst []byte, t Tuple) []byte {
	dst = append(dst, byte(len(t)>>8), byte(len(t)))
	for _, v := range t {
		dst = appendValueWire(dst, v)
	}
	return dst
}

func appendValueWire(dst []byte, v sqlval.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case sqlval.KindNull:
	case sqlval.KindUint:
		u, _ := v.AsUint()
		dst = binary.BigEndian.AppendUint64(dst, u)
	case sqlval.KindInt:
		i, _ := v.AsInt()
		dst = binary.BigEndian.AppendUint64(dst, uint64(i))
	case sqlval.KindFloat:
		f, _ := v.AsFloat()
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
	case sqlval.KindBool:
		if v.AsBool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case sqlval.KindString:
		s, _ := v.AsString()
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeBatchWire decodes one batch from data, which must contain
// exactly one encoded batch: trailing bytes are an error, as are
// truncation, limit violations, and non-canonical values. The returned
// tuples are carved from one fresh backing slab (capacity-clamped, so
// they obey the immutable-tuple contract) and the container is a fresh
// slice the caller owns.
func DecodeBatchWire(data []byte) (Batch, error) {
	d := wireDecoder{data: data}
	n, err := d.u32("tuple count")
	if err != nil {
		return nil, err
	}
	if n > MaxWireTuples {
		return nil, wireErr(0, "batch of %d tuples exceeds the %d-tuple limit", n, MaxWireTuples)
	}
	if rest := len(data) - d.off; int(n) > rest/2 { // a tuple is at least its 2-byte header
		return nil, wireErr(0, "batch of %d tuples cannot fit the remaining %d bytes", n, rest)
	}
	b := make(Batch, 0, n)
	var slab []sqlval.Value
	for i := uint32(0); i < n; i++ {
		var t Tuple
		slab, t, err = d.tuple(slab)
		if err != nil {
			return nil, err
		}
		b = append(b, t)
	}
	if d.off != len(d.data) {
		return nil, wireErr(d.off, "%d trailing bytes after the batch", len(d.data)-d.off)
	}
	return b, nil
}

// wireDecoder walks one encoded batch, tracking the offset for
// positioned errors.
type wireDecoder struct {
	data []byte
	off  int
}

func (d *wireDecoder) tuple(slab []sqlval.Value) ([]sqlval.Value, Tuple, error) {
	start := d.off
	if d.off+2 > len(d.data) {
		return slab, nil, wireErr(d.off, "truncated tuple header")
	}
	cols := int(d.data[d.off])<<8 | int(d.data[d.off+1])
	d.off += 2
	if cols > MaxWireCols {
		return slab, nil, wireErr(start, "tuple of %d columns exceeds the %d-column limit", cols, MaxWireCols)
	}
	if cap(slab)-len(slab) < cols {
		// A fresh slab per shortfall: earlier tuples keep their old
		// backing arrays, which stay valid (tuples are immutable). A value
		// is at least its kind byte, so the input left bounds the slab.
		size := min(1024, len(d.data)-d.off)
		if cols > size {
			size = cols
		}
		slab = make([]sqlval.Value, 0, size)
	}
	base := len(slab)
	for c := 0; c < cols; c++ {
		v, err := d.value()
		if err != nil {
			return slab, nil, err
		}
		slab = append(slab, v)
	}
	return slab, Tuple(slab[base:len(slab):len(slab)]), nil
}

func (d *wireDecoder) value() (sqlval.Value, error) {
	if d.off >= len(d.data) {
		return sqlval.Null, wireErr(d.off, "truncated value kind")
	}
	kind := sqlval.Kind(d.data[d.off])
	d.off++
	switch kind {
	case sqlval.KindNull:
		return sqlval.Null, nil
	case sqlval.KindUint:
		u, err := d.u64("uint payload")
		return sqlval.Uint(u), err
	case sqlval.KindInt:
		u, err := d.u64("int payload")
		return sqlval.Int(int64(u)), err
	case sqlval.KindFloat:
		u, err := d.u64("float payload")
		return sqlval.Float(math.Float64frombits(u)), err
	case sqlval.KindBool:
		if d.off >= len(d.data) {
			return sqlval.Null, wireErr(d.off, "truncated bool payload")
		}
		b := d.data[d.off]
		d.off++
		if b > 1 {
			return sqlval.Null, wireErr(d.off-1, "non-canonical bool byte %d", b)
		}
		return sqlval.Bool(b == 1), nil
	case sqlval.KindString:
		n, err := d.u32("string length")
		if err != nil {
			return sqlval.Null, err
		}
		if n > MaxWireString {
			return sqlval.Null, wireErr(d.off-4, "string of %d bytes exceeds the %d-byte limit", n, MaxWireString)
		}
		if d.off+int(n) > len(d.data) {
			return sqlval.Null, wireErr(d.off, "truncated string payload (%d of %d bytes)", len(d.data)-d.off, n)
		}
		s := string(d.data[d.off : d.off+int(n)])
		d.off += int(n)
		return sqlval.Str(s), nil
	default:
		return sqlval.Null, wireErr(d.off-1, "unknown value kind %d", kind)
	}
}

func (d *wireDecoder) u32(what string) (uint32, error) {
	if d.off+4 > len(d.data) {
		return 0, wireErr(d.off, "truncated %s", what)
	}
	v := binary.BigEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *wireDecoder) u64(what string) (uint64, error) {
	if d.off+8 > len(d.data) {
		return 0, wireErr(d.off, "truncated %s", what)
	}
	v := binary.BigEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

// BatchWireSize is len(AppendBatchWire(nil, b)) without encoding, so a
// caller can size the destination exactly.
func BatchWireSize(b Batch) int {
	n := 4 + 2*len(b)
	for _, t := range b {
		for _, v := range t {
			switch v.Kind() {
			case sqlval.KindNull:
				n++
			case sqlval.KindBool:
				n += 2
			case sqlval.KindString:
				s, _ := v.AsString()
				n += 5 + len(s)
			default:
				n += 9
			}
		}
	}
	return n
}

// Column-batch wire codec (the live backend's columnar feed groups).
//
// A ColBatch travels as its column vectors, so the splitter never
// materializes a row and the node decodes straight into a pooled batch
// whose columns the scan operators consume as they are. The encoding is
// canonical in the same sense as the row codec — one byte sequence per
// batch, encode(decode(data)) == data whenever decode succeeds — and a
// payload word round-trips bit-exactly.
//
// Layout, all integers little-endian (payload words travel verbatim):
//
//	colbatch := u32 rows , u16 cols , column*
//	column   := u8 kind , u8 flags , validity? , ints? , payload
//	validity := ceil(rows/64) x u64     present iff flags & 1
//	ints     := ceil(rows/64) x u64     present iff flags & 2 (uint only)
//	payload  :=
//	  null                   -> (nothing; flags must be 0)
//	  uint int float bool    -> rows x u64, the ColVec payload words
//	  string                 -> rows x ( u32 length , bytes )
//
// ints is the ColVec.Int bitmap: the rows of a uint column that are
// Ints. Canonical form: the validity bitmap is present only when some
// row is NULL (an all-ones bitmap is rejected), the Int bitmap only when
// some row is an Int (an all-zero one is rejected) and never marks a
// NULL row, the bits of either past the last row are zero, a NULL row's
// payload is zero (the empty string), and a bool word is 0 or 1.
// MaxWireTuples bounds rows, MaxWireCols columns, MaxWireCells their
// product and MaxWireString each string; every length is checked
// against the input before it sizes an allocation.

// ColBatchWireSize is len(AppendColBatchWire(nil, cb)) without
// encoding.
func ColBatchWireSize(cb *ColBatch) int {
	n := 6 + 2*len(cb.Cols)
	for i := range cb.Cols {
		v := &cb.Cols[i]
		if v.Kind == sqlval.KindNull {
			continue
		}
		n += 8 * ((cb.Len + 63) >> 6) * bits.OnesCount8(v.wireFlags(cb.Len))
		if v.Kind != sqlval.KindString {
			n += 8 * cb.Len
			continue
		}
		n += 4 * cb.Len
		for r, s := range v.Str[:cb.Len] {
			if v.IsValid(r) {
				n += len(s)
			}
		}
	}
	return n
}

// AppendColBatchWire appends the canonical wire encoding of cb to dst
// and returns the extended slice. With cap(dst)-len(dst) >=
// ColBatchWireSize(cb) it does not allocate.
//
//qap:hot
func AppendColBatchWire(dst []byte, cb *ColBatch) []byte {
	n := cb.Len
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(cb.Cols)))
	for i := range cb.Cols {
		v := &cb.Cols[i]
		if v.Kind == sqlval.KindNull {
			dst = append(dst, byte(v.Kind), 0)
			continue
		}
		flags := v.wireFlags(n)
		if flags == 0 && v.Kind != sqlval.KindString && v.Kind != sqlval.KindBool {
			// The hot shape (packet columns): kind, no bitmap, n words.
			dst = append(dst, byte(v.Kind), 0)
			at := len(dst)
			dst = slices.Grow(dst, 8*n)[:at+8*n]
			p := dst[at:]
			for r, w := range v.U64[:n] {
				binary.LittleEndian.PutUint64(p[8*r:8*r+8], w)
			}
			continue
		}
		dst = appendColVecSlow(dst, v, n, flags)
	}
	return dst
}

// appendColVecSlow encodes a column with NULLs, Ints, strings or
// bools, normalizing what the canonical form pins: zero bitmap tails,
// no Int mark on a NULL row, zero payload under a NULL, bool words 0/1.
func appendColVecSlow(dst []byte, v *ColVec, n int, flags byte) []byte {
	dst = append(dst, byte(v.Kind), flags)
	for i := 0; flags&1 != 0 && i < (n+63)>>6; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, v.Valid[i]&tailMask(i, n))
	}
	for i := 0; flags&2 != 0 && i < (n+63)>>6; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, v.intWord(i, n))
	}
	for r := 0; r < n; r++ {
		valid := flags&1 == 0 || v.IsValid(r)
		switch {
		case v.Kind == sqlval.KindString:
			s := ""
			if valid {
				s = v.Str[r]
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		case !valid:
			dst = binary.LittleEndian.AppendUint64(dst, 0)
		case v.Kind == sqlval.KindBool && v.U64[r] != 0:
			dst = binary.LittleEndian.AppendUint64(dst, 1)
		default:
			dst = binary.LittleEndian.AppendUint64(dst, v.U64[r])
		}
	}
	return dst
}

// tailMask keeps the bits of bitmap word i that stand for one of n rows.
func tailMask(i, n int) uint64 {
	if i == (n-1)>>6 && n&63 != 0 {
		return uint64(1)<<uint(n&63) - 1
	}
	return ^uint64(0)
}

// intWord is word i of the Int bitmap as the wire carries it: the marks
// of the column's valid rows among its first n.
func (v *ColVec) intWord(i, n int) uint64 {
	w := v.Int[i] & tailMask(i, n)
	if len(v.Valid) != 0 {
		w &= v.Valid[i]
	}
	return w
}

// wireFlags is the column's flags byte on the wire for its first n
// rows: bit 0 when a validity bitmap travels (some row is NULL), bit 1
// when an Int bitmap does (some valid row of a uint column is an Int).
func (v *ColVec) wireFlags(n int) (flags byte) {
	if v.validCount(n) < n {
		flags = 1
	}
	for i := range v.Int[:min(len(v.Int), (n+63)>>6)] {
		if v.Kind == sqlval.KindUint && v.intWord(i, n) != 0 {
			return flags | 2
		}
	}
	return flags
}

// DecodeColBatchWire decodes exactly one column batch from data into
// dst, reusing dst's column capacity (a warm batch decodes NULL-free
// numeric columns without allocating). Truncation, trailing bytes, limit
// violations and non-canonical input are positioned *WireErrors, after
// which dst is unspecified; the caller still owns it.
//
//qap:hot
func DecodeColBatchWire(data []byte, dst *ColBatch) error {
	if len(data) < 6 {
		return wireErr(len(data), "truncated column batch header")
	}
	rows := int(binary.LittleEndian.Uint32(data))
	cols := int(binary.LittleEndian.Uint16(data[4:]))
	if rows > MaxWireTuples {
		return wireErr(0, "column batch of %d rows exceeds the %d-row limit", rows, MaxWireTuples)
	}
	if cols > MaxWireCols {
		return wireErr(4, "column batch of %d columns exceeds the %d-column limit", cols, MaxWireCols)
	}
	if rows*cols > MaxWireCells {
		return wireErr(0, "column batch of %d x %d cells exceeds the %d-cell limit", rows, cols, MaxWireCells)
	}
	if len(data)-6 < 2*cols {
		return wireErr(len(data), "truncated column batch: %d columns cannot fit the remaining %d bytes", cols, len(data)-6)
	}
	dst.Cols = growCols(dst.Cols, cols)
	dst.Len = rows
	off := 6
	for c := range dst.Cols {
		v := &dst.Cols[c]
		v.U64, v.Str, v.Valid, v.Int = v.U64[:0], v.Str[:0], v.Valid[:0], v.Int[:0]
		if off+2 > len(data) {
			return wireErr(len(data), "truncated column %d header", c)
		}
		v.Kind = sqlval.Kind(data[off])
		flags := data[off+1]
		if v.Kind > sqlval.KindString {
			return wireErr(off, "column %d: unknown value kind %d", c, v.Kind)
		}
		if flags > 3 || (flags != 0 && v.Kind == sqlval.KindNull) {
			return wireErr(off+1, "column %d: non-canonical flags byte %d", c, flags)
		}
		if flags&2 != 0 && v.Kind != sqlval.KindUint {
			return wireErr(off+1, "column %d: Int bitmap on a non-uint (%s) column", c, v.Kind)
		}
		off += 2
		var err error
		if flags&1 != 0 {
			if v.Valid, err = decodeColBitmap(data, off, v.Valid, c, rows, "validity"); err != nil {
				return err
			}
			if v.validCount(rows) == rows {
				return wireErr(off, "column %d: non-canonical all-valid bitmap", c)
			}
			off += 8 * len(v.Valid)
		}
		if flags&2 != 0 {
			if v.Int, err = decodeColBitmap(data, off, v.Int, c, rows, "Int"); err != nil {
				return err
			}
			if err = checkColInts(off, v, c); err != nil {
				return err
			}
			off += 8 * len(v.Int)
		}
		switch v.Kind {
		case sqlval.KindNull:
		case sqlval.KindString:
			off, err = decodeColStrings(data, off, v, c, rows)
		default:
			off, err = decodeColWords(data, off, v, c, rows)
		}
		if err != nil {
			return err
		}
	}
	if off != len(data) {
		return wireErr(off, "%d trailing bytes after the column batch", len(data)-off)
	}
	return nil
}

// decodeColBitmap reads the rows' words of a column's bitmap — what
// names it, validity or Int — into bm, holding its bits past the last
// row to zero.
func decodeColBitmap(data []byte, off int, bm []uint64, c, rows int, what string) ([]uint64, error) {
	words := (rows + 63) >> 6
	if len(data)-off < 8*words {
		return bm, wireErr(len(data), "column %d: truncated %s bitmap", c, what)
	}
	bm = growUints(bm, words)
	for i := range bm {
		bm[i] = binary.LittleEndian.Uint64(data[off+8*i:])
	}
	if words > 0 && bm[words-1]&^tailMask(words-1, rows) != 0 {
		return bm, wireErr(off+8*(words-1), "column %d: %s bits set past row %d", c, what, rows)
	}
	return bm, nil
}

// checkColInts holds the Int bitmap decoded at off to the canonical
// form: it marks some row, and no NULL one.
func checkColInts(off int, v *ColVec, c int) error {
	var marks uint64
	for i, w := range v.Int {
		if marks |= w; len(v.Valid) != 0 && w&^v.Valid[i] != 0 {
			return wireErr(off+8*i, "column %d: Int bit on the NULL at row %d", c, 64*i+bits.TrailingZeros64(w&^v.Valid[i]))
		}
	}
	if marks == 0 {
		return wireErr(off, "column %d: non-canonical all-zero Int bitmap", c)
	}
	return nil
}

// decodeColWords reads a numeric column's payload words and holds them
// to the canonical form.
//
//qap:hot
func decodeColWords(data []byte, off int, v *ColVec, c, rows int) (int, error) {
	if len(data)-off < 8*rows {
		return off, wireErr(len(data), "column %d: truncated payload (%d of %d bytes)", c, len(data)-off, 8*rows)
	}
	v.U64 = growUints(v.U64, rows)
	p := data[off : off+8*rows]
	for r := range v.U64 {
		v.U64[r] = binary.LittleEndian.Uint64(p[8*r : 8*r+8])
	}
	if v.Kind == sqlval.KindBool || len(v.Valid) != 0 {
		for r, w := range v.U64 {
			if w != 0 && !v.IsValid(r) {
				return off, wireErr(off+8*r, "column %d: non-zero payload under the NULL at row %d", c, r)
			}
			if w > 1 && v.Kind == sqlval.KindBool {
				return off, wireErr(off+8*r, "column %d: non-canonical bool word %d at row %d", c, w, r)
			}
		}
	}
	return off + 8*rows, nil
}

// decodeColStrings reads a string column's length-prefixed values.
func decodeColStrings(data []byte, off int, v *ColVec, c, rows int) (int, error) {
	if len(data)-off < 4*rows {
		return off, wireErr(len(data), "column %d: truncated string payload", c)
	}
	if cap(v.Str) < rows {
		v.Str = make([]string, 0, rows)
	}
	for r := 0; r < rows; r++ {
		if len(data)-off < 4 {
			return off, wireErr(len(data), "column %d: truncated string length at row %d", c, r)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n > MaxWireString {
			return off, wireErr(off, "column %d: string of %d bytes exceeds the %d-byte limit", c, n, MaxWireString)
		}
		if n != 0 && !v.IsValid(r) {
			return off, wireErr(off, "column %d: non-empty string under the NULL at row %d", c, r)
		}
		off += 4
		if len(data)-off < n {
			return off, wireErr(len(data), "column %d: truncated string payload (%d of %d bytes)", c, len(data)-off, n)
		}
		v.Str = append(v.Str, string(data[off:off+n]))
		off += n
	}
	return off, nil
}
