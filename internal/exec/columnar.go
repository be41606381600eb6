package exec

// Columnar batch representation. A ColBatch holds one window of tuples
// as per-column typed vectors (uint64 payload words plus a string
// spine and optional validity and Int bitmaps), so batched operators
// can run compiled kernels over dense column slices instead of
// per-tuple interface dispatch. Pivots (AppendRows / SetFromRows) happen only
// where a row-oriented operator needs them: a consumer that does not
// implement ColConsumer transparently receives the pivoted rows via
// PushColsAll. The engine boundaries carry columns as they are: in
// front of the scans the splitter fills pooled batches from the packet
// trace, an island-crossing link item holds a pooled copy (CopyFrom) of
// the batch its producer emitted, and the live backend ships both in
// the column-batch wire codec (wire.go).
//
// Ownership contract (stricter than Batch): a ColBatch passed to
// PushCols, and every slice it references, is valid ONLY for the
// duration of the call. Consumers must not retain or mutate it; a
// consumer that needs the data afterwards must pivot (AppendRows) or
// copy (CopyFrom). This is what lets producers recycle column slabs
// unconditionally, whatever the plan downstream retains.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"qap/internal/sqlval"
)

// ColVec is a single column of a ColBatch: a uniform value kind, a
// payload word per row, and optional validity and Int bitmaps.
//
// Payload encoding by Kind (one uint64 word per row in U64):
//
//	KindUint   raw value               (Value == sqlval.Uint(w))
//	KindInt    two's complement bits   (Value == sqlval.Int(int64(w)))
//	KindFloat  IEEE-754 bits           (Value == sqlval.Float(math.Float64frombits(w)))
//	KindBool   0 or 1                  (Value == sqlval.Bool(w != 0))
//	KindString Str[i] holds the value; U64 is unused
//	KindNull   every row is NULL; U64/Str unused
//
// A KindNull column without a validity bitmap is pruned: it holds
// nothing. The splitter feeds one in place of every packet column no
// operator in front of it reads (InputReads), and its row values are
// the NULLs a KindNull column stands for; with no payload words, a
// kernel that reached one would fail on its first slice.
//
// Valid is a little-endian bitmap (bit i of word i/64 set = row i is
// non-NULL). len(Valid) == 0 means every row is valid. NULL rows keep
// a zero payload word so vectors stay densely indexed.
//
// Int, in the same form, marks the rows of a KindUint column that are
// sqlval.Int(int64(w)) instead — what a subtraction yields for a row
// that borrowed, an integer SUM below zero, or a MIN or MAX over such
// values. len(Int) == 0 means no row is. A uint kernel reads the words
// alone, so every gate that runs one on a column (plainWords) requires
// it to mark none.
type ColVec struct {
	Kind  sqlval.Kind
	U64   []uint64
	Str   []string
	Valid []uint64
	Int   []uint64
}

// pruned reports whether the column holds nothing (see ColVec).
func (v *ColVec) pruned() bool { return v.Kind == sqlval.KindNull && len(v.Valid) == 0 }

// Prune makes the column a pruned one. Its vectors keep their capacity
// for the batch's next fill: a feed reaches its scan through Slice,
// which gives a pruned column no payload at all.
func (v *ColVec) Prune() {
	v.Kind, v.U64, v.Str, v.Valid, v.Int = sqlval.KindNull, v.U64[:0], v.Str[:0], v.Valid[:0], v.Int[:0]
}

// CheckPruned reports how cb is not pruned to read set mask — every
// column in mask plain uint words (plainWords), every other one pruned
// — naming the first column that is not; nil when it is.
func (cb *ColBatch) CheckPruned(mask uint64) error {
	for c := range cb.Cols {
		v := &cb.Cols[c]
		switch read := mask&colBit(c) != 0; {
		case read && !cb.plainWords(colBit(c)):
			return fmt.Errorf("column %d: a read column must be NULL-free uint words, got %s", c, v.shape())
		case !read && !v.pruned():
			return fmt.Errorf("column %d: a column no operator reads must be pruned, got %s", c, v.shape())
		}
	}
	return nil
}

// shape names the column's kind and bitmaps, for CheckPruned's errors.
func (v *ColVec) shape() string {
	s := v.Kind.String()
	if len(v.Valid) != 0 {
		s += " with NULLs"
	}
	if len(v.Int) != 0 {
		s += " with Int rows"
	}
	return s
}

// IsValid reports whether row i is non-NULL.
func (v *ColVec) IsValid(i int) bool {
	return len(v.Valid) == 0 || v.Valid[i>>6]&(1<<uint(i&63)) != 0
}

// bitAt reports whether bitmap bm marks row i; an empty one marks none.
func bitAt(bm []uint64, i int) bool { return len(bm) != 0 && bm[i>>6]&(1<<uint(i&63)) != 0 }

// wordValue is the value a uint word stands for: a Uint, or the Int an
// Int bitmap marks it as.
func wordValue(w uint64, isInt bool) sqlval.Value {
	if isInt {
		return sqlval.Int(int64(w))
	}
	return sqlval.Uint(w)
}

// markInt sets row i in Int bitmap bm of an n-row column, sizing and
// clearing an empty one first.
func markInt(bm []uint64, i, n int) []uint64 {
	if len(bm) == 0 {
		bm = growUints(bm, (n+63)>>6)
		clear(bm)
	}
	bm[i>>6] |= 1 << uint(i&63)
	return bm
}

// Value reconstructs row i as a sqlval.Value. The reconstruction is
// exact: pivoting a column in and out preserves kind and payload bits
// (including float NaN payloads).
func (v *ColVec) Value(i int) sqlval.Value {
	if !v.IsValid(i) {
		return sqlval.Null
	}
	switch v.Kind {
	case sqlval.KindUint:
		return wordValue(v.U64[i], bitAt(v.Int, i))
	case sqlval.KindInt:
		return sqlval.Int(int64(v.U64[i]))
	case sqlval.KindFloat:
		return sqlval.Float(math.Float64frombits(v.U64[i]))
	case sqlval.KindBool:
		return sqlval.Bool(v.U64[i] != 0)
	case sqlval.KindString:
		return sqlval.Str(v.Str[i])
	default:
		return sqlval.Null
	}
}

// ColBatch is a dense column-oriented batch: Len rows across
// len(Cols) columns. There is no selection vector at operator
// boundaries — filters compact before forwarding — so every consumer
// sees rows 0..Len-1 of every column.
type ColBatch struct {
	Cols []ColVec
	Len  int
}

// plainWords reports whether every column in read set need (colBit) is
// KindUint with no NULLs and no Int rows: the precondition for the
// compiled uint kernels (ColExpr.U / ColExpr.Truth) that read only
// those. A packet feed holds such words in every column it fills.
func (cb *ColBatch) plainWords(need uint64) bool {
	for i := range cb.Cols {
		c := &cb.Cols[i]
		if need&colBit(i) != 0 && (c.Kind != sqlval.KindUint || len(c.Valid) != 0 || len(c.Int) != 0) {
			return false
		}
	}
	return true
}

// uintWords reports whether every column in read set need is KindUint
// with no NULLs: one word a row, some of which Int may mark.
func (cb *ColBatch) uintWords(need uint64) bool {
	for i := range cb.Cols {
		c := &cb.Cols[i]
		if need&colBit(i) != 0 && (c.Kind != sqlval.KindUint || len(c.Valid) != 0) {
			return false
		}
	}
	return true
}

// filled is the read set of the columns that are not pruned.
func (cb *ColBatch) filled() uint64 {
	m := allCols
	for i := range cb.Cols {
		if cb.Cols[i].pruned() {
			m &^= colBit(i)
		}
	}
	return m
}

// wholeInts makes every column whose Int bitmap marks all of its rows
// the KindInt column SetFromRows makes of those rows.
func (cb *ColBatch) wholeInts() {
	for i := range cb.Cols {
		c, r := &cb.Cols[i], 0
		for r < cb.Len && bitAt(c.Int, r) {
			r++
		}
		if r > 0 && r == cb.Len {
			c.Kind, c.Int = sqlval.KindInt, nil
		}
	}
}

// intCols is the read set (colBit) of the columns that mark Int rows.
func (cb *ColBatch) intCols() uint64 {
	var m uint64
	for i := range cb.Cols {
		if len(cb.Cols[i].Int) != 0 {
			m |= colBit(i)
		}
	}
	return m
}

// Reset truncates the batch to zero rows, keeping column capacity so
// producers can refill without allocating.
func (cb *ColBatch) Reset() {
	for i := range cb.Cols {
		c := &cb.Cols[i]
		c.U64, c.Str, c.Valid, c.Int = c.U64[:0], c.Str[:0], c.Valid[:0], c.Int[:0]
	}
	cb.Len = 0
}

// colBatchPool recycles column batches between the drivers that fill
// them, the wire decoder, and whoever delivers them.
var colBatchPool = sync.Pool{New: func() any { return new(ColBatch) }}

// GetColBatch returns an empty, unshaped column batch (no columns, zero
// rows), reusing a pooled one's column capacity when available. Whoever
// takes a batch owes a PutColBatch — or hands the batch, and the debt,
// to a new owner.
func GetColBatch() *ColBatch { return colBatchPool.Get().(*ColBatch) }

// PutColBatch returns a batch to the pool. The caller must not use cb,
// or any slice it exposed, afterwards. The batch goes back unshaped, so
// the next owner re-declares every column's kind and a stale kind can
// never meet a new payload.
func PutColBatch(cb *ColBatch) {
	if cb == nil {
		return
	}
	for i := range cb.Cols {
		if c := &cb.Cols[i]; cap(c.Str) > 0 {
			clear(c.Str[:cap(c.Str)]) // drop the string references
		}
	}
	cb.Reset()
	cb.Cols = cb.Cols[:0]
	colBatchPool.Put(cb)
}

// Reserve gives an empty batch cols column headers, and those of them
// in read set need (colBit) uint64 vectors with room for rows values
// each, carved from one slab: a producer that knows roughly how many
// rows are coming fills a fresh batch for two allocations instead of
// one growth chain per column. The batch stays unshaped.
func (cb *ColBatch) Reserve(cols, rows int, need uint64) {
	k := 0
	for i := 0; i < cols; i++ {
		if need&colBit(i) != 0 {
			k++
		}
	}
	slab := make([]uint64, k*rows)
	cb.Cols = make([]ColVec, cols)
	for i := range cb.Cols {
		if need&colBit(i) != 0 {
			cb.Cols[i].U64, slab = slab[:0:rows], slab[rows:]
		}
	}
	cb.Cols = cb.Cols[:0]
}

// CopyFrom makes cb, an empty batch, a copy of src that outlives it. A
// word vector reuses cb's column capacity where that suffices; the ones
// that fall short carve together from one slab, so a cold copy costs two
// allocations (column headers and slab) and a warm one none.
//
//qap:hot
func (cb *ColBatch) CopyFrom(src *ColBatch) {
	cb.Cols = slices.Grow(cb.Cols[:0], len(src.Cols))[:len(src.Cols)]
	short := 0
	for i := range src.Cols {
		s, d := &src.Cols[i], &cb.Cols[i]
		if cap(d.U64) < len(s.U64) {
			short += len(s.U64)
		}
		if cap(d.Valid) < len(s.Valid) {
			short += len(s.Valid)
		}
	}
	var slab []uint64
	if short > 0 {
		slab = make([]uint64, short) //qap:allow hotalloc -- one slab per copy that outgrew the recycled columns
	}
	for i := range src.Cols {
		s, d := &src.Cols[i], &cb.Cols[i]
		if n := len(s.U64); cap(d.U64) < n {
			d.U64, slab = slab[:0:n], slab[n:]
		}
		if n := len(s.Valid); cap(d.Valid) < n {
			d.Valid, slab = slab[:0:n], slab[n:]
		}
		d.Kind = s.Kind
		d.U64 = append(d.U64[:0], s.U64...)
		d.Valid = append(d.Valid[:0], s.Valid...)
		d.Str = append(d.Str[:0], s.Str...)
		d.Int = append(d.Int[:0], s.Int...)
	}
	cb.Len = src.Len
}

// Slice points dst at rows [lo, hi) of cb without copying payloads.
// dst shares cb's backing arrays, so it follows the same
// only-during-the-call lifetime. Only columns without a bitmap can be
// sliced (a bitmap is not word-aligned at arbitrary offsets); producers
// that chunk batches only ever build those.
func (cb *ColBatch) Slice(lo, hi int, dst *ColBatch) {
	dst.Cols = growCols(dst.Cols, len(cb.Cols))
	for i := range cb.Cols {
		c := &cb.Cols[i]
		if len(c.Valid) != 0 || len(c.Int) != 0 {
			panic("exec: ColBatch.Slice on column with a bitmap")
		}
		d := &dst.Cols[i]
		d.Kind, d.U64, d.Str, d.Valid, d.Int = c.Kind, nil, nil, nil, nil
		// The kind says which vector holds the payload; the other may
		// be a recycled batch's empty, non-nil leftover.
		switch c.Kind {
		case sqlval.KindNull:
		case sqlval.KindString:
			d.Str = c.Str[lo:hi]
		default:
			d.U64 = c.U64[lo:hi]
		}
	}
	dst.Len = hi - lo
}

// WireSize is the sum of Tuple.WireSize over the batch's rows, taken a
// column at a time: 8 bytes of framing per row, then per column one
// byte a NULL, two a bool, three plus its length a string, nine any
// other value.
func (cb *ColBatch) WireSize() int {
	n := cb.Len
	size := 8 * n
	for c := range cb.Cols {
		v := &cb.Cols[c]
		valid := v.validCount(n)
		size += n - valid
		switch v.Kind {
		case sqlval.KindNull:
			size += valid
		case sqlval.KindBool:
			size += 2 * valid
		case sqlval.KindString:
			size += 3 * valid
			for i, s := range v.Str[:n] {
				if v.IsValid(i) {
					size += len(s)
				}
			}
		default:
			size += 9 * valid
		}
	}
	return size
}

// validCount is the number of non-NULL rows among the column's first n;
// fewer than n means its wire encoding carries a validity bitmap.
func (v *ColVec) validCount(n int) int {
	if len(v.Valid) == 0 {
		return n
	}
	c := 0
	for _, w := range v.Valid[:n>>6] {
		c += bits.OnesCount64(w)
	}
	if r := n & 63; r != 0 {
		c += bits.OnesCount64(v.Valid[n>>6] & (1<<uint(r) - 1))
	}
	return c
}

// AppendRows pivots the batch into durable row tuples appended to
// dst. All tuples share one backing array (a single allocation), and
// unlike the source ColBatch they follow the ordinary tuple contract:
// immutable and retainable forever.
//
//qap:hot
func (cb *ColBatch) AppendRows(dst Batch) Batch {
	n, w := cb.Len, len(cb.Cols)
	if n == 0 {
		return dst
	}
	//qap:allow hotalloc -- one backing array per pivoted batch, amortized over its rows
	backing := make([]sqlval.Value, n*w)
	for c := 0; c < w; c++ {
		v := &cb.Cols[c]
		for r := 0; r < n; r++ {
			backing[r*w+c] = v.Value(r)
		}
	}
	for r := 0; r < n; r++ {
		dst = append(dst, Tuple(backing[r*w:(r+1)*w:(r+1)*w]))
	}
	return dst
}

// SetFromRows rebuilds cb from a row batch, reusing column capacity.
// It returns false — leaving cb unspecified — when the rows cannot be
// represented columnar: ragged widths or a column mixing value kinds,
// but for uints mixed with Ints, which become a KindUint column whose
// Int bitmap marks the Ints. NULLs are fine (they set the validity
// bitmap); an all-NULL column becomes KindNull.
func (cb *ColBatch) SetFromRows(b Batch) bool {
	n := len(b)
	if n == 0 {
		cb.Reset()
		return true
	}
	w := len(b[0])
	for _, t := range b {
		if len(t) != w {
			return false
		}
	}
	cb.Cols = growCols(cb.Cols, w)
	for c := 0; c < w; c++ {
		v := &cb.Cols[c]
		kind := sqlval.KindNull
		nulls, ints := false, false
		for r := 0; r < n; r++ {
			val := b[r][c]
			if val.IsNull() {
				nulls = true
				continue
			}
			k := val.Kind()
			if kind == sqlval.KindNull {
				kind = k
				continue
			}
			if k != kind {
				if (k != sqlval.KindUint && k != sqlval.KindInt) || (kind != sqlval.KindUint && kind != sqlval.KindInt) {
					return false
				}
				kind, ints = sqlval.KindUint, true
			}
		}
		v.Kind, v.U64, v.Str, v.Valid, v.Int = kind, v.U64[:0], v.Str[:0], v.Valid[:0], v.Int[:0]
		switch kind {
		case sqlval.KindNull:
		case sqlval.KindString:
			for r := 0; r < n; r++ {
				s, _ := b[r][c].AsString()
				v.Str = append(v.Str, s)
			}
		case sqlval.KindFloat:
			for r := 0; r < n; r++ {
				f, ok := b[r][c].AsFloat()
				if !ok {
					f = 0
				}
				v.U64 = append(v.U64, math.Float64bits(f))
			}
		default:
			// Uint, Int, and Bool all round-trip bit-exactly
			// through AsUint (NULL rows contribute a zero word).
			for r := 0; r < n; r++ {
				u, _ := b[r][c].AsUint()
				v.U64 = append(v.U64, u)
				if ints && b[r][c].Kind() == sqlval.KindInt {
					v.Int = markInt(v.Int, r, n)
				}
			}
		}
		if nulls || kind == sqlval.KindNull {
			v.Valid = growUints(v.Valid, (n+63)>>6)
			clear(v.Valid)
			for r := 0; r < n; r++ {
				if !b[r][c].IsNull() {
					v.Valid[r>>6] |= 1 << uint(r&63)
				}
			}
		}
	}
	cb.Len = n
	return true
}

// ColConsumer is implemented by consumers that accept columnar
// batches natively. PushCols(cb) must be observably identical to
// pushing the pivoted rows one at a time: same downstream effects, same
// counters, same output bytes. The batch and everything it references
// are owned by the producer, valid only during the call and read-only:
// a Tee hands the same batch to each of its consumers in turn. A
// consumer that keeps the data copies it — the word-layout join copies
// the words, everything else pivots to rows.
type ColConsumer interface {
	Consumer
	PushCols(cb *ColBatch)
}

// PushColsAll delivers a columnar batch to any consumer: natively
// when it implements ColConsumer, otherwise by pivoting to durable
// rows and pushing them. Empty batches are dropped.
//
//qap:hot
func PushColsAll(c Consumer, cb *ColBatch) {
	if cb.Len == 0 {
		return
	}
	if cc, ok := c.(ColConsumer); ok {
		cc.PushCols(cb)
		return
	}
	pushColsRows(c, cb)
}

// growUints returns buf with length n, reusing capacity when it can.
//
//qap:hot
func growUints(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		//qap:allow hotalloc -- scratch growth, amortized across batches
		return make([]uint64, n)
	}
	return buf[:n]
}

// growCols is growUints for column headers: cols resliced to n, or
// grown to n with every old header's vectors kept for reuse.
//
//qap:hot
func growCols(cols []ColVec, n int) []ColVec {
	if cap(cols) < n {
		//qap:allow hotalloc -- column headers sized once per batch width, then recycled
		grown := make([]ColVec, n)
		copy(grown, cols[:cap(cols)])
		return grown
	}
	return cols[:n]
}

// Discard drops columnar batches outright.
func (Discard) PushCols(*ColBatch) {}

// PushCols pivots and retains the rows (a Collector outlives the
// batch, so it must own durable tuples).
func (c *Collector) PushCols(cb *ColBatch) {
	c.Rows = cb.AppendRows(c.Rows)
}

// PushCols forwards a batch of uint words — Int rows included, pruned
// columns beside them — as columns to every consumer that takes
// columns: each operator's column path takes such a batch, or pivots it
// itself where a kernel would read an Int row or a pruned column.
// Consumers that need rows, which for any other batch is all of them,
// share one pivot to durable rows and take them whole, one consumer
// after the other.
//
//qap:hot
func (t *Tee) PushCols(cb *ColBatch) {
	if cb.Len == 0 {
		return
	}
	cols := cb.uintWords(cb.filled())
	var rows Batch
	for _, o := range t.Outs {
		if cc, ok := o.(ColConsumer); ok && cols {
			cc.PushCols(cb)
			continue
		}
		if rows == nil {
			rows = cb.AppendRows(GetBatch())
		}
		PushAll(o, rows)
	}
	if rows != nil {
		PutBatch(rows)
	}
}
