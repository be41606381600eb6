// Package exec is the streaming execution engine: a push-based,
// tuple-at-a-time operator library with tumbling-window semantics
// (paper Section 3.1). Operators receive tuples and watermarks —
// guarantees that no tuple with a smaller base timestamp will arrive —
// and stateful operators (aggregation, join) use watermarks to close
// window epochs deterministically. The cluster simulator wires these
// operators according to the distributed plans the partition-aware
// optimizer produces.
package exec

import (
	"encoding/binary"
	"strings"

	"qap/internal/sqlval"
)

// Tuple is one row flowing between operators. Tuples are immutable
// once pushed: operators that need to retain them may keep references.
type Tuple []sqlval.Value

// WireSize is the simulated network size of the tuple in bytes: an
// 8-byte header plus each value's encoding.
func (t Tuple) WireSize() int {
	size := 8
	for _, v := range t {
		size += v.WireSize()
	}
	return size
}

// String renders the tuple for test output and tools.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key encodes a list of values into a string usable as a hash-table
// key; values that compare equal encode identically.
func Key(vals []sqlval.Value) string {
	return string(AppendKey(nil, vals))
}

// AppendKey appends the key encoding of vals to dst and returns the
// extended slice. It is the allocation-free form of Key: operators on
// the batched hot path encode into a reused buffer and probe their
// hash tables with string(buf), which Go compiles without copying.
func AppendKey(dst []byte, vals []sqlval.Value) []byte {
	for _, v := range vals {
		dst = appendKeyValue(dst, v)
	}
	return dst
}

func appendKeyValue(b []byte, v sqlval.Value) []byte {
	switch v.Kind() {
	case sqlval.KindNull:
		return append(b, 0)
	case sqlval.KindString:
		s, _ := v.AsString()
		b = append(b, 1)
		b = binary.BigEndian.AppendUint64(b, uint64(len(s)))
		return append(b, s...)
	case sqlval.KindFloat:
		f, _ := v.AsFloat()
		if f == float64(int64(f)) {
			// Integral floats encode like integers so cross-kind
			// equal values share a key.
			return appendIntKey(b, int64(f))
		}
		b = append(b, 3)
		return binary.BigEndian.AppendUint64(b, v.Hash())
	default:
		i, _ := v.AsInt()
		if v.Kind() == sqlval.KindUint {
			u, _ := v.AsUint()
			if u > 1<<63-1 {
				b = append(b, 4)
				return binary.BigEndian.AppendUint64(b, u)
			}
		}
		return appendIntKey(b, i)
	}
}

func appendIntKey(b []byte, i int64) []byte {
	b = append(b, 2)
	return binary.BigEndian.AppendUint64(b, uint64(i))
}

// Consumer is the downstream interface between operators.
//
// Push delivers one tuple. Advance(wm) promises that every future
// tuple derives from base events with timestamp >= wm; stateful
// operators flush completed epochs. Flush signals end of stream.
// Drivers must deliver Advance and Flush to operators in topological
// order so that tuples emitted by an upstream flush arrive downstream
// before the downstream operator's own Advance/Flush.
type Consumer interface {
	Push(t Tuple)
	Advance(wm uint64)
	Flush()
}

// Discard is a Consumer that drops everything.
type Discard struct{}

// Push implements Consumer.
func (Discard) Push(Tuple) {}

// Advance implements Consumer.
func (Discard) Advance(uint64) {}

// Flush implements Consumer.
func (Discard) Flush() {}

// Collector accumulates every tuple it receives; it is the terminal
// sink for query roots and for tests.
type Collector struct {
	Rows    []Tuple
	Flushed bool
}

// Push implements Consumer.
func (c *Collector) Push(t Tuple) { c.Rows = append(c.Rows, t) }

// Advance implements Consumer.
func (c *Collector) Advance(uint64) {}

// Flush implements Consumer.
func (c *Collector) Flush() { c.Flushed = true }

// Tee duplicates its input to several consumers, preserving order: a
// pushed tuple reaches every consumer, in Outs order, before the next
// one arrives; a column batch reaches each consumer whole (PushCols).
type Tee struct {
	Outs []Consumer
}

// Push implements Consumer.
func (t *Tee) Push(tp Tuple) {
	for _, o := range t.Outs {
		o.Push(tp)
	}
}

// Advance implements Consumer.
func (t *Tee) Advance(wm uint64) {
	for _, o := range t.Outs {
		o.Advance(wm)
	}
}

// Flush implements Consumer.
func (t *Tee) Flush() {
	for _, o := range t.Outs {
		o.Flush()
	}
}
