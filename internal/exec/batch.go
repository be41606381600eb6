package exec

import "sync"

// A Batch is a run of row tuples bound for one consumer. Rows have one
// port, Push: PushAll delivers a run through it in order, so a run is
// observationally a sequence of pushes. Operators that take runs in
// bulk do it on columns (ColConsumer); a row is the oracle's currency
// and every other path's fallback.
//
// The batch CONTAINER (the []Tuple slice) is owned by whoever filled it;
// a consumer must not retain or mutate the slice itself. The tuples
// INSIDE it follow the normal Tuple contract — immutable once pushed,
// retainable forever — so stateful operators (joins, windows, collectors)
// may keep references to them. This split is what lets producers recycle
// containers through a pool while tuple backing memory stays safely
// garbage-collected.
type Batch []Tuple

// PushAll pushes a batch's tuples into c one at a time, in batch order.
func PushAll(c Consumer, b Batch) {
	for _, t := range b {
		c.Push(t)
	}
}

// batchPool recycles batch containers across rounds; entries are
// *Batch so Put does not box a fresh interface per call.
var batchPool sync.Pool

// GetBatch returns an empty batch container, reusing a pooled one's
// capacity when available.
func GetBatch() Batch {
	if v := batchPool.Get(); v != nil {
		return (*v.(*Batch))[:0]
	}
	return make(Batch, 0, 256)
}

// PutBatch returns a container to the pool. The caller must not use b
// afterwards; tuples referenced by b are unaffected (the pool recycles
// only the container).
func PutBatch(b Batch) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	batchPool.Put(&b)
}
