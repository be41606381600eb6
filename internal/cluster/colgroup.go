package cluster

import (
	"sync"

	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/sqlval"
)

// colGrouper is the columnar drivers' per-round grouping, shared by the
// sequential driver, the parallel engine's splitter and the live
// splitter: a packet goes from the trace cursor straight into its
// destination partition's pooled column batch and never becomes a row
// in front of the scan. A group is a live.Group — canonical tag, stream
// (cursor) index, partition, columns — so the live splitter ships the
// very value the simulator's drivers deliver.
//
// The zero value is ready once initGroupIndex has prepared the cursors.
type colGrouper struct {
	// round stamps the cursors' open groups; bumping it closes them all.
	round    int
	routeBuf []sqlval.Value // hash-routing tuple scratch, reused per packet

	// free is the run's own stock of delivered batches, still shaped.
	// The shared pool behind exec.GetColBatch is emptied by the
	// collector, which on a join plan runs several times per replay: a
	// run that lived off the pool alone would allocate, and so run, to
	// the collector's timing. The run takes from the pool only what it
	// does not have yet and gives everything back in release.
	mu   sync.Mutex // free is filled by whoever delivers (the workers)
	free []*exec.ColBatch
}

// initGroupIndex gives every cursor its per-partition open-group index,
// with no group open — the bookkeeping of every batched driver, row or
// columnar.
func initGroupIndex(cursors []*streamCursor) {
	for _, c := range cursors {
		c.gidx = make([]int, len(c.rt.outs))
		c.gstamp = make([]int, len(c.rt.outs))
		c.grows = make([]int, len(c.rt.outs))
		for p := range c.gstamp {
			c.gstamp[p] = -1
		}
	}
}

// nextRound closes the round: each destination's next packet opens a
// fresh group.
func (g *colGrouper) nextRound() { g.round++ }

// route picks pk's destination partition. Only hash routing reads the
// tuple, which lives in a scratch buffer for the length of the call.
//
//qap:hot
func (g *colGrouper) route(c *streamCursor, pk *netgen.Packet) int {
	if c.rt.hashFns == nil {
		return c.rt.route(nil)
	}
	var t exec.Tuple
	g.routeBuf, t = pk.AppendTuple(g.routeBuf[:0])
	return c.rt.route(t)
}

// add appends pk to partition part's group of the open round in list —
// the round's delivery list for whichever island owns the partition —
// opening the group, tagged with seq (the round-local sequence of its
// first packet), when pk is the destination's first of the round.
//
//qap:hot
func (g *colGrouper) add(list *[]live.Group, c *streamCursor, part int, seq uint64, pk *netgen.Packet) {
	if c.gstamp[part] != g.round {
		c.gstamp[part] = g.round
		c.gidx[part] = len(*list)
		cb := g.take()
		if cap(cb.Cols) == 0 && c.grows[part] > 0 {
			// Fresh from the allocator: size it like the destination's
			// previous group, with headroom — group sizes wander from
			// round to round, and a column that outgrows the slab is
			// reallocated on its own.
			cb.Reserve(netgen.TupleCols, c.grows[part]+c.grows[part]/4+8)
		}
		c.grows[part] = 0
		*list = append(*list, live.Group{Tag: phasePush | seq, Stream: c.idx, Part: part, Cols: cb})
	}
	c.grows[part]++
	pk.AppendCols((*list)[c.gidx[part]].Cols)
}

// take returns an empty batch: one of the run's own, else the pool's.
func (g *colGrouper) take() *exec.ColBatch {
	g.mu.Lock()
	if n := len(g.free); n > 0 {
		cb := g.free[n-1]
		g.free = g.free[:n-1]
		g.mu.Unlock()
		return cb
	}
	g.mu.Unlock()
	return exec.GetColBatch()
}

// recycle takes back the batches of delivered (or serialized) groups.
func (g *colGrouper) recycle(groups []live.Group) {
	g.mu.Lock()
	for i := range groups {
		if cb := groups[i].Cols; cb != nil {
			cb.Reset()
			g.free = append(g.free, cb)
			groups[i].Cols = nil
		}
	}
	g.mu.Unlock()
}

// release ends the run: its stock goes back to the shared pool.
func (g *colGrouper) release() {
	g.mu.Lock()
	for _, cb := range g.free {
		exec.PutColBatch(cb)
	}
	g.free = nil
	g.mu.Unlock()
}

// deliverCols pushes one group's columns into its scan entry as
// zero-copy chunks of up to bs rows; view is the caller's chunk window.
//
//qap:hot
func deliverCols(out exec.Consumer, cb *exec.ColBatch, bs int, view *exec.ColBatch) {
	for off := 0; off < cb.Len; off += bs {
		end := off + bs
		if end > cb.Len {
			end = cb.Len
		}
		cb.Slice(off, end, view)
		exec.PushColsAll(out, view)
	}
}
