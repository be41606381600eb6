package cluster

// The production drive path: one splitter, three sinks, one executor.
//
// The paper's Section 3.3 splitter — merge the streams in time order,
// hash the partitioning set, hand each packet to its host — exists once
// (split), for every engine at every BatchSize > 1. It cuts the merged
// trace into rounds of one timestamp each and groups every round per
// destination, as live.Round / live.Group values: one column group per
// (stream, partition). A round-robin packet goes straight into its
// group; a hash-routed stream's packets of the round are staged in one
// column batch and routed column-wise, all at once (routeRun).
// What happens to a closed round is the one thing that varies, and
// sits behind roundSink, reached once per round and never per packet:
//
//	                        ┌ inlineSink  execute on the caller      (sequential)
//	cursors → split → rounds┼ feedSink    queue on a worker's feed   (parallel, engine.go)
//	                        └ liveSink    byte-cut, SendFeed         (live, live.go)
//
// Every sink ends in the same executor body, islandExec.execRounds:
// directly, on a worker goroutine, or behind a node's Execute.
//
// The scalar oracle (runSequential, which is what BatchSize 1 runs)
// deliberately shares none of this: it is the reference the differential
// tests and the benchmark's digest compare every other configuration
// against, so it keeps its own 45-line loop.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/sqlval"
)

// streamCursor walks one source stream's trace during the merge. Within
// a round, the merge hands out a stream's packets as one contiguous
// run, which is what lets the splitter stage a hash-routed stream's run
// and route it at once.
type streamCursor struct {
	name    string // lower-case stream name
	idx     int    // position in the canonical cursor order
	rt      *router
	packets []netgen.Packet
	pos     int

	// Grouping bookkeeping (colGrouper, for add and routeRun alike):
	// gidx[p] is the index of partition p's open column group in its
	// round's list, valid only while gstamp[p] equals the current round;
	// grows[p] counts the rows of partition p's latest group. lists[p] is
	// the open round's delivery list on the island that owns partition p.
	gidx, gstamp, grows []int
	lists               []*[]live.Group
}

// makeCursors validates the input traces and fixes the canonical merge
// order: longer streams first, ties broken by stream name, so two
// equal-length streams sharing timestamps always interleave the same
// way (Go map iteration order must never leak into the merge).
func (r *Runner) makeCursors(streams map[string][]netgen.Packet) ([]*streamCursor, error) {
	var cursors []*streamCursor
	for name, packets := range streams { //qap:allow maprange -- cursors sorted below before the merge
		lower := strings.ToLower(name)
		rt, ok := r.routers[lower]
		if !ok {
			return nil, fmt.Errorf("cluster: plan has no source stream %q", name)
		}
		for i := 1; i < len(packets); i++ {
			if packets[i].Time < packets[i-1].Time {
				return nil, fmt.Errorf("cluster: stream %q is not time-ordered at index %d", name, i)
			}
		}
		cursors = append(cursors, &streamCursor{name: lower, rt: rt, packets: packets})
	}
	sort.Slice(cursors, func(i, j int) bool {
		if len(cursors[i].packets) != len(cursors[j].packets) {
			return len(cursors[i].packets) > len(cursors[j].packets)
		}
		return cursors[i].name < cursors[j].name
	})
	for i, c := range cursors {
		c.idx = i
	}
	return cursors, nil
}

// nextCursor picks the cursor holding the smallest next timestamp;
// equal timestamps go to the earliest cursor in canonical order.
func nextCursor(cursors []*streamCursor) *streamCursor {
	var best *streamCursor
	for _, c := range cursors {
		if c.pos >= len(c.packets) {
			continue
		}
		if best == nil || c.packets[c.pos].Time < best.packets[best.pos].Time {
			best = c
		}
	}
	return best
}

// runSequential drives the merged trace through the operator graph on
// the calling goroutine, one tuple at a time.
func (r *Runner) runSequential(cursors []*streamCursor) (*Result, error) {
	var lastTime, maxTime uint64
	first := true
	any := false
	trRound, trPk := -1, int64(0)
	for {
		best := nextCursor(cursors)
		if best == nil {
			break
		}
		pk := &best.packets[best.pos]
		best.pos++
		any = true
		if pk.Time > maxTime {
			maxTime = pk.Time
		}
		if first || pk.Time > lastTime {
			// The splitter's trace shard closes the previous round: the
			// same (round, watermark, packets) triple on every engine.
			if r.trDriver != nil && trRound >= 0 {
				r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: trRound, WM: lastTime, Rows: trPk})
			}
			trRound, trPk = trRound+1, 0
			// Close monitoring windows before the new round touches any
			// counter: all work for rounds in earlier windows is done.
			if r.winSec > 0 {
				r.closeAllWindowsTo(int(pk.Time / r.winSec))
			}
			// The global watermark advances every stream's pipeline.
			for _, c := range cursors {
				c.rt.Advance(pk.Time)
			}
			lastTime, first = pk.Time, false
			r.engRounds++
		}
		trPk++
		best.rt.Push(pk.Tuple())
	}
	r.emitDriverTail(trRound, trPk, lastTime)
	// Flush in canonical stream order: every router, sorted by name.
	for _, name := range r.routerNames {
		r.routers[name].Flush()
	}
	r.engRounds++ // the flush round
	return r.finalize(any, maxTime), nil
}

// emitDriverTail closes the final data round on the splitter's trace
// shard and records the end-of-stream flush round.
func (r *Runner) emitDriverTail(trRound int, trPk int64, lastTime uint64) {
	if r.trDriver == nil {
		return
	}
	if trRound >= 0 {
		r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: trRound, WM: lastTime, Rows: trPk})
	}
	r.trDriver.Emit(trace.Event{Kind: trace.KindFlush, Round: trRound + 1, WM: lastTime})
}

// closeAllWindowsTo closes monitoring windows up to win on every
// island. Only the oracle's driver uses it — everywhere else an
// executor closes the windows of the islands it owns (execRounds: all
// of them in line, one leaf per parallel worker or live node) and the
// central replay closes the central island's, at the same canonical
// points.
func (r *Runner) closeAllWindowsTo(win int) {
	for _, isl := range r.islands {
		isl.closeWindowsTo(win)
	}
}

// roundSink is where the splitter's rounds go. pend[i] holds island
// i's rounds the sink has not taken yet, oldest first; every island
// holds the same number. A sink takes rounds by executing, queueing or
// shipping them and cutting them off pend[i].
type roundSink interface {
	// closed reports that every island's newest round is complete and
	// another data round follows.
	closed(pend [][]live.Round) error
	// finish reports the end of the trace: pend[i] now ends with the last
	// data round (if there was one) and the flush round, and the sink
	// takes everything.
	finish(pend [][]live.Round) error
}

// split is the splitter: it merges the cursors in canonical order,
// routes every packet (a hash-routed stream's a run at a time), and
// hands sink each island's share of every round — the watermark
// advance, the round's groups tagged with their first packet's
// round-local sequence, and in the end the flush round — recording
// each closed round on the driver's trace shard. It returns whether the
// trace held any packet and its last timestamp.
//
//qap:hot
func (r *Runner) split(cursors []*streamCursor, gr *colGrouper, sink roundSink) (bool, uint64, error) {
	pend := make([][]live.Round, r.execIslands()) //qap:allow hotalloc -- splitter setup, once per run
	initGroupIndex(cursors)
	round := -1
	var lastTime uint64
	seq := uint64(0) // round-local push sequence
	for {
		best := nextCursor(cursors)
		if best == nil {
			break
		}
		pk := &best.packets[best.pos]
		best.pos++
		if round < 0 || pk.Time > lastTime {
			if round >= 0 {
				// The same (round, watermark, packets) triple the oracle
				// records, on every engine.
				if r.trDriver != nil {
					r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: round, WM: lastTime, Rows: int64(seq)})
				}
				if err := sink.closed(pend); err != nil {
					return true, lastTime, err
				}
			}
			round++
			r.engRounds++
			gr.nextRound()
			for i := range pend {
				pend[i] = openRound(pend[i], live.Round{Round: round, WM: pk.Time, Adv: true})
			}
			// Point every partition at its island's open round; the sink
			// moves rounds only between here and the next closed.
			for _, c := range cursors {
				for part, id := range c.rt.islands {
					c.lists[part] = &pend[id][len(pend[id])-1].Groups
				}
			}
			seq, lastTime = 0, pk.Time
		}
		if best.rt.hash == nil {
			gr.add(best, best.rt.route(nil), seq, pk)
			seq++
		} else {
			seq += uint64(gr.routeRun(best, seq))
		}
	}
	r.emitDriverTail(round, int64(seq), lastTime)
	r.engRounds++ // the flush round
	for i := range pend {
		pend[i] = openRound(pend[i], live.Round{Round: round + 1, Flush: true})
	}
	return round >= 0, lastTime, sink.finish(pend)
}

// openRound appends rd to an island's pending rounds. A slot left
// behind by a round the sink has taken still holds that round's group
// list; rd inherits it, so a sink that keeps its slots builds no list
// per round.
func openRound(p []live.Round, rd live.Round) []live.Round {
	if n := len(p); n < cap(p) {
		rd.Groups = p[:n+1][n].Groups[:0]
	}
	return append(p, rd)
}

// inlineSink is the sequential engine: every round executes on the
// splitter's own goroutine the moment it closes — no channel, no
// capture, one executor that owns the whole operator graph, so the
// round's groups are delivered in global tag order.
type inlineSink struct {
	x  *islandExec
	gr *colGrouper
}

//qap:hot
func (s *inlineSink) closed(pend [][]live.Round) error { return s.finish(pend) }

//qap:hot
func (s *inlineSink) finish(pend [][]live.Round) error {
	s.x.execRounds(pend[0])
	s.gr.recycle(pend[0])
	pend[0] = pend[0][:0]
	return nil
}

// runInline drives the trace through the shared splitter on the
// calling goroutine.
func (r *Runner) runInline(cursors []*streamCursor) (*Result, error) {
	adv, flush := r.buildTargets(cursors)
	x := &islandExec{
		r: r, isl: r.islands[0], wins: r.islands,
		adv: adv[0], flush: flush[0], outs: scanEntries(cursors),
	}
	var gr colGrouper
	any, maxTime, _ := r.split(cursors, &gr, &inlineSink{x: x, gr: &gr})
	gr.release()
	return r.finalize(any, maxTime), nil
}

// execIslands is the number of executors the splitter feeds: one per
// leaf island, or a single in-line one when the runner is sequential
// (compile then maps every partition to executor 0).
func (r *Runner) execIslands() int {
	if r.parallel {
		return r.plan.Hosts
	}
	return 1
}

// scanEntries is the executors' delivery table: entry [s][p] is stream
// s's partition-p scan, s indexing the canonical cursor order.
func scanEntries(cursors []*streamCursor) [][]exec.Consumer {
	outs := make([][]exec.Consumer, len(cursors))
	for i, c := range cursors {
		outs[i] = c.rt.outs
	}
	return outs
}

// islandExec executes rounds: the one body behind all three sinks. An
// executor owns the islands in wins — it closes their monitoring
// windows at its round boundaries — and stamps isl's capture
// bookkeeping, which the island-crossing capture consumers read. A leaf
// executor (a parallel worker's, a live node's) owns its own island;
// the in-line executor owns them all, central included, and has no
// captures to stamp for.
type islandExec struct {
	r          *Runner
	isl        *island
	wins       []*island
	adv, flush []tagged
	// outs[s][p] is stream s's partition-p scan entry, with s indexing
	// the splitter's canonical stream order.
	outs [][]exec.Consumer
	// view is the zero-copy chunk window over a delivered column group;
	// an executor runs on one goroutine, so it has a single writer.
	view exec.ColBatch
	// shipResult marks a remotely served island (ServeLiveHost): the
	// final island shards travel back in a result frame.
	shipResult bool
}

// execRounds runs a feed's rounds in order, each exactly as the oracle
// orders a round's work: close the monitoring windows the new
// watermark has passed (before the round touches any counter), advance,
// deliver the groups — each as chunks of up to BatchSize rows under the
// group's tag — and, in the flush round, flush. It returns the last
// round's number.
//
//qap:hot
func (x *islandExec) execRounds(rounds []live.Round) int {
	isl := x.isl
	last := 0
	for ri := range rounds {
		rd := &rounds[ri]
		isl.curRound = rd.Round
		last = rd.Round
		if rd.Adv {
			isl.curWM = rd.WM
			if x.r.winSec > 0 {
				win := int(rd.WM / x.r.winSec)
				for _, w := range x.wins {
					w.closeWindowsTo(win)
				}
			}
			for _, at := range x.adv {
				isl.curTag = at.tag
				at.c.Advance(rd.WM)
			}
		}
		for gi := range rd.Groups {
			g := &rd.Groups[gi]
			isl.curTag = g.Tag
			deliverCols(x.outs[g.Stream][g.Part], g.Cols, x.r.batchSize, &x.view)
		}
		if rd.Flush {
			for _, ft := range x.flush {
				isl.curTag = ft.tag
				ft.c.Flush()
			}
		}
	}
	return last
}

// colGrouper is the splitter's per-round grouping. A packet never
// becomes a row in front of the scan: a round-robin one goes from the
// trace cursor straight into its destination partition's pooled column
// batch (add); a hash-routed one into the stage with the rest of its
// stream's run in the round, which is routed column-wise and gathered
// into the destinations' batches (routeRun). A group is a live.Group —
// canonical tag, stream (cursor) index, partition, columns — so the
// live sink ships the very value the simulator's executors are handed.
//
// The zero value is ready once initGroupIndex has prepared the cursors.
type colGrouper struct {
	// round stamps the cursors' open groups; bumping it closes them all.
	round int

	// routeRun's scratch, the splitter goroutine's: stage holds the run
	// being routed, parts its partition vector, perm its rows sorted by
	// partition, and end[p] where partition p's rows end in perm.
	stage *exec.ColBatch
	parts []uint64
	perm  []int32
	end   []int

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
// with no group open.
func initGroupIndex(cursors []*streamCursor) {
	for _, c := range cursors {
		c.gidx = make([]int, len(c.rt.outs))
		c.gstamp = make([]int, len(c.rt.outs))
		c.grows = make([]int, len(c.rt.outs))
		c.lists = make([]*[]live.Group, len(c.rt.outs))
		for p := range c.gstamp {
			c.gstamp[p] = -1
		}
	}
}

// nextRound closes the round: each destination's next packet opens a
// fresh group.
func (g *colGrouper) nextRound() { g.round++ }

// add appends pk to partition part's group of the open round, in the
// round's delivery list for whichever island owns the partition,
// opening the group, tagged with seq (the round-local sequence of its
// first packet), when pk is the destination's first of the round.
//
//qap:hot
func (g *colGrouper) add(c *streamCursor, part int, seq uint64, pk *netgen.Packet) {
	list := c.lists[part]
	if c.gstamp[part] != g.round {
		c.gstamp[part] = g.round
		c.gidx[part] = len(*list)
		*list = append(*list, live.Group{Tag: phasePush | seq, Stream: c.idx, Part: part, Cols: g.take(c.grows[part])})
		c.grows[part] = 0
	}
	c.grows[part]++
	pk.AppendCols((*list)[c.gidx[part]].Cols)
}

// routeRun routes c's run in the open round: the packet the merge just
// took and every later one with its timestamp, which the merge would
// hand out next, one by one — it breaks timestamp ties by cursor order.
// The first has round-local sequence seq; routeRun returns how many
// there are. The run is staged in one column batch and routed
// column-wise. One pass over the partition vector opens each
// destination's group, tagged with the sequence of its first row, in
// first-occurrence order — add's order and tags, as if every packet
// had been routed on arrival — and counts its rows (grows); a counting
// sort then lists every destination's rows, and each destination
// gathers them column by column.
//
//qap:hot
func (g *colGrouper) routeRun(c *streamCursor, seq uint64) int {
	start := c.pos - 1
	for tm := c.packets[start].Time; c.pos < len(c.packets) && c.packets[c.pos].Time == tm; {
		c.pos++
	}
	run := c.packets[start:c.pos]
	if g.stage == nil {
		g.stage = g.take(len(run))
	}
	st := g.stage
	for i := range run {
		run[i].AppendCols(st)
	}
	if n := len(c.rt.outs); len(g.end) < n {
		g.end = make([]int, n) //qap:allow hotalloc -- sized to the widest router once per run
	}
	parts := c.rt.routeCols(st, g.parts)
	g.parts = parts
	for i, p := range parts {
		if c.gstamp[p] != g.round {
			c.gstamp[p] = g.round
			list := c.lists[p]
			c.gidx[p] = len(*list)
			*list = append(*list, live.Group{Tag: phasePush | (seq + uint64(i)), Stream: c.idx, Part: int(p)})
			c.grows[p] = 0
		}
		c.grows[p]++
	}
	n := 0
	for p, stamp := range c.gstamp {
		if stamp == g.round {
			g.end[p] = n // where p's rows start, until the fill below
			n += c.grows[p]
		}
	}
	perm := slices.Grow(g.perm[:0], len(parts))[:len(parts)]
	for i, p := range parts {
		perm[g.end[p]] = int32(i)
		g.end[p]++
	}
	g.perm = perm
	for p, stamp := range c.gstamp {
		if stamp == g.round {
			cb := g.take(c.grows[p])
			gatherCols(cb, st, perm[g.end[p]-c.grows[p]:g.end[p]])
			(*c.lists[p])[c.gidx[p]].Cols = cb
		}
	}
	st.Reset()
	return len(run)
}

// gatherCols fills dst, an empty batch, with rows of src, an all-uint
// batch, in order, column by column. A dst too small for them is
// resized as take sizes a batch, with headroom, in one slab.
//
//qap:hot
func gatherCols(dst, src *exec.ColBatch, rows []int32) {
	w, n := len(src.Cols), len(rows)
	short := cap(dst.Cols) < w
	for c := 0; c < w && !short; c++ {
		short = cap(dst.Cols[:w][c].U64) < n
	}
	if short {
		dst.Reserve(w, n+n/4+8)
	}
	dst.Cols = dst.Cols[:w]
	for c := range dst.Cols {
		s, d := src.Cols[c].U64, dst.Cols[c].U64[:n]
		for j, r := range rows {
			d[j] = s[r]
		}
		dst.Cols[c].Kind, dst.Cols[c].U64 = sqlval.KindUint, d
	}
	dst.Len = n
}

// take returns an empty batch for about rows packets (0: unknown): one
// of the run's own as it is, else the pool's. That one may be fresh
// from the allocator, or last have held a link item's copy of some
// narrower, shorter batch; if it has no room for rows it is sized for
// them with headroom — group sizes wander from round to round (add asks
// for the destination's previous size), and a column that outgrows the
// slab is reallocated on its own.
func (g *colGrouper) take(rows int) *exec.ColBatch {
	g.mu.Lock()
	if n := len(g.free); n > 0 {
		cb := g.free[n-1]
		g.free = g.free[:n-1]
		g.mu.Unlock()
		return cb
	}
	g.mu.Unlock()
	cb := exec.GetColBatch()
	if rows > 0 && (cap(cb.Cols) < netgen.TupleCols || cap(cb.Cols[:1][0].U64) < rows) {
		cb.Reserve(netgen.TupleCols, rows+rows/4+8)
	}
	return cb
}

// recycle takes the column batches of executed (or serialized) rounds
// back into the run's stock.
//
//qap:hot
func (g *colGrouper) recycle(rounds []live.Round) {
	g.mu.Lock()
	for ri := range rounds {
		groups := rounds[ri].Groups
		for i := range groups {
			groups[i].Cols.Reset()
			g.free = append(g.free, groups[i].Cols)
			groups[i].Cols = nil
		}
	}
	g.mu.Unlock()
}

// release ends the run: its stock and stage go back to the shared
// pool.
func (g *colGrouper) release() {
	exec.PutColBatch(g.stage)
	g.stage = nil
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
