package cluster

// The production drive path: one splitter, one sink, two drivers.
//
// The paper's Section 3.3 splitter — merge the streams in time order,
// hash the partitioning set, hand each packet to its host — exists once
// (split), for every engine at every BatchSize > 1. It cuts the merged
// trace into rounds of one timestamp each and groups every round per
// destination, as live.Round / live.Group values: one column group per
// (stream, partition). Every stream is routed a run at a time — its
// packets of the round, which the merge hands out together: a
// round-robin run is dealt out strided, straight from the trace into
// its groups (addRun); a hash-routed run is staged in one column batch
// and routed column-wise (routeRun). A group holds the packet columns
// its stream's read mask names (router.mask, compile.go), what the
// operators in front of the scans read; the others are pruned. Nothing
// in split is done per packet. Closed rounds go to the feedSink
// (engine.go), reached once per round and never per packet, which hands
// them on:
//
//	                          ┌ one feed, every round, executed on the caller   (sequential: runInline)
//	cursors → split → feedSink┤
//	                          └ a feed per leaf island, through the hop         (parallel and live: runDistributed)
//
// The splitter runs on a goroutine of its own on every engine, and every
// feed ends in the same executor body, islandExec.execRounds: on the
// caller, on a simulator worker, or behind a live node's Execute.
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
// run (nextRun), which is what lets the splitter route the run at once.
type streamCursor struct {
	name    string // lower-case stream name
	given   string // the name the caller gave the stream
	idx     int    // position in the canonical cursor order
	rt      *router
	packets []netgen.Packet
	pos     int

	// lists[p] is the open round's delivery list on the island that
	// owns partition p.
	lists []*[]live.Group
}

// makeCursors resolves the input traces against the plan's streams and
// fixes the canonical merge order: longer streams first, ties broken by
// stream name, so two equal-length streams sharing timestamps always
// interleave the same way (Go map iteration order must never leak into
// the merge). Whether each trace is time-ordered is checked as the
// merge walks it (nextRun, and runSequential's packet loop).
func (r *Runner) makeCursors(streams map[string][]netgen.Packet) ([]*streamCursor, error) {
	var cursors []*streamCursor
	for name, packets := range streams { //qap:allow maprange -- cursors sorted below before the merge
		lower := strings.ToLower(name)
		rt, ok := r.routers[lower]
		if !ok {
			return nil, fmt.Errorf("cluster: plan has no source stream %q", name)
		}
		cursors = append(cursors, &streamCursor{name: lower, given: name, rt: rt, packets: packets})
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

// nextRun hands out c's run: its next packet and every later one with
// the same timestamp, which the merge would hand out next, one by one —
// it breaks timestamp ties by cursor order. A stream therefore has one
// run in each round it has packets in: the packet after a run must be
// later, or the trace is not time-ordered.
//
//qap:hot
func (c *streamCursor) nextRun() ([]netgen.Packet, error) {
	start := c.pos
	tm := c.packets[start].Time
	for c.pos < len(c.packets) && c.packets[c.pos].Time == tm {
		c.pos++
	}
	if c.pos < len(c.packets) && c.packets[c.pos].Time < tm {
		return nil, c.disordered()
	}
	return c.packets[start:c.pos], nil
}

// disordered is the error for a trace whose packet at c.pos is earlier
// than the one before it.
func (c *streamCursor) disordered() error {
	return fmt.Errorf("cluster: stream %q is not time-ordered at index %d", c.given, c.pos)
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
		if best.pos < len(best.packets) && best.packets[best.pos].Time < pk.Time {
			return nil, best.disordered()
		}
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
				for _, isl := range r.islands {
					isl.closeWindowsTo(int(pk.Time / r.winSec))
				}
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
// routes every stream a run at a time, and
// hands sink each island's share of every round — the watermark
// advance, the round's groups tagged with their first packet's
// round-local sequence, and in the end the flush round — recording
// each closed round on the driver's trace shard. It returns whether the
// trace held any packet and its last timestamp.
//
//qap:hot
func (r *Runner) split(cursors []*streamCursor, gr *colGrouper, sink roundSink) (bool, uint64, error) {
	pend := make([][]live.Round, r.execIslands()) //qap:allow hotalloc -- splitter setup, once per run
	initLists(cursors)
	round := -1
	var lastTime uint64
	seq := uint64(0) // round-local push sequence
	for {
		best := nextCursor(cursors)
		if best == nil {
			break
		}
		tm := best.packets[best.pos].Time
		if round < 0 || tm > lastTime {
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
			for i := range pend {
				pend[i] = openRound(pend[i], live.Round{Round: round, WM: tm, Adv: true})
			}
			// Point every partition at its island's open round; the sink
			// moves rounds only between here and the next closed.
			for _, c := range cursors {
				for part, id := range c.rt.islands {
					c.lists[part] = &pend[id][len(pend[id])-1].Groups
				}
			}
			seq, lastTime = 0, tm
		}
		run, err := best.nextRun()
		if err != nil {
			for _, p := range pend {
				gr.recycle(p)
			}
			return true, lastTime, err
		}
		if best.rt.hash == nil {
			gr.addRun(best, run, seq)
		} else {
			gr.routeRun(best, run, seq)
		}
		seq += uint64(len(run))
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

// runInline is the sequential engine: one executor owns every island,
// central included, and executes the rounds in order on the calling
// goroutine, while the splitter runs ahead of it on a goroutine of its
// own, feeding it every round as the round closes — the paper's
// splitter in front of the hosts, never competing with their queries.
// The one executor delivers each round's groups in global tag order.
//
// A splitter that fails (a trace out of time order) sends no last feed:
// its error ends the run, and the feeds it did send go back unexecuted.
func (r *Runner) runInline(cursors []*streamCursor) (*Result, error) {
	x := &r.executors(cursors)[0]
	x.wins = r.islands
	var gr colGrouper
	feed := make(chan islandFeed, feedChanCap)
	failed := make(chan error, 1)
	join := r.splitAhead(cursors, &feedSink{r: r, gr: &gr, hop: &simHop{feeds: []chan islandFeed{feed}}, cut: 1}, failed)
	for last := false; !last; {
		select {
		case msg := <-feed:
			x.execRounds(msg.Rounds)
			gr.retire(msg.Rounds)
			last = msg.Last
		case <-failed:
			last = true
		}
	}
	any, maxTime, err := join()
	for len(feed) > 0 {
		gr.recycle((<-feed).Rounds)
	}
	gr.release()
	if err != nil {
		return nil, err
	}
	return r.finalize(any, maxTime), nil
}

// execIslands is the number of executors the splitter feeds: one per
// leaf island, or a single one when the runner is sequential (compile
// then maps every partition to executor 0).
func (r *Runner) execIslands() int {
	if r.parallel {
		return r.plan.Hosts
	}
	return 1
}

// islandExec executes rounds: the one body behind every feed. An
// executor owns the islands in wins — it closes their monitoring
// windows at its round boundaries — and stamps isl's capture
// bookkeeping, which the island-crossing capture consumers read. A leaf
// executor (a parallel worker's, a live node's) owns its own island;
// the sequential engine's one executor owns them all, central
// included, and has no captures to stamp for.
type islandExec struct {
	r          *Runner
	isl        *island
	wins       []*island
	adv, flush []tagged
	// rts[s] is stream s's router, with s indexing the splitter's
	// canonical stream order: its partition-p scan entry and its feed's
	// read mask.
	rts []*router
	// view is the zero-copy chunk window over a delivered column group;
	// an executor runs on one goroutine, so it has a single writer.
	view exec.ColBatch
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
			deliverCols(x.rts[g.Stream].outs[g.Part], g.Cols, x.r.batchSize, &x.view)
		}
		if rd.Flush {
			for _, ft := range x.flush {
				isl.curTag = ft.tag
				ft.c.Flush()
			}
		}
	}
	isl.sealRun()
	return last
}

// colGrouper is the splitter's per-round grouping, of one stream's run
// at a time. A packet never becomes a row in front of the scan: a
// round-robin run goes from the trace cursor straight into its
// destinations' pooled column batches, every m-th packet into each of
// the m partitions (addRun); a hash-routed run into the stage, which is
// routed column-wise and gathered into the destinations' batches
// (routeRun). A group is a live.Group —
// canonical tag, stream (cursor) index, partition, columns — so the
// live sink ships the very value the simulator's executors are handed.
//
// The zero value is ready once initLists has prepared the cursors.
type colGrouper struct {
	// routeRun's scratch, the splitter goroutine's: stage holds the run
	// being routed, parts its partition vector, perm its rows sorted by
	// partition; rows[p] counts partition p's rows in the run (0: no
	// group open), gidx[p] is its group's index in its round's list, and
	// end[p] where its rows end in perm.
	stage           *exec.ColBatch
	parts           []uint64
	perm            []int32
	rows, gidx, end []int

	// free is the run's own stock of delivered batches, still shaped.
	// The shared pool behind exec.GetColBatch is emptied by the
	// collector, which on a join plan runs several times per replay: a
	// run that lived off the pool alone would allocate, and so run, to
	// the collector's timing. The run takes from the pool only what it
	// does not have yet and gives everything back in release.
	mu   sync.Mutex // free is filled by whoever delivers (the workers)
	free []*exec.ColBatch
}

// initLists gives every cursor its per-partition delivery list
// pointers, which split points at each round's lists as it opens.
func initLists(cursors []*streamCursor) {
	for _, c := range cursors {
		c.lists = make([]*[]live.Group, len(c.rt.outs))
	}
}

// addRun routes run, the open round's packets of c's round-robin
// stream, with the first at round-local sequence seq: packet k goes to
// partition (rr+k) mod m, rr the router's cursor, so the first
// min(m, len(run)) packets open their destinations' groups in that
// order, tagged seq+k, and partition (rr+k) mod m's group holds rows
// k, k+m, k+2m, … — the groups and tags of routing every packet on
// arrival. The cursor then moves on by len(run).
//
//qap:hot
func (g *colGrouper) addRun(c *streamCursor, run []netgen.Packet, seq uint64) {
	m := len(c.rt.outs)
	rr := c.rt.rr % m
	for k := 0; k < m && k < len(run); k++ {
		p := rr + k
		if p >= m {
			p -= m
		}
		cb := g.take()
		netgen.AppendRunCols(cb, run[k:], m, c.rt.mask)
		list := c.lists[p]
		*list = append(*list, live.Group{Tag: phasePush | (seq + uint64(k)), Stream: c.idx, Part: p, Cols: cb})
	}
	c.rt.rr = (rr + len(run)) % m
}

// routeRun routes run, the open round's packets of c's hash-routed
// stream, with the first at round-local sequence seq. The run is staged
// in one column batch — the columns the feed carries and those the
// partitioning set reads (router.stage) — and routed column-wise. One
// pass over the partition vector opens each destination's group, tagged
// with the sequence of its first row, in first-occurrence order — as if
// every packet had been routed on arrival — and counts its rows; a
// counting sort then lists every destination's rows, and each
// destination gathers the feed's columns of them, column by column.
//
//qap:hot
func (g *colGrouper) routeRun(c *streamCursor, run []netgen.Packet, seq uint64) {
	if g.stage == nil {
		g.stage = g.take()
	}
	st := g.stage
	netgen.AppendRunCols(st, run, 1, c.rt.stage)
	m := len(c.rt.outs)
	if len(g.end) < m {
		//qap:allow hotalloc -- sized to the widest router once per run
		g.end, g.rows, g.gidx = make([]int, m), make([]int, m), make([]int, m)
	}
	rows, gidx, end := g.rows[:m], g.gidx[:m], g.end[:m]
	parts := c.rt.routeCols(st, g.parts)
	g.parts = parts
	for i, p := range parts {
		if rows[p] == 0 {
			list := c.lists[p]
			gidx[p] = len(*list)
			*list = append(*list, live.Group{Tag: phasePush | (seq + uint64(i)), Stream: c.idx, Part: int(p)})
		}
		rows[p]++
	}
	n := 0
	for p, k := range rows {
		end[p] = n // where p's rows start, until the fill below
		n += k
	}
	perm := slices.Grow(g.perm[:0], len(parts))[:len(parts)]
	for i, p := range parts {
		perm[end[p]] = int32(i)
		end[p]++
	}
	g.perm = perm
	for p, k := range rows {
		if k > 0 {
			cb := g.take()
			gatherCols(cb, st, perm[end[p]-k:end[p]], c.rt.mask)
			(*c.lists[p])[gidx[p]].Cols = cb
			rows[p] = 0
		}
	}
	st.Reset()
}

// gatherCols fills dst, an empty batch, with rows of src, in order, its
// columns in read mask mask — uint columns of src — column by column;
// every other column of dst is pruned. A dst too small for them is
// resized in one slab, with headroom.
//
//qap:hot
func gatherCols(dst, src *exec.ColBatch, rows []int32, mask uint64) {
	w, n := len(src.Cols), len(rows)
	short := cap(dst.Cols) < w
	for c := 0; c < w && !short; c++ {
		short = mask&(1<<c) != 0 && cap(dst.Cols[:w][c].U64) < n
	}
	if short {
		dst.Reserve(w, n+n/4+8, mask)
	}
	dst.Cols = dst.Cols[:w]
	for c := range dst.Cols {
		d := &dst.Cols[c]
		if mask&(1<<c) == 0 {
			d.Prune()
			continue
		}
		s, dw := src.Cols[c].U64, d.U64[:n]
		for j, r := range rows {
			dw[j] = s[r]
		}
		d.Kind, d.U64 = sqlval.KindUint, dw
	}
	dst.Len = n
}

// take returns an empty batch: one of the run's own as it is, else the
// pool's. That one may be fresh from the allocator, or last have held a
// link item's copy of some narrower, shorter batch; whoever fills it
// (AppendRunCols, gatherCols) sizes a batch with no room for its rows
// in one slab, with headroom.
func (g *colGrouper) take() *exec.ColBatch {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := len(g.free); n > 0 {
		cb := g.free[n-1]
		g.free = g.free[:n-1]
		return cb
	}
	return exec.GetColBatch()
}

// retire takes back a feed its receiver is done with, executed or
// serialized: its column batches into the run's stock (recycle), the
// round list itself, group lists and all, into roundStock for the next
// ship.
//
//qap:hot
func (g *colGrouper) retire(rounds []live.Round) {
	g.recycle(rounds)
	roundStock.mu.Lock()
	if len(roundStock.lists) < roundStockCap {
		roundStock.lists = append(roundStock.lists, rounds[:0])
	}
	roundStock.mu.Unlock()
}

// roundStock holds retired round lists for the sink to fill again, each round slot keeping the capacity of its group list, so a
// feed builds no list per message: a Deployment replays on a new Runner
// every run, so the stock is the package's, shared by every run, and
// bounded. It holds no column batch — retire has taken those back.
var roundStock struct {
	mu    sync.Mutex
	lists [][]live.Round
}

// roundStockCap bounds roundStock: more round lists than a few runs
// have in flight at once.
const roundStockCap = 64

// takeRounds returns an empty round list, from roundStock if it has
// one.
func takeRounds() []live.Round {
	roundStock.mu.Lock()
	defer roundStock.mu.Unlock()
	n := len(roundStock.lists)
	if n == 0 {
		return nil
	}
	p := roundStock.lists[n-1]
	roundStock.lists = roundStock.lists[:n-1]
	return p
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
