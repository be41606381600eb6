package cluster

// The distributed driver. The parallel engine (Workers > 1 on the
// simulator) and the live engine are one function, runDistributed; they
// differ only in the hop between the splitter and the leaf islands:
//
//	                             ┌ simHop   channels to worker goroutines, and back (here)
//	split → feedSink → hop.send ─┤
//	                             └ liveHop  live.Splitter to nodes, and back (live.go)
//	hop.links → checkLink → replayLinks on the central island
//
//   - The plan decomposes into islands: one leaf island per simulated
//     host (its capture processes) plus the central island (the root
//     process on the aggregator host). NewRunner refuses a plan whose
//     island-crossing dataflow points anywhere but into the central
//     island (checkIslands).
//
//   - The splitter (split.go) runs ahead on a goroutine of its own
//     (splitAhead). Its feedSink hands every leaf island its closed
//     rounds — watermark advance, tagged groups, final flush —
//     batchRounds rounds a feed, or fewer under the hop's frame bound.
//
//   - A leaf executor (executors) runs its island's feeds through
//     islandExec.execRounds, on a simulator worker or behind a live
//     node. A delivery that crosses into the central island is not
//     performed but recorded by the capture consumer as a tagged link
//     item (live.Item): a producer's column batch is copied, a run of
//     pushed rows pivoted into one column item (sealRun). Every feed
//     yields a link message, even an empty one, so the central
//     watermark advances.
//
//   - The central replay (replayLinks), on the calling goroutine,
//     K-way-merges the islands' link items by (round, tag) and applies
//     them through their edges, column items over exactly the batch
//     boundaries the producer emitted. A tag identifies one splitter
//     action (advance, push or flush), every action's cascade runs on
//     exactly one island, and each island emits its items in canonical
//     order, so the merge reconstructs the sequential delivery order.
//     Per-island "through" watermarks gate it: an item is applied only
//     once every island has shipped past its round.
//
//   - The drive timeout guards every receive. A failed run stops the
//     hop, and with it the splitter at its next send; on every path the
//     driver joins the splitter and ends the hop before it returns.
//
// Accounting is the operators' integer counters, sharded per island and
// summed by finalize, so results are byte-identical on every engine.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"qap/internal/exec"
	"qap/internal/live"
)

// defaultBatchRounds is how many watermark rounds the driver coalesces
// into one feed message, amortizing channel (or socket) synchronization
// across the pipeline. A round is one second of trace — whatever the
// packet rate makes of that, tens of packets or tens of thousands — so
// the count bounds a feed's rounds, not its bytes; the live sink also
// cuts by size.
const defaultBatchRounds = 32

// defaultBatchSize is the execution batch size when RunConfig.BatchSize
// is unset: batch-at-a-time execution is the default hot path.
const defaultBatchSize = 256

// feedChanCap bounds each worker's feed channel: the driver may run at
// most this many messages ahead of a worker, which also bounds the
// central replay loop's pending queues.
const feedChanCap = 2

// Canonical tags. Within one round the sequential engine performs
// watermark advances (cursor order x partition order), then tuple
// pushes (merged arrival order), then — in the one flush round — router
// flushes (sorted-name order x partition order). The tag encodes
// phase<<48 | key so that tag order within a round equals execution
// order, and every tag maps to exactly one island.
const (
	phaseAdv   = uint64(0) << 48
	phasePush  = uint64(1) << 48
	phaseFlush = uint64(2) << 48
)

// capture replaces an island-crossing edge on the producing island: it
// records the delivery instead of performing it. The central replay
// loop applies the recorded items in canonical order.
type capture struct {
	isl *island
	e   *edge
}

// record seals the island's open row run, stamps it with the executing
// round, tag and watermark and appends it to the island's outbox.
//
//qap:hot
func (c *capture) record(it live.Item) {
	isl := c.isl
	isl.sealRun()
	it.Round, it.Tag, it.Edge, it.MWM = isl.curRound, isl.curTag, c.e.id, isl.curWM
	isl.outbox = append(isl.outbox, it)
}

// Push records a pushed row. The pushes of one emitted run — into this
// edge, under one round and tag, with nothing captured in between —
// gather in the island's open run, which sealRun turns into one column
// item: a run crosses the island boundary as one item, whatever its
// length.
//
//qap:hot
func (c *capture) Push(t exec.Tuple) {
	isl := c.isl
	if run := &isl.run; len(isl.runRows) > 0 && (run.Edge != c.e.id || run.Round != isl.curRound || run.Tag != isl.curTag) {
		isl.sealRun()
	}
	if len(isl.runRows) == 0 {
		isl.run = live.Item{Kind: live.ItemPushCols, Round: isl.curRound, Tag: isl.curTag, Edge: c.e.id, MWM: isl.curWM}
		isl.runRows = exec.GetBatch()
	}
	isl.runRows = append(isl.runRows, t)
}

// PushCols records a columnar delivery as a column link item: the
// batch is valid only during the call, so the item takes a copy in a
// pooled batch, which the replay (or the node, once the item is on the
// wire) returns.
//
//qap:hot
func (c *capture) PushCols(cb *exec.ColBatch) {
	if cb.Len == 0 {
		return
	}
	cp := exec.GetColBatch()
	cp.CopyFrom(cb)
	c.record(live.Item{Kind: live.ItemPushCols, Cols: cp})
}

// sealRun appends the open row run to the outbox as one column item,
// its rows pivoted to columns (SetFromRows). A run SetFromRows refuses —
// a column mixing kinds, which no typed plan emits — crosses as one
// single-row column item per row, in order: the same currency, the same
// replay.
//
//qap:hot
func (isl *island) sealRun() {
	rows := isl.runRows
	if len(rows) == 0 {
		return
	}
	isl.runRows = nil
	it := isl.run
	if it.Cols = exec.GetColBatch(); it.Cols.SetFromRows(rows) {
		isl.outbox = append(isl.outbox, it)
	} else {
		exec.PutColBatch(it.Cols)
		for i := range rows {
			it.Cols = exec.GetColBatch()
			it.Cols.SetFromRows(rows[i : i+1])
			isl.outbox = append(isl.outbox, it)
		}
	}
	exec.PutBatch(rows)
}

func (c *capture) Advance(wm uint64) { c.record(live.Item{Kind: live.ItemAdvance, WM: wm}) }
func (c *capture) Flush()            { c.record(live.Item{Kind: live.ItemFlush}) }

// tagged is a pre-resolved consumer with its canonical tag.
type tagged struct {
	tag uint64
	c   exec.Consumer
}

// islandFeed addresses a feed message to one of a worker's islands.
type islandFeed struct {
	isl int
	live.FeedMsg
}

// feedSink is the round sink of every production engine: it hands each
// island's closed rounds to the hop every cut rounds — 1 on the
// sequential engine, whose one executor is fed every round as it
// closes, so no more than feedChanCap+2 rounds of column batches are
// ever out at once; batchRounds on the parallel and live engines — and,
// where the hop bounds a feed's bytes (cutBytes > 0: the live wire),
// sooner, before a round that would take some island's feed past
// cutBytes. Either cut falls on a round boundary, and the (round, tag)
// replay is indifferent to where. The final feed also carries the last
// data round and the flush round.
type feedSink struct {
	r        *Runner
	gr       *colGrouper
	hop      hop
	cut      int
	cutBytes int
	// pendBytes[i] is the encoded size of island i's sized pending
	// rounds, roundBytes[i] that of the round being sized; both are
	// unused without a byte bound.
	pendBytes, roundBytes []int
	pending               int          // pending rounds already counted
	msg                   live.FeedMsg // reused: a message sent by pointer through the hop escapes
}

//qap:hot
func (s *feedSink) closed(pend [][]live.Round) error {
	if err := s.closeRound(pend, 1); err != nil {
		return err
	}
	if s.pending >= s.cut {
		return s.ship(pend, false, 0)
	}
	return nil
}

func (s *feedSink) finish(pend [][]live.Round) error {
	// The last data round, if there was one, then the flush round.
	for back := len(pend[0]) - s.pending; back > 0; back-- {
		if err := s.closeRound(pend, back); err != nil {
			return err
		}
	}
	return s.ship(pend, true, 0)
}

// closeRound counts every island's back-th newest round as pending.
// Under a byte bound it sizes the round first, and ships the rounds
// before it if it would take some island's feed past the bound.
//
//qap:hot
func (s *feedSink) closeRound(pend [][]live.Round, back int) error {
	if s.cutBytes > 0 {
		over := false
		for i, p := range pend {
			s.roundBytes[i] = p[len(p)-back].WireSize()
			over = over || (s.pendBytes[i] > 0 && s.pendBytes[i]+s.roundBytes[i] > s.cutBytes)
		}
		if over {
			if err := s.ship(pend, false, back); err != nil {
				return err
			}
		}
		for i := range pend {
			s.pendBytes[i] += s.roundBytes[i]
		}
	}
	s.pending++
	return nil
}

// ship hands every island its pending rounds but the newest keep (those
// not sized yet, or that would overfill the feed), which stay pending in
// a list of their own. Whoever receives a feed owns its rounds and
// retires them. A refused feed fails the ship: its rounds and every
// round still pending go back to the run's stock.
//
//qap:hot
func (s *feedSink) ship(pend [][]live.Round, last bool, keep int) error {
	for i, p := range pend {
		n := len(p) - keep
		pend[i] = keepTail(p, n)
		s.msg = live.FeedMsg{Last: last, Rounds: p[:n]}
		if err := s.hop.send(i, &s.msg); err != nil {
			s.gr.recycle(p[:n])
			for _, q := range pend {
				s.gr.recycle(q)
			}
			return err
		}
	}
	s.pending = 0
	clear(s.pendBytes)
	// Driver-owned telemetry (one feed message per island); finalize
	// reads it only after the driver has joined.
	s.r.engBatches += int64(len(pend))
	return nil
}

// keepTail returns p's rounds from n on in a list of their own, from
// roundStock. Each kept round trades slots with the new list's, group
// list and all, before p leaves with p[:n]: p's receiver retires p into
// roundStock, and no group list may be in a stocked list and a pending
// one at once.
func keepTail(p []live.Round, n int) []live.Round {
	q := takeRounds()
	for j := n; j < len(p); j++ {
		q = openRound(q, live.Round{})
		k := len(q) - 1
		q[k], p[j] = p[j], q[k]
	}
	return q
}

// errSplitQuit ends a splitter the replay stopped.
var errSplitQuit = errors.New("cluster: splitter stopped: the run failed")

// splitAhead runs the splitter into s on a goroutine of its own, the
// first stage of every production engine. A failed splitter posts its
// error on errc, if there is room, for a receive blocked on the
// islands. join waits for it and returns whether the trace held any
// packet, its last timestamp, and its error.
func (r *Runner) splitAhead(cursors []*streamCursor, s *feedSink, errc chan<- error) (join func() (bool, uint64, error)) {
	var (
		any     bool
		maxTime uint64
		err     error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if any, maxTime, err = r.split(cursors, s.gr, s); err != nil {
			select {
			case errc <- err:
			default:
			}
		}
	}()
	return func() (bool, uint64, error) {
		<-done
		return any, maxTime, err
	}
}

// hop is what the parallel and live engines do differently: where an
// island's feed goes and where its link message comes from.
type hop interface {
	// send hands island i its feed; from then on the receiver owns its
	// rounds and retires them. A refused feed's rounds stay the caller's.
	send(i int, m *live.FeedMsg) error
	// links delivers the islands' link messages; errs the hop's own
	// failures (nil: none).
	links() <-chan live.LinkMsg
	errs() <-chan error
	// stop aborts the islands and any send blocked on them.
	stop()
	// end, once the splitter has returned, joins the islands (after a
	// failed run, once stopped) and takes back what is still in flight.
	end(failed bool) error
}

// simHop is the simulator's hop: island i's feeds go to worker i mod W
// on a bounded channel, and the workers' link messages come back on
// one inbox. The sequential engine feeds its one executor through a
// simHop with one feed and no worker.
type simHop struct {
	gr    *colGrouper
	feeds []chan islandFeed
	inbox chan live.LinkMsg
	// quit, closed by stop, ends the workers and a send blocked on
	// them; nil (the sequential engine) never does.
	quit chan struct{}
	wg   sync.WaitGroup
}

// newSimHop starts min(Workers, Hosts) workers; worker g executes
// islands g, g+W, 2W, ... through xs.
func (r *Runner) newSimHop(xs []islandExec, gr *colGrouper) *simHop {
	h := &simHop{
		gr:    gr,
		feeds: make([]chan islandFeed, min(r.workers, len(xs))),
		inbox: make(chan live.LinkMsg, 2*len(xs)),
		quit:  make(chan struct{}),
	}
	for g := range h.feeds {
		h.feeds[g] = make(chan islandFeed, feedChanCap)
		h.wg.Add(1)
		go h.work(xs, h.feeds[g], r.wedge)
	}
	return h
}

// work executes a worker's feeds and ships every one's link message,
// even an empty one, so the central watermark advances. wedge, when
// non-nil, holds the worker before each link message until it closes.
func (h *simHop) work(xs []islandExec, feed <-chan islandFeed, wedge <-chan struct{}) {
	defer h.wg.Done()
	for msg := range feed {
		x := &xs[msg.isl]
		last := x.execRounds(msg.Rounds)
		h.gr.retire(msg.Rounds)
		items := x.isl.outbox
		x.isl.outbox = nil
		if wedge != nil {
			select {
			case <-wedge:
			case <-h.quit:
			}
		}
		select {
		case h.inbox <- live.LinkMsg{Host: msg.isl, Through: last, Done: msg.Last, Items: items}:
		case <-h.quit:
			live.ReleaseCols(items)
			return
		}
	}
}

//qap:hot
func (h *simHop) send(i int, m *live.FeedMsg) error {
	select {
	case h.feeds[i%len(h.feeds)] <- islandFeed{isl: i, FeedMsg: *m}:
		return nil
	case <-h.quit:
		return errSplitQuit
	}
}

func (h *simHop) links() <-chan live.LinkMsg { return h.inbox }
func (h *simHop) errs() <-chan error         { return nil }
func (h *simHop) stop()                      { close(h.quit) }

// end closes the feeds, which ends the workers, and takes back the
// batches still in the feeds and the inbox.
func (h *simHop) end(bool) error {
	for _, feed := range h.feeds {
		close(feed)
	}
	h.wg.Wait()
	for _, feed := range h.feeds {
		for msg := range feed {
			h.gr.recycle(msg.Rounds)
		}
	}
	close(h.inbox)
	for m := range h.inbox {
		live.ReleaseCols(m.Items)
	}
	return nil
}

// runDistributed is the one driver of the parallel and live engines
// (see the top of this file): the splitter and the hop's islands ahead,
// the central replay on the calling goroutine.
func (r *Runner) runDistributed(cursors []*streamCursor) (*Result, error) {
	hosts := r.plan.Hosts
	xs := r.executors(cursors)
	var gr colGrouper
	errc := make(chan error, hosts+1) // the splitter's and in-process nodes' failures
	s := &feedSink{r: r, gr: &gr, cut: r.batchRounds}
	if r.engine == EngineLive {
		lh, err := r.newLiveHop(cursors, xs, &gr, errc)
		if err != nil {
			return nil, err
		}
		s.hop, s.cutBytes = lh, lh.sp.MaxFrame()/2
		s.pendBytes, s.roundBytes = make([]int, hosts), make([]int, hosts)
	} else {
		s.hop = r.newSimHop(xs, &gr)
	}
	h := s.hop
	join := r.splitAhead(cursors, s, errc)

	// The drive timeout: one timer for the run, armed for each receive.
	var timer *time.Timer
	links, hopErrs := h.links(), h.errs()
	recv := func(waiting func() string) (m live.LinkMsg, err error) {
		var expired <-chan time.Time
		if d := r.driveTimeout; d > 0 {
			if timer == nil {
				timer = time.NewTimer(d) //qap:allow walltime -- stall guard only; a timeout poisons the run, never shapes its outputs
			} else {
				timer.Reset(d)
			}
			expired = timer.C
		}
		select {
		case m = <-links:
			if err = r.checkLink(&m); err != nil {
				live.ReleaseCols(m.Items)
			}
		case err = <-hopErrs:
		case err = <-errc:
		case <-expired:
			return m, fmt.Errorf("cluster: %s drive stalled: no link message within %s (%s)",
				r.engineName(), r.driveTimeout, waiting())
		}
		if timer != nil && !timer.Stop() {
			<-timer.C
		}
		return m, err
	}
	err := r.replayLinks(hosts, recv)
	if err != nil {
		h.stop()
	}
	any, maxTime, serr := join()
	if err == nil {
		err = serr
	}
	if eerr := h.end(err != nil); err == nil {
		err = eerr
	}
	gr.release()
	if err != nil {
		return nil, err
	}
	return r.finalize(any, maxTime), nil
}

// executors builds the splitter's executors: one per leaf island, or
// one in all on the sequential engine, each owning its island's windows
// and reading the delivery table of the cursors' canonical order. Their
// advance and flush targets are pre-resolved in canonical (= tag)
// order: advance walks the fed streams in cursor order, flush every
// router in sorted-name order.
func (r *Runner) executors(cursors []*streamCursor) []islandExec {
	rts := make([]*router, len(cursors))
	xs := make([]islandExec, r.execIslands())
	for i := range xs {
		xs[i] = islandExec{r: r, isl: r.islands[i], wins: r.islands[i : i+1], rts: rts}
	}
	for sIdx, c := range cursors {
		rts[sIdx] = c.rt
		for p, out := range c.rt.outs {
			x := &xs[c.rt.islands[p]]
			x.adv = append(x.adv, tagged{tag: phaseAdv | uint64(sIdx*r.plan.Partitions+p), c: out})
		}
	}
	for fIdx, name := range r.routerNames {
		rt := r.routers[name]
		for p, out := range rt.outs {
			x := &xs[rt.islands[p]]
			x.flush = append(x.flush, tagged{tag: phaseFlush | uint64(fIdx*r.plan.Partitions+p), c: out})
		}
	}
	return xs
}

// replayLinks is the central replay loop shared by the parallel engine
// and the live backend: a K-way merge of the islands' link items by
// (round, tag), applied to the central island through the edges their
// ids name (r.edges; a transport that takes ids off a wire checks them
// first). An island with an empty pending queue bounds its next item at
// (through+1, 0) until its final message arrives. recv supplies the next
// link message from whichever transport the engine uses (channel or
// TCP); its argument renders which islands the merge is blocked on, for
// positioned stall errors, and is called only to report one. The
// replay owns a received message's pooled batches: each goes back once
// applied, or when the run aborts.
//
//qap:hot
func (r *Runner) replayLinks(hosts int, recv func(waiting func() string) (live.LinkMsg, error)) error {
	pending := make([][]live.Item, hosts) //qap:allow hotalloc -- replay setup, once per run
	heads := make([]int, hosts)           //qap:allow hotalloc -- replay setup, once per run
	through := make([]int, hosts)         //qap:allow hotalloc -- replay setup, once per run
	done := make([]bool, hosts)           //qap:allow hotalloc -- replay setup, once per run
	for i := range through {
		through[i] = -1
	}
	waiting := func() string { return replayWaiting(through, done) } //qap:allow hotalloc -- replay setup, once per run
	for {
		best, bestIsItem := -1, false
		var bestRound int
		var bestTag uint64
		for i := 0; i < hosts; i++ {
			var rnd int
			var tg uint64
			isItem := heads[i] < len(pending[i])
			if isItem {
				it := &pending[i][heads[i]]
				rnd, tg = it.Round, it.Tag
			} else if done[i] {
				continue
			} else {
				rnd, tg = through[i]+1, 0
			}
			if best == -1 || rnd < bestRound || (rnd == bestRound && tg < bestTag) {
				best, bestIsItem, bestRound, bestTag = i, isItem, rnd, tg
			}
		}
		if best == -1 {
			return nil // every island done and drained
		}
		if bestIsItem {
			it := &pending[best][heads[best]]
			// The merged item order is round order, and every item
			// carries its round's watermark, so closing central windows
			// here reproduces the sequential boundary exactly: all
			// central work of earlier rounds has been replayed.
			if r.winSec > 0 {
				r.islands[hosts].closeWindowsTo(int(it.MWM / r.winSec))
			}
			e := r.edges[it.Edge]
			switch it.Kind {
			case live.ItemPushCols:
				e.PushCols(it.Cols)
				exec.PutColBatch(it.Cols)
				it.Cols = nil
			case live.ItemAdvance:
				e.Advance(it.WM)
			case live.ItemFlush:
				e.Flush()
			}
			heads[best]++
			if heads[best] == len(pending[best]) {
				pending[best], heads[best] = nil, 0
			}
			continue
		}
		// The merge is blocked on islands that have not shipped far
		// enough; receive more batches.
		m, err := recv(waiting)
		if err != nil {
			for i := range pending {
				live.ReleaseCols(pending[i][heads[i]:])
			}
			return err
		}
		r.engLinkItems += int64(len(m.Items))
		if len(pending[m.Host]) == 0 {
			pending[m.Host], heads[m.Host] = m.Items, 0
		} else {
			pending[m.Host] = append(pending[m.Host], m.Items...)
		}
		if m.Through > through[m.Host] {
			through[m.Host] = m.Through
		}
		if m.Done {
			done[m.Host] = true
		}
	}
}

// replayWaiting renders which islands the replay merge is waiting on —
// the coordinates of a drive stall.
func replayWaiting(through []int, done []bool) string {
	var sb strings.Builder
	for i := range through {
		if done[i] {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "island %d shipped through round %d", i, through[i])
	}
	if sb.Len() == 0 {
		return "all islands done"
	}
	return "waiting on " + sb.String()
}
