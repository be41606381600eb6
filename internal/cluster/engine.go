package cluster

// The parallel execution engine, and the feed that both simulator
// engines' splitters ship rounds on (feedSink, splitAhead).
//
// The sequential engine (split.go, runInline) drives the merged packet
// trace through the whole operator graph with one executor, in a
// canonical order: rounds of distinct timestamps, each round advancing
// every stream's router (cursor order x partition order) and then
// pushing the round's packets in merged arrival order, with a final
// flush round over the routers in sorted-name order. Its splitter runs
// ahead of that executor on a goroutine of its own, on the feedSink
// below with a single feed.
//
// The parallel engine reproduces exactly that event sequence while
// running the per-host operator chains concurrently:
//
//   - The plan decomposes into islands: one leaf island per simulated
//     host (its capture processes) plus the central island (the root
//     process on the aggregator host). The optimizer only builds plans
//     whose island-crossing dataflow points into the central island;
//     parallelizable() verifies this and otherwise the Runner falls back
//     to the sequential engine.
//
//   - A driver goroutine runs the splitter (split.go) into a feedSink,
//     which queues every island's share of the closed rounds —
//     watermark advance, tagged groups, final flush — on bounded
//     channels, batchRounds rounds per message.
//
//   - One worker goroutine per min(Workers, Hosts) executes the leaf
//     islands (worker g owns islands g, g+W, ...) through
//     islandExec.execRounds. Each delivery carries a canonical tag;
//     deliveries that cross into the central island are not executed by
//     the worker but recorded as tagged link items (the capture
//     consumer) — live.Item, the link currency of this engine and the
//     live backend alike, as live.Round is their round currency. A data
//     item is always a column batch of the item's own, from the pool: a
//     producer's column batch is copied (it is valid only during the
//     call), and a run of pushed rows is gathered and pivoted into one
//     (sealRun).
//     Every processed feed message emits a live.LinkMsg — even when
//     empty — so the central watermark advances.
//
//   - The central replay loop, on the calling goroutine, K-way-merges
//     the islands' link items by (round, tag) and applies them to the
//     central operators through the edge — a column item through
//     edge.PushCols, over exactly the batch boundaries the producer
//     emitted, so a sub-aggregate's columns reach
//     the super-aggregate's dense store as they do on the sequential
//     engine — returning each pooled batch once applied. A tag
//     identifies one splitter action (advance, push, or flush), every
//     action's cascade runs on exactly one island, and each island emits
//     its items in canonical order — so the merge reconstructs the
//     sequential delivery order exactly. Per-island "through" watermarks
//     (the last fully shipped round) gate the merge: an item is applied
//     only once every island has shipped past its round.
//
// Accounting is the operators' integer counters, sharded per island in
// every engine and summed by finalize(), which computes CPU units from
// them, so parallel results are byte-identical to sequential ones.

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

// testStallWorkers, when non-nil, blocks every worker just before it
// ships a link batch until the channel is closed — the test harness for
// the DriveTimeout guard (a wedged worker must surface as a positioned
// error, not a hang). Set and cleared only between runs; runParallel
// reads it once at start.
var testStallWorkers chan struct{}

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

// feedSink is the round sink of both simulator engines: every cut
// closed rounds it queues each island's pending rounds on the feed of
// the executor that owns the island. The final message also carries
// the last data round and the flush round. The sequential engine's one
// executor is fed every round as it closes (cut 1), so no more than
// feedChanCap+2 rounds of column batches are ever out at once; the
// parallel engine's workers are fed batchRounds at a time. A shipped
// round list comes back through colGrouper.retire once executed, and
// ship replaces it from that stock.
type feedSink struct {
	r       *Runner
	gr      *colGrouper
	feeds   []chan islandFeed
	cut     int
	pending int
	// quit, closed when the replay has failed, stops the splitter at
	// its next send; nil (the sequential engine) never does.
	quit <-chan struct{}
}

// errSplitQuit ends a splitter the replay stopped.
var errSplitQuit = errors.New("cluster: splitter stopped: the run failed")

//qap:hot
func (s *feedSink) closed(pend [][]live.Round) error {
	if s.pending++; s.pending >= s.cut {
		return s.ship(pend, false)
	}
	return nil
}

func (s *feedSink) finish(pend [][]live.Round) error { return s.ship(pend, true) }

// ship queues every island's pending rounds. Stopped by quit, it takes
// back the column batches of the rounds it has not queued, and fails.
//
//qap:hot
func (s *feedSink) ship(pend [][]live.Round, last bool) error {
	for i := range pend {
		select {
		case s.feeds[i%len(s.feeds)] <- islandFeed{isl: i, FeedMsg: live.FeedMsg{Last: last, Rounds: pend[i]}}:
		case <-s.quit:
			for _, p := range pend[i:] {
				s.gr.recycle(p)
			}
			return errSplitQuit
		}
		pend[i] = takeRounds() // the executor owns the shipped rounds now
	}
	s.pending = 0
	// Driver-owned telemetry (one feed message per island); finalize
	// reads it only after the driver has joined.
	s.r.engBatches += int64(len(pend))
	return nil
}

// splitAhead runs the splitter into s on a goroutine of its own — the
// first stage of the pipeline — and closes s's feeds when it returns,
// at the end of the trace or stopped by quit. join waits for it and
// returns whether the trace held any packet, and its last timestamp.
func (r *Runner) splitAhead(cursors []*streamCursor, s *feedSink) (join func() (bool, uint64)) {
	var (
		any     bool
		maxTime uint64
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		any, maxTime, _ = r.split(cursors, s.gr, s) // the one error is errSplitQuit
		for _, feed := range s.feeds {
			close(feed)
		}
	}()
	return func() (bool, uint64) {
		<-done
		return any, maxTime
	}
}

// runParallel executes the trace with the parallel engine. The caller
// goroutine runs the central replay loop. A failed replay closes quit,
// which stops the splitter and the workers at their next send; the run
// joins them and takes back the pooled batches still in the pipeline
// before it returns the error, so nothing is left blocked behind it.
func (r *Runner) runParallel(cursors []*streamCursor) (*Result, error) {
	hosts := r.plan.Hosts
	workers := r.workers
	if workers > hosts {
		workers = hosts
	}

	advTargets, flushTargets := r.buildTargets(cursors)
	outs := scanEntries(cursors)
	xs := make([]islandExec, hosts)
	for i := range xs {
		xs[i] = islandExec{
			r: r, isl: r.islands[i], wins: r.islands[i : i+1],
			adv: advTargets[i], flush: flushTargets[i], outs: outs,
		}
	}

	feeds := make([]chan islandFeed, workers)
	for g := range feeds {
		feeds[g] = make(chan islandFeed, feedChanCap)
	}
	inbox := make(chan live.LinkMsg, 2*hosts)
	quit := make(chan struct{})

	var gr colGrouper // filled by the driver, restocked by the workers

	// Leaf workers: worker g executes islands g, g+W, 2W, ...
	stall := testStallWorkers
	var workerWG sync.WaitGroup
	for g := 0; g < workers; g++ {
		workerWG.Add(1)
		go func(feed <-chan islandFeed) {
			defer workerWG.Done()
			for msg := range feed {
				x := &xs[msg.isl]
				last := x.execRounds(msg.Rounds)
				gr.retire(msg.Rounds)
				items := x.isl.outbox
				x.isl.outbox = nil
				if stall != nil {
					select {
					case <-stall:
					case <-quit:
					}
				}
				select {
				case inbox <- live.LinkMsg{Host: msg.isl, Through: last, Done: msg.Last, Items: items}:
				case <-quit:
					live.ReleaseCols(items)
					return
				}
			}
		}(feeds[g])
	}

	// Driver: the splitter, feeding the islands their rounds in batches.
	join := r.splitAhead(cursors, &feedSink{r: r, gr: &gr, feeds: feeds, cut: r.batchRounds, quit: quit})

	// Central replay on the calling goroutine, with the optional drive
	// timeout guarding each receive so a wedged worker surfaces as a
	// positioned error instead of hanging the run.
	guard := recvGuard{d: r.driveTimeout}
	recv := func(waiting func() string) (live.LinkMsg, error) {
		if r.driveTimeout <= 0 {
			return <-inbox, nil
		}
		select {
		case b := <-inbox:
			guard.disarm()
			return b, nil
		case <-guard.arm():
			return live.LinkMsg{}, fmt.Errorf("cluster: parallel drive stalled: no link batch within %s (%s)",
				r.driveTimeout, waiting())
		}
	}
	if err := r.replayLinks(hosts, recv); err != nil {
		// Once both have stopped, the feeds (which the driver closed)
		// and the inbox hold the only batches still out.
		close(quit)
		join()
		workerWG.Wait()
		for _, feed := range feeds {
			for msg := range feed {
				gr.recycle(msg.Rounds)
			}
		}
		close(inbox)
		for m := range inbox {
			live.ReleaseCols(m.Items)
		}
		gr.release()
		return nil, err
	}

	any, maxTime := join()
	workerWG.Wait()
	gr.release()
	return r.finalize(any, maxTime), nil
}

// recvGuard is a replay loop's drive timeout: one timer for the whole
// run, armed for each blocking receive.
type recvGuard struct {
	d time.Duration
	t *time.Timer
}

// arm starts the timeout of the next receive and returns its channel.
func (g *recvGuard) arm() <-chan time.Time {
	if g.t == nil {
		g.t = time.NewTimer(g.d) //qap:allow walltime -- stall guard only; a timeout poisons the run, never shapes its outputs
	} else {
		g.t.Reset(g.d)
	}
	return g.t.C
}

// disarm stops the timeout after a receive that beat it.
func (g *recvGuard) disarm() {
	if !g.t.Stop() {
		<-g.t.C
	}
}

// buildTargets pre-resolves every executor's advance and flush target
// lists in canonical (= tag) order. Advance walks the fed streams in
// cursor order; flush walks every router in sorted-name order.
func (r *Runner) buildTargets(cursors []*streamCursor) (advTargets, flushTargets [][]tagged) {
	hosts := r.execIslands()
	advTargets = make([][]tagged, hosts)
	for sIdx, c := range cursors {
		for p, out := range c.rt.outs {
			id := c.rt.islands[p]
			advTargets[id] = append(advTargets[id], tagged{
				tag: phaseAdv | uint64(sIdx*r.plan.Partitions+p), c: out,
			})
		}
	}
	flushTargets = make([][]tagged, hosts)
	for fIdx, name := range r.routerNames {
		rt := r.routers[name]
		for p, out := range rt.outs {
			id := rt.islands[p]
			flushTargets[id] = append(flushTargets[id], tagged{
				tag: phaseFlush | uint64(fIdx*r.plan.Partitions+p), c: out,
			})
		}
	}
	return advTargets, flushTargets
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
