package cluster

// The parallel execution engine.
//
// The sequential engine (runner.go) drives the merged packet trace
// through the whole operator graph on one goroutine in a canonical
// order: rounds of distinct timestamps, each round advancing every
// stream's router (cursor order x partition order) and then pushing the
// round's packets in merged arrival order, with a final flush round
// over the routers in sorted-name order.
//
// The parallel engine reproduces exactly that event sequence while
// running the per-host operator chains concurrently:
//
//   - The plan decomposes into islands (runner.go): one leaf island per
//     simulated host (its capture processes) plus the central island
//     (the root process on the aggregator host). The optimizer only
//     builds plans whose island-crossing dataflow points into the
//     central island; parallelizable() verifies this and otherwise the
//     Runner falls back to the sequential engine.
//
//   - A driver goroutine plays the splitter: it merges the input
//     cursors in canonical order, evaluates each tuple's route (hash or
//     round-robin), and feeds every island its per-round action list —
//     watermark advances, tuple pushes, final flushes — over bounded
//     channels, batching batchRounds rounds per message.
//
//   - One worker goroutine per min(Workers, Hosts) executes the leaf
//     islands (worker g owns islands g, g+W, ...). Each action carries
//     a canonical tag; deliveries that cross into the central island
//     are not executed by the worker but recorded as tagged linkItems
//     (the capture consumer) and shipped to the central inbox. Every
//     processed feed message emits a linkBatch — even when empty — so
//     the central watermark advances.
//
//   - The central replay loop, on the calling goroutine, K-way-merges
//     the islands' linkItems by (round, tag) and applies them to the
//     central operators. A tag identifies one splitter action (advance,
//     push, or flush), every action's cascade runs on exactly one
//     island, and each island emits its items in canonical order — so
//     the merge reconstructs the sequential delivery order exactly.
//     Per-island "through" watermarks (the last fully shipped round)
//     gate the merge: an item is applied only once every island has
//     shipped past its round.
//
// Accounting is sharded per island in both engines and merged in a
// fixed order by finalize(), so floating-point sums group identically
// and parallel results are byte-identical to sequential ones.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"qap/internal/exec"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/sqlval"
)

// defaultBatchRounds is how many watermark rounds the driver coalesces
// into one channel message when RunConfig.BatchRounds is unset. Rounds
// are small (a handful of packets at typical trace rates), so batching
// amortizes channel synchronization across the pipeline.
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

type linkKind uint8

const (
	itemPush linkKind = iota
	itemPushBatch
	itemAdvance
	itemFlush
)

// linkItem is one captured delivery across an island boundary.
type linkItem struct {
	round int
	tag   uint64
	kind  linkKind
	e     *edge
	t     exec.Tuple
	b     exec.Batch
	wm    uint64
	// mwm is the producing round's watermark (the flush round inherits
	// the last data round's), stamped on every item so the central
	// replay closes monitoring windows at the same trace times the
	// sequential engine does. Distinct from wm: an advance cascade may
	// forward a different watermark than the round's.
	mwm uint64
}

// linkBatch ships an island's captured deliveries for a range of
// rounds. through is the last round fully contained in the batch; done
// marks the island's final batch.
type linkBatch struct {
	isl     int
	through int
	done    bool
	items   []linkItem
}

// capture replaces an island-crossing edge on the producing island: it
// records the delivery instead of performing it. The central replay
// loop applies the recorded items in canonical order.
type capture struct {
	isl *island
	e   *edge
}

func (c *capture) Push(t exec.Tuple) {
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemPush, e: c.e, t: t,
		mwm: c.isl.curWM,
	})
}

// PushBatch records a produced batch as a single link item, so the
// central replay applies it through edge.PushBatch over exactly the
// batch boundaries the producing operator emitted — the same
// boundaries the sequential engine cascades inline. The container is
// copied into a pooled batch because producers reuse their emission
// buffers across epochs; the tuples themselves are immutable once
// emitted, so only the container needs to survive until replay.
func (c *capture) PushBatch(b exec.Batch) {
	if len(b) == 0 {
		return
	}
	cp := append(exec.GetBatch(), b...)
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemPushBatch, e: c.e, b: cp,
		mwm: c.isl.curWM,
	})
}

// PushCols records a columnar delivery as a row link item: the batch
// pivots to durable rows here on the producing island (the columns are
// only valid during the call), so the link format, the wire codec, and
// the central replay stay row-oriented and untouched. The central
// replay then applies the item through edge.PushBatch — observably
// identical to the columnar delivery by the ColConsumer contract.
func (c *capture) PushCols(cb *exec.ColBatch) {
	if cb.Len == 0 {
		return
	}
	b := cb.AppendRows(exec.GetBatch())
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemPushBatch, e: c.e, b: b,
		mwm: c.isl.curWM,
	})
}

func (c *capture) Advance(wm uint64) {
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemAdvance, e: c.e, wm: wm,
		mwm: c.isl.curWM,
	})
}

func (c *capture) Flush() {
	c.isl.outbox = append(c.isl.outbox, linkItem{
		round: c.isl.curRound, tag: c.isl.curTag, kind: itemFlush, e: c.e,
		mwm: c.isl.curWM,
	})
}

// tagged is a pre-resolved consumer with its canonical tag.
type tagged struct {
	tag uint64
	c   exec.Consumer
}

// pushAction is one routed tuple delivery within a round.
type pushAction struct {
	tag uint64
	out exec.Consumer
	t   exec.Tuple
}

// pushGroup is one destination partition's buffered tuples within a
// round of the batched driver. Its tag is the round-local sequence
// number of the group's first tuple, so the central replay merge
// interleaves islands' groups in exactly the order the batched
// sequential driver delivers them.
type pushGroup struct {
	tag    uint64
	out    exec.Consumer
	tuples exec.Batch
}

// hostRound is one island's share of one round. At most one of pushes
// (scalar mode), groups (batched rows) and cols (columnar: the
// colGrouper's pooled column groups, which the worker returns) is
// populated.
type hostRound struct {
	round  int
	wm     uint64
	adv    bool // run the island's advance targets at wm
	pushes []pushAction
	groups []pushGroup
	cols   []live.Group
	flush  bool // run the island's flush targets
}

// feedMsg carries a batch of rounds for one island; last marks the
// island's final message.
type feedMsg struct {
	isl    *island
	rounds []hostRound
	last   bool
}

// runParallel executes the trace with the parallel engine. The caller
// goroutine runs the central replay loop.
//
//qap:hot
func (r *Runner) runParallel(cursors []*streamCursor) (*Result, error) {
	hosts := r.plan.Hosts
	workers := r.workers
	if workers > hosts {
		workers = hosts
	}
	bs := r.batchSize
	batched := bs > 1

	advTargets, flushTargets := r.buildTargets(cursors)

	feeds := make([]chan feedMsg, workers) //qap:allow hotalloc -- driver setup, once per run
	for g := range feeds {
		feeds[g] = make(chan feedMsg, feedChanCap) //qap:allow hotalloc -- one channel per worker, once per run
	}
	inbox := make(chan linkBatch, 2*hosts) //qap:allow hotalloc -- driver setup, once per run

	var gr colGrouper // filled by the driver, restocked by the workers

	// Leaf workers: worker g executes islands g, g+W, 2W, ...
	stall := testStallWorkers
	var workerWG sync.WaitGroup
	for g := 0; g < workers; g++ {
		workerWG.Add(1)
		//qap:allow hotalloc -- one worker goroutine closure per worker, once per run
		go func(feed <-chan feedMsg) {
			defer workerWG.Done()
			var view exec.ColBatch // zero-copy chunk window over a column group
			for msg := range feed {
				isl := msg.isl
				last := 0
				for _, hr := range msg.rounds {
					isl.curRound = hr.round
					last = hr.round
					if hr.adv {
						isl.curWM = hr.wm
						// Close the leaf island's monitoring windows at
						// the same boundary the sequential drivers do:
						// before the new round touches any counter.
						if r.winSec > 0 {
							isl.closeWindowsTo(int(hr.wm / r.winSec))
						}
						for _, at := range advTargets[isl.id] {
							isl.curTag = at.tag
							at.c.Advance(hr.wm)
						}
					}
					for _, pa := range hr.pushes {
						isl.curTag = pa.tag
						pa.out.Push(pa.t)
					}
					for gi := range hr.groups {
						g := &hr.groups[gi]
						isl.curTag = g.tag
						for off := 0; off < len(g.tuples); off += bs {
							end := off + bs
							if end > len(g.tuples) {
								end = len(g.tuples)
							}
							exec.PushAll(g.out, g.tuples[off:end])
						}
						exec.PutBatch(g.tuples)
						g.out, g.tuples = nil, nil
					}
					for gi := range hr.cols {
						g := &hr.cols[gi]
						isl.curTag = g.Tag
						deliverCols(cursors[g.Stream].rt.outs[g.Part], g.Cols, bs, &view)
					}
					gr.recycle(hr.cols)
					if hr.flush {
						for _, ft := range flushTargets[isl.id] {
							isl.curTag = ft.tag
							ft.c.Flush()
						}
					}
				}
				items := isl.outbox
				isl.outbox = nil
				if stall != nil {
					<-stall
				}
				inbox <- linkBatch{isl: isl.id, through: last, items: items, done: msg.last}
			}
		}(feeds[g])
	}

	// Driver: merge the cursors, route every tuple, and feed the
	// islands their rounds in batches.
	var (
		driverWG sync.WaitGroup
		dAny     bool
		dMax     uint64
	)
	driverWG.Add(1)
	//qap:allow hotalloc -- the driver goroutine and its helpers close once per run
	go func() {
		defer driverWG.Done()
		// rounds[i] accumulates island i's pending hostRounds.
		rounds := make([][]hostRound, hosts) //qap:allow hotalloc -- driver setup, once per run
		pendingRounds := 0
		round := -1
		ship := func(last bool) { //qap:allow hotalloc -- closure built once per run
			for i := 0; i < hosts; i++ {
				msg := feedMsg{isl: r.islands[i], rounds: rounds[i], last: last}
				rounds[i] = nil
				feeds[i%workers] <- msg
			}
			pendingRounds = 0
			// Driver-owned telemetry (one feed message per island);
			// finalize reads it only after driverWG.Wait() below.
			r.engBatches += int64(hosts)
		}
		initGroupIndex(cursors)
		openRound := func(wm uint64) { //qap:allow hotalloc -- closure built once per run
			round++
			r.engRounds++
			gr.nextRound()
			for i := 0; i < hosts; i++ {
				rounds[i] = append(rounds[i], hostRound{round: round, wm: wm, adv: true})
			}
		}
		var valSlab []sqlval.Value
		var lastTime uint64
		first := true
		seq := uint64(0) // round-local push sequence
		for {
			best := nextCursor(cursors)
			if best == nil {
				break
			}
			pk := &best.packets[best.pos]
			best.pos++
			dAny = true
			if pk.Time > dMax {
				dMax = pk.Time
			}
			if first || pk.Time > lastTime {
				if !first {
					// Close the round on the splitter's trace shard:
					// the same (round, watermark, packets) triple the
					// sequential drivers record.
					if r.trDriver != nil {
						r.trDriver.Emit(trace.Event{Kind: trace.KindRound, Round: round, WM: lastTime, Rows: int64(seq)})
					}
					pendingRounds++
					if pendingRounds >= r.batchRounds {
						ship(false)
					}
				}
				openRound(pk.Time)
				seq = 0
				lastTime, first = pk.Time, false
			}
			if r.columnar {
				idx := gr.route(best, pk)
				id := best.rt.islands[idx]
				gr.add(&rounds[id][len(rounds[id])-1].cols, best, idx, seq, pk)
				seq++
				continue
			}
			if !batched {
				t := pk.Tuple()
				idx := best.rt.route(t)
				id := best.rt.islands[idx]
				hr := &rounds[id][len(rounds[id])-1]
				hr.pushes = append(hr.pushes, pushAction{
					tag: phasePush | seq, out: best.rt.outs[idx], t: t,
				})
				seq++
				continue
			}
			// Batched: buffer the tuple into its destination's group for
			// this round, tagged with the group's first-tuple sequence.
			if cap(valSlab)-len(valSlab) < netgen.TupleCols {
				valSlab = make([]sqlval.Value, 0, tupleSlabVals) //qap:allow hotalloc -- slab growth, amortized over tupleSlabVals values
			}
			var t exec.Tuple
			valSlab, t = pk.AppendTuple(valSlab)
			idx := best.rt.route(t)
			id := best.rt.islands[idx]
			hr := &rounds[id][len(rounds[id])-1]
			if best.gstamp[idx] != round {
				best.gstamp[idx] = round
				best.gidx[idx] = len(hr.groups)
				hr.groups = append(hr.groups, pushGroup{
					tag: phasePush | seq, out: best.rt.outs[idx], tuples: exec.GetBatch(),
				})
			}
			g := &hr.groups[best.gidx[idx]]
			g.tuples = append(g.tuples, t)
			seq++
		}
		r.emitDriverTail(round, int64(seq), lastTime)
		// The flush round.
		round++
		r.engRounds++
		for i := 0; i < hosts; i++ {
			rounds[i] = append(rounds[i], hostRound{round: round, flush: true})
		}
		ship(true)
		for _, feed := range feeds {
			close(feed)
		}
	}()

	// Central replay on the calling goroutine, with the optional drive
	// timeout guarding each receive so a wedged worker surfaces as a
	// positioned error instead of hanging the run.
	var timer *time.Timer
	recv := func(waiting string) (linkBatch, error) { //qap:allow hotalloc -- replay guard closure, built once per run
		if r.driveTimeout <= 0 {
			return <-inbox, nil
		}
		if timer == nil {
			timer = time.NewTimer(r.driveTimeout) //qap:allow walltime -- stall guard only; a timeout poisons the run, never shapes its outputs
		} else {
			timer.Reset(r.driveTimeout)
		}
		select {
		case b := <-inbox:
			if !timer.Stop() {
				<-timer.C
			}
			return b, nil
		case <-timer.C:
			return linkBatch{}, fmt.Errorf("cluster: parallel drive stalled: no link batch within %s (%s)",
				r.driveTimeout, waiting)
		}
	}
	if err := r.replayLinks(hosts, recv); err != nil {
		// The driver and workers are abandoned mid-stream; the run is
		// poisoned and only the error survives.
		return nil, err
	}

	driverWG.Wait()
	workerWG.Wait()
	gr.release()
	return r.finalize(dAny, dMax), nil
}

// buildTargets pre-resolves every island's advance and flush target
// lists in canonical (= tag) order. Advance walks the fed streams in
// cursor order; flush walks every router in sorted-name order.
func (r *Runner) buildTargets(cursors []*streamCursor) (advTargets, flushTargets [][]tagged) {
	hosts := r.plan.Hosts
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
// (round, tag), applied to the central island. An island with an empty
// pending queue bounds its next item at (through+1, 0) until its final
// batch arrives. recv supplies the next link batch from whichever
// transport the engine uses (channel or TCP); its argument describes
// which islands the merge is blocked on, for positioned stall errors.
//
//qap:hot
func (r *Runner) replayLinks(hosts int, recv func(waiting string) (linkBatch, error)) error {
	pending := make([][]linkItem, hosts) //qap:allow hotalloc -- replay setup, once per run
	heads := make([]int, hosts)          //qap:allow hotalloc -- replay setup, once per run
	through := make([]int, hosts)        //qap:allow hotalloc -- replay setup, once per run
	done := make([]bool, hosts)          //qap:allow hotalloc -- replay setup, once per run
	for i := range through {
		through[i] = -1
	}
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
				rnd, tg = it.round, it.tag
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
				r.islands[hosts].closeWindowsTo(int(it.mwm / r.winSec))
			}
			switch it.kind {
			case itemPush:
				it.e.Push(it.t)
			case itemPushBatch:
				it.e.PushBatch(it.b)
				exec.PutBatch(it.b)
				it.b = nil
			case itemAdvance:
				it.e.Advance(it.wm)
			case itemFlush:
				it.e.Flush()
			}
			heads[best]++
			if heads[best] == len(pending[best]) {
				pending[best], heads[best] = nil, 0
			}
			continue
		}
		// The merge is blocked on islands that have not shipped far
		// enough; receive more batches.
		b, err := recv(replayWaiting(through, done))
		if err != nil {
			return err
		}
		r.engLinkItems += int64(len(b.items))
		if len(pending[b.isl]) == 0 {
			pending[b.isl], heads[b.isl] = b.items, 0
		} else {
			pending[b.isl] = append(pending[b.isl], b.items...)
		}
		if b.through > through[b.isl] {
			through[b.isl] = b.through
		}
		if b.done {
			done[b.isl] = true
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
