package cluster

// The live TCP backend (RunConfig.Engine == EngineLive).
//
// The live engine is the paper's Section 3.3 architecture made real:
// each leaf island runs as a node behind a TCP listener (in-process
// goroutines by default, separate qap-node processes via
// LiveConfig.Nodes), the driver plays the splitter and ships every
// island its hash-routed rounds as length-prefixed serialized tuple
// batches over a persistent connection with credit-based backpressure,
// and the nodes ship their captured island-crossing deliveries back as
// link messages — the very live.Item values a simulator worker hands
// the replay, column batches included. The collector side checks them
// against the compiled plan (checkLink) and feeds them into the exact
// same central replay merge the simulator's parallel engine uses
// (replayLinks), so canonical outputs, OpStats, monitoring series, and
// trace bytes are byte-identical to the simulator:
//
//   - The driver is the parallel engine's — the one splitter
//     (split.go), so the same rounds, tags and per-destination column
//     groups — behind a sink that serializes instead of queueing, and a
//     node executes a feed through the same islandExec.execRounds a
//     simulator worker does. The scalar oracle (BatchSize 1) never runs
//     here: NewRunner refuses it.
//
//   - Tuples travel in the exec column codec, both ways: column vectors
//     with their validity and Int bitmaps, which round-trip every value
//     bit-exactly (floats as IEEE bits), so operator state evolves
//     identically on both sides of the wire.
//
//   - The transport (internal/live) delivers each direction's frames
//     exactly once and in order across reconnects, so a dropped,
//     duplicated, or stalled connection changes nothing but wall time.
//
// In-process nodes execute directly against this Runner's islands, so
// finalize sees their shards as usual. Remote nodes (qap-node) compile
// their own copy of the plan from the deployment the splitter's Hello
// carries (RunConfig.Deploy, ServeNode), execute against it, and ship
// their island shards back in a final result frame, which
// installHostShard copies into the local islands before finalize.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/obs/trace"
)

// LiveConfig tunes the live backend. The transport's credit window (4
// feed messages), link window (256 frames) and reconnect bound (8
// attempts) are its defaults.
type LiveConfig struct {
	// Nodes lists one remote qap-node address per leaf host. Empty (the
	// default) runs every node in-process on its own goroutine.
	Nodes []string
	// Timeout bounds every blocking transport step (default 30s); a
	// wedged node fails the run with a positioned error.
	Timeout time.Duration
	// AcceptGrace is how long a served host waits for its first
	// connection (ServeNode; default the transport timeout).
	AcceptGrace time.Duration
	// Faults injects deterministic transport misbehavior (dropped,
	// duplicated, stalled, cut connections) for recovery testing.
	Faults *live.FaultPlan
}

// transportTimeout is the effective live transport timeout.
func (c LiveConfig) transportTimeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

// runLive executes the trace on the live TCP backend. The caller
// goroutine runs the central replay loop, exactly like runParallel.
func (r *Runner) runLive(cursors []*streamCursor) (*Result, error) {
	hosts := r.plan.Hosts
	bs := r.batchSize

	advTargets, flushTargets := r.buildTargets(cursors)
	outs := scanEntries(cursors)
	streams := make([]string, len(cursors))
	for i, c := range cursors {
		streams[i] = c.name
	}
	fp := r.LiveFingerprint()

	lcfg := live.Config{Timeout: r.liveCfg.Timeout}
	if r.liveCfg.Faults != nil {
		lcfg.Dial = r.liveCfg.Faults.Dial(live.DefaultDial(r.liveCfg.transportTimeout()))
	}
	// The replay receive guard: an explicit DriveTimeout wins, else the
	// transport timeout (the live backend never runs unguarded).
	recvTimeout := r.driveTimeout
	if recvTimeout <= 0 {
		recvTimeout = r.liveCfg.transportTimeout()
	}

	remote := len(r.liveCfg.Nodes) > 0
	if remote && len(r.liveCfg.Nodes) != hosts {
		return nil, fmt.Errorf("cluster: live: %d node addresses for %d hosts", len(r.liveCfg.Nodes), hosts)
	}
	var nodes []*live.Node
	var nodeWG sync.WaitGroup
	nodeErr := make(chan error, hosts+1)
	addrs := r.liveCfg.Nodes
	if !remote {
		for h := 0; h < hosts; h++ {
			x := &islandExec{
				r: r, isl: r.islands[h], wins: r.islands[h : h+1],
				adv: advTargets[h], flush: flushTargets[h],
				outs: outs,
			}
			ncfg := lcfg
			if r.liveCfg.Faults != nil {
				ncfg.WrapAccept = r.liveCfg.Faults.WrapAccept(h)
			}
			n, err := live.NewNode(ncfg, live.NodeOptions{
				Host:        h,
				NewExecutor: func(*live.Hello) (live.Executor, error) { return x, nil },
			}, "")
			if err != nil {
				for _, prev := range nodes {
					prev.Close()
				}
				return nil, err
			}
			nodes = append(nodes, n)
			addrs = append(addrs, n.Addr())
		}
		for _, n := range nodes {
			nodeWG.Add(1)
			go func(n *live.Node) {
				defer nodeWG.Done()
				if err := n.Serve(); err != nil {
					select {
					case nodeErr <- err:
					default:
					}
				}
			}(n)
		}
	}

	hello := live.Hello{BatchSize: bs, Streams: streams, Fingerprint: fp}
	if remote {
		hello.Deploy = r.deploy
	}
	sp := live.NewSplitter(lcfg, hello, addrs)
	sp.Start()
	closeAll := func() {
		sp.Close()
		for _, n := range nodes {
			n.Close()
		}
		nodeWG.Wait()
	}

	driveErr := make(chan error, 1)
	var driverWG sync.WaitGroup
	var dAny bool
	var dMax uint64
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		var gr colGrouper
		defer gr.release()
		sink := &liveSink{
			r: r, sp: sp, gr: &gr, cutBytes: sp.MaxFrame() / 2,
			pendBytes: make([]int, hosts), roundBytes: make([]int, hosts),
		}
		var err error
		if dAny, dMax, err = r.split(cursors, &gr, sink); err != nil {
			driveErr <- err
		}
	}()

	guard := recvGuard{d: recvTimeout}
	recv := func(waiting func() string) (live.LinkMsg, error) {
		var err error
		select {
		case m := <-sp.Links():
			guard.disarm()
			if err := r.checkLink(m); err != nil {
				live.ReleaseCols(m.Items)
				return live.LinkMsg{}, err
			}
			return *m, nil
		case err = <-sp.Errs():
		case err = <-nodeErr:
		case err = <-driveErr:
		case <-guard.arm():
			return live.LinkMsg{}, fmt.Errorf("cluster: live drive stalled: no link message within %s (%s)",
				recvTimeout, waiting())
		}
		guard.disarm()
		return live.LinkMsg{}, err
	}
	if err := r.replayLinks(hosts, recv); err != nil {
		closeAll()
		return nil, err
	}

	// Every done link has been applied, so the driver has shipped its
	// last feed; join it and surface any late error.
	driverWG.Wait()
	select {
	case err := <-driveErr:
		closeAll()
		return nil, err
	default:
	}
	// Wait for the peers to finish draining acks (and to collect the
	// remote result frames).
	if err := sp.Wait(recvTimeout); err != nil {
		closeAll()
		return nil, err
	}
	if remote {
		for h := 0; h < hosts; h++ {
			if err := r.installHostShard(h, sp.Result(h)); err != nil {
				closeAll()
				return nil, err
			}
		}
	}
	// In-process nodes exit on their own once fully acknowledged;
	// closeAll is then a no-op join that also gives finalize a
	// happens-before edge on every island shard.
	closeAll()
	return r.finalize(dAny, dMax), nil
}

// liveSink is the live backend's round sink: the splitter's rounds
// leave as serialized feed messages instead of channel sends. A feed
// goes out every batchRounds rounds, or sooner when one more round
// would take it past half the frame bound; either cut falls on a round
// boundary, and the (round, tag) replay is indifferent to where.
type liveSink struct {
	r          *Runner
	sp         *live.Splitter
	gr         *colGrouper
	cutBytes   int
	pendBytes  []int // encoded size of each host's sized pending rounds
	roundBytes []int // and of the round being sized
	pending    int   // pending rounds already sized
	msg        live.FeedMsg
}

//qap:hot
func (s *liveSink) closed(pend [][]live.Round) error {
	if err := s.closeRound(pend, 1); err != nil {
		return err
	}
	if s.pending >= s.r.batchRounds {
		return s.ship(pend, false, 0)
	}
	return nil
}

func (s *liveSink) finish(pend [][]live.Round) error {
	// The last data round, if there was one, then the flush round.
	for back := len(pend[0]) - s.pending; back > 0; back-- {
		if err := s.closeRound(pend, back); err != nil {
			return err
		}
	}
	return s.ship(pend, true, 0)
}

// closeRound sizes every host's back-th newest round, first shipping
// the rounds before it if it would take some host's feed past the cut.
//
//qap:hot
func (s *liveSink) closeRound(pend [][]live.Round, back int) error {
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
	s.pending++
	return nil
}

// ship sends every host its pending rounds but the newest keep (those
// not sized yet, or that would overfill the feed).
//
//qap:hot
func (s *liveSink) ship(pend [][]live.Round, last bool, keep int) error {
	for i, p := range pend {
		n := len(p) - keep
		s.msg = live.FeedMsg{Last: last, Rounds: p[:n]}
		if err := s.sp.SendFeed(i, &s.msg); err != nil {
			return err
		}
		// SendFeed serialized the message: take the containers back and
		// rotate the kept rounds to the front, so that every slot keeps
		// a group list of its own for openRound to reuse.
		s.gr.recycle(p[:n])
		for j := 0; j < keep; j++ {
			p[j], p[n+j] = p[n+j], p[j]
		}
		pend[i] = p[:keep]
		s.pendBytes[i] = 0
	}
	s.pending = 0
	s.r.engBatches += int64(len(pend))
	return nil
}

// checkLink judges a link message that came off a wire before any of it
// is replayed, as Execute judges a feed: every item must name a
// compiled island-crossing edge, and a data item must be as wide as the
// operator producing into that edge. The replay indexes r.edges by the
// id and the receiving kernels index columns by position, so anything
// else would be a panic, not an error.
func (r *Runner) checkLink(m *live.LinkMsg) error {
	for i := range m.Items {
		it := &m.Items[i]
		var err error
		if it.Edge < 0 || it.Edge >= len(r.edges) {
			err = fmt.Errorf("unknown edge (the plan has %d)", len(r.edges))
		} else if width := outWidth(r.edges[it.Edge].from); it.Kind == live.ItemPushCols && len(it.Cols.Cols) != width {
			err = fmt.Errorf("column batch of %d columns, the producer emits %d", len(it.Cols.Cols), width)
		}
		if err != nil {
			return fmt.Errorf("cluster: live link from host %d, round %d, edge %d: %w", m.Host, it.Round, it.Edge, err)
		}
	}
	return nil
}

// Execute implements live.Executor — the node-side half of the live
// backend: the feed's rounds run through execRounds exactly as a
// simulator worker runs them, and the island-crossing deliveries they
// captured go back as the link message. The feed came off a wire, so it
// is checked first; a refused feed has executed nothing.
func (x *islandExec) Execute(m *live.FeedMsg) (*live.LinkMsg, error) {
	for ri := range m.Rounds {
		rd := &m.Rounds[ri]
		for gi := range rd.Groups {
			g := &rd.Groups[gi]
			if g.Stream < 0 || g.Stream >= len(x.outs) || g.Part < 0 || g.Part >= len(x.outs[g.Stream]) {
				return nil, fmt.Errorf("group targets stream %d partition %d out of range", g.Stream, g.Part)
			}
			if g.Cols == nil || len(g.Cols.Cols) != netgen.TupleCols || !g.Cols.AllUint() {
				// The codec admits row groups and any column batch; a
				// splitter sends packets as column groups.
				return nil, fmt.Errorf("round %d: group for stream %d partition %d is not the %d NULL-free uint columns of a packet",
					rd.Round, g.Stream, g.Part, netgen.TupleCols)
			}
		}
	}
	lm := &live.LinkMsg{Through: x.execRounds(m.Rounds), Done: m.Last, Items: x.isl.outbox}
	x.isl.outbox = nil
	return lm, nil
}

// liveHostShard is the serialized island state a remote node ships
// back in its result frame: its operators' counters and their snapshot
// at the last closed window, keyed by op ID, and its closed windows.
type liveHostShard struct {
	CurWin  int                 `json:"cur_win"`
	Wins    []HostMetrics       `json:"wins,omitempty"`
	Ops     map[int]obs.OpStats `json:"ops,omitempty"`
	LastOps map[int]obs.OpStats `json:"last_ops,omitempty"`
	Trace   []trace.Event       `json:"trace,omitempty"`
}

// Result implements live.Executor.
func (x *islandExec) Result() ([]byte, error) {
	if !x.shipResult {
		return nil, nil
	}
	isl := x.isl
	sh := liveHostShard{
		CurWin:  isl.curWin,
		Wins:    isl.wins,
		Ops:     make(map[int]obs.OpStats, len(isl.ops)),
		LastOps: make(map[int]obs.OpStats, len(isl.ops)),
		Trace:   isl.tr.Events(),
	}
	for i, op := range isl.ops {
		sh.Ops[op.ID], sh.LastOps[op.ID] = isl.stats[i], isl.last[i]
	}
	return json.Marshal(&sh)
}

// installHostShard copies a remote node's shipped island state into
// the local island, so finalize and mergeLoadSeries see exactly the
// state an in-process run would have produced. The shard is a peer's
// input, so it is decoded as strictly as the deployment spec: an
// unknown field, trailing bytes or an operator the island does not run
// refuse it.
func (r *Runner) installHostShard(host int, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("cluster: live node %d shipped no result shard", host)
	}
	var sh liveHostShard
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sh); err != nil {
		return fmt.Errorf("cluster: live node %d result shard at offset %d: %w", host, dec.InputOffset(), err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("cluster: live node %d result shard: trailing data at offset %d", host, dec.InputOffset())
	}
	if sh.CurWin < 0 || sh.CurWin != len(sh.Wins) {
		return fmt.Errorf("cluster: live node %d result shard: cur_win %d with %d closed windows", host, sh.CurWin, len(sh.Wins))
	}
	isl := r.islands[host]
	for _, m := range []struct {
		from map[int]obs.OpStats
		to   []obs.OpStats
	}{{sh.Ops, isl.stats}, {sh.LastOps, isl.last}} {
		for id, st := range m.from { //qap:allow maprange -- map-to-slot copy, order-insensitive
			i, ok := isl.index(id)
			if !ok {
				return fmt.Errorf("cluster: live node %d shipped counters for unknown op %d", host, id)
			}
			m.to[i] = st
		}
	}
	isl.curWin, isl.wins = sh.CurWin, sh.Wins
	isl.tr.EmitAll(sh.Trace)
	return nil
}

// LiveFingerprint identifies the deployment a live session serves:
// plan shape, operator graph, partitioning, costs, query parameters,
// batch size, load window and trace configuration. A node counts the
// same whether or not the splitter exports its stats, so CollectStats
// is not part of it. A served node
// refuses to pair with a splitter whose fingerprint its compiled plan
// does not reproduce, instead of diverging silently.
func (r *Runner) LiveFingerprint() string {
	h := sha256.New()
	p := r.plan
	partitioning := p.Set.String()
	if p.StreamSets != nil {
		partitioning = p.StreamSets.String()
	}
	tr := "off"
	if r.tracer != nil {
		tc := r.tracer.Config()
		tr = fmt.Sprintf("mode%d/ring%d", tc.Mode, tc.RingSize)
	}
	fmt.Fprintf(h, "hosts=%d parts=%d pph=%d agg=%d bs=%d win=%d trace=%s\n",
		p.Hosts, p.Partitions, p.PartitionsPerHost, p.AggregatorHost,
		r.batchSize, r.winSec, tr)
	fmt.Fprintf(h, "set=%s\ncosts=%+v\n", partitioning, r.cost)
	names := make([]string, 0, len(r.params))
	for name := range r.params { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.params[name]
		fmt.Fprintf(h, "param %s %s %s\n", name, v.Kind(), v)
	}
	for _, op := range p.Ops {
		fmt.Fprintf(h, "op %d %s host=%d proc=%d part=%d in=", op.ID, op.Kind, op.Host, op.Proc, op.Partition)
		for _, in := range op.Inputs {
			fmt.Fprintf(h, "%d,", in.ID)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// ServeNode serves one leaf host of a live deployment as a node on addr
// (e.g. ":9431"), for running hosts as separate OS processes
// (cmd/qap-node). The node knows nothing of the deployment until the
// splitter's first Hello: compile turns the Hello's Deploy payload
// into a runner, which must be a live, parallelizable plan with the
// host in range and the fingerprint the Hello announces. A refusal
// there fails the node for good. ready, when non-nil, receives the
// bound listen address before serving. Blocks until the host's work is
// complete and acknowledged; several hosts may be served concurrently
// from one process.
func ServeNode(host int, addr string, cfg LiveConfig, compile func(deploy []byte) (*Runner, error), ready func(addr string)) error {
	if host < 0 {
		return fmt.Errorf("cluster: host %d out of range", host)
	}
	lcfg := live.Config{Timeout: cfg.Timeout}
	if cfg.Faults != nil {
		lcfg.WrapAccept = cfg.Faults.WrapAccept(host)
	}
	n, err := live.NewNode(lcfg, live.NodeOptions{
		Host:        host,
		SendResult:  true,
		AcceptGrace: cfg.AcceptGrace,
		NewExecutor: func(h *live.Hello) (live.Executor, error) {
			r, err := compile(h.Deploy)
			if err != nil {
				return nil, err
			}
			return r.hostExec(host, h)
		},
	}, addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(n.Addr())
	}
	return n.Serve()
}

// hostExec binds a remotely served host's island of r to the
// splitter's Hello, once r is known to be the deployment it announces.
func (r *Runner) hostExec(host int, h *live.Hello) (*islandExec, error) {
	if r.engine != EngineLive {
		return nil, fmt.Errorf("cluster: a served node requires Engine %q", EngineLive)
	}
	if !r.parallel {
		return nil, fmt.Errorf("cluster: plan is not parallelizable; the live backend cannot serve it")
	}
	if host >= r.plan.Hosts {
		return nil, fmt.Errorf("cluster: host %d out of range (plan has %d)", host, r.plan.Hosts)
	}
	if fp := r.LiveFingerprint(); h.Fingerprint != fp {
		return nil, fmt.Errorf("cluster: the compiled deployment has fingerprint %q, the splitter announces %q", fp, h.Fingerprint)
	}
	// The Hello fixes the canonical stream (cursor) order the splitter
	// merged; resolve it against our routers to build the same advance
	// targets and scan entry table.
	if len(h.Streams) != len(r.routers) {
		return nil, fmt.Errorf("splitter feeds %d streams, plan has %d", len(h.Streams), len(r.routers))
	}
	cs := make([]*streamCursor, len(h.Streams))
	for i, name := range h.Streams {
		rt, ok := r.routers[name]
		if !ok {
			return nil, fmt.Errorf("plan has no source stream %q", name)
		}
		cs[i] = &streamCursor{name: name, rt: rt}
	}
	adv, flush := r.buildTargets(cs)
	return &islandExec{
		r: r, isl: r.islands[host], wins: r.islands[host : host+1],
		adv: adv[host], flush: flush[host], outs: scanEntries(cs),
		shipResult: true,
	}, nil
}
