package cluster

// The live TCP backend (RunConfig.Engine == EngineLive): the paper's
// Section 3.3 architecture made real, as the distributed driver's
// second hop (liveHop; the driver is runDistributed, engine.go). Each
// leaf island runs as a node behind a TCP listener — in-process
// goroutines by default, separate qap-node processes via
// LiveConfig.Nodes. The splitter's feeds leave as length-prefixed
// frames over a persistent connection per node, with credit-based
// backpressure, and the nodes' captured island-crossing deliveries come
// back as link messages: the very live.Item values a simulator worker
// hands the replay. The driver checks each against the compiled plan
// (checkLink) before the central replay merges it, so outputs, OpStats,
// monitoring series and trace bytes are the simulator's, byte for byte.
//
//   - A node executes a feed (Execute, which checks it first) through
//     the same islandExec.execRounds a simulator worker does. The
//     scalar oracle (BatchSize 1) never runs here: NewRunner refuses it.
//
//   - Tuples travel in the exec column codec both ways, which
//     round-trips every value bit-exactly (floats as IEEE bits).
//
//   - The transport (internal/live) delivers each direction's frames
//     exactly once and in order across reconnects, so a dropped,
//     duplicated or stalled connection changes nothing but wall time.
//
// In-process nodes execute against this Runner's islands. Remote nodes
// compile their own copy of the plan from the deployment the Hello
// carries (RunConfig.Deploy, ServeNode) and ship their island shards
// back in a final result frame, which installHostShard copies into the
// local islands before finalize.

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

// liveHop is the live engine's hop: feeds are serialized to the nodes
// through a live.Splitter, and link messages come off its sessions.
// In-process nodes execute the driver's own leaf executors.
type liveHop struct {
	r      *Runner
	gr     *colGrouper
	sp     *live.Splitter
	nodes  []*live.Node
	nodeWG sync.WaitGroup
}

// newLiveHop serves xs on in-process nodes, unless LiveConfig.Nodes
// names remote ones, and starts the splitter's sessions to them. A
// node that fails posts its error on errc, if there is room.
func (r *Runner) newLiveHop(cursors []*streamCursor, xs []islandExec, gr *colGrouper, errc chan<- error) (*liveHop, error) {
	hosts := r.plan.Hosts
	addrs := r.liveCfg.Nodes
	remote := len(addrs) > 0
	if remote && len(addrs) != hosts {
		return nil, fmt.Errorf("cluster: live: %d node addresses for %d hosts", len(addrs), hosts)
	}
	h := &liveHop{r: r, gr: gr}
	lcfg := live.Config{Timeout: r.liveCfg.Timeout}
	if r.liveCfg.Faults != nil {
		lcfg.Dial = r.liveCfg.Faults.Dial(live.DefaultDial(r.liveCfg.transportTimeout()))
	}
	for i := 0; !remote && i < hosts; i++ {
		x := &xs[i]
		ncfg := lcfg
		if r.liveCfg.Faults != nil {
			ncfg.WrapAccept = r.liveCfg.Faults.WrapAccept(i)
		}
		n, err := live.NewNode(ncfg, live.NodeOptions{
			Host:        i,
			NewExecutor: func(*live.Hello) (live.Executor, error) { return x, nil },
		}, "")
		if err != nil {
			h.stop()
			return nil, err
		}
		h.nodes = append(h.nodes, n)
		addrs = append(addrs, n.Addr())
		h.nodeWG.Add(1)
		go func() {
			defer h.nodeWG.Done()
			if err := n.Serve(); err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}()
	}
	hello := live.Hello{BatchSize: r.batchSize, Fingerprint: r.LiveFingerprint()}
	for _, c := range cursors {
		hello.Streams = append(hello.Streams, c.name)
	}
	if remote {
		hello.Deploy = r.deploy
	}
	h.sp = live.NewSplitter(lcfg, hello, addrs)
	h.sp.Start()
	return h, nil
}

// send serializes the feed; its rounds are retired at once.
//
//qap:hot
func (h *liveHop) send(i int, m *live.FeedMsg) error {
	if err := h.sp.SendFeed(i, m); err != nil {
		return err
	}
	h.gr.retire(m.Rounds)
	return nil
}

func (h *liveHop) links() <-chan live.LinkMsg { return h.sp.Links() }
func (h *liveHop) errs() <-chan error         { return h.sp.Errs() }

// stop closes the splitter and the in-process nodes and joins them.
func (h *liveHop) stop() {
	if h.sp != nil {
		h.sp.Close()
	}
	for _, n := range h.nodes {
		n.Close()
	}
	h.nodeWG.Wait()
}

// end waits for the peers to finish draining acks and, from remote
// nodes, collects their island shards. In-process nodes exit on their
// own once fully acknowledged, so stop is then a join that also gives
// finalize a happens-before edge on every island shard.
func (h *liveHop) end(failed bool) error {
	var err error
	if !failed {
		err = h.sp.Wait(h.r.driveTimeout)
		for i := range h.r.liveCfg.Nodes { // remote nodes' shards
			if err == nil {
				err = h.r.installHostShard(i, h.sp.Result(i))
			}
		}
	}
	h.stop()
	return err
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
		} else if width := r.edges[it.Edge].width; it.Kind == live.ItemPushCols && len(it.Cols.Cols) != width {
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

// Result implements live.Executor; only a served node (ServeNode)
// ships a result frame, so only its executors are asked.
func (x *islandExec) Result() ([]byte, error) {
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
// batch size, load window and trace configuration. A served node
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
// into a runner, which must be a live plan with the host in range and
// the fingerprint the Hello announces. A refusal there fails the node
// for good. ready, when non-nil, receives the
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
	return &r.executors(cs)[host], nil
}
