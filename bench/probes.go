package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/sqlval"
)

// Layer probes push the workload's own trace through one layer's
// exported functions in isolation, in the shape the drivers deliver it:
// one round per distinct timestamp, each round cut into batches of at
// most batchRows, a watermark advance in front of every round. What a
// probe cannot see — routing, replay merge, union and advance fan-out —
// is what probe.coverage leaves unexplained.

// batchRows is the engine's default operator batch size.
const batchRows = 256

// feedRounds is the engine's default number of rounds per feed message.
const feedRounds = 32

// epochSec is the tumbling-window length of every benchmark query.
const epochSec = 60

// A probe walks the trace several times and reports medians over the
// passes: cheapPasses for the probes that cost nanoseconds per row,
// costlyPasses for the join and the transport.
const (
	cheapPasses  = 9
	costlyPasses = 3
)

// probeMaxRows caps the part of the trace a probe walks. The stand-alone
// join costs microseconds per row at the aggregation workloads' packet
// rate, and a probe has to fit in the traced run.
const probeMaxRows = 250000

// probePrefix returns the leading whole rounds of at most probeMaxRows
// packets.
func probePrefix(packets []netgen.Packet) []netgen.Packet {
	if len(packets) <= probeMaxRows {
		return packets
	}
	n := probeMaxRows
	for n > 0 && packets[n].Time == packets[n-1].Time {
		n--
	}
	return packets[:n]
}

// packetCols names the TCP stream's columns in netgen.SchemaDDL order.
var packetCols = []string{"time", "srcIP", "destIP", "srcPort", "destPort", "len", "flags", "seq"}

// walk calls round at each new timestamp and chunk for each batch of
// the round's packets.
func walk(packets []netgen.Packet, round func(wm uint64), chunk func([]netgen.Packet)) {
	for lo := 0; lo < len(packets); {
		t := packets[lo].Time
		hi := lo
		for hi < len(packets) && packets[hi].Time == t {
			hi++
		}
		round(t)
		for ; lo < hi; lo += batchRows {
			chunk(packets[lo:min(lo+batchRows, hi)])
		}
	}
}

// fill pivots a chunk of packets into cb, as the columnar drivers do.
func fill(cb *exec.ColBatch, chunk []netgen.Packet) {
	cb.Reset()
	for i := range chunk {
		chunk[i].AppendCols(cb)
	}
}

// passStats is what one probe pass measured; a and b are the probe's
// two timed regions in seconds.
type passStats struct {
	a, b    float64
	mallocs uint64
	batches int
}

// passes runs fn n times, each from a collected heap and with the
// allocation count around it.
func passes(n int, fn func(*passStats)) []passStats {
	out := make([]passStats, n)
	var before, after runtime.MemStats
	for i := range out {
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn(&out[i])
		runtime.ReadMemStats(&after)
		out[i].mallocs = after.Mallocs - before.Mallocs
	}
	return out
}

// summarise reduces passes to per-row medians: region a, region b,
// allocations, and the total batch count over all passes.
func summarise(ps []passStats, rows int) (aNS, bNS, allocs float64, samples int) {
	var as, bs, ms []float64
	for _, p := range ps {
		as = append(as, ratio(p.a*1e9, float64(rows)))
		bs = append(bs, ratio(p.b*1e9, float64(rows)))
		ms = append(ms, ratio(float64(p.mallocs), float64(rows)))
		samples += p.batches
	}
	return median(as), median(bs), median(ms), samples
}

// probeSeconds is a probe's median wall time for one walk of the trace,
// the figure probe.coverage sums.
type probeSeconds map[string]float64

// compile parses and compiles one expression over cols; the result
// carries both the row form (Row) and the column kernels.
func compile(src string, cols []string, params exec.Params) (exec.ColExpr, error) {
	e, err := gsql.ParseExpr(src)
	if err != nil {
		return exec.ColExpr{}, err
	}
	return exec.CompileCol(e, exec.ColsResolver("", cols), params)
}

// epochOf is the watermark-to-epoch translation of time/60.
func epochOf(wm uint64) sqlval.Value { return sqlval.Uint(wm / epochSec) }

// pivotProbe times the pivots at the engine boundaries: packets into a
// reused ColBatch (Packet.AppendCols, in front of every columnar
// operator) and the batch back into durable rows (ColBatch.AppendRows,
// in front of every join and island crossing).
func pivotProbe(packets []netgen.Packet, vals values, secs probeSeconds) {
	var cb exec.ColBatch
	rows := exec.GetBatch()
	ps := passes(cheapPasses, func(p *passStats) {
		walk(packets, func(uint64) {}, func(chunk []netgen.Packet) {
			t0 := now()
			fill(&cb, chunk)
			p.a += since(t0)
			t0 = now()
			rows = cb.AppendRows(rows[:0])
			p.b += since(t0)
			p.batches++
		})
	})
	exec.PutBatch(rows)
	toCols, toRows, allocs, samples := summarise(ps, len(packets))
	vals["exec.pivot_cols_ns_per_row"] = toCols
	vals["exec.pivot_rows_ns_per_row"] = toRows
	vals["exec.pivot_allocs_per_row"] = allocs
	vals["exec.pivot_samples"] = float64(samples)
	secs[probePivotCols] = toCols * float64(len(packets)) / 1e9
	secs[probePivotRows] = toRows * float64(len(packets)) / 1e9
}

// newFigure8Aggregate builds a stand-alone aggregate shaped like the
// Figure 8 query: group by time/60 and the 4-tuple; OR_AGGR, COUNT,
// SUM; HAVING on the OR. groups counts the groups each emission closes.
func newFigure8Aggregate(groups *int) (*exec.Aggregate, error) {
	bind := exec.Params(params())
	cfg := exec.AggregateConfig{
		EpochIdx: 0, EpochOfWM: epochOf, ColEmit: true, Out: exec.Discard{},
		OnEpochFlush: func(_ uint64, g, _ int) { *groups += g },
	}
	for _, src := range []string{"time/60", "srcIP", "destIP", "srcPort", "destPort"} {
		ce, err := compile(src, packetCols, bind)
		if err != nil {
			return nil, err
		}
		cfg.GroupBy = append(cfg.GroupBy, ce.Row)
		cfg.ColGroupBy = append(cfg.ColGroupBy, ce)
	}
	for _, a := range []struct{ fn, arg string }{{"OR_AGGR", "flags"}, {"COUNT", ""}, {"SUM", "len"}} {
		fac, err := exec.NewAccumFactory(a.fn)
		if err != nil {
			return nil, err
		}
		ac := exec.AggColumn{Factory: fac}
		var colArg *exec.ColExpr
		if a.arg != "" {
			ce, err := compile(a.arg, packetCols, bind)
			if err != nil {
				return nil, err
			}
			ac.Arg, colArg = ce.Row, &ce
		}
		cfg.Aggs = append(cfg.Aggs, ac)
		cfg.ColArgs = append(cfg.ColArgs, colArg)
	}
	outCols := []string{"tb", "srcIP", "destIP", "srcPort", "destPort", "orflag", "cnt", "bytes"}
	having, err := compile("orflag = #PATTERN#", outCols, bind)
	if err != nil {
		return nil, err
	}
	cfg.Having = having.Row
	return exec.NewAggregate(cfg), nil
}

// aggProbe splits a stand-alone aggregate's time into the in-place
// update (PushCols) and the epoch emit (Advance and Flush).
func aggProbe(packets []netgen.Packet, vals values, secs probeSeconds) error {
	var cb exec.ColBatch
	var groups int
	var buildErr error
	ps := passes(cheapPasses, func(p *passStats) {
		groups = 0
		agg, err := newFigure8Aggregate(&groups)
		if err != nil {
			buildErr = err
			return
		}
		walk(packets, func(wm uint64) {
			t0 := now()
			agg.Advance(wm)
			p.b += since(t0)
		}, func(chunk []netgen.Packet) {
			fill(&cb, chunk)
			t0 := now()
			agg.PushCols(&cb)
			p.a += since(t0)
			p.batches++
		})
		t0 := now()
		agg.Flush()
		p.b += since(t0)
	})
	if buildErr != nil {
		return fmt.Errorf("aggregate probe: %w", buildErr)
	}
	push, emit, allocs, samples := summarise(ps, len(packets))
	rows := float64(len(packets))
	vals["exec.agg_push_ns_per_row"] = push
	vals["exec.agg_emit_ns_per_group"] = ratio(emit*rows, float64(groups))
	vals["exec.agg_groups"] = float64(groups)
	vals["exec.agg_allocs_per_row"] = allocs
	vals["exec.agg_samples"] = float64(samples)
	secs[probeAgg] = (push + emit) * rows / 1e9
	return nil
}

// countSink counts delivered rows and drops them.
type countSink struct{ rows int }

func (c *countSink) Push(exec.Tuple)            { c.rows++ }
func (c *countSink) PushBatch(b exec.Batch)     { c.rows += len(b) }
func (c *countSink) PushCols(cb *exec.ColBatch) { c.rows += cb.Len }
func (c *countSink) Advance(uint64)             {}
func (c *countSink) Flush()                     {}

// newJitterJoin builds a stand-alone join shaped like jitter_pairs:
// keys time/60 and the 4-tuple, S1.seq+1 = S2.seq, projecting the
// flow and the inter-packet delay.
func newJitterJoin(out exec.Consumer) (*exec.Join, error) {
	cfg := exec.JoinConfig{Type: gsql.JoinInner, Out: out}
	keys := []string{"time/60", "srcIP", "destIP", "srcPort", "destPort"}
	for side, seq := range []string{"seq + 1", "seq"} {
		sc := &cfg.Left
		if side == 1 {
			sc = &cfg.Right
		}
		sc.Width, sc.TemporalIdx, sc.MinFutureKey = len(packetCols), 0, epochOf
		for _, src := range append(keys[:len(keys):len(keys)], seq) {
			ce, err := compile(src, packetCols, nil)
			if err != nil {
				return nil, err
			}
			sc.Keys = append(sc.Keys, ce.Row)
			sc.ColKeys = append(sc.ColKeys, ce)
		}
	}
	// Output columns are resolved over left ++ right.
	both := make([]string, 0, 2*len(packetCols))
	for _, prefix := range []string{"l_", "r_"} {
		for _, c := range packetCols {
			both = append(both, prefix+c)
		}
	}
	for _, src := range []string{"l_time", "l_srcIP", "l_destIP", "l_srcPort", "l_destPort", "r_time - l_time"} {
		ce, err := compile(src, both, nil)
		if err != nil {
			return nil, err
		}
		cfg.Projs = append(cfg.Projs, ce.Row)
	}
	return exec.NewJoin(cfg), nil
}

// joinProbe splits a stand-alone self-join's time into build + probe
// (both ports' PushCols) and eviction (the ports' Advance and Flush).
func joinProbe(packets []netgen.Packet, vals values, secs probeSeconds) error {
	var cb exec.ColBatch
	var sink countSink
	var buildErr error
	ps := passes(costlyPasses, func(p *passStats) {
		sink = countSink{}
		j, err := newJitterJoin(&sink)
		if err != nil {
			buildErr = err
			return
		}
		left, right := j.LeftIn(), j.RightIn()
		walk(packets, func(wm uint64) {
			t0 := now()
			left.Advance(wm)
			right.Advance(wm)
			p.b += since(t0)
		}, func(chunk []netgen.Packet) {
			fill(&cb, chunk)
			t0 := now()
			exec.PushColsAll(left, &cb)
			exec.PushColsAll(right, &cb)
			p.a += since(t0)
			p.batches++
		})
		t0 := now()
		left.Flush()
		right.Flush()
		p.b += since(t0)
	})
	if buildErr != nil {
		return fmt.Errorf("join probe: %w", buildErr)
	}
	push, evict, allocs, samples := summarise(ps, len(packets))
	vals["exec.join_push_ns_per_row"] = push
	vals["exec.join_evict_ns_per_row"] = evict
	vals["exec.join_matches"] = float64(sink.rows)
	vals["exec.join_allocs_per_row"] = allocs
	vals["exec.join_samples"] = float64(samples)
	secs[probeJoin] = (push + evict) * float64(len(packets)) / 1e9
	return nil
}

// rowBatch materialises a chunk as row tuples carved from slab.
func rowBatch(chunk []netgen.Packet, slab []sqlval.Value, dst exec.Batch) ([]sqlval.Value, exec.Batch) {
	slab, dst = slab[:0], dst[:0]
	for i := range chunk {
		var t exec.Tuple
		slab, t = chunk[i].AppendTuple(slab)
		dst = append(dst, t)
	}
	return slab, dst
}

// wireProbe times the batch wire codec over the trace's row batches.
func wireProbe(packets []netgen.Packet, vals values) error {
	slab := make([]sqlval.Value, 0, batchRows*netgen.TupleCols)
	rows := make(exec.Batch, 0, batchRows)
	var buf []byte
	var bytes int
	var decodeErr error
	ps := passes(cheapPasses, func(p *passStats) {
		bytes = 0
		walk(packets, func(uint64) {}, func(chunk []netgen.Packet) {
			slab, rows = rowBatch(chunk, slab, rows)
			t0 := now()
			buf = exec.AppendBatchWire(buf[:0], rows)
			p.a += since(t0)
			t0 = now()
			got, err := exec.DecodeBatchWire(buf)
			p.b += since(t0)
			if err != nil || len(got) != len(rows) {
				decodeErr = fmt.Errorf("wire probe: decoded %d of %d rows: %v", len(got), len(rows), err)
			}
			bytes += len(buf)
			p.batches++
		})
	})
	if decodeErr != nil {
		return decodeErr
	}
	enc, dec, allocs, samples := summarise(ps, len(packets))
	vals["exec.wire_encode_ns_per_row"] = enc
	vals["exec.wire_decode_ns_per_row"] = dec
	vals["exec.wire_bytes_per_row"] = ratio(float64(bytes), float64(len(packets)))
	vals["exec.wire_allocs_per_row"] = allocs
	vals["exec.wire_samples"] = float64(samples)
	return nil
}

// nullExecutor acknowledges every feed and executes nothing, so the
// transport probe times frames, sockets and credits alone.
type nullExecutor struct{}

func (nullExecutor) Execute(m *live.FeedMsg) (*live.LinkMsg, error) {
	link := &live.LinkMsg{Through: -1, Done: m.Last}
	if n := len(m.Rounds); n > 0 {
		link.Through = m.Rounds[n-1].Round
	}
	return link, nil
}

func (nullExecutor) Result() ([]byte, error) { return nil, nil }

// countingConn counts the bytes crossing one splitter connection.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.bytes.Add(int64(n))
	return n, err
}

// transportHosts and transportParts shape the transport probe like the
// live workload: two loopback nodes, two partitions each.
const (
	transportHosts = 2
	transportParts = 2
)

// transportStats is what one pass of the transport probe measured.
type transportStats struct {
	// elapsed runs from the first feed being built to the last link
	// acknowledged; blocked is the part spent inside SendFeed.
	elapsed, blocked float64
	// bytes crossed the splitter's connections, in frames feed and
	// link messages.
	bytes  int64
	frames int
}

// transportProbe ships the trace as feed messages through the live
// transport — splitter, framing, TCP over loopback, credit window,
// node, link acks — with nothing executing behind it.
func transportProbe(packets []netgen.Packet, vals values) error {
	var elapsed, blocked []float64
	var last transportStats
	for i := 0; i < costlyPasses; i++ {
		runtime.GC()
		st, err := transportPass(packets)
		if err != nil {
			return fmt.Errorf("transport probe: %w", err)
		}
		elapsed = append(elapsed, st.elapsed)
		blocked = append(blocked, st.blocked)
		last = st
	}
	vals["live.transport_s"] = median(elapsed)
	vals["live.transport_rows_per_s"] = ratio(float64(len(packets)), median(elapsed))
	vals["live.transport_bytes"] = float64(last.bytes)
	vals["live.frames"] = float64(last.frames)
	vals["live.sendfeed_block_s"] = median(blocked)
	return nil
}

// transportPass sets the nodes and the splitter up, ships the trace
// once and tears everything down again.
func transportPass(packets []netgen.Packet) (transportStats, error) {
	const timeout = 30 * time.Second
	var wire atomic.Int64
	cfg := live.Config{Timeout: timeout}
	nodes := make([]*live.Node, transportHosts)
	addrs := make([]string, transportHosts)
	serveErr := make(chan error, transportHosts)
	var serving sync.WaitGroup
	for h := range nodes {
		n, err := live.NewNode(cfg, live.NodeOptions{
			Host:        h,
			NewExecutor: func(*live.Hello) (live.Executor, error) { return nullExecutor{}, nil },
		}, "")
		if err != nil {
			for _, prev := range nodes[:h] {
				prev.Close()
			}
			return transportStats{}, err
		}
		nodes[h], addrs[h] = n, n.Addr()
	}
	for _, n := range nodes {
		serving.Add(1)
		go func(n *live.Node) {
			defer serving.Done()
			if err := n.Serve(); err != nil {
				serveErr <- err
			}
		}(n)
	}
	spCfg := cfg
	dial := live.DefaultDial(timeout)
	spCfg.Dial = func(host, attempt int, addr string) (net.Conn, error) {
		c, err := dial(host, attempt, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: c, bytes: &wire}, nil
	}
	sp := live.NewSplitter(spCfg, live.Hello{BatchSize: batchRows, Streams: []string{"tcp"}}, addrs)
	sp.Start()
	// Nodes exit on their own once everything is acknowledged; on an
	// error path Close aborts them, and either way they are joined.
	defer func() {
		sp.Close()
		for _, n := range nodes {
			n.Close()
		}
		serving.Wait()
	}()

	// The collector side: drain links until every host reports done.
	links := 0
	drained := make(chan error, 1)
	go func() {
		for done := 0; done < transportHosts; {
			select {
			case l := <-sp.Links():
				links++
				if l.Done {
					done++
				}
			case err := <-sp.Errs():
				drained <- err
				return
			case err := <-serveErr:
				drained <- err
				return
			}
		}
		drained <- nil
	}()

	var blocked float64
	feeds := 0
	pend := make([][]live.Round, transportHosts)
	var slab []sqlval.Value
	ship := func(last bool) error {
		for h := range pend {
			m := &live.FeedMsg{Last: last, Rounds: pend[h]}
			t0 := now()
			err := sp.SendFeed(h, m)
			blocked += since(t0)
			if err != nil {
				return err
			}
			feeds++
			pend[h] = pend[h][:0]
		}
		slab = slab[:0] // SendFeed serialised the tuples
		return nil
	}
	start := now()
	round, next := -1, 0
	var shipErr error
	walk(packets, func(wm uint64) {
		if shipErr != nil {
			return
		}
		if round >= 0 && (round+1)%feedRounds == 0 {
			shipErr = ship(false)
		}
		round++
		for h := range pend {
			r := live.Round{Round: round, WM: wm, Adv: true}
			for p := 0; p < transportParts; p++ {
				r.Groups = append(r.Groups, live.Group{Stream: 0, Part: h*transportParts + p})
			}
			pend[h] = append(pend[h], r)
		}
	}, func(chunk []netgen.Packet) {
		if shipErr != nil {
			return
		}
		// Round-robin split, as the query-agnostic splitter does.
		for i := range chunk {
			part := next % (transportHosts * transportParts)
			next++
			var t exec.Tuple
			slab, t = chunk[i].AppendTuple(slab)
			rd := &pend[part/transportParts][len(pend[part/transportParts])-1]
			g := &rd.Groups[part%transportParts]
			g.Tuples = append(g.Tuples, t)
		}
	})
	if shipErr == nil {
		round++
		for h := range pend {
			pend[h] = append(pend[h], live.Round{Round: round, Flush: true})
		}
		shipErr = ship(true)
	}
	if shipErr != nil {
		return transportStats{}, shipErr
	}
	if err := <-drained; err != nil {
		return transportStats{}, err
	}
	if err := sp.Wait(timeout); err != nil {
		return transportStats{}, err
	}
	return transportStats{
		elapsed: since(start), blocked: blocked,
		bytes: wire.Load(), frames: feeds + links,
	}, nil
}
