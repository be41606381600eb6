package cluster

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/sqlval"
)

// recGroup is one group as the recording sink saw it: rows rendered,
// nothing aliasing the splitter's recycled containers.
type recGroup struct {
	tag          uint64
	stream, part int
	rows         []string
}

// recRound is one island's share of one round.
type recRound struct {
	round      int
	wm         uint64
	adv, flush bool
	groups     []recGroup
}

// recSink is a roundSink that executes nothing: it copies every round
// it is handed and takes it the way the live sink does — containers
// recycled, slots kept — so the splitter's reuse is exercised too.
type recSink struct {
	gr     *colGrouper
	rounds [][]recRound // per island
}

func (s *recSink) closed(pend [][]live.Round) error { return s.finish(pend) }

func (s *recSink) finish(pend [][]live.Round) error {
	if s.rounds == nil {
		s.rounds = make([][]recRound, len(pend))
	}
	for i, p := range pend {
		for _, rd := range p {
			rec := recRound{round: rd.Round, wm: rd.WM, adv: rd.Adv, flush: rd.Flush}
			for _, g := range rd.Groups {
				rg := recGroup{tag: g.Tag, stream: g.Stream, part: g.Part}
				for _, t := range g.Cols.AppendRows(nil) {
					rg.rows = append(rg.rows, t.String())
				}
				rec.groups = append(rec.groups, rg)
			}
			s.rounds[i] = append(s.rounds[i], rec)
		}
		s.gr.recycle(p)
		pend[i] = p[:0]
	}
	return nil
}

// TestSplitterRounds holds the shared splitter to its contract without
// running an operator: rounds are the distinct timestamps plus the flush
// round and every island sees each of them; within a round each (stream,
// partition) owns one column group on the island that owns the
// partition, holding exactly the round's packets routed there in merged
// arrival order under the tag of the first one's sequence; and the
// driver's trace shard carries the same (round, watermark, packets)
// triples. The batch size does not reach the splitter, but BatchSize 1
// makes any runner sequential: one executor, whatever Workers says. The
// three real sinks are held to the same rounds by the sim/live
// equivalence tests.
func TestSplitterRounds(t *testing.T) {
	gen := func(seed int64, rate int, drop func(uint64) bool) []netgen.Packet {
		cfg := netgen.DefaultConfig()
		cfg.Seed, cfg.DurationSec, cfg.PacketsPerSec = seed, 14, rate
		cfg.SrcHosts, cfg.DstHosts = 20, 10
		var out []netgen.Packet
		for _, pk := range netgen.Generate(cfg).Packets {
			if !drop(pk.Time) {
				out = append(out, pk)
			}
		}
		return out
	}
	// Second 5 is missing from both streams, 9 from the first and 3 from
	// the second; every other second is a tie across the two.
	pkt1 := gen(1, 40, func(tm uint64) bool { return tm == 5 || tm == 9 })
	pkt2 := gen(2, 40, func(tm uint64) bool { return tm == 5 || tm == 3 })
	// About four packets a second: round-robin runs shorter than the
	// router's partition count, and some seconds with none.
	sparse := gen(3, 4, func(uint64) bool { return false })
	one := map[string][]netgen.Packet{"TCP": pkt1}
	two := map[string][]netgen.Packet{"PKT1": pkt1, "PKT2": pkt2}
	flows := buildGraph(t, flowsQuery)
	twoStream := buildTwoStream(t)
	cases := []struct {
		name    string
		g       *plan.Graph
		ps      core.Set
		streams map[string][]netgen.Packet
		// On a hash set, batched: whether the set's last element has a
		// uint kernel, and a kind it yields on some packet of the trace.
		kernel bool
		yields sqlval.Kind
		// hosts and partitions a host; 0 means 2 and 2.
		hosts, pph int
		// On round robin: whether some run is shorter than the partition
		// count.
		short bool
	}{
		{name: "one-stream/hash", g: flows, ps: core.MustParseSet("srcIP, destIP"), streams: one, kernel: true, yields: sqlval.KindUint},
		// The other element kinds the staged router hashes: a computed
		// kernel, a may-be-Int kernel (destPort is 80, 443, 53, 22 or 25,
		// so it underflows) and an element with no uint kernel (NULL).
		{name: "one-stream/hash-computed", g: flows, ps: core.MustParseSet("destIP, srcIP & 0xFFF0"), streams: one, kernel: true, yields: sqlval.KindUint},
		{name: "one-stream/hash-int", g: flows, ps: core.MustParseSet("destPort - 443"), streams: one, kernel: true, yields: sqlval.KindInt},
		{name: "one-stream/hash-null", g: flows, ps: core.MustParseSet("srcIP / 0"), streams: one},
		{name: "one-stream/round-robin", g: flows, streams: one},
		{name: "two-stream/hash", g: twoStream, ps: core.MustParseSet("srcIP, destIP"), streams: two, kernel: true, yields: sqlval.KindUint},
		{name: "two-stream/round-robin", g: twoStream, streams: two},
		// Three partitions a host, one host or two: m = 3 and 6 partitions
		// dealt out, by runs longer and shorter than m.
		{name: "one-stream/round-robin/m=3", g: flows, streams: one, hosts: 1, pph: 3},
		{name: "one-stream/round-robin/m=3/sparse", g: flows, streams: map[string][]netgen.Packet{"TCP": sparse}, hosts: 1, pph: 3, short: true},
		{name: "one-stream/round-robin/m=6/sparse", g: flows, streams: map[string][]netgen.Packet{"TCP": sparse}, hosts: 2, pph: 3, short: true},
		{name: "two-stream/round-robin/m=6", g: twoStream, streams: map[string][]netgen.Packet{"PKT1": pkt1, "PKT2": sparse}, hosts: 2, pph: 3, short: true},
	}
	for _, tc := range cases {
		o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
		if tc.hosts > 0 {
			o.Hosts, o.PartitionsPerHost = tc.hosts, tc.pph
		}
		if tc.ps != nil {
			t.Run(tc.name+"/element", func(t *testing.T) {
				checkLastElement(t, tc.g, tc.ps, tc.streams, tc.kernel, tc.yields)
			})
		} else {
			t.Run(tc.name+"/runs", func(t *testing.T) {
				checkRoundRobinRuns(t, tc.streams, o.Hosts*o.PartitionsPerHost, tc.short)
			})
		}
		for _, workers := range []int{1, 2} { // one executor, or one per host
			for _, bs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/workers=%d/bs=%d", tc.name, workers, bs), func(t *testing.T) {
					checkSplitterRounds(t, tc.g, tc.ps, o, tc.streams, workers, bs)
				})
			}
		}
	}
}

// checkRoundRobinRuns holds a round-robin case to what it is for: some
// stream has a run (its packets of one timestamp) after which the
// router's cursor carries into the next round off partition 0, and,
// when short says so, a run shorter than the m partitions it is dealt
// to.
func checkRoundRobinRuns(t *testing.T, streams map[string][]netgen.Packet, m int, wantShort bool) {
	short, carried := false, false
	for _, pks := range streams { //qap:allow maprange -- any order: two flags are set
		for i := 0; i < len(pks); {
			j := i
			for j < len(pks) && pks[j].Time == pks[i].Time {
				j++
			}
			short = short || j-i < m
			carried = carried || (j < len(pks) && (j-i)%m != 0)
			i = j
		}
	}
	if short != wantShort || !carried {
		t.Errorf("%d partitions: a run shorter than m = %v, a cursor carried off 0 = %v; want %v, true", m, short, carried, wantShort)
	}
}

// checkLastElement holds a case to the element kind it is named for:
// on a batched runner every router's last partitioning element has a
// uint kernel or not, as kernel says, and yields kind on some packet.
func checkLastElement(t *testing.T, g *plan.Graph, ps core.Set, streams map[string][]netgen.Packet, kernel bool, kind sqlval.Kind) {
	p, err := optimizer.Build(g, ps, optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	cursors, err := r.makeCursors(streams)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cursors {
		last := c.rt.hash[len(c.rt.hash)-1]
		if (last.U != nil) != kernel {
			t.Errorf("stream %s: last element has a uint kernel = %v, want %v", c.name, last.U != nil, kernel)
		}
		seen := false
		for _, pk := range c.packets {
			if last.Row(pk.Tuple()).Kind() == kind {
				seen = true
				break
			}
		}
		if !seen {
			t.Errorf("stream %s: no packet makes the last element a %v", c.name, kind)
		}
	}
}

func checkSplitterRounds(t *testing.T, g *plan.Graph, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, workers, bs int) {
	p, err := optimizer.Build(g, ps, o)
	if err != nil {
		t.Fatal(err)
	}
	newRunner := func() (*Runner, []*streamCursor) {
		r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Workers: workers, BatchSize: bs, Trace: &trace.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		cursors, err := r.makeCursors(streams)
		if err != nil {
			t.Fatal(err)
		}
		return r, cursors
	}
	r, cursors := newRunner()
	var gr colGrouper
	sink := &recSink{gr: &gr}
	any, maxTime, err := r.split(cursors, &gr, sink)
	if err != nil {
		t.Fatal(err)
	}
	// One executor a host, or a single one.
	executors := o.Hosts
	if workers == 1 || bs == 1 {
		executors = 1
	}
	if islands := r.execIslands(); islands != executors || len(sink.rounds) != executors {
		t.Fatalf("%d islands fed (runner says %d), want %d", len(sink.rounds), islands, executors)
	}

	// The oracle: merge by (time, cursor order, position) and route every
	// packet on a second runner's routers.
	_, ref := newRunner()
	type routed struct {
		time, seq            uint64 // seq is round-local
		stream, part, island int
		row                  string
	}
	var merged []routed
	for _, c := range ref {
		for _, pk := range c.packets {
			merged = append(merged, routed{time: pk.Time, stream: c.idx, row: pk.Tuple().String()})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].time != merged[j].time {
			return merged[i].time < merged[j].time
		}
		return merged[i].stream < merged[j].stream
	})
	pos := make([]int, len(ref))
	var times []uint64
	for i := range merged {
		m := &merged[i]
		c := ref[m.stream]
		m.part = c.rt.route(c.packets[pos[m.stream]].Tuple())
		pos[m.stream]++
		m.island = c.rt.islands[m.part]
		if i == 0 || merged[i-1].time != m.time {
			times = append(times, m.time)
		} else {
			m.seq = merged[i-1].seq + 1
		}
	}
	if !any || maxTime != times[len(times)-1] {
		t.Errorf("split returned (%v, %d), want (true, %d)", any, maxTime, times[len(times)-1])
	}

	for isl, rounds := range sink.rounds {
		if len(rounds) != len(times)+1 {
			t.Fatalf("island %d: %d rounds, want %d distinct timestamps + the flush round", isl, len(rounds), len(times))
		}
		for n, rd := range rounds {
			if n == len(times) {
				if rd.round != n || !rd.flush || rd.adv || len(rd.groups) != 0 {
					t.Errorf("island %d: last round %+v, want the empty flush round %d", isl, rd, n)
				}
				continue
			}
			if rd.round != n || rd.wm != times[n] || !rd.adv || rd.flush {
				t.Errorf("island %d: round %d is %+v, want an advance to %d", isl, n, rd, times[n])
			}
			// What the island is owed this round, in merged arrival order.
			var owed []routed
			for _, m := range merged {
				if m.time == times[n] && m.island == isl {
					owed = append(owed, m)
				}
			}
			// One column group per destination, opened by its first packet.
			type dest struct{ stream, part int }
			want := map[dest]*recGroup{}
			var order []dest
			for _, m := range owed {
				d := dest{m.stream, m.part}
				if want[d] == nil {
					want[d] = &recGroup{tag: phasePush | m.seq, stream: m.stream, part: m.part}
					order = append(order, d)
				}
				want[d].rows = append(want[d].rows, m.row)
			}
			var wantGroups []recGroup
			for _, d := range order {
				wantGroups = append(wantGroups, *want[d])
			}
			if !reflect.DeepEqual(rd.groups, wantGroups) {
				t.Fatalf("island %d round %d: groups\n got %+v\nwant %+v", isl, n, rd.groups, wantGroups)
			}
		}
	}

	// The driver's shard: one round event per data round, then the flush.
	var got, want []string
	for _, ev := range r.trDriver.Events() {
		got = append(got, fmt.Sprintf("%s round=%d wm=%d rows=%d", ev.Kind, ev.Round, ev.WM, ev.Rows))
	}
	for n, tm := range times {
		rows := 0
		for _, m := range merged {
			if m.time == tm {
				rows++
			}
		}
		want = append(want, fmt.Sprintf("%s round=%d wm=%d rows=%d", trace.KindRound, n, tm, rows))
	}
	want = append(want, fmt.Sprintf("%s round=%d wm=%d rows=0", trace.KindFlush, len(times), times[len(times)-1]))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("driver trace shard:\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want, "\n     "))
	}
	if r.engRounds != int64(len(times))+1 {
		t.Errorf("engRounds = %d, want %d", r.engRounds, len(times)+1)
	}
}

// Object budget of a warm sequential replay of the Figure 8 plan (one
// host, one partition, default batch size) — the benchmark's agg_1host
// configuration on a 600-round trace, where allocs_per_row is about
// 0.0006 objects a packet: some 720 objects for 1.2 M packets, against a
// 5 % bound. One allocation per round in the shared splitter, its
// feed or execRounds would be 600 more.
//
// 125 objects while the rounds executed on the splitter's goroutine;
// 134 since the splitter runs ahead of the executor on its own, on
// round lists recycled across runs (the goroutine, its feed and the
// join are the difference). The budget is the larger + 15 %.
const allocBudgetSequentialReplayObjects = 154

func TestAllocsSequentialReplay(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 600, 200
	streams := map[string][]netgen.Packet{"TCP": netgen.Generate(cfg).Packets}
	g := buildGraph(t, suspiciousQuery)
	p, err := optimizer.Build(g, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := func(hints map[int]int) (*Result, uint64) {
		r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, Workers: 1, SizeHints: hints})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := r.RunStreams(streams)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.Mallocs - before.Mallocs
	}
	res, _ := run(nil) // harvest the size hints, warm the pools
	if len(res.Outputs["suspicious"]) == 0 {
		t.Fatal("bad workload: want a run that emits rows")
	}
	best := uint64(0)
	for i := 0; i < 5; i++ {
		if _, n := run(res.SizeHints); i == 0 || n < best {
			best = n
		}
	}
	if best > allocBudgetSequentialReplayObjects {
		t.Errorf("sequential replay: %d objects, budget %d", best, allocBudgetSequentialReplayObjects)
	}
	t.Logf("sequential replay: %d objects", best)
}

// routeElems are the partitioning elements FuzzRouteCols draws from,
// one of each kind the staged router hashes.
var routeElems = []string{
	"srcIP",              // bare column reference
	"srcIP & 0xFFF0",     // computed uint kernel
	"destPort - 443",     // may-be-Int kernel
	"srcPort - destPort", // may-be-Int kernel over two columns
	"srcIP / 0",          // no kernel, always NULL
	"len / destPort",     // no kernel, NULL on a zero divisor
	"flags > 2",          // truth kernel only: hashed as a Bool row
}

// FuzzRouteCols holds the staged router to the per-tuple one: for
// packet columns decoded from data (eight little-endian words a row), a
// partition count and a set of one or two elements from routeElems,
// routeCols must give every row the partition route gives its tuple.
func FuzzRouteCols(f *testing.F) {
	row := func(w ...uint64) []byte {
		var b []byte
		for _, x := range w {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
		return b
	}
	rows := append(row(1, 10, 20, 1030, 80, 60, 2, 0), row(1, 11, 20, 5000, 443, 1500, 18, 1)...)
	rows = append(rows, row(1, 1<<63, ^uint64(0), 0, 0, 0, 0, 0)...) // underflows, a zero divisor
	for elem := range routeElems {
		f.Add(rows, uint8(7), uint8(elem))
		f.Add(rows, uint8(1), uint8(elem+len(routeElems)*(len(routeElems)-elem)))
	}
	names := []string{"time", "srcIP", "destIP", "srcPort", "destPort", "len", "flags", "seq"} // SchemaDDL order
	f.Fuzz(func(t *testing.T, data []byte, parts, elem uint8) {
		n := min(len(data)/64, 512)
		if n == 0 {
			return
		}
		rt := &router{outs: make([]exec.Consumer, 1+int(parts)%16)}
		k := len(routeElems)
		for _, e := range []int{int(elem) % k, int(elem)/k%(k+1) - 1} {
			if e < 0 {
				continue
			}
			ce, err := exec.CompileCol(gsql.MustParseExpr(routeElems[e]), exec.ColsResolver("", names), nil)
			if err != nil {
				t.Fatal(err)
			}
			rt.hash = append(rt.hash, ce)
		}
		cb := &exec.ColBatch{}
		var pks []netgen.Packet
		for i := 0; i < n; i++ {
			w := func(c int) uint64 { return binary.LittleEndian.Uint64(data[i*64+c*8:]) }
			pk := netgen.Packet{Time: w(0), SrcIP: w(1), DestIP: w(2), SrcPort: w(3), DestPort: w(4), Len: w(5), Flags: w(6), Seq: w(7)}
			pk.AppendCols(cb)
			pks = append(pks, pk)
		}
		got := rt.routeCols(cb, nil)
		for i, pk := range pks {
			if want := rt.route(pk.Tuple()); got[i] != uint64(want) {
				t.Fatalf("row %d %v, %d partitions: routeCols gives %d, route %d", i, pk, len(rt.outs), got[i], want)
			}
		}
	})
}

// dropSink takes every round it is handed as the live sink does —
// containers recycled, slots kept — and executes nothing.
type dropSink struct{ gr *colGrouper }

func (s dropSink) closed(pend [][]live.Round) error { return s.finish(pend) }

func (s dropSink) finish(pend [][]live.Round) error {
	for i, p := range pend {
		s.gr.recycle(p)
		pend[i] = p[:0]
	}
	return nil
}

// A steady-state round costs the splitter no allocation, hash-routed or
// dealt round robin: split over twice as many rounds of the same shape
// allocates exactly as much as over the shorter trace, what a run sets
// up included.
func TestSplitHashRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	trace := func(rounds int) []netgen.Packet {
		var pks []netgen.Packet
		for tm := 0; tm < rounds; tm++ {
			for j := 0; j < 64; j++ {
				pks = append(pks, netgen.Packet{Time: uint64(tm), SrcIP: uint64(j) * 7919, DestIP: uint64(j % 5)})
			}
		}
		return pks
	}
	for _, tc := range []struct {
		name string
		ps   core.Set
		pph  int
	}{
		{"hash", core.MustParseSet("destIP, srcIP & 0xFFF0"), 2},
		{"round-robin", nil, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := optimizer.Build(buildGraph(t, flowsQuery), tc.ps,
				optimizer.Options{Hosts: 2, PartitionsPerHost: tc.pph, PartialAgg: true})
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(rounds int) float64 {
				r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				cursors, err := r.makeCursors(map[string][]netgen.Packet{"TCP": trace(rounds)})
				if err != nil {
					t.Fatal(err)
				}
				var gr colGrouper
				return testing.AllocsPerRun(5, func() {
					cursors[0].pos = 0
					if _, _, err := r.split(cursors, &gr, dropSink{&gr}); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(50), allocs(100)
			t.Logf("split: %v objects over 50 rounds, %v over 100", short, long)
			if long != short {
				t.Errorf("split: %v objects over 50 rounds, %v over 100: a %s round allocates", short, long, tc.name)
			}
		})
	}
}

// TestKeepTailSharesNoGroupList: a byte cut ships a feed's older rounds
// in p, whose receiver retires p — every slot's group list with it —
// into roundStock, and keeps the newest pending. A kept round must leave
// no group list in any of p's slots, where the next list drawn from the
// stock would append into it while the round is still pending.
func TestKeepTailSharesNoGroupList(t *testing.T) {
	p := make([]live.Round, 4, 6)
	for i, rd := range p[:cap(p)] {
		rd.Round, rd.Groups = i, make([]live.Group, 1, 4)
		p[:cap(p)][i] = rd
	}
	tail := keepTail(p, 2)
	if len(tail) != 2 || tail[0].Round != 2 || tail[1].Round != 3 {
		t.Fatalf("kept %+v, want rounds 2 and 3", tail)
	}
	for _, kept := range tail {
		for s, rd := range p[:cap(p)] {
			if cap(rd.Groups) > 0 && &rd.Groups[:1][0] == &kept.Groups[:1][0] {
				t.Errorf("kept round %d shares its group list with slot %d of the shipped list", kept.Round, s)
			}
		}
	}
}
