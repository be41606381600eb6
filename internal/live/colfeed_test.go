package live

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qap/internal/exec"
	"qap/internal/sqlval"
)

// colFeed builds a one-round feed whose single column group holds rows
// packet-shaped rows (eight NULL-free uint columns) derived from round,
// and returns the sum of every payload word — what an executor that
// saw the feed intact must add up to.
func colFeed(round, rows int, last bool) (*FeedMsg, uint64) {
	cb := &exec.ColBatch{Len: rows, Cols: make([]exec.ColVec, 8)}
	var sum uint64
	for c := range cb.Cols {
		cb.Cols[c] = exec.ColVec{Kind: sqlval.KindUint, U64: make([]uint64, rows)}
		for r := range cb.Cols[c].U64 {
			w := uint64(round)<<32 | uint64(c)<<16 | uint64(r)
			cb.Cols[c].U64[r] = w
			sum += w
		}
	}
	m := &FeedMsg{Last: last, Rounds: []Round{{
		Round: round, WM: uint64(round), Adv: true,
		Groups: []Group{{Tag: 1, Part: 1, Cols: cb}},
	}}}
	return m, sum
}

// sumExec adds up every column group's payload words per feed.
type sumExec struct {
	mu   sync.Mutex
	sums []uint64
}

func (e *sumExec) Execute(m *FeedMsg) (*LinkMsg, error) {
	var sum uint64
	link := &LinkMsg{Through: -1, Done: m.Last}
	for _, r := range m.Rounds {
		link.Through = r.Round
		for _, g := range r.Groups {
			for c := range g.Cols.Cols {
				for _, w := range g.Cols.Cols[c].U64 {
					sum += w
				}
			}
		}
	}
	e.mu.Lock()
	e.sums = append(e.sums, sum)
	e.mu.Unlock()
	return link, nil
}

func (e *sumExec) Result() ([]byte, error) { return nil, nil }

// TestColumnFeedsSurviveFaultsOnRecycledFrames ships column-group feeds
// of varying sizes through a two-credit window — so every frame after
// the second is encoded into a recycled buffer — while the splitter's
// connection duplicates one frame and is cut under another. Each feed
// must reach the executor exactly once, in order, and intact: a frame
// recycled while a duplicate write or a retransmit still needed it
// would show up as a wrong sum (or as a race under -race).
func TestColumnFeedsSurviveFaultsOnRecycledFrames(t *testing.T) {
	cfg := Config{Timeout: 5 * time.Second, Credits: 2}
	ex := &sumExec{}
	node, err := NewNode(cfg, NodeOptions{
		NewExecutor: func(*Hello) (Executor, error) { return ex, nil },
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- node.Serve() }()
	defer node.Close()

	plan := &FaultPlan{Faults: []Fault{
		{Host: 0, Session: 0, Write: 3, Action: FaultDup},
		{Host: 0, Session: 0, Write: 6, Action: FaultCut},
		{Host: 0, Session: 1, Write: 2, Action: FaultDup},
	}}
	spCfg := cfg
	spCfg.Dial = plan.Dial(DefaultDial(cfg.timeout()))
	sp := NewSplitter(spCfg, Hello{}, []string{node.Addr()})
	sp.Start()
	defer sp.Close()

	const feeds = 24
	want := make([]uint64, feeds)
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < feeds; i++ {
			m, sum := colFeed(i, 200+37*(i%5), i == feeds-1)
			want[i] = sum
			if err := sp.SendFeed(0, m); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < feeds; i++ {
		select {
		case link := <-sp.Links():
			if link.Through != i {
				t.Fatalf("link %d covers through round %d", i, link.Through)
			}
		case err := <-sp.Errs():
			t.Fatal(err)
		case <-time.After(10 * time.Second):
			t.Fatalf("link %d never arrived", i)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if err := sp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("node.Serve: %v", err)
	}
	if plan.Hits() != 3 {
		t.Fatalf("fault plan hits = %d, want 3", plan.Hits())
	}
	if len(ex.sums) != feeds {
		t.Fatalf("executor ran %d feeds, want %d", len(ex.sums), feeds)
	}
	for i := range want {
		if ex.sums[i] != want[i] {
			t.Fatalf("feed %d arrived damaged: payload sum %d, want %d", i, ex.sums[i], want[i])
		}
	}
}

// TestSendFeedRefusesOversizedFeed: a feed over the frame bound fails
// in SendFeed itself, naming the host, the rounds and the byte count —
// it is never queued, so nothing is retransmitted — and the splitter
// stays usable for feeds that fit.
func TestSendFeedRefusesOversizedFeed(t *testing.T) {
	cfg := Config{Timeout: 5 * time.Second, MaxFrame: 4096}
	sp := NewSplitter(cfg, Hello{}, []string{"127.0.0.1:1", "127.0.0.1:1"}) // never started: nothing dials
	big, _ := colFeed(7, 100, false)
	err := sp.SendFeed(1, big)
	if err == nil {
		t.Fatal("a feed over MaxFrame was accepted")
	}
	for _, want := range []string{"host 1", "rounds 7..7", "6471 bytes", "4096-byte frame limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if q := len(sp.peers[1].out.frames); q != 0 {
		t.Fatalf("the refused feed left %d frames queued", q)
	}
	small, _ := colFeed(8, 10, false)
	if err := sp.SendFeed(1, small); err != nil {
		t.Fatalf("a fitting feed after the refusal: %v", err)
	}
}

// emptyStock empties the frame stock for one test and puts back what it
// held when the test ends.
func emptyStock(t *testing.T) {
	frameStock.mu.Lock()
	saved, savedBytes := frameStock.bufs, frameStock.bytes
	frameStock.bufs, frameStock.bytes = nil, 0
	frameStock.mu.Unlock()
	t.Cleanup(func() {
		frameStock.mu.Lock()
		frameStock.bufs, frameStock.bytes = saved, savedBytes
		frameStock.mu.Unlock()
	})
}

// inStock reports whether the frame stock holds b's buffer.
func inStock(b []byte) bool {
	frameStock.mu.Lock()
	defer frameStock.mu.Unlock()
	for _, s := range frameStock.bufs {
		if &s[:1][0] == &b[:1][0] {
			return true
		}
	}
	return false
}

// TestOutboxRecyclesAckedFrames: an acknowledged frame's buffer goes to
// the stock and backs a later append, but not while the writer still
// holds it: a frame acked then is recycled once the writer lets it go.
func TestOutboxRecyclesAckedFrames(t *testing.T) {
	emptyStock(t)
	o := newOutbox(2, DefaultMaxFrame)
	msg, _ := colFeed(0, 50, false)
	send := func() []byte {
		t.Helper()
		if _, err := o.append(frameFeed, time.Now().Add(time.Second), msg); err != nil {
			t.Fatal(err)
		}
		return o.frames[len(o.frames)-1]
	}
	first, second := send(), send()
	if f, ok := o.tryNext(); !ok || &f[0] != &first[0] {
		t.Fatal("tryNext did not hand out the first frame")
	}
	o.ack(1) // acknowledged while the writer still holds it
	if inStock(first) {
		t.Fatal("a frame the writer holds was recycled")
	}
	if third := send(); &third[0] == &first[0] {
		t.Fatal("the pinned frame's buffer was reused")
	}
	o.unpin()
	if !inStock(first) {
		t.Fatal("the acked frame did not reach the stock once the writer let it go")
	}
	o.tryNext()
	o.unpin()
	o.ack(2)
	if !inStock(second) {
		t.Fatal("an unpinned acked frame did not reach the stock")
	}
	if fourth := send(); &fourth[0] != &first[0] && &fourth[0] != &second[0] {
		t.Fatal("an append did not reuse an acknowledged frame's buffer")
	}
}

// The frame stock stays inside its bounds whatever it is handed, drops
// its oldest buffers first, hands out the smallest that fits, and takes
// from an outbox exactly what no one can read: the acked frames and the
// queued frames once released — never a frame the writer holds, nor
// one unacked before then.
func TestFrameStockStaysBounded(t *testing.T) {
	emptyStock(t)
	// caps lists the stock's buffer capacities, oldest first, after
	// checking the bounds and the byte count.
	caps := func(when string) []int {
		t.Helper()
		frameStock.mu.Lock()
		defer frameStock.mu.Unlock()
		var cs []int
		sum := 0
		for _, b := range frameStock.bufs {
			cs = append(cs, cap(b))
			sum += cap(b)
		}
		if len(cs) > frameStockCap || sum > frameStockBytes || sum != frameStock.bytes {
			t.Fatalf("%s: %d buffers of %d bytes (counted %d), bounds %d and %d",
				when, len(cs), sum, frameStock.bytes, frameStockCap, frameStockBytes)
		}
		return cs
	}
	for i := 0; i < 2*frameStockCap; i++ {
		putFrameBuf(make([]byte, 0, 1<<10+i))
		caps("small buffers")
	}
	if cs := caps("small buffers"); cs[0] != 1<<10+frameStockCap || cs[len(cs)-1] != 1<<10+2*frameStockCap-1 {
		t.Errorf("a stock full of buffers holds %d..%d bytes, want the newest %d: %d..%d",
			cs[0], cs[len(cs)-1], frameStockCap, 1<<10+frameStockCap, 1<<10+2*frameStockCap-1)
	}
	big := frameStockBytes / 16
	for i := 0; i < 20; i++ {
		putFrameBuf(make([]byte, 0, big))
		caps("large buffers")
	}
	if cs := caps("large buffers"); len(cs) != 16 || cs[0] != big {
		t.Errorf("a stock full of bytes holds %v, want 16 of %d bytes", cs, big)
	}
	putFrameBuf(make([]byte, 0, 2000))
	if cs := caps("one small more"); len(cs) != 16 || cs[0] != big || cs[15] != 2000 {
		t.Errorf("a small buffer past the byte bound left %v, want 15 of %d bytes and the new one", cs, big)
	}
	putFrameBuf(make([]byte, 0, big))
	if b := frameBuf(100); cap(b) != 2000 {
		t.Errorf("frameBuf(100) gave a %d-byte buffer, the smallest that fits is 2000", cap(b))
	}
	if b := frameBuf(big - 1); cap(b) != big {
		t.Errorf("frameBuf(%d) gave a %d-byte buffer, want one of the %d-byte ones", big-1, cap(b), big)
	}
	caps("after the takes")

	frameStock.mu.Lock()
	frameStock.bufs, frameStock.bytes = nil, 0
	frameStock.mu.Unlock()
	o := newOutbox(2, DefaultMaxFrame)
	msg, _ := colFeed(0, 50, false)
	send := func() []byte {
		t.Helper()
		if _, err := o.append(frameFeed, time.Now().Add(time.Second), msg); err != nil {
			t.Fatal(err)
		}
		return o.frames[len(o.frames)-1]
	}
	write := func() {
		o.tryNext()
		o.unpin()
	}
	pinned := send()
	o.tryNext()
	o.ack(1) // acknowledged while the writer still holds it
	if inStock(pinned) {
		t.Fatal("a frame the writer holds was recycled")
	}
	o.unpin()
	a, b := send(), send() // a takes the pinned frame's buffer back
	write()
	write()
	o.ack(3)
	if !inStock(a) || !inStock(b) {
		t.Fatalf("after two plain acks, in the stock: %v %v; want both", inStock(a), inStock(b))
	}
	unacked := send()
	o.close()
	if inStock(unacked) {
		t.Error("an unacked frame entered the stock")
	}
	o.release()
	if !inStock(unacked) || len(o.frames) != 0 {
		t.Error("release did not hand the queued frame to the stock")
	}
	caps("outbox")
}

// Allocation budget of the feed send path, per feed in the steady state
// (every frame encoded into a recycled buffer).
//
// Parent (protocol v1, the same 2000 packets as a row group, measured
// with this loop): 29 allocs and 843 KB per feed for a 148 KB frame —
// the payload grown from nil by doubling under the outbox lock, then
// copied behind its header.
const (
	// One broadcast channel each for "new frame" and "queue shrank".
	allocBudgetSendFeedPerFeed = 2
	// Nothing but those two channels: no byte of the frame is allocated.
	allocBudgetSendFeedBytesPerFeed = 512
)

func TestAllocsSendFeedColumnarSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sp := NewSplitter(Config{Credits: 2}, Hello{}, []string{"127.0.0.1:1"}) // never started
	m, _ := colFeed(0, 2000, false)
	out := sp.peers[0].out
	sendAndAck := func() {
		if err := sp.SendFeed(0, m); err != nil {
			t.Fatal(err)
		}
		out.ack(m.Seq)
	}
	for i := 0; i < 4; i++ { // stock the frame buffers
		sendAndAck()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	allocs := testing.AllocsPerRun(runs, sendAndAck)
	runtime.ReadMemStats(&after)
	if allocs > allocBudgetSendFeedPerFeed {
		t.Errorf("SendFeed + ack: %.1f allocs per feed, budget %d", allocs, allocBudgetSendFeedPerFeed)
	}
	if perFeed := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perFeed > allocBudgetSendFeedBytesPerFeed {
		t.Errorf("SendFeed + ack: %d B per feed beyond the recycled frame (a %d B frame), budget %d",
			perFeed, m.wireSize()+frameHeaderLen, allocBudgetSendFeedBytesPerFeed)
	}
}
