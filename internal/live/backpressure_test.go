package live

import (
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOutboxCreditWindow: the outbox accepts frames up to its limit,
// fails a blocked append with the positioned credit-stall error at its
// deadline, and reopens as acks drop frames — the queue never grows
// past the window, which is what bounds splitter memory.
func TestOutboxCreditWindow(t *testing.T) {
	o := newOutbox(2, DefaultMaxFrame)
	enc := &FeedMsg{}
	for want := uint64(1); want <= 2; want++ {
		seq, err := o.append(frameFeed, time.Now().Add(time.Second), enc)
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("append assigned seq %d, want %d", seq, want)
		}
	}
	if _, err := o.append(frameFeed, time.Now().Add(30*time.Millisecond), enc); err == nil {
		t.Fatal("append past the credit window succeeded")
	} else if !strings.Contains(err.Error(), "credit window stalled") {
		t.Fatalf("error %q is not the positioned credit-stall error", err)
	}
	o.ack(1)
	if seq, err := o.append(frameFeed, time.Now().Add(time.Second), enc); err != nil || seq != 3 {
		t.Fatalf("append after ack: seq %d, err %v", seq, err)
	}
	o.mu.Lock()
	queued := len(o.frames)
	o.mu.Unlock()
	if queued != 2 {
		t.Fatalf("outbox holds %d frames, want 2 (the credit limit)", queued)
	}
}

// TestOutboxBlockedAppendReleasedByAck: a producer parked at credit
// exhaustion must wake when an ack frees a slot — the no-deadlock half
// of the backpressure contract.
func TestOutboxBlockedAppendReleasedByAck(t *testing.T) {
	o := newOutbox(1, DefaultMaxFrame)
	enc := &FeedMsg{}
	if _, err := o.append(frameFeed, time.Now().Add(time.Second), enc); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := o.append(frameFeed, time.Now().Add(5*time.Second), enc)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("append past the window returned early (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	o.ack(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("append still parked after the ack: backpressure deadlock")
	}
}

// stubNode is a protocol-speaking node that executes nothing: it
// answers the handshake, counts the feed frames it reads, and releases
// a feed ack only when the test says so — the slow consumer.
type stubNode struct {
	ln    net.Listener
	acks  chan uint64 // seqs the test releases
	feeds atomic.Int64
	errc  chan error
}

func newStubNode(t *testing.T) *stubNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &stubNode{ln: ln, acks: make(chan uint64, 64), errc: make(chan error, 4)}
	t.Cleanup(func() { ln.Close() })
	go n.serve()
	return n
}

func (n *stubNode) serve() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		go n.session(conn)
	}
}

func (n *stubNode) session(conn net.Conn) {
	defer conn.Close()
	typ, _, buf, err := readFrame(conn, 0, nil)
	if err != nil || typ != frameHello {
		n.errc <- err
		return
	}
	w := Welcome{Version: ProtocolVersion}
	if _, err := writeFrame(conn, nil, frameWelcome, w.encode(nil)); err != nil {
		n.errc <- err
		return
	}
	// Writer: acks flow only when the test releases them.
	go func() {
		var scratch []byte
		for seq := range n.acks {
			var err error
			if scratch, err = writeFrame(conn, scratch, frameFeedAck, binary.BigEndian.AppendUint64(nil, seq)); err != nil {
				return
			}
		}
	}()
	for {
		typ, _, buf, err = readFrame(conn, 0, buf)
		if err != nil {
			return
		}
		if typ == frameFeed {
			n.feeds.Add(1)
		}
	}
}

// TestSplitterSlowConsumerBoundedMemory is the backpressure contract
// end to end over real sockets: with a node that reads but never acks,
// the splitter queues exactly Credits feed frames and parks the
// producer; each released ack admits exactly one more feed, and the
// queue never grows past the window.
func TestSplitterSlowConsumerBoundedMemory(t *testing.T) {
	node := newStubNode(t)
	cfg := Config{Credits: 2, Timeout: 5 * time.Second}
	sp := NewSplitter(cfg, Hello{BatchSize: 1, Fingerprint: "stub"}, []string{node.ln.Addr().String()})
	sp.Start()
	defer sp.Close()

	queued := func() int {
		out := sp.peers[0].out
		out.mu.Lock()
		defer out.mu.Unlock()
		return len(out.frames)
	}
	var sent atomic.Int64
	go func() {
		for i := 0; i < 6; i++ {
			if err := sp.SendFeed(0, &FeedMsg{Rounds: []Round{{Round: i}}}); err != nil {
				return
			}
			sent.Add(1)
		}
	}()

	// The producer must park at the credit window with the unacked
	// frames — and only those — buffered.
	waitFor(t, "producer parked at the credit window", func() bool { return sent.Load() == 2 })
	time.Sleep(50 * time.Millisecond) // would-be overshoot window
	if got := sent.Load(); got != 2 {
		t.Fatalf("producer sent %d feeds past a 2-credit window", got)
	}
	if q := queued(); q > 2 {
		t.Fatalf("splitter buffers %d frames, credit window is 2", q)
	}
	// The unacked frames still travel: the node reads them even while
	// the producer is parked (credits bound memory, not the pipe).
	waitFor(t, "node received the in-window feeds", func() bool { return node.feeds.Load() == 2 })

	// Each released ack admits exactly one more feed.
	for seq := uint64(1); seq <= 6; seq++ {
		node.acks <- seq
		want := int64(seq) + 2
		if want > 6 {
			want = 6
		}
		waitFor(t, "ack admitted the next feed", func() bool { return sent.Load() == want })
		if q := queued(); q > 2 {
			t.Fatalf("after ack %d the splitter buffers %d frames, credit window is 2", seq, q)
		}
	}
	waitFor(t, "node drained every feed", func() bool { return node.feeds.Load() == 6 })
}

// TestSplitterCreditExhaustionTimesOut: with a consumer that never
// acks, a send parked at the credit window must fail with the
// positioned credit-stall error at its deadline — never deadlock.
func TestSplitterCreditExhaustionTimesOut(t *testing.T) {
	node := newStubNode(t)
	cfg := Config{Credits: 1, Timeout: 200 * time.Millisecond, MaxAttempts: 1}
	sp := NewSplitter(cfg, Hello{BatchSize: 1, Fingerprint: "stub"}, []string{node.ln.Addr().String()})
	sp.Start()
	defer sp.Close()

	if err := sp.SendFeed(0, &FeedMsg{Rounds: []Round{{Round: 0}}}); err != nil {
		t.Fatal(err)
	}
	err := sp.SendFeed(0, &FeedMsg{Rounds: []Round{{Round: 1}}})
	if err == nil {
		t.Fatal("send past a never-acking consumer succeeded")
	}
	for _, want := range []string{"host 0", "credit window stalled", "1 unacked"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
