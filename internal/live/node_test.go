package live

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// echoExec is a deterministic executor: each feed yields one link with
// one advance item per round, and a fixed result payload.
type echoExec struct{ res []byte }

func (e *echoExec) Execute(m *FeedMsg) (*LinkMsg, error) {
	link := &LinkMsg{Through: -1, Done: m.Last}
	for _, r := range m.Rounds {
		link.Items = append(link.Items, Item{
			Round: r.Round, Kind: ItemAdvance, WM: r.WM, MWM: r.WM,
		})
		link.Through = r.Round
	}
	return link, nil
}

func (e *echoExec) Result() ([]byte, error) { return e.res, nil }

// TestNodeSplitterEndToEnd runs the full protocol over a real socket:
// handshake, three feeds, per-feed links, the final result frame, and
// a clean finish on both sides once everything is acknowledged.
func TestNodeSplitterEndToEnd(t *testing.T) {
	cfg := Config{Timeout: 5 * time.Second}
	node, err := NewNode(cfg, NodeOptions{
		Host:       0,
		SendResult: true,
		NewExecutor: func(h *Hello) (Executor, error) {
			if h.Fingerprint != "fp" || h.BatchSize != 8 || string(h.Deploy) != "spec" {
				t.Errorf("executor built from hello %+v", h)
			}
			return &echoExec{res: []byte("final shards")}, nil
		},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- node.Serve() }()
	defer node.Close()

	sp := NewSplitter(cfg, Hello{
		BatchSize:   8,
		Streams:     []string{"tcp"},
		Fingerprint: "fp",
		Deploy:      []byte("spec"),
	}, []string{node.Addr()})
	sp.Start()
	defer sp.Close()

	for i := 0; i < 3; i++ {
		m := &FeedMsg{Last: i == 2, Rounds: []Round{{
			Round: i, WM: uint64(16 * (i + 1)), Adv: true,
			Groups: []Group{{Tag: uint64(i), Tuples: protoBatch()}},
		}}}
		if err := sp.SendFeed(0, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case link := <-sp.Links():
			if link.Host != 0 || link.Through != i {
				t.Fatalf("link %d: host=%d through=%d", i, link.Host, link.Through)
			}
			if want := i == 2; link.Done != want {
				t.Fatalf("link %d: done=%v, want %v", i, link.Done, want)
			}
			if len(link.Items) != 1 || link.Items[0].Kind != ItemAdvance {
				t.Fatalf("link %d items: %+v", i, link.Items)
			}
		case err := <-sp.Errs():
			t.Fatal(err)
		case <-time.After(5 * time.Second):
			t.Fatalf("link %d never arrived", i)
		}
	}
	if err := sp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := string(sp.Result(0)); got != "final shards" {
		t.Fatalf("result = %q", got)
	}
	select {
	case err := <-sp.Errs():
		t.Fatalf("unexpected splitter error: %v", err)
	default:
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("node.Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node.Serve did not return after full acknowledgement")
	}
}

// openSession runs one splitter's session with node far enough that the
// node has accepted its Hello — an empty feed comes back as a link — and
// closes it again, leaving the node waiting for a resume.
func openSession(t *testing.T, cfg Config, hello Hello, addr string) {
	t.Helper()
	sp := NewSplitter(cfg, hello, []string{addr})
	sp.Start()
	defer sp.Close()
	if err := sp.SendFeed(0, &FeedMsg{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sp.Links():
	case err := <-sp.Errs():
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("the node never answered the first session's feed")
	}
}

// TestNodeFingerprintMismatchIsFatal: a node pins the deployment
// fingerprint of the first Hello it accepts, so a resumed session
// announcing another deployment must be refused permanently — the node
// fails its Serve with the fingerprint error instead of rejecting the
// same peer forever, and the splitter fails with the node's reason.
func TestNodeFingerprintMismatchIsFatal(t *testing.T) {
	cfg := Config{Timeout: time.Second, MaxAttempts: 2, LinkWindow: 4}
	node, err := NewNode(cfg, NodeOptions{
		Host:        0,
		NewExecutor: func(h *Hello) (Executor, error) { return &echoExec{}, nil },
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- node.Serve() }()
	defer node.Close()

	openSession(t, cfg, Hello{Fingerprint: "deployment-a"}, node.Addr())
	sp := NewSplitter(cfg, Hello{Fingerprint: "deployment-b"}, []string{node.Addr()})
	sp.Start()
	defer sp.Close()

	select {
	case err := <-serveErr:
		want := `resumed hello carries deployment fingerprint "deployment-b", the node serves "deployment-a"`
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("node.Serve = %v, want an error containing %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node.Serve did not fail on the fingerprint mismatch")
	}
	select {
	case err := <-sp.Errs():
		if want := `refused the session: live: node 0: resumed hello carries deployment fingerprint "deployment-b"`; !strings.Contains(err.Error(), want) {
			t.Fatalf("splitter error = %v, want one containing %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("splitter never reported the refused deployment")
	}
}

// TestNodeResumeWithPinnedFingerprint: a resumed session announcing the
// pinned fingerprint is served as before — a connection cut mid-run
// resumes on the executor built on the first Hello, and no second one
// is built.
func TestNodeResumeWithPinnedFingerprint(t *testing.T) {
	cfg := Config{Timeout: 5 * time.Second}
	built := 0
	node, err := NewNode(cfg, NodeOptions{
		Host: 0,
		NewExecutor: func(h *Hello) (Executor, error) {
			built++
			return &echoExec{}, nil
		},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- node.Serve() }()
	defer node.Close()

	plan := &FaultPlan{Faults: []Fault{{Host: 0, Session: 0, Write: 2, Action: FaultCut}}}
	spCfg := cfg
	spCfg.Dial = plan.Dial(DefaultDial(cfg.timeout()))
	sp := NewSplitter(spCfg, Hello{Fingerprint: "fp"}, []string{node.Addr()})
	sp.Start()
	defer sp.Close()
	for i := 0; i < 3; i++ {
		if err := sp.SendFeed(0, &FeedMsg{Last: i == 2, Rounds: []Round{{Round: i, WM: uint64(16 * (i + 1))}}}); err != nil {
			t.Fatal(err)
		}
	}
	for done := false; !done; {
		select {
		case link := <-sp.Links():
			done = link.Done
		case err := <-sp.Errs():
			t.Fatal(err)
		case <-time.After(5 * time.Second):
			t.Fatal("the resumed session's last link never arrived")
		}
	}
	if err := sp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("node.Serve: %v", err)
	}
	if plan.Hits() != 1 {
		t.Fatalf("fault plan hits = %d, want 1: no session was resumed", plan.Hits())
	}
	if built != 1 {
		t.Fatalf("the node built %d executors, want 1", built)
	}
}

// TestCloseLetsFirstHandshakeFinish: a splitter closed before a peer
// has dialed — one host's refusal aborts the run while another's peer
// has not been scheduled yet — still greets that peer's node, so the
// node answers (here with its own refusal: it cannot build an executor
// from the Hello) at once instead of waiting out its accept grace for a
// splitter that left. The dial hook holds the peer back until Close is
// under way, which is the order the race needs.
func TestCloseLetsFirstHandshakeFinish(t *testing.T) {
	cfg := Config{Timeout: 5 * time.Second, MaxAttempts: 1}
	node, err := NewNode(cfg, NodeOptions{
		Host:        0,
		NewExecutor: func(h *Hello) (Executor, error) { return nil, fmt.Errorf("deployment %q refused", h.Fingerprint) },
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- node.Serve() }()
	defer node.Close()

	spCfg := cfg
	stopping := make(chan struct{})
	spCfg.Dial = func(host, attempt int, addr string) (net.Conn, error) {
		<-stopping
		return DefaultDial(cfg.Timeout)(host, attempt, addr)
	}
	sp := NewSplitter(spCfg, Hello{Fingerprint: "deployment-b"}, []string{node.Addr()})
	sp.Start()
	closed := make(chan struct{})
	go func() {
		sp.Close()
		close(closed)
	}()
	<-sp.stop
	close(stopping)

	start := time.Now()
	select {
	case err := <-serveErr:
		if err == nil || !strings.Contains(err.Error(), `deployment "deployment-b" refused`) {
			t.Fatalf("node.Serve = %v, want the executor's refusal", err)
		}
	case <-time.After(2 * cfg.Timeout):
		t.Fatal("the node never heard from the closing splitter")
	}
	// The node's accept grace is the transport timeout: a refusal that
	// came no sooner was the grace running out, not the splitter's hello.
	if d := time.Since(start); d >= cfg.Timeout {
		t.Errorf("the node's refusal took %s, not less than the %s accept grace", d, cfg.Timeout)
	}
	select {
	case <-closed:
	case <-time.After(2 * cfg.Timeout):
		t.Fatal("Close did not return once the handshake was over")
	}
}

// TestFeedRetransmitReAcked: a duplicated feed frame (the FaultDup
// script on the splitter's first post-handshake write) must be
// executed once and re-acked, not treated as a gap — the dedup half of
// exactly-once delivery.
func TestFeedRetransmitReAcked(t *testing.T) {
	cfg := Config{Timeout: 5 * time.Second}
	node, err := NewNode(cfg, NodeOptions{
		Host:        0,
		NewExecutor: func(h *Hello) (Executor, error) { return &echoExec{}, nil },
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- node.Serve() }()
	defer node.Close()

	plan := &FaultPlan{Faults: []Fault{{Host: -1, Session: -1, Write: 1, Action: FaultDup}}}
	spCfg := cfg
	spCfg.Dial = plan.Dial(DefaultDial(cfg.timeout()))
	sp := NewSplitter(spCfg, Hello{}, []string{node.Addr()})
	sp.Start()
	defer sp.Close()

	if err := sp.SendFeed(0, &FeedMsg{Last: true, Rounds: []Round{{Round: 0, WM: 16}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case link := <-sp.Links():
		if !link.Done {
			t.Fatalf("link not done: %+v", link)
		}
	case err := <-sp.Errs():
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("link never arrived")
	}
	if err := sp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if plan.Hits() != 1 {
		t.Fatalf("fault plan hits = %d, want 1", plan.Hits())
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("node.Serve: %v", err)
	}
}

// TestNodeRejectsV1HelloAsFatal: a splitter still speaking protocol
// version 1 — row groups without a kind byte —, version 2 — which
// would refuse this node's column link items as an unknown kind — or
// version 5 — whose Hello ends before the deployment — must fail the
// node's Serve for good, positioned at the node and naming both
// versions; a retried "truncated frame" error somewhere inside its first
// feed would be the alternative. The version byte is judged before the
// rest of the Hello is parsed, so even a Hello this version cannot
// decode is refused by version.
func TestNodeRejectsV1HelloAsFatal(t *testing.T) {
	v5 := (&Hello{Version: 5, BatchSize: 256, Streams: []string{"tcp"}, Fingerprint: "fp"}).encode(nil)
	for name, payload := range map[string][]byte{
		"v1 hello": (&Hello{Version: 1, Streams: []string{"tcp"}, Fingerprint: "fp"}).encode(nil),
		"v2 hello": (&Hello{Version: 2, BatchSize: 256, Streams: []string{"tcp"}, Fingerprint: "fp"}).encode(nil),
		"v5 hello": v5[:len(v5)-4], // no Deploy length

		"undecodable v1":   {1, 0xFF},
		"a future version": {ProtocolVersion + 1},
	} {
		node, err := NewNode(Config{Timeout: 5 * time.Second}, NodeOptions{
			NewExecutor: func(*Hello) (Executor, error) { return &echoExec{}, nil },
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- node.Serve() }()
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := writeFrame(conn, nil, frameHello, payload); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-serveErr:
			want := fmt.Sprintf("node 0: hello speaks protocol version %d, want %d", payload[0], ProtocolVersion)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: node.Serve = %v, want an error containing %q", name, err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: node.Serve kept serving a peer of another protocol version", name)
		}
		conn.Close()
		node.Close()
	}
}
