package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Executor is what a node serves: the cluster package's live engine
// binds one to an in-process island, and cmd/qap-node binds one to an
// island of its own compiled plan. Execute must be deterministic —
// replaying the same feed sequence must produce the same link
// sequence — because recovery re-executes nothing but retransmits
// everything unacknowledged.
type Executor interface {
	// Execute runs one feed's rounds and returns the link message to
	// ship (Seq is assigned by the node; Through and Done are the
	// executor's). Called in feed-sequence order, exactly once per
	// sequence. The feed's column groups are pooled batches the node
	// takes back when Execute returns: they must not be retained. The
	// link's column items are pooled batches the node takes over.
	Execute(m *FeedMsg) (*LinkMsg, error)
	// Result serializes the island's final shards after the last feed,
	// for remote nodes; in-process executors return nil.
	Result() ([]byte, error)
}

// NodeOptions identify the deployment slice a node serves.
type NodeOptions struct {
	// Host is the leaf island index this node serves.
	Host int
	// SendResult makes the node ship a final Result frame (remote
	// mode).
	SendResult bool
	// NewExecutor builds the executor from the first handshake's Hello;
	// the executor persists across reconnects (its window state must
	// survive a dropped connection). An error refuses the deployment
	// for good: Serve returns it.
	NewExecutor func(h *Hello) (Executor, error)
	// AcceptGrace overrides the wait for the first connection
	// (separate-process nodes start before the splitter does).
	AcceptGrace time.Duration
}

// Node is one host's live server: a TCP listener, a resumable link
// outbox, and the feed-execution loop.
type Node struct {
	cfg Config
	opt NodeOptions
	ln  net.Listener
	out *outbox

	exec Executor
	// fingerprint is the first accepted Hello's, pinned for the resumes.
	fingerprint  string
	feedSeen     uint64
	doneAll      bool
	resultQueued bool
	sessions     int

	mu   sync.Mutex
	conn net.Conn
	stop chan struct{}
	once sync.Once
}

// NewNode listens on a loopback port (or addr, when non-empty) and
// returns the node ready to Serve.
func NewNode(cfg Config, opt NodeOptions, addr string) (*Node, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: node %d: %w", opt.Host, err)
	}
	return &Node{
		cfg:  cfg,
		opt:  opt,
		ln:   ln,
		out:  newOutbox(cfg.linkWindow(), cfg.maxFrame()),
		stop: make(chan struct{}),
	}, nil
}

// Addr is the listener's address, for the splitter's host list.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close aborts Serve.
func (n *Node) Close() {
	n.once.Do(func() { close(n.stop) })
	n.ln.Close()
	n.out.close()
	n.mu.Lock()
	if n.conn != nil {
		n.conn.Close()
	}
	n.mu.Unlock()
}

func (n *Node) stopping() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// finished reports that the last feed has been executed and every
// link (and the result, if any) has been acknowledged.
func (n *Node) finished() bool { return n.doneAll && n.out.empty() }

// Serve accepts connections until the host's work is done and fully
// acknowledged, reconnections included. It returns nil on a clean
// finish or stop, and a positioned error if the peer wedges past the
// timeout.
func (n *Node) Serve() error {
	defer n.ln.Close()
	grace := n.opt.AcceptGrace
	if grace <= 0 {
		grace = n.cfg.timeout()
	}
	for {
		if tl, ok := n.ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Now().Add(grace)) //qap:allow walltime -- accept-grace deadline; transport pacing never shapes outputs
		}
		conn, err := n.ln.Accept()
		if err != nil {
			if n.stopping() || n.finished() {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return fmt.Errorf("live: node %d: no connection within %s (last feed seq %d)", n.opt.Host, grace, n.feedSeen)
			}
			return fmt.Errorf("live: node %d: accept: %w", n.opt.Host, err)
		}
		grace = n.cfg.timeout()
		if n.cfg.WrapAccept != nil {
			conn = n.cfg.WrapAccept(conn, n.sessions)
		}
		n.sessions++
		n.mu.Lock()
		n.conn = conn
		n.mu.Unlock()
		err = n.session(conn)
		var fe *fatalErr
		fatal := errors.As(err, &fe)
		if fatal {
			// Name the refusal before hanging up, so the splitter fails
			// with the node's reason instead of redialing a closed port.
			// Best effort: the node fails with fe either way.
			conn.SetWriteDeadline(time.Now().Add(n.cfg.timeout())) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
			_, _ = conn.Write(appendFrame(nil, frameRefuse, []byte(fe.Error())))
		}
		n.mu.Lock()
		n.conn = nil
		n.mu.Unlock()
		conn.Close()
		if n.finished() || n.stopping() {
			return nil
		}
		if fatal {
			// A configuration mismatch redialing cannot heal: fail now
			// instead of rejecting the same splitter forever.
			return fe.err
		}
		// Any other session death is transient; wait for the redial.
	}
}

// fatalErr marks a session error no reconnect can fix.
type fatalErr struct{ err error }

func (e *fatalErr) Error() string { return e.err.Error() }
func (e *fatalErr) Unwrap() error { return e.err }

func fatalf(format string, args ...any) error {
	return &fatalErr{err: fmt.Errorf(format, args...)}
}

// session runs the handshake and the feed loop on one connection.
func (n *Node) session(conn net.Conn) error {
	to := n.cfg.timeout()
	conn.SetReadDeadline(time.Now().Add(to)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
	typ, payload, buf, err := readFrame(conn, n.cfg.maxFrame(), nil)
	defer func() { putFrameBuf(buf) }() // the read buffer outlives no session
	if err != nil {
		return err
	}
	if typ != frameHello {
		return fmt.Errorf("live: node %d: expected hello, got frame type %d", n.opt.Host, typ)
	}
	// The version byte leads the Hello in every protocol version, so it
	// is judged before the rest is parsed: a peer speaking another
	// version fails for good instead of as a retried decode error.
	if len(payload) > 0 && int(payload[0]) != ProtocolVersion {
		return fatalf("live: node %d: hello speaks protocol version %d, want %d", n.opt.Host, payload[0], ProtocolVersion)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return err
	}
	if h.Host != n.opt.Host {
		return fatalf("live: node %d: hello addressed to host %d", n.opt.Host, h.Host)
	}
	if n.exec == nil {
		// The executor is a function of the Hello alone, so a refusal
		// is final: a redial would carry the same Hello.
		if n.exec, err = n.opt.NewExecutor(h); err != nil {
			return fatalf("live: node %d: %w", n.opt.Host, err)
		}
		n.fingerprint = h.Fingerprint
	} else if h.Fingerprint != n.fingerprint {
		return fatalf("live: node %d: resumed hello carries deployment fingerprint %q, the node serves %q", n.opt.Host, h.Fingerprint, n.fingerprint)
	}
	n.out.rewind(h.ResumeLink)
	w := Welcome{Version: ProtocolVersion, ResumeFeed: n.feedSeen, HasResult: n.opt.SendResult}
	conn.SetWriteDeadline(time.Now().Add(to)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
	if _, err := conn.Write(appendMsgFrame(nil, frameWelcome, &w, w.wireSize())); err != nil {
		return err
	}

	s := newSession(conn, n.cfg, n.out, frameFeedAck)
	s.start()
	defer s.shutdown()
	for {
		var typ byte
		var payload []byte
		typ, payload, buf, err = s.read(buf)
		if err != nil {
			if werr := s.writeErr(); werr != nil {
				return werr
			}
			return err
		}
		switch typ {
		case frameLinkAck:
			seq, err := decodeAck(payload)
			if err != nil {
				return err
			}
			n.out.ack(seq)
			if n.finished() {
				return nil
			}
		case frameFeed:
			seq, err := decodeSeq(payload)
			if err != nil {
				return err
			}
			if seq <= n.feedSeen {
				// A retransmit raced our ack: already executed, re-ack.
				s.setAck(n.feedSeen)
				continue
			}
			if seq != n.feedSeen+1 {
				return fmt.Errorf("live: node %d: feed gap: got seq %d, want %d", n.opt.Host, seq, n.feedSeen+1)
			}
			m, err := decodeFeed(payload)
			if err != nil {
				return err
			}
			link, err := n.exec.Execute(m)
			m.releaseCols()
			if err != nil {
				return fmt.Errorf("live: node %d: feed seq %d: %w", n.opt.Host, seq, err)
			}
			// Queue the link before acknowledging the feed: once the
			// ack is on the wire the link must be recorded for
			// retransmission, or a crash here would lose it.
			deadline := time.Now().Add(to) //qap:allow walltime -- credit-stall deadline; transport pacing never shapes outputs
			link.Seq, err = n.out.append(frameLink, deadline, link)
			ReleaseCols(link.Items) // encoded into the frame, or refused
			if err != nil {
				return fmt.Errorf("live: node %d: feed seq %d: %w", n.opt.Host, seq, err)
			}
			n.feedSeen = seq
			s.setAck(seq)
			if m.Last {
				n.doneAll = true
				if n.opt.SendResult && !n.resultQueued {
					res, err := n.exec.Result()
					if err != nil {
						return fmt.Errorf("live: node %d: result: %w", n.opt.Host, err)
					}
					rm := &resultMsg{payload: res}
					if _, err := n.out.append(frameResult, deadline, rm); err != nil {
						return fmt.Errorf("live: node %d: result: %w", n.opt.Host, err)
					}
					n.resultQueued = true
				}
			}
		default:
			return fmt.Errorf("live: node %d: unexpected frame type %d", n.opt.Host, typ)
		}
	}
}
