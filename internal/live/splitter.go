package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Splitter is the ingress side of the live backend: one reliable
// session per host, a credit-bounded feed outbox each, and a shared
// inbox of link messages for the collector's replay merge.
type Splitter struct {
	cfg   Config
	hello Hello
	peers []*peer
	links chan LinkMsg
	errc  chan error
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// NewSplitter builds a splitter for one host address per leaf island.
// hello is the session template (BatchSize, Streams, Fingerprint);
// Host and ResumeLink are stamped per peer.
func NewSplitter(cfg Config, hello Hello, addrs []string) *Splitter {
	s := &Splitter{
		cfg:   cfg,
		hello: hello,
		links: make(chan LinkMsg, 2*len(addrs)+2),
		errc:  make(chan error, len(addrs)+1),
		stop:  make(chan struct{}),
	}
	for h, addr := range addrs {
		s.peers = append(s.peers, &peer{
			sp:   s,
			host: h,
			addr: addr,
			out:  newOutbox(cfg.credits(), cfg.maxFrame()),
		})
	}
	return s
}

// Start launches the per-host connection loops.
func (s *Splitter) Start() {
	for _, p := range s.peers {
		s.wg.Add(1)
		go p.run()
	}
}

// MaxFrame is the frame payload bound feeds are held to; a driver that
// cuts its feeds well below it never meets SendFeed's refusal.
func (s *Splitter) MaxFrame() int { return s.cfg.maxFrame() }

// SendFeed queues one feed message for host, blocking while the
// host's credit window is exhausted — the backpressure that bounds
// splitter memory under a slow consumer. m is fully serialized before
// SendFeed returns and m.Seq is assigned here. A feed larger than the
// frame bound is refused outright, naming its rounds.
func (s *Splitter) SendFeed(host int, m *FeedMsg) error {
	deadline := time.Now().Add(s.cfg.timeout()) //qap:allow walltime -- credit-stall deadline; transport pacing never shapes outputs
	seq, err := s.peers[host].out.append(frameFeed, deadline, m)
	if err != nil {
		first, last := -1, -1
		if n := len(m.Rounds); n > 0 {
			first, last = m.Rounds[0].Round, m.Rounds[n-1].Round
		}
		return fmt.Errorf("live: host %d: feed of rounds %d..%d: %w", host, first, last, err)
	}
	m.Seq = seq
	return nil
}

// Links is the shared stream of decoded link messages, each stamped
// with its host, delivered in per-host sequence order. A received
// message's column items are pooled batches the receiver owns.
func (s *Splitter) Links() <-chan LinkMsg { return s.links }

// Errs delivers fatal per-host errors (retries exhausted, protocol
// violations).
func (s *Splitter) Errs() <-chan error { return s.errc }

// Result returns host's final result payload (remote mode), valid
// after Wait.
func (s *Splitter) Result(host int) []byte { return s.peers[host].result }

// Wait blocks until every peer loop has exited — each host finished
// (done link seen, result received if promised) or failed.
func (s *Splitter) Wait(d time.Duration) error {
	ch := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(ch)
	}()
	select {
	case <-ch:
		return nil
	case <-time.After(d): //qap:allow walltime -- drain guard; a timeout fails the wait, never shapes outputs
		return fmt.Errorf("live: splitter: peers still draining after %s", d)
	}
}

// Close aborts every peer and waits for them to exit. A peer still in
// its first handshake is left to finish it (see peer.greeted), so its
// node always hears from the splitter.
func (s *Splitter) Close() {
	s.once.Do(func() { close(s.stop) })
	for _, p := range s.peers {
		p.out.close()
		p.mu.Lock()
		if p.conn != nil && p.greeted {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	s.wg.Wait()
	// Every peer has exited, its session writers with it: a frame still
	// queued is one nothing reads any more.
	for _, p := range s.peers {
		p.out.release()
	}
}

func (s *Splitter) fatal(err error) {
	select {
	case s.errc <- err:
	default:
	}
}

// peer is one host's connection loop.
type peer struct {
	sp   *Splitter
	host int
	addr string
	out  *outbox

	// linkSeen is the last link sequence applied (delivered to the
	// shared inbox); it is the resume point sent in each Hello.
	linkSeen   uint64
	done       bool
	wantResult bool
	result     []byte
	attempts   int
	fails      int

	mu   sync.Mutex
	conn net.Conn
	// greeted is set once the first handshake attempt is over — Welcome
	// received, or the attempt refused or failed. Until then the peer
	// ignores stop and Close leaves its connection alone: when one
	// host's refusal aborts the run, every other node still gets its
	// Hello and answers it — with its own refusal, if the deployment is
	// the wrong one — instead of waiting out its accept grace for a
	// splitter that left before it dialed.
	greeted bool
}

// greet ends the first handshake attempt's immunity from stop.
func (p *peer) greet() {
	p.mu.Lock()
	p.greeted = true
	p.mu.Unlock()
}

func (p *peer) finished() bool {
	return p.done && (!p.wantResult || p.result != nil)
}

func (p *peer) stopping() bool {
	select {
	case <-p.sp.stop:
		return true
	default:
		return false
	}
}

func (p *peer) run() {
	defer p.sp.wg.Done()
	dial := p.sp.cfg.dialFn()
	for {
		attempt := p.attempts
		if attempt > 0 && p.stopping() {
			return
		}
		p.attempts++
		conn, err := dial(p.host, attempt, p.addr)
		if err == nil {
			p.mu.Lock()
			p.conn = conn
			p.mu.Unlock()
			err = p.session(conn)
			p.mu.Lock()
			p.conn = nil
			p.mu.Unlock()
			conn.Close()
		}
		p.greet()
		if p.finished() || p.stopping() {
			return
		}
		var ref *refusal
		if errors.As(err, &ref) {
			// A redial would carry the same Hello to the same node.
			p.sp.fatal(err)
			return
		}
		p.fails++
		if p.fails >= p.sp.cfg.maxAttempts() {
			p.sp.fatal(fmt.Errorf("live: host %d: giving up after %d consecutive failed attempts (link seq %d): %w",
				p.host, p.fails, p.linkSeen, err))
			return
		}
		backoff := time.Duration(p.fails) * 5 * time.Millisecond
		if backoff > 100*time.Millisecond {
			backoff = 100 * time.Millisecond
		}
		select {
		case <-time.After(backoff): //qap:allow walltime -- reconnect backoff; recovery restores identical outputs
		case <-p.sp.stop:
			return
		}
	}
}

// refusal is a node's refusal frame, read in place of the Welcome or,
// once its executor refuses a feed, of a link: the node's own reason for
// refusing the session.
type refusal struct {
	host   int
	reason string
}

func (r *refusal) Error() string {
	return fmt.Sprintf("live: host %d: the node refused the session: %s", r.host, r.reason)
}

// session runs the handshake and the link loop on one connection. A
// nil return means the host finished cleanly.
func (p *peer) session(conn net.Conn) error {
	to := p.sp.cfg.timeout()
	hello := p.sp.hello
	hello.Version = ProtocolVersion
	hello.Host = p.host
	hello.ResumeLink = p.linkSeen
	conn.SetWriteDeadline(time.Now().Add(to)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
	if _, err := conn.Write(appendMsgFrame(nil, frameHello, &hello, hello.wireSize())); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(to)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
	typ, payload, buf, err := readFrame(conn, p.sp.cfg.maxFrame(), nil)
	defer func() { putFrameBuf(buf) }() // the read buffer outlives no session
	if err != nil {
		return err
	}
	if typ == frameRefuse {
		return &refusal{host: p.host, reason: string(payload)}
	}
	if typ != frameWelcome {
		return fmt.Errorf("live: host %d: expected welcome, got frame type %d", p.host, typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	if w.Version != ProtocolVersion {
		return fmt.Errorf("live: host %d: protocol version %d, want %d", p.host, w.Version, ProtocolVersion)
	}
	p.wantResult = w.HasResult
	p.out.rewind(w.ResumeFeed)
	p.fails = 0
	if p.greet(); p.stopping() {
		return errStopped
	}

	s := newSession(conn, p.sp.cfg, p.out, frameLinkAck)
	s.start()
	defer s.shutdown()
	for {
		typ, payload, buf, err = s.read(buf)
		if err != nil {
			if p.finished() {
				return nil
			}
			if werr := s.writeErr(); werr != nil {
				return werr
			}
			return err
		}
		switch typ {
		case frameFeedAck:
			seq, err := decodeAck(payload)
			if err != nil {
				return err
			}
			p.out.ack(seq)
		case frameLink, frameResult:
			seq, err := decodeSeq(payload)
			if err != nil {
				return err
			}
			if seq <= p.linkSeen {
				// A retransmit raced our ack: already applied, re-ack.
				s.setAck(p.linkSeen)
				continue
			}
			if seq != p.linkSeen+1 {
				return fmt.Errorf("live: host %d: link gap: got seq %d, want %d", p.host, seq, p.linkSeen+1)
			}
			if typ == frameLink {
				m, err := decodeLink(payload)
				if err != nil {
					return err
				}
				m.Host = p.host
				select {
				case p.sp.links <- *m:
				case <-p.sp.stop:
					ReleaseCols(m.Items)
					return errStopped
				}
				if m.Done {
					p.done = true
				}
			} else {
				p.result = append([]byte(nil), payload[8:]...)
			}
			p.linkSeen = seq
			s.setAck(seq)
		case frameRefuse:
			// The node's executor refused a feed: a resent feed would be
			// refused the same way.
			return &refusal{host: p.host, reason: string(payload)}
		default:
			return fmt.Errorf("live: host %d: unexpected frame type %d", p.host, typ)
		}
	}
}
