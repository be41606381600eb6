package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Config tunes the live transport. The zero value picks the defaults;
// both the splitter and the nodes of one deployment must agree on
// MaxFrame.
type Config struct {
	// Timeout bounds every blocking transport step: one frame read or
	// write, a dial, a credit-exhausted feed append, and the node's
	// wait for a (re)connect. A wedged peer therefore surfaces as a
	// positioned error instead of a hang. Default 30s.
	Timeout time.Duration
	// MaxFrame bounds one frame's payload. Default DefaultMaxFrame.
	MaxFrame int
	// Credits is the feed credit window: the splitter keeps at most
	// this many unacknowledged feed frames per host, which is what
	// bounds splitter memory when a node consumes slowly. Default 4.
	Credits int
	// LinkWindow bounds a node's unacknowledged link frames the same
	// way. Default 256.
	LinkWindow int
	// MaxAttempts is how many consecutive failed connection attempts
	// (dial or handshake) a splitter peer tolerates before giving up.
	// Default 8.
	MaxAttempts int
	// Dial replaces net.DialTimeout; the fault-injection harness hooks
	// here. Arguments are the host index and the per-host connection
	// attempt counter.
	Dial func(host, attempt int, addr string) (net.Conn, error)
	// WrapAccept, on a node, wraps each accepted connection; the
	// argument is the per-node session counter. Fault-injection hook.
	WrapAccept func(conn net.Conn, session int) net.Conn
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 30 * time.Second
}

func (c Config) maxFrame() int {
	if c.MaxFrame > 0 {
		return c.MaxFrame
	}
	return DefaultMaxFrame
}

func (c Config) credits() int {
	if c.Credits > 0 {
		return c.Credits
	}
	return 4
}

func (c Config) linkWindow() int {
	if c.LinkWindow > 0 {
		return c.LinkWindow
	}
	return 256
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 8
}

func (c Config) dialFn() func(host, attempt int, addr string) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial
	}
	return DefaultDial(c.timeout())
}

// DefaultDial is the dial function a zero Config uses: plain TCP with
// the given timeout. Exported so wrappers (e.g. FaultPlan.Dial) can
// compose with the default behavior.
func DefaultDial(timeout time.Duration) func(host, attempt int, addr string) (net.Conn, error) {
	return func(_, _ int, addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
}

var (
	errOutboxClosed = errors.New("live: session closed")
	errStopped      = errors.New("live: stopped")
)

// outbox is one direction's sequenced, resumable send stream: frames
// stay queued until the peer's cumulative ack drops them, a reconnect
// rewinds the unacked tail for retransmission, and a bounded queue
// blocks the producer — the credit-based backpressure.
type outbox struct {
	mu sync.Mutex
	// frames[i] is the fully encoded frame with sequence firstSeq+i.
	frames   [][]byte
	firstSeq uint64
	// sent counts the frames already written on the current connection.
	sent  int
	limit int
	// maxFrame bounds a frame's payload: the peer rejects a larger one,
	// and retransmitting it could only repeat that.
	maxFrame int
	closed   bool
	// pinned is the frame the writer is putting on the wire. Its ack can
	// arrive while a Write still reads it (a duplicating fault wrapper
	// writes it twice), so a pinned frame is never recycled: pinnedAcked
	// marks one acked meanwhile, recycled once the writer lets it go.
	pinned      []byte
	pinnedAcked bool
	// space and work are closed-and-replaced to broadcast "queue
	// shrank" and "new frame / rewind" respectively.
	space chan struct{}
	work  chan struct{}
}

func newOutbox(limit, maxFrame int) *outbox {
	return &outbox{
		firstSeq: 1,
		limit:    limit,
		maxFrame: maxFrame,
		space:    make(chan struct{}),
		work:     make(chan struct{}),
	}
}

// append frames m and queues it, blocking until the credit window has
// room or the deadline passes; a message over the frame bound is refused
// outright. The frame is encoded before the wait and outside the lock,
// into a buffer from the stock. m's
// payload must lead with an 8-byte sequence field: whatever encode puts
// there is overwritten once the slot is known.
func (o *outbox) append(typ byte, deadline time.Time, m wireMsg) (uint64, error) {
	size := m.wireSize()
	if size > o.maxFrame {
		return 0, fmt.Errorf("live: message of %d bytes is over the %d-byte frame limit", size, o.maxFrame)
	}
	frame := appendMsgFrame(frameBuf(frameHeaderLen+size), typ, m, size)
	var timer *time.Timer
	for {
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			return 0, errOutboxClosed
		}
		if o.limit <= 0 || len(o.frames) < o.limit {
			seq := o.firstSeq + uint64(len(o.frames))
			binary.BigEndian.PutUint64(frame[frameHeaderLen:], seq)
			o.frames = append(o.frames, frame)
			close(o.work)
			o.work = make(chan struct{})
			o.mu.Unlock()
			if timer != nil {
				timer.Stop()
			}
			return seq, nil
		}
		queued := len(o.frames)
		ch := o.space
		o.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(time.Until(deadline)) //qap:allow walltime -- credit-stall guard; a timeout fails the send, never shapes outputs
		}
		select {
		case <-ch:
		case <-timer.C:
			return 0, fmt.Errorf("live: credit window stalled: %d unacked frames", queued)
		}
	}
}

// ack drops every frame with sequence <= seq.
func (o *outbox) ack(seq uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if seq < o.firstSeq {
		return
	}
	n := int(seq - o.firstSeq + 1)
	if n > len(o.frames) {
		n = len(o.frames)
	}
	if n == 0 {
		return
	}
	for _, f := range o.frames[:n] {
		if len(o.pinned) != 0 && &f[0] == &o.pinned[0] {
			o.pinnedAcked = true
		} else {
			putFrameBuf(f)
		}
	}
	copy(o.frames, o.frames[n:])
	for i := len(o.frames) - n; i < len(o.frames); i++ {
		o.frames[i] = nil
	}
	o.frames = o.frames[:len(o.frames)-n]
	o.firstSeq += uint64(n)
	o.sent -= n
	if o.sent < 0 {
		o.sent = 0
	}
	close(o.space)
	o.space = make(chan struct{})
}

// rewind resumes after a reconnect: the peer's applied-through
// sequence acts as an ack, and everything after it is marked unsent so
// the new connection's writer retransmits it.
func (o *outbox) rewind(applied uint64) {
	o.ack(applied)
	o.mu.Lock()
	o.sent = 0
	o.unpinLocked() // the previous connection's writer has exited
	close(o.work)
	o.work = make(chan struct{})
	o.mu.Unlock()
}

// tryNext hands the writer the next unsent frame, if any, pinned until
// the writer calls unpin.
func (o *outbox) tryNext() ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sent < len(o.frames) {
		f := o.frames[o.sent]
		o.sent++
		o.pinned = f
		return f, true
	}
	return nil, false
}

// unpin marks the writer done with the frame tryNext handed it.
func (o *outbox) unpin() {
	o.mu.Lock()
	o.unpinLocked()
	o.mu.Unlock()
}

func (o *outbox) unpinLocked() {
	if o.pinnedAcked {
		putFrameBuf(o.pinned)
		o.pinnedAcked = false
	}
	o.pinned = nil
}

// workChan returns the channel closed on the next append or rewind.
// Grab it before tryNext to avoid sleeping through a wakeup.
func (o *outbox) workChan() chan struct{} {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.work
}

func (o *outbox) empty() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.frames) == 0
}

// release hands the frames still queued — the feeds whose acks never
// came — to the stock. Only for a closed outbox whose sessions have all
// ended: no writer is left to read a frame, and none will retransmit it.
func (o *outbox) release() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, f := range o.frames {
		putFrameBuf(f)
		o.frames[i] = nil
	}
	o.frames = o.frames[:0]
}

func (o *outbox) close() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return
	}
	o.closed = true
	close(o.space)
	o.space = make(chan struct{})
	close(o.work)
	o.work = make(chan struct{})
}

// session pumps one established connection: the reader runs in the
// caller's goroutine, while writer (spawned by the caller) drains the
// outbox and the pending cumulative ack of the peer's stream.
type session struct {
	conn     net.Conn
	timeout  time.Duration
	maxFrame int
	out      *outbox
	ackType  byte

	mu       sync.Mutex
	ackSeq   uint64
	ackDirty bool
	werr     error

	kick chan struct{}
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

func newSession(conn net.Conn, cfg Config, out *outbox, ackType byte) *session {
	return &session{
		conn:     conn,
		timeout:  cfg.timeout(),
		maxFrame: cfg.maxFrame(),
		out:      out,
		ackType:  ackType,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
}

func (s *session) start() {
	s.wg.Add(1)
	go s.writer()
}

// shutdown stops the writer and closes the connection; safe to call
// more than once.
func (s *session) shutdown() {
	s.once.Do(func() { close(s.stop) })
	s.conn.Close()
	s.wg.Wait()
}

// halt stops the writer once its frame in flight is out, and leaves the
// connection open for its owner's last frame: a node's refusal.
func (s *session) halt() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// setAck records that the peer's stream has been applied through seq;
// the writer sends the latest value.
func (s *session) setAck(seq uint64) {
	s.mu.Lock()
	if seq > s.ackSeq {
		s.ackSeq = seq
	}
	s.ackDirty = true
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// writeErr reports the writer's failure, if any, to prefer it over the
// secondary read error its conn-close provokes.
func (s *session) writeErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

func (s *session) writer() {
	defer s.wg.Done()
	var scratch []byte
	var ackPayload [8]byte
	fail := func(err error) {
		s.mu.Lock()
		if s.werr == nil {
			s.werr = err
		}
		s.mu.Unlock()
		s.conn.Close() // unblock the reader
	}
	for {
		s.mu.Lock()
		dirty, ack := s.ackDirty, s.ackSeq
		s.ackDirty = false
		s.mu.Unlock()
		if dirty {
			binary.BigEndian.AppendUint64(ackPayload[:0], ack)
			s.conn.SetWriteDeadline(time.Now().Add(s.timeout)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
			var err error
			if scratch, err = writeFrame(s.conn, scratch, s.ackType, ackPayload[:]); err != nil {
				fail(err)
				return
			}
			continue
		}
		work := s.out.workChan()
		if frame, ok := s.out.tryNext(); ok {
			s.conn.SetWriteDeadline(time.Now().Add(s.timeout)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
			_, err := s.conn.Write(frame)
			s.out.unpin()
			if err != nil {
				fail(err)
				return
			}
			continue
		}
		select {
		case <-s.kick:
		case <-work:
		case <-s.stop:
			return
		}
	}
}

// read returns the next frame, with the configured deadline applied.
// The payload is valid until the next call.
func (s *session) read(buf []byte) (typ byte, payload, newBuf []byte, err error) {
	s.conn.SetReadDeadline(time.Now().Add(s.timeout)) //qap:allow walltime -- I/O deadline; transport pacing never shapes outputs
	return readFrame(s.conn, s.maxFrame, buf)
}

func decodeAck(data []byte) (uint64, error) {
	d := protoDecoder{data: data}
	v, err := d.u64("ack")
	if err != nil {
		return 0, err
	}
	return v, d.finish("ack")
}
