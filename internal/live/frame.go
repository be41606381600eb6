// Package live is the wire layer of the live TCP cluster backend: a
// length-prefixed frame format, the splitter/node protocol messages
// (paper Section 3.3: a splitter ships hash-routed tuple rounds to
// per-host nodes, which ship their island-crossing deliveries back),
// reliable resumable sessions with credit-based backpressure, and a
// deterministic fault-injection net.Conn wrapper for the recovery
// tests.
//
// The package knows nothing about plans or operators: it moves framed
// messages whose tuple payloads use the exec wire codecs (rows for link
// items and row feed groups, column vectors for columnar feed groups). The
// cluster package's live engine supplies an Executor that turns feed
// messages into link messages; cmd/qap-node serves the same Executor
// from a separate OS process.
//
// Reliability model: each direction of a connection carries a
// monotonically sequenced stream of frames with cumulative
// acknowledgements. A lost or reordered frame surfaces as a sequence
// gap or a decode error, either of which kills the connection; the
// splitter redials, the handshake exchanges each side's
// applied-through sequence, and both sides retransmit their unacked
// tails. Duplicated frames (a retransmit racing an ack, or an injected
// fault) are detected by sequence and skipped, so every feed is
// executed exactly once and every link delivered exactly once — which
// is what makes recovery byte-identical to an undisturbed run.
package live

import (
	"fmt"
	"io"
	"slices"
	"sync"
)

// Frame types.
const (
	frameHello   = byte(1) // splitter -> node: session open/resume
	frameWelcome = byte(2) // node -> splitter: resume point reply
	frameFeed    = byte(3) // splitter -> node: a batch of rounds
	frameLink    = byte(4) // node -> splitter: captured island crossings
	frameFeedAck = byte(5) // node -> splitter: feed executed (credit release)
	frameLinkAck = byte(6) // splitter -> node: link applied
	frameResult  = byte(7) // node -> splitter: final island shards (remote mode)
	frameRefuse  = byte(8) // node -> splitter: why the node refuses the session, in place of a welcome or a link
)

// DefaultMaxFrame bounds one frame's payload; larger frames are a
// protocol error. A round holds a whole timestamp's packets for one
// host — 64 bytes a packet in column groups, tens of thousands of
// packets a second on a fast link — so a feed of many rounds can reach
// the bound: the splitter's driver cuts feeds by bytes as well as by
// round count, and SendFeed refuses a frame that would not fit.
const DefaultMaxFrame = 16 << 20

// frameHeaderLen is the 4-byte big-endian payload length plus the type
// byte.
const frameHeaderLen = 5

// appendFrame appends a complete frame (header, type, payload) to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	n := len(payload) + 1
	dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n), typ)
	return append(dst, payload...)
}

// bufCap is the capacity a fresh frame buffer of n bytes gets: an
// eighth of headroom, because consecutive frames of a stream differ by
// a few bytes and a recycled buffer a few bytes short is no use at all.
func bufCap(n int) int { return n + n/8 }

// frameStock holds frame buffers no session uses: acked frames, the
// frames a released outbox still queued, and the sessions' read buffers
// once their sessions end. A Deployment runs every replay on new
// sessions, so the stock is the package's, shared by all of them, and
// bounded in buffers and in bytes; past either bound the oldest go, so
// what a finished run leaves serves the next. A buffer enters it only
// when nothing can read it any more: never a frame on the wire, nor one
// a session may still retransmit.
var frameStock struct {
	mu    sync.Mutex
	bufs  [][]byte // oldest first
	bytes int      // the capacity of bufs, together
	made  int      // buffers frameBuf made because the stock had none to fit
}

// The stock's bounds: a few runs' feed windows, read buffers and link
// frames at the default credits.
const (
	frameStockCap   = 64
	frameStockBytes = 64 << 20
)

// frameBuf returns an empty buffer with room for n bytes: the stock's
// smallest that has it, else a fresh one with bufCap's headroom.
func frameBuf(n int) []byte {
	frameStock.mu.Lock()
	defer frameStock.mu.Unlock()
	bufs, best := frameStock.bufs, -1
	for i, b := range bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		frameStock.made++
		return make([]byte, 0, bufCap(n))
	}
	b := bufs[best]
	frameStock.bufs = slices.Delete(bufs, best, best+1)
	frameStock.bytes -= cap(b)
	return b[:0]
}

// putFrameBuf gives b, which nothing reads any more, to the stock,
// dropping the oldest buffers past the bounds.
func putFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > frameStockBytes {
		return
	}
	frameStock.mu.Lock()
	defer frameStock.mu.Unlock()
	bufs := append(frameStock.bufs, b[:0])
	frameStock.bytes += cap(b)
	old := 0
	for len(bufs)-old > frameStockCap || frameStock.bytes > frameStockBytes {
		frameStock.bytes -= cap(bufs[old])
		old++
	}
	frameStock.bufs = slices.Delete(bufs, 0, old)
}

// appendMsgFrame encodes m, whose wireSize is size, as one complete
// frame — header, type, payload — written once and in place: into
// buf's capacity when the frame fits there (an outbox always passes
// one that does), else into a fresh buffer (a handshake frame).
//
//qap:hot
func appendMsgFrame(buf []byte, typ byte, m wireMsg, size int) []byte {
	need := frameHeaderLen + size
	if cap(buf) < need {
		buf = make([]byte, 0, bufCap(need)) //qap:allow hotalloc -- a handshake frame, once a session
	}
	n := size + 1 // the type byte counts towards the frame's length
	buf = append(buf[:0], byte(n>>24), byte(n>>16), byte(n>>8), byte(n), typ)
	buf = m.encode(buf)
	if len(buf) != need {
		panic(fmt.Sprintf("live: frame type %d encoded %d bytes, wireSize promised %d", typ, len(buf), need))
	}
	return buf
}

// writeFrame sends one frame in a single Write call, so the fault
// wrapper's per-Write drop/duplicate faults operate on whole frames
// and a surviving stream always re-synchronizes at a frame boundary.
func writeFrame(w io.Writer, scratch []byte, typ byte, payload []byte) ([]byte, error) {
	buf := appendFrame(scratch[:0], typ, payload)
	_, err := w.Write(buf)
	return buf, err
}

// readFrame reads one frame. The returned payload aliases buf, which
// a frame too large for it trades for a stock buffer (frameBuf); it is
// valid until the next call. Whoever drops the returned buffer for good
// hands it back (putFrameBuf).
func readFrame(r io.Reader, maxFrame int, buf []byte) (typ byte, payload, newBuf []byte, err error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n < 1 {
		return 0, nil, buf, fmt.Errorf("live: frame with %d-byte body", n)
	}
	if n-1 > maxFrame {
		return 0, nil, buf, fmt.Errorf("live: %d-byte frame exceeds the %d-byte limit", n-1, maxFrame)
	}
	if cap(buf) < n-1 {
		putFrameBuf(buf)
		buf = frameBuf(n - 1)
	}
	buf = buf[:n-1]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("live: truncated frame body: %w", err)
	}
	return hdr[4], buf, buf, nil
}
