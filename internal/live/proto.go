package live

import (
	"encoding/binary"
	"fmt"

	"qap/internal/exec"
)

// ProtocolVersion is bumped on any wire-incompatible change; the
// handshake rejects a peer speaking a different version. Version 2
// tags every feed group as row or column encoded; version 3 adds the
// column-batch link item; version 4 drops the single-row link item
// (kind 0); version 5 carries Int rows in the column codec's Int bitmap
// and drops the rows link item (kind 1), so a column batch is the only
// data item on a link; version 6 appends Hello.Deploy; version 7 adds
// the refusal frame, a node's reason for refusing a session sent in
// place of the Welcome; version 8 reshapes a node's result shard to its
// operators' counters alone, which it ships on every run; version 9
// prunes a feed group to the packet columns the node's plan reads, the
// others payload-free NULL columns.
const ProtocolVersion = 9

// Hello opens (or resumes) a session, splitter -> node.
type Hello struct {
	Version int
	// Host is the leaf island the splitter expects this node to serve.
	Host int
	// BatchSize is the engine's operator batch size; the node must
	// execute with the same one for byte-identical results.
	BatchSize int
	// ResumeLink is the last link-stream sequence the collector has
	// applied from this node; the node retransmits everything after it.
	ResumeLink uint64
	// Streams is the canonical cursor order of the run's source
	// streams (lower-case names): group Stream indexes and advance
	// tags are defined against it.
	Streams []string
	// Fingerprint identifies the plan + run configuration. A node pins
	// the one its first session opened with and refuses a resumed
	// session announcing another.
	Fingerprint string
	// Deploy is the encoded deployment a remote node compiles its
	// executor from on the first handshake; in-process nodes share the
	// splitter's plan and get none. This package does not interpret it.
	Deploy []byte
}

// Welcome answers a Hello, node -> splitter.
type Welcome struct {
	Version int
	// ResumeFeed is the last feed sequence the node has executed; the
	// splitter retransmits everything after it.
	ResumeFeed uint64
	// HasResult announces that the node will ship a final Result frame
	// (remote mode) after its last link.
	HasResult bool
}

// Group is one destination partition's routed tuples within a round,
// as columns (Cols), or on the wire's row kind as rows (Tuples). The
// splitter only sends column groups, and an executor refuses any other;
// the row kind carries the transport probe's feeds.
type Group struct {
	// Tag is the canonical delivery tag (the round-local sequence of
	// the group's first tuple, in the splitter's push phase).
	Tag uint64
	// Stream indexes Hello.Streams; Part is the destination partition.
	Stream int
	Part   int
	Tuples exec.Batch
	// Cols, on a decoded feed, is a pooled batch the node owns: it is
	// valid only during Executor.Execute.
	Cols *exec.ColBatch
}

// Group kinds on the wire.
const (
	groupRows = byte(0)
	groupCols = byte(1)
)

// Round is one watermark round of a feed.
type Round struct {
	Round  int
	WM     uint64
	Adv    bool
	Flush  bool
	Groups []Group
}

// FeedMsg carries a batch of rounds for one host.
type FeedMsg struct {
	Seq    uint64
	Last   bool
	Rounds []Round
}

// ItemKind enumerates captured island-crossing deliveries; the values
// are the wire encoding.
type ItemKind uint8

// The item kinds: what the producer called on the island-crossing edge.
// Every data delivery is a column item (ItemPushCols): columns as the
// producer emitted them, a run of pushed rows — a row fallback's output
// — as the columns it pivots to. Kinds 0 and 1, protocol 3's single-row
// item and protocol 4's rows item, are no longer defined.
const (
	ItemAdvance  ItemKind = 2
	ItemFlush    ItemKind = 3
	ItemPushCols ItemKind = 4
)

// Item is one captured delivery into the central island, on the
// parallel engine and the live backend alike.
type Item struct {
	Round int
	Tag   uint64
	Kind  ItemKind
	// Edge is the deterministic island-crossing edge id assigned at
	// compile time.
	Edge int
	// WM is the watermark an ItemAdvance forwards; MWM the producing
	// round's (the flush round inherits the last data round's), by which
	// the replay closes monitoring windows where the sequential engine does.
	WM  uint64
	MWM uint64
	// Cols, on an ItemPushCols, is a pooled batch the item owns: whoever
	// consumes the item — the replay applying it, the node that encoded
	// it, any path dropping it — returns it (ReleaseCols, PutColBatch).
	Cols *exec.ColBatch
}

// LinkMsg ships an island's captured deliveries for a range of rounds:
// all of them through round Through, and with Done the island's last.
type LinkMsg struct {
	Seq uint64
	// Host is the producing island; off a wire, the receiving session stamps it.
	Host    int
	Through int
	Done    bool
	Items   []Item
}

// ReleaseCols returns the pooled batches of items' column deliveries;
// the items carry none afterwards.
func ReleaseCols(items []Item) {
	for i := range items {
		exec.PutColBatch(items[i].Cols)
		items[i].Cols = nil
	}
}

// ---- encoding ----
//
// Every message knows its exact encoded size, so a frame is encoded
// once, in place, into a buffer sized for header and payload together
// (appendMsgFrame) — never grown, never copied.

// wireMsg is a message that can be framed: encode appends exactly
// wireSize() bytes.
type wireMsg interface {
	wireSize() int
	encode(dst []byte) []byte
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendBatchBlob embeds a batch as a length-prefixed exec wire blob,
// so the decoder can hand the exact span to exec.DecodeBatchWire.
func appendBatchBlob(dst []byte, b exec.Batch) []byte {
	at := len(dst)
	return patchBlobLen(exec.AppendBatchWire(binary.BigEndian.AppendUint32(dst, 0), b), at)
}

// appendColBlob is appendBatchBlob for a column batch.
func appendColBlob(dst []byte, cb *exec.ColBatch) []byte {
	at := len(dst)
	return patchBlobLen(exec.AppendColBatchWire(binary.BigEndian.AppendUint32(dst, 0), cb), at)
}

// patchBlobLen fills in the length prefix reserved at dst[at:] now that
// the blob behind it is encoded.
func patchBlobLen(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

func (m *Hello) wireSize() int {
	n := 1 + 4 + 4 + 8 + 2 + 4 + len(m.Fingerprint) + 4 + len(m.Deploy)
	for _, s := range m.Streams {
		n += 4 + len(s)
	}
	return n
}

func (m *Hello) encode(dst []byte) []byte {
	dst = append(dst, byte(m.Version))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Host))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.BatchSize))
	dst = binary.BigEndian.AppendUint64(dst, m.ResumeLink)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Streams)))
	for _, s := range m.Streams {
		dst = appendString(dst, s)
	}
	dst = appendString(dst, m.Fingerprint)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Deploy)))
	return append(dst, m.Deploy...)
}

func (m *Welcome) wireSize() int { return 1 + 8 + 1 }

func (m *Welcome) encode(dst []byte) []byte {
	dst = append(dst, byte(m.Version))
	dst = binary.BigEndian.AppendUint64(dst, m.ResumeFeed)
	flags := byte(0)
	if m.HasResult {
		flags |= 1
	}
	return append(dst, flags)
}

// Fixed encoded sizes: a feed's seq, flags and round count; a round's
// index, watermark, flags and group count; an item's round, tag, kind,
// edge and two watermarks. The last two are also the least a round or an
// item occupies, which bounds a wire-supplied count before it sizes anything.
const (
	feedHeaderSize  = 8 + 1 + 4
	roundHeaderSize = 4 + 8 + 1 + 4
	itemHeaderSize  = 4 + 8 + 1 + 4 + 8 + 8
)

// WireSize is the round's exact encoded size; a feed's frame payload is
// feedHeaderSize plus its rounds' sizes, which is what lets the
// splitter's driver cut feeds by bytes before SendFeed ever sees them.
//
//qap:hot
func (r *Round) WireSize() int {
	n := roundHeaderSize
	for gi := range r.Groups {
		g := &r.Groups[gi]
		n += 8 + 2 + 4 + 1 + 4
		if g.Cols != nil {
			n += exec.ColBatchWireSize(g.Cols)
		} else {
			n += exec.BatchWireSize(g.Tuples)
		}
	}
	return n
}

func (m *FeedMsg) wireSize() int {
	n := feedHeaderSize
	for i := range m.Rounds {
		n += m.Rounds[i].WireSize()
	}
	return n
}

//qap:hot
func (m *FeedMsg) encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	flags := byte(0)
	if m.Last {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Rounds)))
	for i := range m.Rounds {
		r := &m.Rounds[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Round))
		dst = binary.BigEndian.AppendUint64(dst, r.WM)
		rf := byte(0)
		if r.Adv {
			rf |= 1
		}
		if r.Flush {
			rf |= 2
		}
		dst = append(dst, rf)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Groups)))
		for gi := range r.Groups {
			g := &r.Groups[gi]
			dst = binary.BigEndian.AppendUint64(dst, g.Tag)
			dst = binary.BigEndian.AppendUint16(dst, uint16(g.Stream))
			dst = binary.BigEndian.AppendUint32(dst, uint32(g.Part))
			if g.Cols != nil {
				dst = append(dst, groupCols)
				dst = appendColBlob(dst, g.Cols)
			} else {
				dst = append(dst, groupRows)
				dst = appendBatchBlob(dst, g.Tuples)
			}
		}
	}
	return dst
}

func (m *LinkMsg) wireSize() int {
	n := 8 + 1 + 8 + 4
	for i := range m.Items {
		it := &m.Items[i]
		n += itemHeaderSize
		if it.Kind == ItemPushCols {
			n += 4 + exec.ColBatchWireSize(it.Cols)
		}
	}
	return n
}

//qap:hot
func (m *LinkMsg) encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	flags := byte(0)
	if m.Done {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.Through)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Items)))
	for i := range m.Items {
		it := &m.Items[i]
		dst = binary.BigEndian.AppendUint32(dst, uint32(it.Round))
		dst = binary.BigEndian.AppendUint64(dst, it.Tag)
		dst = append(dst, byte(it.Kind))
		dst = binary.BigEndian.AppendUint32(dst, uint32(it.Edge))
		dst = binary.BigEndian.AppendUint64(dst, it.WM)
		dst = binary.BigEndian.AppendUint64(dst, it.MWM)
		if it.Kind == ItemPushCols {
			dst = appendColBlob(dst, it.Cols)
		}
	}
	return dst
}

// resultMsg is a node's final result frame: the link-stream sequence
// and the executor's opaque payload.
type resultMsg struct{ payload []byte }

func (m *resultMsg) wireSize() int { return 8 + len(m.payload) }

func (m *resultMsg) encode(dst []byte) []byte {
	return append(binary.BigEndian.AppendUint64(dst, 0), m.payload...)
}

// ---- decoding ----

type protoDecoder struct {
	data []byte
	off  int
}

func (d *protoDecoder) fail(what string) error {
	return fmt.Errorf("live: truncated %s at offset %d", what, d.off)
}

func (d *protoDecoder) u8(what string) (byte, error) {
	if d.off >= len(d.data) {
		return 0, d.fail(what)
	}
	v := d.data[d.off]
	d.off++
	return v, nil
}

func (d *protoDecoder) u16(what string) (int, error) {
	if d.off+2 > len(d.data) {
		return 0, d.fail(what)
	}
	v := int(binary.BigEndian.Uint16(d.data[d.off:]))
	d.off += 2
	return v, nil
}

func (d *protoDecoder) u32(what string) (uint32, error) {
	if d.off+4 > len(d.data) {
		return 0, d.fail(what)
	}
	v := binary.BigEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *protoDecoder) u64(what string) (uint64, error) {
	if d.off+8 > len(d.data) {
		return 0, d.fail(what)
	}
	v := binary.BigEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

func (d *protoDecoder) str(what string) (string, error) {
	b, err := d.blob(what)
	return string(b), err
}

// blob reads a length-prefixed byte span; the result aliases the frame.
func (d *protoDecoder) blob(what string) ([]byte, error) {
	n, err := d.u32(what)
	if err != nil {
		return nil, err
	}
	if d.off+int(n) > len(d.data) {
		return nil, d.fail(what)
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *protoDecoder) batch(what string) (exec.Batch, error) {
	n, err := d.u32(what)
	if err != nil {
		return nil, err
	}
	if d.off+int(n) > len(d.data) {
		return nil, d.fail(what)
	}
	b, err := exec.DecodeBatchWire(d.data[d.off : d.off+int(n)])
	if err != nil {
		return nil, fmt.Errorf("live: %s: %w", what, err)
	}
	d.off += int(n)
	return b, nil
}

// colBatch decodes a length-prefixed column-batch blob into a pooled
// batch, which the caller owns on success.
func (d *protoDecoder) colBatch(what string) (*exec.ColBatch, error) {
	n, err := d.u32(what)
	if err != nil {
		return nil, err
	}
	if d.off+int(n) > len(d.data) {
		return nil, d.fail(what)
	}
	cb := exec.GetColBatch()
	if err := exec.DecodeColBatchWire(d.data[d.off:d.off+int(n)], cb); err != nil {
		exec.PutColBatch(cb)
		return nil, fmt.Errorf("live: %s at offset %d: %w", what, d.off, err)
	}
	d.off += int(n)
	return cb, nil
}

// flags reads a flags byte, refusing bits outside mask: one frame, one encoding.
func (d *protoDecoder) flags(what string, mask byte) (byte, error) {
	v, err := d.u8(what)
	if err == nil && v&^mask != 0 {
		err = fmt.Errorf("live: %s %#x at offset %d sets undefined bits", what, v, d.off-1)
	}
	return v, err
}

// count reads an element count and holds it to what the rest of the
// payload can carry at min bytes an element, before it sizes anything.
func (d *protoDecoder) count(what string, min int) (int, error) {
	n, err := d.u32(what)
	if rest := len(d.data) - d.off; err == nil && int64(n)*int64(min) > int64(rest) {
		err = fmt.Errorf("live: %s %d at offset %d exceeds what the remaining %d bytes can carry", what, n, d.off-4, rest)
	}
	return int(n), err
}

func (d *protoDecoder) finish(what string) error {
	if d.off != len(d.data) {
		return fmt.Errorf("live: %d trailing bytes after %s", len(d.data)-d.off, what)
	}
	return nil
}

func decodeHello(data []byte) (*Hello, error) {
	d := protoDecoder{data: data}
	m := &Hello{}
	v, err := d.u8("hello version")
	if err != nil {
		return nil, err
	}
	m.Version = int(v)
	host, err := d.u32("hello host")
	if err != nil {
		return nil, err
	}
	m.Host = int(host)
	bs, err := d.u32("hello batch size")
	if err != nil {
		return nil, err
	}
	m.BatchSize = int(bs)
	if m.ResumeLink, err = d.u64("hello resume"); err != nil {
		return nil, err
	}
	ns, err := d.u16("hello stream count")
	if err != nil {
		return nil, err
	}
	for i := 0; i < ns; i++ {
		s, err := d.str("hello stream name")
		if err != nil {
			return nil, err
		}
		m.Streams = append(m.Streams, s)
	}
	if m.Fingerprint, err = d.str("hello fingerprint"); err != nil {
		return nil, err
	}
	deploy, err := d.blob("hello deploy")
	if err != nil {
		return nil, err
	}
	if len(deploy) > 0 {
		// The frame buffer is reused for the session's later frames.
		m.Deploy = append([]byte(nil), deploy...)
	}
	return m, d.finish("hello")
}

func decodeWelcome(data []byte) (*Welcome, error) {
	d := protoDecoder{data: data}
	m := &Welcome{}
	v, err := d.u8("welcome version")
	if err != nil {
		return nil, err
	}
	m.Version = int(v)
	if m.ResumeFeed, err = d.u64("welcome resume"); err != nil {
		return nil, err
	}
	flags, err := d.u8("welcome flags")
	if err != nil {
		return nil, err
	}
	m.HasResult = flags&1 != 0
	return m, d.finish("welcome")
}

func decodeFeed(data []byte) (*FeedMsg, error) {
	m := &FeedMsg{}
	if err := m.decode(data); err != nil {
		m.releaseCols()
		return nil, err
	}
	return m, nil
}

// decode fills m from data. Column groups decode into pooled batches
// that m owns from the moment they are attached, error or not.
func (m *FeedMsg) decode(data []byte) error {
	d := protoDecoder{data: data}
	var err error
	if m.Seq, err = d.u64("feed seq"); err != nil {
		return err
	}
	flags, err := d.flags("feed flags", 1)
	if err != nil {
		return err
	}
	m.Last = flags&1 != 0
	nr, err := d.count("feed round count", roundHeaderSize)
	if err != nil {
		return err
	}
	m.Rounds = make([]Round, 0, nr)
	for i := 0; i < nr; i++ {
		m.Rounds = append(m.Rounds, Round{})
		r := &m.Rounds[i]
		rd, err := d.u32("round index")
		if err != nil {
			return err
		}
		r.Round = int(rd)
		if r.WM, err = d.u64("round watermark"); err != nil {
			return err
		}
		rf, err := d.flags("round flags", 3)
		if err != nil {
			return err
		}
		r.Adv, r.Flush = rf&1 != 0, rf&2 != 0
		ng, err := d.u32("round group count")
		if err != nil {
			return err
		}
		for g := uint32(0); g < ng; g++ {
			var gr Group
			if gr.Tag, err = d.u64("group tag"); err != nil {
				return err
			}
			if gr.Stream, err = d.u16("group stream"); err != nil {
				return err
			}
			part, err := d.u32("group partition")
			if err != nil {
				return err
			}
			gr.Part = int(part)
			kind, err := d.u8("group kind")
			if err != nil {
				return err
			}
			switch kind {
			case groupRows:
				gr.Tuples, err = d.batch("group tuples")
			case groupCols:
				gr.Cols, err = d.colBatch("group columns")
			default:
				err = fmt.Errorf("live: unknown group kind %d at offset %d", kind, d.off-1)
			}
			if err != nil {
				return err
			}
			r.Groups = append(r.Groups, gr)
		}
	}
	return d.finish("feed")
}

// releaseCols returns every column group's pooled batch; the message's
// column groups are gone afterwards.
func (m *FeedMsg) releaseCols() {
	for ri := range m.Rounds {
		for gi := range m.Rounds[ri].Groups {
			g := &m.Rounds[ri].Groups[gi]
			exec.PutColBatch(g.Cols)
			g.Cols = nil
		}
	}
}

func decodeLink(data []byte) (*LinkMsg, error) {
	m := &LinkMsg{}
	if err := m.decode(data); err != nil {
		ReleaseCols(m.Items)
		return nil, err
	}
	return m, nil
}

// decode fills m from data. Column items decode into pooled batches
// that m owns from the moment they are attached, error or not.
func (m *LinkMsg) decode(data []byte) error {
	d := protoDecoder{data: data}
	var err error
	if m.Seq, err = d.u64("link seq"); err != nil {
		return err
	}
	flags, err := d.flags("link flags", 1)
	if err != nil {
		return err
	}
	m.Done = flags&1 != 0
	through, err := d.u64("link through")
	if err != nil {
		return err
	}
	m.Through = int(int64(through))
	ni, err := d.count("link item count", itemHeaderSize)
	if err != nil {
		return err
	}
	m.Items = make([]Item, 0, ni)
	for i := 0; i < ni; i++ {
		m.Items = append(m.Items, Item{})
		it := &m.Items[i]
		rd, err := d.u32("item round")
		if err != nil {
			return err
		}
		it.Round = int(rd)
		if it.Tag, err = d.u64("item tag"); err != nil {
			return err
		}
		kindAt := d.off
		k, err := d.u8("item kind")
		if err != nil {
			return err
		}
		it.Kind = ItemKind(k)
		edge, err := d.u32("item edge")
		if err != nil {
			return err
		}
		it.Edge = int(edge)
		if it.WM, err = d.u64("item wm"); err != nil {
			return err
		}
		if it.MWM, err = d.u64("item mwm"); err != nil {
			return err
		}
		switch it.Kind {
		case ItemPushCols:
			it.Cols, err = d.colBatch("item columns")
		case ItemAdvance, ItemFlush:
		default:
			err = fmt.Errorf("live: unknown item kind %d at offset %d", k, kindAt)
		}
		if err != nil {
			return err
		}
	}
	return d.finish("link")
}

// decodeSeq peeks the leading sequence number shared by feed, link,
// and result frames.
func decodeSeq(data []byte) (uint64, error) {
	d := protoDecoder{data: data}
	return d.u64("frame seq")
}
