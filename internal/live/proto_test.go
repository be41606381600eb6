package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"qap/internal/exec"
	"qap/internal/sqlval"
)

func protoTuple(vals ...sqlval.Value) exec.Tuple { return exec.Tuple(vals) }

func protoBatch() exec.Batch {
	return exec.Batch{
		protoTuple(sqlval.Uint(7), sqlval.Int(-3), sqlval.Str("tcp")),
		protoTuple(sqlval.Uint(8), sqlval.Float(1.5), sqlval.Bool(true)),
	}
}

// protoIntCols is n rows of two uint columns with Int rows: the first
// mixes Uints, Ints and NULLs, the second Uints and Ints. Past 64 rows
// both bitmaps span more than one word.
func protoIntCols(t testing.TB, n int) *exec.ColBatch {
	t.Helper()
	rows := make(exec.Batch, n)
	for r := range rows {
		a, b := sqlval.Uint(uint64(r)), sqlval.Uint(uint64(r)<<40)
		switch {
		case r%5 == 0:
			a = sqlval.Null
		case r%3 == 0:
			a = sqlval.Int(-int64(r))
		}
		if r%4 == 1 {
			b = sqlval.Int(int64(r) - 1<<62)
		}
		rows[r] = protoTuple(a, b)
	}
	cb := new(exec.ColBatch)
	if !cb.SetFromRows(rows) || len(cb.Cols[0].Int) == 0 || len(cb.Cols[0].Valid) == 0 || len(cb.Cols[1].Int) == 0 {
		t.Fatal("the rows are not uint columns with Int rows and NULLs")
	}
	return cb
}

// sameCols holds got to want value by value, bit-exactly.
func sameCols(t *testing.T, what string, want, got *exec.ColBatch) {
	t.Helper()
	if want.Len != got.Len || len(want.Cols) != len(got.Cols) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Len, len(got.Cols), want.Len, len(want.Cols))
	}
	for c := range want.Cols {
		for r := 0; r < want.Len; r++ {
			if w, g := want.Cols[c].Value(r), got.Cols[c].Value(r); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s: column %d row %d is %v, want %v", what, c, r, g, w)
			}
		}
	}
}

// protoCols is protoBatch plus a NULL, as a column batch.
func protoCols(t testing.TB) *exec.ColBatch {
	t.Helper()
	cb := new(exec.ColBatch)
	rows := exec.Batch{
		protoTuple(sqlval.Uint(7), sqlval.Int(-3), sqlval.Str("tcp")),
		protoTuple(sqlval.Uint(8), sqlval.Null, sqlval.Str("")),
	}
	if !cb.SetFromRows(rows) {
		t.Fatal("proto rows are not columnar")
	}
	return cb
}

// TestHelloRoundTrip: a Hello must decode back bit-identical, including
// the stream cursor order the node's delivery tags are defined against
// and the deployment a remote node compiles, which must outlive the
// frame buffer; every strict prefix must be refused as truncated.
func TestHelloRoundTrip(t *testing.T) {
	for _, deploy := range [][]byte{nil, []byte(`{"schema":"...","hosts":2}`)} {
		in := &Hello{
			Version:     ProtocolVersion,
			Host:        3,
			BatchSize:   256,
			ResumeLink:  1<<40 | 17,
			Streams:     []string{"tcp", "udp"},
			Fingerprint: "plan=abc bs=256",
			Deploy:      deploy,
		}
		enc := in.encode(nil)
		if in.wireSize() != len(enc) {
			t.Fatalf("hello wireSize = %d, encoding is %d bytes", in.wireSize(), len(enc))
		}
		out, err := decodeHello(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("hello round-trip:\n in=%+v\nout=%+v", in, out)
		}
		// The decoded Deploy outlives the frame buffer it came in.
		for i := range enc {
			enc[i] = 0
		}
		if !reflect.DeepEqual(in.Deploy, out.Deploy) {
			t.Fatalf("decoded Deploy aliases the frame: %q", out.Deploy)
		}
		enc = in.encode(nil)
		for n := 0; n < len(enc); n++ {
			if _, err := decodeHello(enc[:n]); err == nil || !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("hello cut to %d of %d bytes: err = %v, want a truncation", n, len(enc), err)
			}
		}
	}
}

// TestWelcomeRoundTrip covers both flag settings.
func TestWelcomeRoundTrip(t *testing.T) {
	for _, in := range []*Welcome{
		{Version: ProtocolVersion, ResumeFeed: 0, HasResult: false},
		{Version: ProtocolVersion, ResumeFeed: 99, HasResult: true},
	} {
		enc := in.encode(nil)
		if in.wireSize() != len(enc) {
			t.Fatalf("welcome wireSize = %d, encoding is %d bytes", in.wireSize(), len(enc))
		}
		out, err := decodeWelcome(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("welcome round-trip:\n in=%+v\nout=%+v", in, out)
		}
	}
}

// TestFeedRoundTrip: rounds, flags, and embedded batch blobs — row and
// column groups mixed in one round — all survive the wire. The decoded
// message must compare equal except for nil-vs-empty slice headers,
// which the encoding cannot distinguish.
func TestFeedRoundTrip(t *testing.T) {
	in := &FeedMsg{
		Seq:  5,
		Last: true,
		Rounds: []Round{
			{Round: 0, WM: 16, Adv: true, Flush: false, Groups: []Group{
				{Tag: 1, Stream: 0, Part: 2, Tuples: protoBatch()},
				{Tag: 5, Stream: 0, Part: 3, Cols: protoCols(t)},
				{Tag: 9, Stream: 1, Part: 0, Tuples: exec.Batch{protoTuple(sqlval.Null)}},
				{Tag: 11, Stream: 1, Part: 1, Cols: &exec.ColBatch{}},
			}},
			{Round: 1, WM: 32, Adv: false, Flush: true},
		},
	}
	enc := in.encode(nil)
	if in.wireSize() != len(enc) {
		t.Fatalf("feed wireSize = %d, encoding is %d bytes", in.wireSize(), len(enc))
	}
	out, err := decodeFeed(enc)
	if err != nil {
		t.Fatal(err)
	}
	defer out.releaseCols()
	if out.Seq != in.Seq || out.Last != in.Last || len(out.Rounds) != len(in.Rounds) {
		t.Fatalf("feed header round-trip: %+v", out)
	}
	for i := range in.Rounds {
		ri, ro := in.Rounds[i], out.Rounds[i]
		if ri.Round != ro.Round || ri.WM != ro.WM || ri.Adv != ro.Adv || ri.Flush != ro.Flush {
			t.Fatalf("round %d: in=%+v out=%+v", i, ri, ro)
		}
		if len(ri.Groups) != len(ro.Groups) {
			t.Fatalf("round %d: %d groups decoded, want %d", i, len(ro.Groups), len(ri.Groups))
		}
		for g := range ri.Groups {
			gin, gout := ri.Groups[g], ro.Groups[g]
			if gin.Tag != gout.Tag || gin.Stream != gout.Stream || gin.Part != gout.Part {
				t.Fatalf("round %d group %d: in=%+v out=%+v", i, g, gin, gout)
			}
			if !reflect.DeepEqual(gin.Tuples, gout.Tuples) {
				t.Fatalf("round %d group %d tuples differ", i, g)
			}
			if (gin.Cols == nil) != (gout.Cols == nil) {
				t.Fatalf("round %d group %d changed kind on the wire", i, g)
			}
			if gin.Cols != nil && !reflect.DeepEqual(gin.Cols.AppendRows(nil), gout.Cols.AppendRows(nil)) {
				t.Fatalf("round %d group %d columns differ", i, g)
			}
		}
	}
}

// TestLinkRoundTrip exercises all three item kinds plus the negative
// Through sentinel a node uses before its first completed round. A
// column item decodes into a pooled batch equal to the one encoded — a
// NULL bitmap, a string column and Int rows included — which the
// message owns until ReleaseCols.
func TestLinkRoundTrip(t *testing.T) {
	in := &LinkMsg{
		Seq:     11,
		Through: -1,
		Done:    true,
		Items: []Item{
			{Round: 0, Tag: 4, Kind: ItemPushCols, Edge: 2, WM: 16, MWM: 8, Cols: protoIntCols(t, 7)},
			{Round: 0, Tag: 5, Kind: ItemPushCols, Edge: 2, WM: 16, MWM: 8, Cols: protoIntCols(t, 130)},
			{Round: 0, Tag: 6, Kind: ItemPushCols, Edge: 1, WM: 16, MWM: 8, Cols: protoCols(t)},
			{Round: 1, Tag: 0, Kind: ItemAdvance, Edge: 3, WM: 32, MWM: 16},
			{Round: 1, Tag: 1, Kind: ItemFlush, Edge: 3, WM: 32, MWM: 32},
			{Round: 1, Tag: 2, Kind: ItemPushCols, Edge: 1, WM: 32, MWM: 32, Cols: &exec.ColBatch{}},
		},
	}
	enc := in.encode(nil)
	if in.wireSize() != len(enc) {
		t.Fatalf("link wireSize = %d, encoding is %d bytes", in.wireSize(), len(enc))
	}
	out, err := decodeLink(enc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Through != in.Through || out.Done != in.Done || len(out.Items) != len(in.Items) {
		t.Fatalf("link header round-trip: %+v", out)
	}
	for i := range in.Items {
		iin, iout := in.Items[i], out.Items[i]
		if (iin.Cols == nil) != (iout.Cols == nil) {
			t.Fatalf("item %d changed kind on the wire", i)
		}
		if iin.Cols != nil {
			sameCols(t, fmt.Sprintf("item %d", i), iin.Cols, iout.Cols)
		}
		iin.Cols, iout.Cols = nil, nil
		if !reflect.DeepEqual(iin, iout) {
			t.Fatalf("item %d round-trip:\n in=%+v\nout=%+v", i, iin, iout)
		}
	}
	ReleaseCols(out.Items)
	for i := range out.Items {
		if out.Items[i].Cols != nil {
			t.Fatalf("item %d still holds its batch after ReleaseCols", i)
		}
	}
	// Host is stamped by the receiving session, never carried.
	if out.Host != 0 {
		t.Fatalf("decoded link carries host %d", out.Host)
	}
}

// TestDecodeSeq: the seq peek shared by feed, link, and result frames.
func TestDecodeSeq(t *testing.T) {
	m := &FeedMsg{Seq: 1 << 33}
	seq, err := decodeSeq(m.encode(nil))
	if err != nil || seq != 1<<33 {
		t.Fatalf("decodeSeq = %d, %v", seq, err)
	}
	if _, err := decodeSeq([]byte{1, 2}); err == nil {
		t.Fatal("decodeSeq accepted a short frame")
	}
}

// TestDecodeTruncation: every strict prefix of a valid frame must be
// rejected with a positioned error, never a panic or a silent partial
// decode — the property that makes a torn TCP read safe.
func TestDecodeTruncation(t *testing.T) {
	hello := (&Hello{Version: ProtocolVersion, Streams: []string{"tcp"}, Fingerprint: "f"}).encode(nil)
	welcome := (&Welcome{Version: ProtocolVersion, HasResult: true}).encode(nil)
	feed := (&FeedMsg{Seq: 1, Rounds: []Round{{WM: 16, Groups: []Group{{Tuples: protoBatch()}, {Cols: protoCols(t)}}}}}).encode(nil)
	link := (&LinkMsg{Seq: 2, Items: []Item{
		{Kind: ItemPushCols, Cols: protoIntCols(t, 70)}, {Kind: ItemPushCols, Cols: protoCols(t)}, {Kind: ItemFlush},
	}}).encode(nil)
	cases := []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"hello", hello, func(b []byte) error { _, err := decodeHello(b); return err }},
		{"welcome", welcome, func(b []byte) error { _, err := decodeWelcome(b); return err }},
		{"feed", feed, func(b []byte) error {
			m, err := decodeFeed(b)
			if err == nil {
				m.releaseCols()
			}
			return err
		}},
		{"link", link, func(b []byte) error {
			m, err := decodeLink(b)
			if err == nil {
				ReleaseCols(m.Items)
			}
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.decode(tc.data); err != nil {
			t.Fatalf("%s: full frame rejected: %v", tc.name, err)
		}
		for n := 0; n < len(tc.data); n++ {
			if err := tc.decode(tc.data[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte frame decoded", tc.name, n, len(tc.data))
			}
		}
		// Trailing garbage is rejected too: frames are delimited by the
		// transport, so slack bytes mean a framing bug.
		if err := tc.decode(append(append([]byte(nil), tc.data...), 0)); err == nil ||
			!strings.Contains(err.Error(), "trailing bytes") {
			t.Fatalf("%s: trailing byte not rejected (err %v)", tc.name, err)
		}
	}
}

// TestDecodeLinkBadItems: an unknown kind byte is refused — kinds 0 and
// 1 too, protocol 3's single-row item and protocol 4's rows item, whose
// payloads a protocol 5 peer never sends.
func TestDecodeLinkBadItems(t *testing.T) {
	bad := (&LinkMsg{Items: []Item{{Kind: ItemKind(9)}}}).encode(nil)
	if _, err := decodeLink(bad); err == nil || !strings.Contains(err.Error(), "unknown item kind") {
		t.Fatalf("unknown kind not rejected (err %v)", err)
	}

	// Kind-0 and kind-1 items with their rows cannot be produced by
	// encode; build the frames by hand.
	for _, kind := range []byte{0, 1} {
		var dst []byte
		dst = binary.BigEndian.AppendUint64(dst, 1) // seq
		dst = append(dst, 0)                        // flags
		dst = binary.BigEndian.AppendUint64(dst, 0) // through
		dst = binary.BigEndian.AppendUint32(dst, 1) // item count
		dst = binary.BigEndian.AppendUint32(dst, 0) // round
		dst = binary.BigEndian.AppendUint64(dst, 0) // tag
		dst = append(dst, kind)                     // kind
		dst = binary.BigEndian.AppendUint32(dst, 0) // edge
		dst = binary.BigEndian.AppendUint64(dst, 0) // wm
		dst = binary.BigEndian.AppendUint64(dst, 0) // mwm
		dst = appendBatchBlob(dst, protoBatch())    // the rows
		want := fmt.Sprintf("unknown item kind %d at offset 33", kind)
		if _, err := decodeLink(dst); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("a kind-%d item not rejected with %q (err %v)", kind, want, err)
		}
	}
}

// TestDecodeLinkHostileCount: a 21-byte link frame announcing 2^31-1
// items must fail on the count, positioned, having allocated next to
// nothing. (The decoder used to size the item slice from the count
// first: 206 GB, a fatal out-of-memory that took the splitter down.)
func TestDecodeLinkHostileCount(t *testing.T) {
	hostileCount(t, hostileCountFrame(&LinkMsg{Seq: 1}), "link item count 2147483647 at offset 17", func(b []byte) error { _, err := decodeLink(b); return err })
	// The largest count a frame can back is still accepted: 2 items.
	ok := (&LinkMsg{Items: []Item{{Kind: ItemAdvance}, {Kind: ItemFlush}}}).encode(nil)
	if _, err := decodeLink(ok); err != nil {
		t.Fatal(err)
	}
	ok[len(ok)-2*itemHeaderSize-1] = 3 // ...and one more than it can back is not
	if _, err := decodeLink(ok); err == nil || !strings.Contains(err.Error(), "link item count 3") {
		t.Fatalf("a count one past the payload was not refused on the count (err %v)", err)
	}
}

// TestDecodeFeedHostileCount is the same for a feed's round count, which
// would have taken the node down.
func TestDecodeFeedHostileCount(t *testing.T) {
	hostileCount(t, hostileCountFrame(&FeedMsg{Seq: 1}), "feed round count 2147483647 at offset 9", func(b []byte) error { _, err := decodeFeed(b); return err })
}

func hostileCount(t *testing.T, frame []byte, want string, decode func([]byte) error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(frame)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("hostile count: err %v, want one containing %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("refusing a %d-byte frame allocated %d bytes", len(frame), got)
	}
}

// TestDecodeGroupBlobCorrupt: a group blob whose inner bytes fail the
// exec codec — rows or columns — must surface the positioned wire
// error, not a panic, and so must a group kind byte nobody defined.
func TestDecodeGroupBlobCorrupt(t *testing.T) {
	header := func(kind byte) []byte {
		var dst []byte
		dst = binary.BigEndian.AppendUint64(dst, 1) // seq
		dst = append(dst, 0)                        // flags
		dst = binary.BigEndian.AppendUint32(dst, 1) // round count
		dst = binary.BigEndian.AppendUint32(dst, 0) // round
		dst = binary.BigEndian.AppendUint64(dst, 0) // wm
		dst = append(dst, 0)                        // round flags
		dst = binary.BigEndian.AppendUint32(dst, 1) // group count
		dst = binary.BigEndian.AppendUint64(dst, 0) // tag
		dst = binary.BigEndian.AppendUint16(dst, 0) // stream
		dst = binary.BigEndian.AppendUint32(dst, 0) // part
		return append(dst, kind)
	}
	// A row blob announcing one tuple but carrying no bytes for it.
	rows := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(header(groupRows), 4), 1)
	if _, err := decodeFeed(rows); err == nil || !strings.Contains(err.Error(), "group tuples") {
		t.Fatalf("corrupt row blob not rejected (err %v)", err)
	}
	// A column blob announcing one row of one column, then nothing.
	cols := append(binary.BigEndian.AppendUint32(header(groupCols), 6), 1, 0, 0, 0, 1, 0)
	_, err := decodeFeed(cols)
	var we *exec.WireError
	if err == nil || !strings.Contains(err.Error(), "group columns") || !errors.As(err, &we) {
		t.Fatalf("corrupt column blob not rejected with a wire error (err %v)", err)
	}
	if _, err := decodeFeed(binary.BigEndian.AppendUint32(header(7), 0)); err == nil || !strings.Contains(err.Error(), "unknown group kind 7") {
		t.Fatalf("unknown group kind not rejected (err %v)", err)
	}
}
