package live

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"qap/internal/exec"
	"qap/internal/sqlval"
)

// The two frame decoders take bytes a peer chose. FuzzLinkCodec and
// FuzzFeedCodec hold both to the same contract (checkFrameCodec):
// arbitrary input never panics and never allocates more than a constant
// times its own length, a rejection is positioned, and an accepted
// message is canonical — wireSize and encode give the input back, byte
// for byte — and returns every pooled batch it decoded into.

// fuzzCols builds a column batch from rows, which must pivot.
func fuzzCols(f *testing.F, rows ...exec.Tuple) *exec.ColBatch {
	cb := new(exec.ColBatch)
	if !cb.SetFromRows(exec.Batch(rows)) {
		f.Fatal("seed rows are not columnar")
	}
	return cb
}

// fuzzColShapes are the column batches the seeds carry: a NULL bitmap
// next to a string column, Int rows among NULLs in two and in 70 rows,
// an all-NULL column, zero rows of two columns, and no shape at all.
func fuzzColShapes(f *testing.F) []*exec.ColBatch {
	return []*exec.ColBatch{
		protoCols(f),
		protoIntCols(f, 11),
		protoIntCols(f, 70),
		fuzzCols(f, protoTuple(sqlval.Null, sqlval.Uint(1)), protoTuple(sqlval.Null, sqlval.Uint(2))),
		{Cols: []exec.ColVec{{Kind: sqlval.KindUint}, {Kind: sqlval.KindFloat}}},
		{},
	}
}

// hostileCountFrame is m's encoding with its trailing element count —
// m carries no rounds or items, so the count is the frame's last four
// bytes — replaced by 2^31-1.
func hostileCountFrame(m wireMsg) []byte {
	frame := m.encode(nil)
	copy(frame[len(frame)-4:], []byte{0x7f, 0xff, 0xff, 0xff})
	return frame
}

func FuzzLinkCodec(f *testing.F) {
	every := &LinkMsg{Seq: 3, Through: 7, Done: true, Items: []Item{
		{Round: 1, Tag: 0, Kind: ItemAdvance, Edge: 3, WM: 32, MWM: 16},
		{Round: 1, Tag: 1, Kind: ItemFlush, Edge: 3, MWM: 32},
	}}
	for i, cb := range fuzzColShapes(f) {
		every.Items = append(every.Items, Item{Round: 2, Tag: uint64(i), Kind: ItemPushCols, Edge: 1, MWM: 48, Cols: cb})
	}
	f.Add(every.encode(nil))
	f.Add((&LinkMsg{Through: -1}).encode(nil))
	f.Add((&LinkMsg{Items: []Item{{Kind: ItemKind(9)}}}).encode(nil))
	f.Add((&LinkMsg{Items: []Item{{Kind: ItemKind(1)}}}).encode(nil))
	f.Add(hostileCountFrame(&LinkMsg{Seq: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameCodec(t, data, func(data []byte) (wireMsg, func() bool, error) {
			m, err := decodeLink(data)
			if err != nil {
				return nil, nil, err
			}
			return m, func() bool {
				ReleaseCols(m.Items)
				for i := range m.Items {
					if m.Items[i].Cols != nil {
						return false
					}
				}
				return true
			}, nil
		})
	})
}

func FuzzFeedCodec(f *testing.F) {
	every := &FeedMsg{Seq: 5, Last: true, Rounds: []Round{
		{Round: 0, WM: 16, Adv: true, Groups: []Group{
			{Tag: 1, Stream: 0, Part: 2, Tuples: protoBatch()},
			{Tag: 9, Stream: 1, Part: 0, Tuples: exec.Batch{}},
		}},
		{Round: 1, WM: 32, Flush: true},
	}}
	for i, cb := range fuzzColShapes(f) {
		every.Rounds[0].Groups = append(every.Rounds[0].Groups, Group{Tag: uint64(20 + i), Part: i, Cols: cb})
	}
	f.Add(every.encode(nil))
	f.Add((&FeedMsg{}).encode(nil))
	f.Add(hostileCountFrame(&FeedMsg{Seq: 1}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameCodec(t, data, func(data []byte) (wireMsg, func() bool, error) {
			m, err := decodeFeed(data)
			if err != nil {
				return nil, nil, err
			}
			return m, func() bool {
				m.releaseCols()
				for ri := range m.Rounds {
					for gi := range m.Rounds[ri].Groups {
						if m.Rounds[ri].Groups[gi].Cols != nil {
							return false
						}
					}
				}
				return true
			}, nil
		})
	})
}

// checkFrameCodec decodes data and checks the contract above. decode
// returns the message and its release, which reports whether the message
// holds no pooled batch afterwards.
func checkFrameCodec(t *testing.T, data []byte, decode func([]byte) (wireMsg, func() bool, error)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, release, err := decode(data)
	runtime.ReadMemStats(&after)
	// A decoded value is at most 32 bytes of memory to its byte of wire
	// (a NULL in a row), a column header 40 to its two; the slack covers
	// the message itself, an error's text, and the runtime's own doings.
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > bound {
		t.Fatalf("decoding %d bytes allocated %d, over the bound of %d", len(data), got, bound)
	}
	if err != nil {
		var we *exec.WireError
		if msg := err.Error(); !errors.As(err, &we) && !strings.Contains(msg, "offset") && !strings.Contains(msg, "trailing bytes") {
			t.Fatalf("rejection is not positioned: %v", err)
		}
		return
	}
	if got := m.wireSize(); got != len(data) {
		t.Fatalf("wireSize = %d for a %d-byte encoding", got, len(data))
	}
	if re := m.encode(nil); !bytes.Equal(re, data) {
		t.Fatalf("decode accepted non-canonical input:\n in:  %x\n out: %x", data, re)
	}
	if !release() {
		t.Fatal("the message still holds a pooled batch after its release")
	}
}
