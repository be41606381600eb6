package exec

import "testing"

// scalarSink records the tuples pushed into it.
type scalarSink struct {
	rows []Tuple
}

func (s *scalarSink) Push(t Tuple)   { s.rows = append(s.rows, t) }
func (s *scalarSink) Advance(uint64) {}
func (s *scalarSink) Flush()         {}

func TestPushAllScalarFallback(t *testing.T) {
	s := &scalarSink{}
	b := Batch{Tuple{u(1)}, Tuple{u(2)}, Tuple{u(3)}}
	PushAll(s, b)
	if len(s.rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(s.rows))
	}
	for i, r := range s.rows {
		if !r[0].Equal(u(uint64(i + 1))) {
			t.Errorf("row %d = %v, want (%d)", i, r, i+1)
		}
	}
	// Empty batches push nothing.
	PushAll(s, nil)
	PushAll(&Collector{}, Batch{})
	if len(s.rows) != 3 {
		t.Errorf("empty batch added rows")
	}
}

func TestBatchPoolRoundTrip(t *testing.T) {
	b := GetBatch()
	if len(b) != 0 {
		t.Fatalf("fresh batch has len %d", len(b))
	}
	b = append(b, Tuple{u(1)}, Tuple{u(2)})
	PutBatch(b)
	got := GetBatch()
	if len(got) != 0 {
		t.Errorf("recycled batch not reset: len %d", len(got))
	}
	PutBatch(nil)     // zero-cap batches are dropped, not pooled
	PutBatch(Batch{}) // likewise
	PutBatch(got)
}
