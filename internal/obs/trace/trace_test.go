package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"qap/internal/obs"
)

// sampleTrace is a small hand-built trace with two hosts, a central
// island, one monitoring window, and a timing trailer.
func sampleTrace() *Trace {
	return &Trace{Records: []Event{
		{Kind: KindHeader, SchemaVersion: obs.SchemaVersion, Hosts: 2,
			AggregatorHost: 1, WindowSec: 10, DurationSec: 8, Partitioning: "{srcIP}"},
		{Kind: KindRound, Round: 0, WM: 3, Rows: 5},
		{Kind: KindFlush, Round: 1, WM: 7},
		{Kind: KindHostWindow, Window: 0, Host: 0, NetTuplesIn: 5, NetBytesIn: 200, Tuples: 9, CPUUnits: 39.6},
		{Kind: KindHostWindow, Window: 0, Host: 1, IPCTuplesIn: 3, Tuples: 4, CPUUnits: 0.1},
		{Kind: KindHostWindow, Window: 0, Central: true, Tuples: 2, NetBytesIn: 40, NetTuplesIn: 1, CPUUnits: 0.2},
		{Kind: KindOpWindow, Window: 0, Host: 0, Op: 2, OpKind: "Aggregate",
			Query: "q0", RowsIn: 9, RowsOut: 3, Groups: 3},
		{Kind: KindEpochFlush, Host: 0, Op: 2, WM: 3, Groups: 2, Rows: 2},
		{Kind: KindTiming, Engine: "parallel", Workers: 4, BatchSize: 256,
			WallNanos: 12345, Rounds: 2, Batches: 2, LinkItems: 1},
	}}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	b, err := tr.JSONL()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("round trip changed records:\n got %+v\nwant %+v", got.Records, tr.Records)
	}
}

func TestCanonicalJSONLStripsTiming(t *testing.T) {
	tr := sampleTrace()
	b, err := tr.CanonicalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"timing"`)) || bytes.Contains(b, []byte("wall_nanos")) {
		t.Fatalf("canonical JSONL leaked the timing trailer:\n%s", b)
	}
	full, err := tr.JSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(full, []byte(`"kind":"timing"`)) {
		t.Fatalf("full JSONL missing the timing trailer:\n%s", full)
	}
	// Canonical output is the full output minus exactly the timing line.
	if got, want := bytes.Count(b, []byte("\n")), bytes.Count(full, []byte("\n"))-1; got != want {
		t.Fatalf("canonical has %d lines, want %d", got, want)
	}
}

func TestReadJSONLRejectsKindless(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"host":3}` + "\n")); err == nil {
		t.Fatal("expected an error for a record with no kind")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected an error for malformed JSON")
	}
	// Blank lines are tolerated.
	got, err := ReadJSONL(strings.NewReader("\n" + `{"kind":"flush"}` + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || got.Records[0].Kind != KindFlush {
		t.Fatalf("got %+v", got.Records)
	}
}

func TestOmitEmptyIsLossless(t *testing.T) {
	// A zero-valued event (apart from Kind) encodes to just the kind and
	// decodes back to the same zero values.
	b, err := json.Marshal(&Event{Kind: KindFlush})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"kind":"flush"}` {
		t.Fatalf("zero event encoded as %s", b)
	}
}

func TestRingModeKeepsLastEvents(t *testing.T) {
	c := NewCollector(Config{Mode: ModeRing, RingSize: 3})
	s := c.NewShard()
	for i := 0; i < 5; i++ {
		s.Emit(Event{Kind: KindRound, Round: i})
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped())
	}
	tr := c.Gather(Event{Kind: KindHeader, Hosts: 1, WindowSec: 1, DurationSec: 1})
	rounds := []int{}
	for _, e := range tr.Records {
		if e.Kind == KindRound {
			rounds = append(rounds, e.Round)
		}
	}
	if !reflect.DeepEqual(rounds, []int{2, 3, 4}) {
		t.Fatalf("ring kept rounds %v, want [2 3 4]", rounds)
	}
}

func TestRingDefaultSize(t *testing.T) {
	c := NewCollector(Config{Mode: ModeRing})
	s := c.NewShard()
	for i := 0; i < DefaultRingSize+10; i++ {
		s.Emit(Event{Kind: KindRound, Round: i})
	}
	if s.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", s.Dropped())
	}
}

func TestNilShardIsSafe(t *testing.T) {
	var s *Shard
	s.Emit(Event{Kind: KindRound})
	if s.Dropped() != 0 {
		t.Fatal("nil shard reported drops")
	}
}

func TestGatherConcatenatesInRegistrationOrder(t *testing.T) {
	c := NewCollector(Config{})
	a, b := c.NewShard(), c.NewShard()
	b.Emit(Event{Kind: KindRound, Round: 2}) // written "first" in time
	a.Emit(Event{Kind: KindRound, Round: 1})
	tr := c.Gather(Event{Kind: KindHeader}, Event{Kind: KindTiming})
	kinds := []string{}
	rounds := []int{}
	for _, e := range tr.Records {
		kinds = append(kinds, e.Kind)
		rounds = append(rounds, e.Round)
	}
	if !reflect.DeepEqual(kinds, []string{KindHeader, KindRound, KindRound, KindTiming}) {
		t.Fatalf("kinds = %v", kinds)
	}
	if rounds[1] != 1 || rounds[2] != 2 {
		t.Fatalf("registration order not respected: rounds = %v", rounds)
	}
}

func TestWithPhaseCopies(t *testing.T) {
	tr := sampleTrace()
	ph := tr.WithPhase("initial")
	if tr.Records[0].Phase != "" {
		t.Fatal("WithPhase mutated the original")
	}
	for _, e := range ph.Records {
		if e.Phase != "initial" {
			t.Fatalf("record %+v missing phase", e)
		}
	}
	if got := ph.Phases(); !reflect.DeepEqual(got, []string{"initial"}) {
		t.Fatalf("Phases() = %v", got)
	}
	if hdr := ph.Header("initial"); hdr == nil || hdr.Hosts != 2 {
		t.Fatalf("Header(initial) = %+v", hdr)
	}
	if hdr := ph.Header("final"); hdr != nil {
		t.Fatalf("Header(final) = %+v, want nil", hdr)
	}
}

func TestHostLoadSeriesRebuild(t *testing.T) {
	tr := sampleTrace()
	series := tr.HostLoadSeries("")
	if len(series) != 1 {
		t.Fatalf("got %d windows, want 1", len(series))
	}
	w := series[0]
	if w.Window != 0 || w.StartSec != 0 || w.EndSec != 8 {
		t.Fatalf("window geometry %+v", w)
	}
	// Host 0 is untouched by the central fold; host 1 (the aggregator)
	// absorbs the central island's counters, its CPU added after the
	// leaf island's in float64 (0.1+0.2, not the constant 0.3).
	leafCPU, centralCPU := 0.1, 0.2
	want := []obs.HostWindow{
		{Host: 0, CPUUnits: 39.6, NetTuplesIn: 5, NetBytesIn: 200, Tuples: 9},
		{Host: 1, CPUUnits: leafCPU + centralCPU, NetTuplesIn: 1, NetBytesIn: 40, IPCTuplesIn: 3, Tuples: 6},
	}
	if !reflect.DeepEqual(w.Hosts, want) {
		t.Fatalf("hosts:\n got %+v\nwant %+v", w.Hosts, want)
	}
}

func TestHostLoadSeriesNilCases(t *testing.T) {
	empty := &Trace{}
	if s := empty.HostLoadSeries(""); s != nil {
		t.Fatalf("empty trace produced a series: %+v", s)
	}
	// A header with no host_window events (e.g. a ring capture that
	// dropped them) yields nil, not an all-zero series.
	headerOnly := &Trace{Records: []Event{
		{Kind: KindHeader, Hosts: 2, WindowSec: 10, DurationSec: 30},
	}}
	if s := headerOnly.HostLoadSeries(""); s != nil {
		t.Fatalf("header-only trace produced a series: %+v", s)
	}
}

func TestChromeJSONDeterministicAndValid(t *testing.T) {
	tr := sampleTrace()
	a, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeJSON is not deterministic for identical input")
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &f); err != nil {
		t.Fatalf("ChromeJSON output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("ChromeJSON produced no events")
	}
	// No wall-clock timestamps: every ts must be trace time (bounded by
	// the run duration in microseconds, plus the window span).
	for _, e := range f.TraceEvents {
		if ts, ok := e["ts"].(float64); ok && ts > 100e6 {
			t.Fatalf("suspiciously large ts %v in %+v", ts, e)
		}
	}
}
