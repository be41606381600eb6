// Package trace is the deterministic causal tracing layer: structured
// event records keyed by deterministic identifiers — epoch, round,
// window, host, operator — and never by wall clock. Both cluster
// engines, the batched exec operators, and the adaptive controller
// emit into per-shard buffers (one single-writer shard per island plus
// one for the splitter/driver), and the collector concatenates shards
// in a fixed registration order, so the canonical export is
// byte-identical for any worker count, batch size, or engine.
//
// Wall-clock and engine-shape facts (workers, batch size, transport
// round/batch/link counters) are quarantined in a single trailing
// record of kind "timing", exactly like the run report's "timing" key:
// JSONL includes it, CanonicalJSONL strips it.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"qap/internal/obs"
)

// Event kinds. One flat record type keeps the JSONL schema trivial to
// scan and diff; kind selects which fields are meaningful.
const (
	// KindHeader opens a trace (or a phase of a composed adaptive
	// trace): cluster shape, window size, duration, partitioning.
	KindHeader = "header"
	// KindRound closes one splitter round: all packets sharing one
	// timestamp delivered, watermark advanced.
	KindRound = "round"
	// KindFlush is the end-of-stream flush round.
	KindFlush = "flush"
	// KindHostWindow is one island's counter deltas over one closed
	// monitoring window (the span record per-host load is rebuilt
	// from; central islands carry Central=true). Its CPU units are the
	// cost model's fixed-order dot product over the window's integer
	// counts, so they are as exact as the counts.
	KindHostWindow = "host_window"
	// KindOpWindow is one operator's integer counter deltas over one
	// closed monitoring window.
	KindOpWindow = "op_window"
	// KindEpochFlush marks an aggregation emitting closed epochs at a
	// watermark advance (or at end of stream).
	KindEpochFlush = "epoch_flush"
	// KindPaneFlush marks a sliding-window merge closing one pane.
	KindPaneFlush = "pane_flush"
	// Controller events, emitted by the adaptive repartitioner.
	KindTriggerEval  = "trigger_eval"
	KindTrigger      = "trigger"
	KindStatsRefresh = "stats_refresh"
	KindReanalyze    = "reanalyze"
	KindSwitch       = "switch"
	KindConfirm      = "confirm"
	KindReplay       = "replay"
	// KindTiming is the quarantined nondeterministic trailer: wall
	// time, workers, batch size, engine, transport counters. It is the
	// only record CanonicalJSONL omits.
	KindTiming = "timing"
)

// Event is one trace record. Every field except Kind is omitted from
// the JSON encoding at its zero value, which is lossless: decoding
// restores the zero value. Identity fields are deterministic trace
// coordinates; wall clock appears only in the KindTiming record.
type Event struct {
	Kind string `json:"kind"`
	// Phase labels the run a record belongs to in a composed trace
	// ("initial", "controller", "final"); empty for plain runs.
	Phase string `json:"phase,omitempty"`

	// Identity: deterministic coordinates.
	Window  int    `json:"window,omitempty"` // monitoring window index
	Round   int    `json:"round,omitempty"`  // splitter round index
	WM      uint64 `json:"wm,omitempty"`     // watermark (trace seconds)
	Host    int    `json:"host,omitempty"`   // leaf island host id
	Central bool   `json:"central,omitempty"`
	Op      int    `json:"op,omitempty"` // physical operator id
	OpKind  string `json:"op_kind,omitempty"`
	Query   string `json:"query,omitempty"`

	// Counters (deltas or event sizes, depending on kind).
	Rows        int64   `json:"rows,omitempty"`
	Groups      int64   `json:"groups,omitempty"`
	RowsIn      int64   `json:"rows_in,omitempty"`
	RowsOut     int64   `json:"rows_out,omitempty"`
	Advances    int64   `json:"advances,omitempty"`
	Flushes     int64   `json:"flushes,omitempty"`
	NetTuplesIn int64   `json:"net_tuples_in,omitempty"`
	NetBytesIn  int64   `json:"net_bytes_in,omitempty"`
	IPCTuplesIn int64   `json:"ipc_tuples_in,omitempty"`
	Tuples      int64   `json:"tuples,omitempty"`
	CPUUnits    float64 `json:"cpu_units,omitempty"`

	// Header fields.
	SchemaVersion  int     `json:"schema_version,omitempty"`
	Hosts          int     `json:"hosts,omitempty"`
	AggregatorHost int     `json:"aggregator_host,omitempty"`
	WindowSec      int     `json:"window_sec,omitempty"`
	DurationSec    float64 `json:"duration_sec,omitempty"`
	Partitioning   string  `json:"partitioning,omitempty"`

	// Controller fields.
	Bound  float64 `json:"bound,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Set    string  `json:"set,omitempty"`
	Note   string  `json:"note,omitempty"`

	// Quarantined fields: meaningful only on the KindTiming record.
	Engine    string `json:"engine,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`
	WallNanos int64  `json:"wall_nanos,omitempty"`
	Rounds    int64  `json:"rounds,omitempty"`
	Batches   int64  `json:"batches,omitempty"`
	LinkItems int64  `json:"link_items,omitempty"`
}

// Mode selects the per-shard buffering policy.
type Mode int

const (
	// ModeFull keeps every event (whole-run capture).
	ModeFull Mode = iota
	// ModeRing keeps the last RingSize events per shard — a bounded
	// flight recorder. Ring traces are still deterministic (the same
	// events are dropped on every run), but no longer reconstruct the
	// full load series.
	ModeRing
)

// DefaultRingSize bounds each shard in ModeRing when Config.RingSize
// is zero.
const DefaultRingSize = 4096

// Config configures trace capture for one run.
type Config struct {
	Mode Mode
	// RingSize is the per-shard capacity in ModeRing (0 = DefaultRingSize).
	RingSize int
}

// Collector owns a run's shards. Shards must be registered in a fixed
// order (the engines use: driver, leaf islands 0..H-1, central island)
// because Gather concatenates them in registration order to form the
// canonical event sequence.
type Collector struct {
	cfg    Config
	shards []*Shard
}

// NewCollector builds a collector for one run.
func NewCollector(cfg Config) *Collector {
	if cfg.Mode == ModeRing && cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	return &Collector{cfg: cfg}
}

// Config is the capture configuration, ring size defaulted.
func (c *Collector) Config() Config { return c.cfg }

// NewShard registers the next shard. Each shard has exactly one
// writer; different shards may be written from different goroutines.
func (c *Collector) NewShard() *Shard {
	s := &Shard{mode: c.cfg.Mode, ring: c.cfg.RingSize}
	c.shards = append(c.shards, s)
	return s
}

// Gather assembles the trace: header, then every shard's events in
// registration order, then the trailing records (the timing trailer).
// Call only after all shard writers have finished.
func (c *Collector) Gather(header Event, tail ...Event) *Trace {
	t := &Trace{Records: []Event{header}}
	for _, s := range c.shards {
		t.Records = append(t.Records, s.drain()...)
	}
	t.Records = append(t.Records, tail...)
	return t
}

// Shard is a single-writer event buffer.
type Shard struct {
	mode    Mode
	ring    int
	events  []Event
	start   int   // ring head when the ring has wrapped
	dropped int64 // events overwritten in ModeRing
}

// Emit appends an event. Nil-safe: a nil shard (tracing disabled)
// drops the event, so call sites can emit unconditionally behind one
// nil check.
func (s *Shard) Emit(e Event) {
	if s == nil {
		return
	}
	if s.mode == ModeRing && len(s.events) == s.ring {
		s.events[s.start] = e
		s.start = (s.start + 1) % s.ring
		s.dropped++
		return
	}
	s.events = append(s.events, e)
}

// EmitAll appends events in order. The live backend uses it to install
// a remote island's shipped shard into the local collector's shard.
func (s *Shard) EmitAll(events []Event) {
	if s == nil {
		return
	}
	for _, e := range events {
		s.Emit(e)
	}
}

// Events returns a copy of the shard's buffered events in emission
// order. The live backend uses it to serialize a remote island's shard;
// unlike drain it leaves the shard intact.
func (s *Shard) Events() []Event {
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.drain()...)
}

// Dropped reports how many events the ring overwrote.
func (s *Shard) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.dropped
}

// drain returns the shard's events in emission order.
func (s *Shard) drain() []Event {
	if s.start == 0 {
		return s.events
	}
	out := make([]Event, 0, len(s.events))
	out = append(out, s.events[s.start:]...)
	out = append(out, s.events[:s.start]...)
	return out
}

// Trace is a gathered event sequence.
type Trace struct {
	Records []Event
}

// WithPhase returns a copy of the trace with every record's Phase set,
// for composing multi-run traces (adaptive initial/final).
func (t *Trace) WithPhase(phase string) *Trace {
	if t == nil {
		return nil
	}
	out := &Trace{Records: make([]Event, len(t.Records))}
	copy(out.Records, t.Records)
	for i := range out.Records {
		out.Records[i].Phase = phase
	}
	return out
}

// Append adds records in order (controller events, composed phases).
func (t *Trace) Append(events ...Event) {
	t.Records = append(t.Records, events...)
}

// JSONL encodes the full trace, one JSON object per line, timing
// trailer included.
func (t *Trace) JSONL() ([]byte, error) {
	return t.jsonl(true)
}

// CanonicalJSONL encodes the trace with every KindTiming record
// stripped. This is the determinism surface: canonical bytes are
// identical across workers, batch sizes, and engines.
func (t *Trace) CanonicalJSONL() ([]byte, error) {
	return t.jsonl(false)
}

func (t *Trace) jsonl(timing bool) ([]byte, error) {
	var buf bytes.Buffer
	for i := range t.Records {
		if !timing && t.Records[i].Kind == KindTiming {
			continue
		}
		b, err := json.Marshal(&t.Records[i])
		if err != nil {
			return nil, err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// ReadJSONL parses a JSONL trace (canonical or full).
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("trace: line %d: record has no kind", line)
		}
		t.Records = append(t.Records, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Header returns the first header record matching phase (any phase
// when phase is empty), or nil.
func (t *Trace) Header(phase string) *Event {
	for i := range t.Records {
		e := &t.Records[i]
		if e.Kind == KindHeader && (phase == "" || e.Phase == phase) {
			return e
		}
	}
	return nil
}

// Phases lists the distinct phases of the trace's headers, in order.
func (t *Trace) Phases() []string {
	var out []string
	seen := map[string]bool{}
	for i := range t.Records {
		e := &t.Records[i]
		if e.Kind == KindHeader && !seen[e.Phase] {
			seen[e.Phase] = true
			out = append(out, e.Phase)
		}
	}
	return out
}

// HostLoadSeries rebuilds the per-host load series of the phase's run
// from its host_window events. The result equals the engine's own
// obs.LoadWindow series (cluster.Result.LoadSeries) exactly: the events
// carry the per-island window deltas, and a host's CPU units add its
// leaf island's and then the central island's, the engine's order.
// Returns nil when the phase has no header or recorded no windows (e.g.
// an empty trace or a ring capture that dropped them all).
func (t *Trace) HostLoadSeries(phase string) []obs.LoadWindow {
	hdr := t.Header(phase)
	if hdr == nil || hdr.Hosts <= 0 || hdr.WindowSec <= 0 || hdr.DurationSec < 1 {
		return nil
	}
	winSec := uint64(hdr.WindowSec)
	maxTime := uint64(hdr.DurationSec) - 1 // DurationSec is maxTime+1
	final := int(maxTime/winSec) + 1
	series := make([]obs.LoadWindow, 0, final)
	for w := 0; w < final; w++ {
		lw := obs.LoadWindow{
			Window:   w,
			StartSec: uint64(w) * winSec,
			EndSec:   uint64(w+1) * winSec,
		}
		if lw.EndSec > maxTime+1 {
			lw.EndSec = maxTime + 1
		}
		lw.Hosts = make([]obs.HostWindow, hdr.Hosts)
		for h := range lw.Hosts {
			lw.Hosts[h].Host = h
		}
		series = append(series, lw)
	}
	any := false
	for i := range t.Records {
		e := &t.Records[i]
		if e.Kind != KindHostWindow || e.Phase != hdr.Phase {
			continue
		}
		if e.Window < 0 || e.Window >= final {
			continue
		}
		h := e.Host
		if e.Central {
			h = hdr.AggregatorHost
		}
		if h < 0 || h >= hdr.Hosts {
			continue
		}
		any = true
		hw := &series[e.Window].Hosts[h]
		hw.CPUUnits += e.CPUUnits
		hw.NetTuplesIn += e.NetTuplesIn
		hw.NetBytesIn += e.NetBytesIn
		hw.IPCTuplesIn += e.IPCTuplesIn
		hw.Tuples += e.Tuples
	}
	if !any {
		return nil
	}
	return series
}
