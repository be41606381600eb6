// Package obs is the deterministic observability layer: plain counter
// structs the execution engine and the partitioning search accumulate
// into, and machine-readable renderings of a run (JSON run reports,
// Prometheus-style text).
//
// The package draws a hard line between two kinds of data:
//
//   - Deterministic counters (OpStats, SearchStats except its
//     wall-clock spans, HostReport, NodeReport): pure functions of the
//     input trace and the plan. The cluster engine shards them per
//     execution island and merges shards in a fixed order, so they are
//     bit-equal for any worker count — the same guarantee the engine
//     already makes for query outputs and host metrics.
//
//   - Wall-clock timing (Timing, SearchStats.EnumerateNanos/CostNanos):
//     measured with time.Now and kept strictly outside deterministic
//     state. In a RunReport every nondeterministic or
//     configuration-varying field lives under the single top-level
//     "timing" JSON key; strip that one key and two reports of the same
//     trace are byte-identical regardless of worker count.
//
// obs deliberately imports nothing from the rest of the repository so
// that every layer (core, cluster, the root package, the cmds) can
// depend on it without cycles.
package obs

import (
	"encoding/json"
	"os"
)

// SchemaVersion is the current version of the JSON report formats.
// Bump it when a field changes meaning or is removed; adding fields is
// backward compatible and does not bump.
const SchemaVersion = 1

// OpStats holds one physical operator's deterministic counters. The
// integer fields are accumulated on the operator's execution island;
// CPUUnits is computed from them once, when the run finishes. All are
// bit-equal for any engine, worker count or batch size.
type OpStats struct {
	// RowsIn counts tuples delivered to the operator's input ports
	// (for a join: probes into either hash table).
	RowsIn int64 `json:"rows_in"`
	// RowsOut counts tuples the operator emitted (for a join: matches
	// plus outer-join padding; for a window: flushed window results).
	RowsOut int64 `json:"rows_out"`
	// Advances counts watermark deliveries to the operator's inputs.
	Advances int64 `json:"advances"`
	// Flushes counts end-of-stream flush deliveries to the operator's
	// inputs (a window operator's final pane flushes ride on these and
	// on Advances).
	Flushes int64 `json:"flushes"`
	// CPUUnits is the work charged to the operator: RowsIn times its
	// per-tuple operator cost, plus NetTuplesIn and IPCTuplesIn times
	// the remote and IPC surcharges.
	CPUUnits float64 `json:"cpu_units"`
	// NetTuplesIn / NetBytesIn count arrivals that crossed hosts.
	NetTuplesIn int64 `json:"net_tuples_in"`
	NetBytesIn  int64 `json:"net_bytes_in"`
	// IPCTuplesIn counts same-host arrivals that crossed a process
	// boundary.
	IPCTuplesIn int64 `json:"ipc_tuples_in"`
}

// Sub returns the counter-wise difference s - o: the activity between
// two snapshots of the same operator.
func (s OpStats) Sub(o OpStats) OpStats {
	return OpStats{
		RowsIn:      s.RowsIn - o.RowsIn,
		RowsOut:     s.RowsOut - o.RowsOut,
		Advances:    s.Advances - o.Advances,
		Flushes:     s.Flushes - o.Flushes,
		CPUUnits:    s.CPUUnits - o.CPUUnits,
		NetTuplesIn: s.NetTuplesIn - o.NetTuplesIn,
		NetBytesIn:  s.NetBytesIn - o.NetBytesIn,
		IPCTuplesIn: s.IPCTuplesIn - o.IPCTuplesIn,
	}
}

// NodeReport is one physical operator's identity plus its measured
// stats in a RunReport.
type NodeReport struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"`
	// Query is the logical query node the operator implements, or the
	// scanned stream name for scans.
	Query string `json:"query,omitempty"`
	Host  int    `json:"host"`
	// Partition is the stream partition served, or -1 for host-level
	// and central operators.
	Partition int `json:"partition"`
	OpStats
	// PassRate is RowsOut/RowsIn (0 when no input): the measured
	// selectivity of a select/project, the match rate of a join, the
	// reduction factor of an aggregation.
	PassRate float64 `json:"pass_rate"`
}

// HostReport is one simulated host's accounting in a RunReport.
type HostReport struct {
	Host            int     `json:"host"`
	CPUUnits        float64 `json:"cpu_units"`
	CPULoadPct      float64 `json:"cpu_load_pct"`
	OverloadFactor  float64 `json:"overload_factor"`
	NetTuplesIn     int64   `json:"net_tuples_in"`
	NetBytesIn      int64   `json:"net_bytes_in"`
	IPCTuplesIn     int64   `json:"ipc_tuples_in"`
	Tuples          int64   `json:"tuples"`
	NetTuplesPerSec float64 `json:"net_tuples_per_sec"`
}

// HostWindow is one host's deterministic counter deltas over one load
// window: what the host did during [window*W, (window+1)*W) of trace
// time, as opposed to HostReport's whole-run totals.
type HostWindow struct {
	Host        int     `json:"host"`
	CPUUnits    float64 `json:"cpu_units"`
	NetTuplesIn int64   `json:"net_tuples_in"`
	NetBytesIn  int64   `json:"net_bytes_in"`
	IPCTuplesIn int64   `json:"ipc_tuples_in"`
	Tuples      int64   `json:"tuples"`
}

// LoadWindow is one closed monitoring window of a run's load series:
// per-host counter deltas over [StartSec, EndSec) of trace time. The
// engines close windows at watermark boundaries in canonical event
// order, so the series is bit-equal for any worker count or batch
// size, like every other deterministic report section.
type LoadWindow struct {
	Window   int          `json:"window"`
	StartSec uint64       `json:"start_sec"`
	EndSec   uint64       `json:"end_sec"`
	Hosts    []HostWindow `json:"hosts"`
}

// MaxHostNetBytesPerSec returns the window's peak per-host network
// ingress rate in bytes per second — the measured quantity the
// Section 4.2.1 load bound constrains. Zero for an empty window.
func (w LoadWindow) MaxHostNetBytesPerSec() float64 {
	_, rate := w.MaxHost()
	return rate
}

// MaxHost returns the host with the window's peak network ingress —
// the lowest-numbered of those tied, -1 when no host received a byte —
// and that rate in bytes per second (MaxHostNetBytesPerSec).
func (w LoadWindow) MaxHost() (host int, bytesPerSec float64) {
	host = -1
	maxBytes := int64(0)
	for i := range w.Hosts {
		if b := w.Hosts[i].NetBytesIn; b > maxBytes {
			host, maxBytes = w.Hosts[i].Host, b
		}
	}
	sec := float64(w.EndSec - w.StartSec)
	if sec <= 0 {
		return host, 0
	}
	return host, float64(maxBytes) / sec
}

// FirstLoadViolation scans a load series for the first window whose
// measured max-host network rate exceeds factor times the predicted
// bound (bytes per second), skipping the first warmup windows. It
// returns the window index and the offending rate, or -1 when the
// series stays within the inflated bound. This is the adaptive
// repartitioning trigger: deterministic, because the series itself is.
func FirstLoadViolation(series []LoadWindow, boundBytesPerSec, factor float64, warmup int) (int, float64) {
	if factor <= 0 {
		factor = 1
	}
	limit := boundBytesPerSec * factor
	for i := range series {
		if series[i].Window < warmup {
			continue
		}
		if rate := series[i].MaxHostNetBytesPerSec(); rate > limit {
			return series[i].Window, rate
		}
	}
	return -1, 0
}

// PlanInfo summarizes the physical plan a run executed.
type PlanInfo struct {
	Hosts             int `json:"hosts"`
	Partitions        int `json:"partitions"`
	PartitionsPerHost int `json:"partitions_per_host"`
	AggregatorHost    int `json:"aggregator_host"`
	// Partitioning is the splitter's hash set in its canonical text
	// form; empty means round-robin (query-agnostic) splitting.
	Partitioning string `json:"partitioning"`
	Operators    int    `json:"operators"`
}

// SearchStats instruments the partitioning search. All exported JSON
// fields are deterministic; the two Nanos
// spans are wall-clock and deliberately excluded from JSON (report
// builders that want them place them under Timing).
type SearchStats struct {
	// Enumerated counts candidate node subsets recorded by the DP
	// expansion (equals the length of the candidate list).
	Enumerated int64 `json:"enumerated"`
	// Pruned counts expansion steps discarded before recording: initial
	// sets unusable for the source streams plus failed reconciliations.
	Pruned int64 `json:"pruned"`
	// UniqueSets counts the distinct partitioning sets actually costed.
	UniqueSets int64 `json:"unique_sets"`
	// Deduped counts candidates whose set had already been costed
	// (Enumerated - UniqueSets).
	Deduped int64 `json:"deduped"`
	// CacheHits counts cost-model memo-cache hits outside the batch
	// evaluation (e.g. repeated baseline evaluations).
	CacheHits int64 `json:"cache_hits"`
	// EnumerateNanos and CostNanos are wall-clock spans of the two
	// search phases. They live outside the deterministic state and
	// outside the JSON encoding.
	EnumerateNanos int64 `json:"-"`
	CostNanos      int64 `json:"-"`
}

// SearchReport is the search's section of a report: the outcome plus
// the instrumentation counters.
type SearchReport struct {
	// Recommended is the chosen set's canonical text; empty when no
	// partitioning beats centralized execution.
	Recommended string  `json:"recommended"`
	BestCost    float64 `json:"best_cost"`
	CentralCost float64 `json:"central_cost"`
	Candidates  int     `json:"candidates"`
	SearchStats
}

// Timing collects wall-clock spans and engine-configuration details.
// Everything here either varies run to run (wall time) or varies with
// the execution configuration (worker count, engine choice, transport
// counters), so it is quarantined under the single top-level "timing"
// key of a RunReport: strip that key and reports are byte-identical
// across worker counts.
type Timing struct {
	// Workers is a run's configured worker count; nil in an analysis
	// report, whose search has none.
	Workers     *int   `json:"workers,omitempty"`
	Engine      string `json:"engine"` // "sequential", "parallel" or "live"
	BatchRounds int    `json:"batch_rounds,omitempty"`
	WallNanos   int64  `json:"wall_nanos"`
	// Rounds is the number of watermark rounds the driver played
	// (distinct timestamps plus the flush round).
	Rounds int64 `json:"rounds,omitempty"`
	// Batches and LinkItems count the engine's transport traffic: feed
	// messages shipped (one a round under the sequential engine) and
	// island-crossing deliveries replayed (none under the sequential
	// engine, which has no capture).
	Batches   int64 `json:"batches,omitempty"`
	LinkItems int64 `json:"link_items,omitempty"`
	// SearchEnumerateNanos / SearchCostNanos are the search phases'
	// wall-clock spans when the report covers an analysis.
	SearchEnumerateNanos int64 `json:"search_enumerate_nanos,omitempty"`
	SearchCostNanos      int64 `json:"search_cost_nanos,omitempty"`
}

// WriteJSON writes v to path as indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
