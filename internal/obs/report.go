package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RunReport is the machine-readable record of one run (or one
// analysis): the plan, per-operator stats, per-host metrics, search
// instrumentation, and wall-clock timing.
//
// Determinism contract: every field outside Timing is a pure function
// of the inputs (trace, plan, configuration other than worker count).
// Two reports of the same run differ only under the "timing" key, so
// Canonical() — or deleting that key from the JSON — yields
// byte-identical documents for any worker count.
type RunReport struct {
	SchemaVersion  int          `json:"schema_version"`
	DurationSec    float64      `json:"duration_sec"`
	CapacityPerSec float64      `json:"capacity_per_sec"`
	Plan           *PlanInfo    `json:"plan,omitempty"`
	Nodes          []NodeReport `json:"nodes,omitempty"`
	Hosts          []HostReport `json:"hosts,omitempty"`
	// LoadWindowSec and LoadSeries are the online monitoring section:
	// per-host counter deltas per LoadWindowSec of trace time,
	// present only when the run enabled load monitoring. The series
	// is deterministic (bit-equal across engines and worker counts).
	LoadWindowSec int           `json:"load_window_sec,omitempty"`
	LoadSeries    []LoadWindow  `json:"load_series,omitempty"`
	Search        *SearchReport `json:"search,omitempty"`
	Timing        *Timing       `json:"timing,omitempty"`
}

// Canonical returns a shallow copy with the nondeterministic Timing
// section removed, the form differential tests compare byte for byte.
func (r *RunReport) Canonical() *RunReport {
	cp := *r
	cp.Timing = nil
	return &cp
}

// JSON renders the report as indented JSON with a trailing newline.
// encoding/json emits struct fields in declaration order, so the bytes
// are deterministic.
func (r *RunReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fnum renders a float the way Prometheus text exposition expects,
// with the shortest exact representation.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and newline take backslash escapes;
// everything else — including non-ASCII UTF-8 — passes through as-is.
// Go's %q is not a substitute: it emits \xNN/\uNNNN escapes the
// exposition format does not define, so a query name like "häufig"
// would render as an unparseable label value.
func labelEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// label renders one name="value" pair with proper value escaping.
func label(name, value string) string {
	return name + `="` + labelEscape(value) + `"`
}

// Prometheus renders the report in the Prometheus text exposition
// format (metric families sorted, nodes by ID, hosts by index), for
// scraping or for eyeballing a run. Timing is included as gauges when
// present; deterministic consumers should ignore the qap_timing_*
// family.
func (r *RunReport) Prometheus() string {
	var b strings.Builder
	emit := func(name, typ, help string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, l := range lines {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}

	if r.DurationSec > 0 {
		emit("qap_run_duration_seconds", "gauge", "Simulated trace duration.",
			[]string{"qap_run_duration_seconds " + fnum(r.DurationSec)})
	}

	nodes := append([]NodeReport(nil), r.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	nodeCounter := func(name, help string, f func(n *NodeReport) (string, bool)) {
		var lines []string
		for i := range nodes {
			n := &nodes[i]
			v, ok := f(n)
			if !ok {
				continue
			}
			lines = append(lines, name+"{"+
				label("id", strconv.Itoa(n.ID))+","+
				label("kind", n.Kind)+","+
				label("query", n.Query)+","+
				label("host", strconv.Itoa(n.Host))+"} "+v)
		}
		emit(name, "counter", help, lines)
	}
	nodeCounter("qap_node_rows_in", "Tuples delivered to the operator.",
		func(n *NodeReport) (string, bool) { return strconv.FormatInt(n.RowsIn, 10), true })
	nodeCounter("qap_node_rows_out", "Tuples emitted by the operator.",
		func(n *NodeReport) (string, bool) { return strconv.FormatInt(n.RowsOut, 10), true })
	nodeCounter("qap_node_advances", "Watermark deliveries to the operator.",
		func(n *NodeReport) (string, bool) { return strconv.FormatInt(n.Advances, 10), true })
	nodeCounter("qap_node_flushes", "End-of-stream flush deliveries to the operator.",
		func(n *NodeReport) (string, bool) { return strconv.FormatInt(n.Flushes, 10), true })
	nodeCounter("qap_node_cpu_units", "Work units charged to the operator.",
		func(n *NodeReport) (string, bool) { return fnum(n.CPUUnits), true })
	nodeCounter("qap_node_net_tuples_in", "Cross-host tuple arrivals at the operator.",
		func(n *NodeReport) (string, bool) { return strconv.FormatInt(n.NetTuplesIn, 10), n.NetTuplesIn > 0 })
	nodeCounter("qap_node_ipc_tuples_in", "Same-host cross-process tuple arrivals at the operator.",
		func(n *NodeReport) (string, bool) { return strconv.FormatInt(n.IPCTuplesIn, 10), n.IPCTuplesIn > 0 })

	hosts := append([]HostReport(nil), r.Hosts...)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].Host < hosts[j].Host })
	hostMetric := func(name, typ, help string, f func(h *HostReport) string) {
		var lines []string
		for i := range hosts {
			h := &hosts[i]
			lines = append(lines, name+"{"+label("host", strconv.Itoa(h.Host))+"} "+f(h))
		}
		emit(name, typ, help, lines)
	}
	hostMetric("qap_host_cpu_units", "counter", "Work units charged to the host.",
		func(h *HostReport) string { return fnum(h.CPUUnits) })
	hostMetric("qap_host_cpu_load_pct", "gauge", "Host CPU utilization percentage.",
		func(h *HostReport) string { return fnum(h.CPULoadPct) })
	hostMetric("qap_host_net_tuples_in", "counter", "Cross-host tuple arrivals.",
		func(h *HostReport) string { return strconv.FormatInt(h.NetTuplesIn, 10) })
	hostMetric("qap_host_net_bytes_in", "counter", "Cross-host byte arrivals.",
		func(h *HostReport) string { return strconv.FormatInt(h.NetBytesIn, 10) })
	hostMetric("qap_host_ipc_tuples_in", "counter", "Same-host cross-process tuple arrivals.",
		func(h *HostReport) string { return strconv.FormatInt(h.IPCTuplesIn, 10) })
	hostMetric("qap_host_tuples", "counter", "Tuples delivered to operators on the host.",
		func(h *HostReport) string { return strconv.FormatInt(h.Tuples, 10) })

	if len(r.LoadSeries) > 0 {
		windowMetric := func(name, help string, f func(h *HostWindow) string) {
			var lines []string
			for wi := range r.LoadSeries {
				w := &r.LoadSeries[wi]
				for hi := range w.Hosts {
					h := &w.Hosts[hi]
					lines = append(lines, name+"{"+
						label("host", strconv.Itoa(h.Host))+","+
						label("window", strconv.Itoa(w.Window))+"} "+f(h))
				}
			}
			emit(name, "gauge", help, lines)
		}
		emit("qap_host_window_seconds", "gauge", "Load-monitoring window length in trace seconds.",
			[]string{"qap_host_window_seconds " + strconv.Itoa(r.LoadWindowSec)})
		windowMetric("qap_host_window_cpu_units", "Work units charged to the host within the window.",
			func(h *HostWindow) string { return fnum(h.CPUUnits) })
		windowMetric("qap_host_window_net_tuples_in", "Cross-host tuple arrivals within the window.",
			func(h *HostWindow) string { return strconv.FormatInt(h.NetTuplesIn, 10) })
		windowMetric("qap_host_window_net_bytes_in", "Cross-host byte arrivals within the window.",
			func(h *HostWindow) string { return strconv.FormatInt(h.NetBytesIn, 10) })
	}

	if s := r.Search; s != nil {
		emit("qap_search_candidates_enumerated", "counter", "Candidate subsets recorded by the search.",
			[]string{"qap_search_candidates_enumerated " + strconv.FormatInt(s.Enumerated, 10)})
		emit("qap_search_sets_evaluated", "counter", "Distinct partitioning sets costed.",
			[]string{"qap_search_sets_evaluated " + strconv.FormatInt(s.UniqueSets, 10)})
		emit("qap_search_candidates_deduped", "counter", "Candidates sharing an already-costed set.",
			[]string{"qap_search_candidates_deduped " + strconv.FormatInt(s.Deduped, 10)})
		emit("qap_search_pruned", "counter", "Expansion steps pruned before recording.",
			[]string{"qap_search_pruned " + strconv.FormatInt(s.Pruned, 10)})
		emit("qap_search_cost_cache_hits", "counter", "Cost-model memo-cache hits.",
			[]string{"qap_search_cost_cache_hits " + strconv.FormatInt(s.CacheHits, 10)})
	}

	if t := r.Timing; t != nil {
		emit("qap_timing_wall_nanos", "gauge", "Wall-clock run time (nondeterministic).",
			[]string{"qap_timing_wall_nanos " + strconv.FormatInt(t.WallNanos, 10)})
		if t.Workers != nil {
			emit("qap_timing_workers", "gauge", "Configured worker count.",
				[]string{"qap_timing_workers " + strconv.Itoa(*t.Workers)})
		}
	}
	return b.String()
}

// BenchSeries is one measured line of a benchmark figure.
type BenchSeries struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// BenchFigure is one regenerated evaluation figure in a BenchReport.
type BenchFigure struct {
	ID     string        `json:"id"`
	Title  string        `json:"title"`
	Metric string        `json:"metric"`
	Hosts  []int         `json:"hosts"`
	Series []BenchSeries `json:"series"`
}

// BenchConfig records the knobs a benchmark ran under.
type BenchConfig struct {
	RatePPS     int   `json:"rate_pps"`
	DurationSec int   `json:"duration_sec"`
	MaxHosts    int   `json:"max_hosts"`
	Seed        int64 `json:"seed"`
	Workers     int   `json:"workers"`
}

// DriftWindowRow is one monitoring window of a DriftBenchReport: the
// measured max-host network rate with the static plan versus the
// adaptive controller over the same drifting trace.
type DriftWindowRow struct {
	Window               int     `json:"window"`
	StartSec             uint64  `json:"start_sec"`
	StaticMaxHostBps     float64 `json:"static_max_host_bps"`
	AdaptiveMaxHostBps   float64 `json:"adaptive_max_host_bps"`
	AdaptiveUsesFinalSet bool    `json:"adaptive_uses_final_set"`
}

// DriftBenchReport is the machine-readable BENCH_drift.json emitted by
// qap-bench -drift: the adaptive-repartitioning experiment over a
// skew-shift trace. Everything here except nothing is deterministic —
// the whole report is a pure function of the scenario config.
type DriftBenchReport struct {
	SchemaVersion int     `json:"schema_version"`
	Name          string  `json:"name"`
	LoadWindowSec int     `json:"load_window_sec"`
	TriggerFactor float64 `json:"trigger_factor"`
	// Bound and NewBound are the Section 4.2.1 predicted max-host
	// network rates (bytes/sec) for the initial and post-switch sets
	// under their respective statistics.
	Bound    float64 `json:"bound_bps"`
	NewBound float64 `json:"new_bound_bps"`
	// TriggerWindow is the monitoring window whose measured load
	// first exceeded TriggerFactor×Bound (-1: never fired).
	TriggerWindow int     `json:"trigger_window"`
	TriggerRate   float64 `json:"trigger_rate_bps"`
	SwitchTimeSec uint64  `json:"switch_time_sec"`
	InitialSet    string  `json:"initial_set"`
	FinalSet      string  `json:"final_set"`
	Repartitioned bool    `json:"repartitioned"`
	// PostSwitchPeakBps is the adaptive run's peak max-host rate in
	// the windows after the switch; WithinBoundAfterSwitch records
	// whether it stays under TriggerFactor×NewBound.
	PostSwitchPeakBps      float64          `json:"post_switch_peak_bps"`
	WithinBoundAfterSwitch bool             `json:"within_bound_after_switch"`
	Rows                   []DriftWindowRow `json:"rows"`
}

// BenchReport is the machine-readable BENCH_<name>.json emitted by
// qap-bench: the figure series (deterministic) plus the wall-clock cost
// of producing them (the perf trajectory).
type BenchReport struct {
	SchemaVersion int           `json:"schema_version"`
	Name          string        `json:"name"`
	Config        BenchConfig   `json:"config"`
	Figures       []BenchFigure `json:"figures"`
	// WallNanos is the wall-clock time the experiment took; with
	// Config it is the measured simulator throughput over PRs.
	WallNanos int64 `json:"wall_nanos"`
	// SimulatedPacketsPerSec is trace packets processed per wall
	// second across every configuration the experiment ran.
	SimulatedPacketsPerSec float64 `json:"simulated_packets_per_sec"`
}
