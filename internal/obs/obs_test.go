package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleReport() *RunReport {
	return &RunReport{
		SchemaVersion:  SchemaVersion,
		DurationSec:    120,
		CapacityPerSec: 6000,
		Plan: &PlanInfo{
			Hosts: 4, Partitions: 8, PartitionsPerHost: 2,
			Partitioning: "( srcIP )", Operators: 2,
		},
		Nodes: []NodeReport{
			{ID: 1, Kind: "aggregate", Query: "flows", Host: 0, Partition: -1,
				OpStats:  OpStats{RowsIn: 100, RowsOut: 10, Advances: 5, Flushes: 1, CPUUnits: 120.5},
				PassRate: 0.1},
			{ID: 0, Kind: "scan", Query: "TCP", Host: 0, Partition: 0,
				OpStats:  OpStats{RowsIn: 100, RowsOut: 100, CPUUnits: 100},
				PassRate: 1},
		},
		Hosts: []HostReport{
			{Host: 0, CPUUnits: 220.5, CPULoadPct: 12.5, Tuples: 200, NetTuplesIn: 3, NetBytesIn: 90},
		},
		Timing: &Timing{Workers: workers(8), Engine: "parallel", WallNanos: 123456},
	}
}

// workers is a Timing's worker count.
func workers(n int) *int { return &n }

// TestOpStatsSub checks the window-delta arithmetic, field by field.
func TestOpStatsSub(t *testing.T) {
	a := OpStats{RowsIn: 1, RowsOut: 2, Advances: 3, Flushes: 4, CPUUnits: 5, NetTuplesIn: 6, NetBytesIn: 7, IPCTuplesIn: 8}
	b := OpStats{RowsIn: 2, RowsOut: 4, Advances: 6, Flushes: 8, CPUUnits: 10, NetTuplesIn: 12, NetBytesIn: 14, IPCTuplesIn: 16}
	if d := b.Sub(a); d != a {
		t.Errorf("Sub = %+v, want %+v", d, a)
	}
	if d := a.Sub(a); d != (OpStats{}) {
		t.Errorf("self-Sub = %+v, want zero", d)
	}
}

// TestJSONDeterministic: two renderings of the same report are
// byte-identical, the document is valid JSON, and the nondeterministic
// section is exactly the top-level "timing" key.
func TestJSONDeterministic(t *testing.T) {
	r := sampleReport()
	a, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two renderings of the same report differ")
	}
	if !json.Valid(a) {
		t.Error("report is not valid JSON")
	}

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["timing"]; !ok {
		t.Error("timing section missing")
	}

	// Same report with different timing: canonical forms must match.
	r2 := sampleReport()
	r2.Timing = &Timing{Workers: workers(1), Engine: "sequential", WallNanos: 999}
	c1, _ := r.Canonical().JSON()
	c2, _ := r2.Canonical().JSON()
	if !bytes.Equal(c1, c2) {
		t.Error("canonical reports differ when only timing differs")
	}
	if _, ok := jsonKeys(t, c1)["timing"]; ok {
		t.Error("canonical report still contains a timing key")
	}
}

func jsonKeys(t *testing.T, b []byte) map[string]json.RawMessage {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSearchStatsNanosExcluded: the wall-clock spans never reach the
// JSON encoding.
func TestSearchStatsNanosExcluded(t *testing.T) {
	s := SearchReport{SearchStats: SearchStats{Enumerated: 3, EnumerateNanos: 42, CostNanos: 42}}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "42") {
		t.Errorf("nanos leaked into JSON: %s", b)
	}
}

// TestPrometheusRendering: deterministic ordering (nodes sorted by ID
// even when the input slice is not) and well-formed families.
func TestPrometheusRendering(t *testing.T) {
	r := sampleReport()
	out := r.Prometheus()
	if out != r.Prometheus() {
		t.Error("two renderings differ")
	}
	scanIdx := strings.Index(out, `qap_node_rows_in{id="0"`)
	aggIdx := strings.Index(out, `qap_node_rows_in{id="1"`)
	if scanIdx < 0 || aggIdx < 0 || scanIdx > aggIdx {
		t.Errorf("node lines missing or unsorted: scan@%d agg@%d", scanIdx, aggIdx)
	}
	for _, want := range []string{
		"# TYPE qap_node_rows_in counter",
		"# TYPE qap_host_cpu_load_pct gauge",
		`qap_host_tuples{host="0"} 200`,
		"qap_timing_wall_nanos 123456",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering:\n%s", want, out)
		}
	}
	// No search section configured: its families must be absent.
	if strings.Contains(out, "qap_search_") {
		t.Error("unexpected search metrics")
	}
}

// TestAnalysisTimingHasNoWorkers: a search has no worker count, so an
// analysis report's timing carries none, in JSON or in the exposition;
// a run's reports its count even when it is 0.
func TestAnalysisTimingHasNoWorkers(t *testing.T) {
	for _, c := range []struct {
		timing *Timing
		want   bool
	}{
		{&Timing{Engine: "search", WallNanos: 5}, false},
		{&Timing{Workers: workers(0), Engine: "sequential", WallNanos: 5}, true},
	} {
		r := &RunReport{SchemaVersion: SchemaVersion, Timing: c.timing}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(b), `"workers":0`); got != c.want {
			t.Errorf("engine %s: JSON %s carries workers: %t, want %t", c.timing.Engine, b, got, c.want)
		}
		if got := strings.Contains(r.Prometheus(), "qap_timing_workers 0"); got != c.want {
			t.Errorf("engine %s: exposition carries qap_timing_workers: %t, want %t", c.timing.Engine, got, c.want)
		}
	}
}
