package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the Prometheus golden files instead of comparing")

// checkGolden compares a rendering against testdata/<name>.golden,
// rewriting the golden under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create the goldens)", err)
	}
	if got != string(want) {
		t.Errorf("%s rendering drifted from the golden (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestPrometheusGoldenEmpty pins the exposition for a bare report:
// nothing measured means a zero-byte document — no empty metric
// families, no placeholder samples.
func TestPrometheusGoldenEmpty(t *testing.T) {
	r := &RunReport{SchemaVersion: SchemaVersion}
	checkGolden(t, "prom_empty", r.Prometheus())
}

// TestPrometheusGoldenDrift pins the exposition for a monitored
// multi-host run in the shape the drift scenario produces: four hosts,
// a windowed load series whose last window spikes on one host, and a
// fixed timing block. Every byte of the rendering is covered, so any
// change to metric names, label order, or number formatting shows up
// as a diff here before it breaks a scrape config.
func TestPrometheusGoldenDrift(t *testing.T) {
	r := &RunReport{
		SchemaVersion:  SchemaVersion,
		DurationSec:    60,
		CapacityPerSec: 12000,
		Plan: &PlanInfo{
			Hosts: 4, Partitions: 8, PartitionsPerHost: 2,
			Partitioning: "( srcIP )", Operators: 3,
		},
		Nodes: []NodeReport{
			{ID: 0, Kind: "scan", Query: "TCP", Host: 0, Partition: 0,
				OpStats:  OpStats{RowsIn: 1800, RowsOut: 1800, CPUUnits: 1800},
				PassRate: 1},
			{ID: 1, Kind: "aggregate", Query: "flows", Host: 0, Partition: -1,
				OpStats:  OpStats{RowsIn: 1800, RowsOut: 120, Advances: 6, Flushes: 1, CPUUnits: 2400.25, NetTuplesIn: 420, NetBytesIn: 13440},
				PassRate: 0.066},
		},
		Hosts: []HostReport{
			{Host: 0, CPUUnits: 4200.25, CPULoadPct: 35, Tuples: 3600, NetTuplesIn: 420, NetBytesIn: 13440},
			{Host: 1, CPUUnits: 900, CPULoadPct: 7.5, Tuples: 800, NetTuplesIn: 60, NetBytesIn: 1920},
			{Host: 2, CPUUnits: 880, CPULoadPct: 7.3, Tuples: 790, NetTuplesIn: 55, NetBytesIn: 1760},
			{Host: 3, CPUUnits: 0, Tuples: 0},
		},
		LoadWindowSec: 10,
		LoadSeries: []LoadWindow{
			{Window: 0, StartSec: 0, EndSec: 10, Hosts: []HostWindow{
				{Host: 0, CPUUnits: 700, NetTuplesIn: 70, NetBytesIn: 2240, Tuples: 600},
				{Host: 1, CPUUnits: 150, NetTuplesIn: 10, NetBytesIn: 320, Tuples: 130},
				{Host: 2, Tuples: 120},
				{Host: 3},
			}},
			{Window: 1, StartSec: 10, EndSec: 20, Hosts: []HostWindow{
				{Host: 0, CPUUnits: 3500.25, NetTuplesIn: 350, NetBytesIn: 11200, Tuples: 3000},
				{Host: 1, CPUUnits: 750, NetTuplesIn: 50, NetBytesIn: 1600, Tuples: 670},
				{Host: 2, NetTuplesIn: 55, NetBytesIn: 1760, Tuples: 670},
				{Host: 3},
			}},
		},
		Timing: &Timing{Workers: workers(4), BatchRounds: 256, Engine: "parallel",
			WallNanos: 98765432, Rounds: 60, Batches: 240, LinkItems: 480},
	}
	checkGolden(t, "prom_drift", r.Prometheus())
}

// TestPrometheusGoldenEscaping pins the exposition-format escaping
// rules on label values: backslash, double quote, and newline are the
// only escapes; UTF-8 and exotic-but-legal bytes pass through raw.
func TestPrometheusGoldenEscaping(t *testing.T) {
	r := &RunReport{
		SchemaVersion: SchemaVersion,
		DurationSec:   1,
		Plan: &PlanInfo{
			Hosts: 1, Partitions: 1, PartitionsPerHost: 1,
			Partitioning: `( "src\IP" )`, Operators: 2,
		},
		Nodes: []NodeReport{
			{ID: 0, Kind: "scan", Query: "q-héavy \"x\\y\nz", Host: 0, Partition: 0,
				OpStats: OpStats{RowsIn: 1, RowsOut: 1}, PassRate: 1},
			{ID: 1, Kind: "aggregate", Query: "tab\there{brace}", Host: 0, Partition: -1,
				OpStats: OpStats{RowsIn: 1, RowsOut: 1}, PassRate: 1},
		},
	}
	checkGolden(t, "prom_escaping", r.Prometheus())
}
