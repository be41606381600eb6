package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"qap/internal/exec"
	"qap/internal/sqlval"
)

// smokeScale shrinks every workload to a trace of a few thousand
// packets and a handful of replays: every phase and every probe still
// runs, quickly enough for -race. The trace spans three epochs because
// flow_pairs joins each epoch with the one before it.
func smokeScale() scale {
	return scale{minReplays: 2, setupCycles: 2, statsReplays: 2, driveReplays: 1, traceSec: 130, tracePPS: 40}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestTablesMatchBenchmarkJSON holds the tables in code and the file the
// driver reads equal, and both inside the driver's limits.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the default -seconds is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go has %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in metrics.go", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		unique(d.name)
		got := bj.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.name, d.bound)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in metrics.go", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.name)
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, metrics.go has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q", d.name, d.unit)
		}
	}

	// -list prints the same names, in the same order.
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		listed = append(listed, strings.TrimSuffix(strings.Fields(line)[1], ":"))
	}
	var want []string
	for _, w := range bj.Workloads {
		want = append(want, w.Name)
	}
	for _, m := range bj.EndToEnd {
		want = append(want, m.Name)
	}
	for _, m := range bj.PerLayer {
		want = append(want, m.Name)
	}
	if strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("-list names\n %v\nBENCHMARK.json names\n %v", listed, want)
	}
}

// checkMetrics asserts ms is exactly defs, each with a finite value.
func checkMetrics(t *testing.T, workload string, defs []metricDef, ms []metricValue) {
	t.Helper()
	if len(ms) != len(defs) {
		t.Fatalf("%s: %d metrics emitted, %d defined", workload, len(ms), len(defs))
	}
	for i, d := range defs {
		if ms[i].Name != d.name || ms[i].Unit != d.unit {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", workload, i, ms[i].Name, ms[i].Unit, d.name, d.unit)
		}
		if math.IsNaN(ms[i].Value) || math.IsInf(ms[i].Value, 0) {
			t.Errorf("%s: %s = %v", workload, d.name, ms[i].Value)
		}
	}
}

// TestSmoke runs every workload twice at smoke scale — every phase,
// every probe — and asserts that each defined metric comes out exactly
// once with a finite value, that no replay fails verification, and
// that the exact counts repeat across the two runs of the same seed.
func TestSmoke(t *testing.T) {
	sc := smokeScale()
	for _, w := range workloads {
		var reps [2]*workloadReport
		for i := range reps {
			rep, err := runWorkload(w, 1, sc, true, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s: %d of %d replays failed", w.name, rep.Failed, rep.Attempted)
			}
			checkMetrics(t, w.name, endToEnd, rep.EndToEnd)
			checkMetrics(t, w.name, perLayer, rep.PerLayer)
			for _, m := range rep.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, m.Value)
				}
			}
			spans, err := os.ReadFile(rep.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			var got []span
			if err := json.Unmarshal(spans, &got); err != nil {
				t.Fatalf("%s: %v", rep.SpanFile, err)
			}
			for _, s := range got {
				if s.Name == "" || s.Workload != w.name || s.EndNS < s.StartNS || s.Parent >= s.ID {
					t.Fatalf("%s: malformed span %+v", w.name, s)
				}
			}
			reps[i] = rep
		}
		for i, d := range perLayer {
			if a, b := reps[0].PerLayer[i].Value, reps[1].PerLayer[i].Value; d.exact && a != b {
				t.Errorf("%s: exact count %s moved between two runs of seed 1: %v then %v", w.name, d.name, a, b)
			}
		}
	}
}

// TestDriverLine checks the result object the driver reads: exactly
// four keys, every metric of the selected mode and no other.
func TestDriverLine(t *testing.T) {
	rep := &workloadReport{Attempted: 3, EndToEnd: []metricValue{{"rows_per_s", 12.5, "packets/s"}}}
	b, err := driverLine(rep, rep.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"rows_per_s":{"value":12.5,"unit":"packets/s"}}}`
	if string(b) != want {
		t.Errorf("driver line\n %s\nwant\n %s", b, want)
	}
}

func TestDigestNamesFirstDifferingQuery(t *testing.T) {
	row := func(v uint64) exec.Tuple { return exec.Tuple{sqlval.Uint(v)} }
	ref := digestOf(map[string][]exec.Tuple{"a": {row(1), row(2)}, "b": {row(3)}})
	same := digestOf(map[string][]exec.Tuple{"b": {row(3)}, "a": {row(2), row(1)}})
	if q := same.diff(ref); q != "" {
		t.Errorf("row order within a query must not matter, got a difference on %q", q)
	}
	if ref.rows != 3 {
		t.Errorf("rows = %d, want 3", ref.rows)
	}
	for name, other := range map[string]map[string][]exec.Tuple{
		"b": {"a": {row(1), row(2)}, "b": {row(4)}},
		"a": {"a": {row(1)}, "b": {row(4)}},
		"c": {"a": {row(1), row(2)}, "b": {row(3)}, "c": nil},
	} {
		if q := digestOf(other).diff(ref); q != name {
			t.Errorf("first differing query = %q, want %q", q, name)
		}
	}
	if q := digestOf(map[string][]exec.Tuple{"a": {row(1), row(2)}}).diff(ref); q != "b" {
		t.Errorf("a missing query must be named, got %q", q)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // 50 down to 1
	}
	v, pct := tail(xs)
	if v != 40 || pct != 80 {
		t.Errorf("tail of 1..50 = %v at p%v, want 40 at p80", v, pct)
	}
	if v, pct := tail(xs[:12]); v != median(xs[:12]) || pct != 50 {
		t.Errorf("too few samples must degrade to the median, got %v at p%v", v, pct)
	}
}
