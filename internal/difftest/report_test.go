package difftest

import (
	"strings"
	"testing"
)

// TestReportString pins the repro format: a failing report must carry
// the seed, the rerun command, the trace literal, the query text, and
// every mismatch with its axis — everything needed to reproduce the
// failure from the one-line summary.
func TestReportString(t *testing.T) {
	ok := &Report{Seed: 7, Configs: 12, Queries: "SELECT 1"}
	if !ok.OK() {
		t.Fatal("report with no mismatches must be OK")
	}
	if s := ok.String(); !strings.Contains(s, "seed 7: PASS (12 configurations") {
		t.Errorf("pass rendering: %q", s)
	}

	bad := &Report{
		Seed:    42,
		Configs: 9,
		Queries: "SELECT COUNT(*)\nFROM TCP",
		Mismatches: []Mismatch{
			{Axis: "live", Config: "live hosts=2 workers=4 batch=256", Detail: "line 3 differs"},
			{Axis: "batched", Config: "batch=7", Detail: "OpStats differ"},
		},
	}
	if bad.OK() {
		t.Fatal("report with mismatches must not be OK")
	}
	s := bad.String()
	for _, want := range []string{
		"seed 42: FAIL (2 of 9 configurations mismatched)",
		"first failure: axis live, config live hosts=2 workers=4 batch=256",
		"rerun: go run ./cmd/qap-difftest -seed 42",
		"queries:\n    SELECT COUNT(*)\n    FROM TCP",
		"mismatch [live: live hosts=2 workers=4 batch=256]:\n    line 3 differs",
		"mismatch [batched: batch=7]:\n    OpStats differ",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q in:\n%s", want, s)
		}
	}
}

// TestFirstDiff pins the mismatch localizer: first differing line with
// both sides, or the length note when one output is a prefix of the
// other.
func TestFirstDiff(t *testing.T) {
	d := firstDiff("a\nb\nc", "a\nX\nc")
	if !strings.Contains(d, "line 2:") || !strings.Contains(d, "baseline: b") || !strings.Contains(d, "variant:  X") {
		t.Errorf("firstDiff = %q", d)
	}
	d = firstDiff("a\nb", "a\nb\nc")
	if !strings.Contains(d, "lengths differ: baseline 2 lines, variant 3 lines") {
		t.Errorf("firstDiff on prefix = %q", d)
	}
}
