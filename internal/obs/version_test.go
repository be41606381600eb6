package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSchemaVersionRoundTrip: every committed report artifact encodes
// the package-wide SchemaVersion, decodes back through DecodeStrict,
// and fails fast when the version is stale. One table covers all four
// Versioned implementations so adding a fifth without wiring it here
// is a conscious choice, not an accident.
func TestSchemaVersionRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		current Versioned
		stale   Versioned
		fresh   func() Versioned
	}{
		{"RunReport",
			&RunReport{SchemaVersion: SchemaVersion, DurationSec: 9},
			&RunReport{SchemaVersion: SchemaVersion + 1},
			func() Versioned { return &RunReport{} }},
		{"BenchReport",
			&BenchReport{SchemaVersion: SchemaVersion},
			&BenchReport{SchemaVersion: SchemaVersion - 1},
			func() Versioned { return &BenchReport{} }},
		{"DriftBenchReport",
			&DriftBenchReport{SchemaVersion: SchemaVersion},
			&DriftBenchReport{SchemaVersion: 0},
			func() Versioned { return &DriftBenchReport{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.current.Version(); got != SchemaVersion {
				t.Fatalf("Version() = %d, want %d", got, SchemaVersion)
			}
			b, err := json.Marshal(tc.current)
			if err != nil {
				t.Fatal(err)
			}
			dst := tc.fresh()
			if err := DecodeStrict(b, dst); err != nil {
				t.Fatalf("DecodeStrict on a current artifact: %v", err)
			}
			if dst.Version() != SchemaVersion {
				t.Fatalf("round-tripped version = %d, want %d", dst.Version(), SchemaVersion)
			}

			sb, err := json.Marshal(tc.stale)
			if err != nil {
				t.Fatal(err)
			}
			err = DecodeStrict(sb, tc.fresh())
			if err == nil {
				t.Fatal("DecodeStrict accepted a stale schema_version")
			}
			if !strings.Contains(err.Error(), "schema_version") {
				t.Fatalf("stale-version error does not name the field: %v", err)
			}
		})
	}
}

// TestCheckSchemaVersion covers the bare assertion helper.
func TestCheckSchemaVersion(t *testing.T) {
	if err := CheckSchemaVersion("x", SchemaVersion); err != nil {
		t.Fatalf("matching version rejected: %v", err)
	}
	err := CheckSchemaVersion("BENCH_exec.json", SchemaVersion+1)
	if err == nil {
		t.Fatal("mismatched version accepted")
	}
	if !strings.Contains(err.Error(), "BENCH_exec.json") {
		t.Fatalf("error does not name the artifact: %v", err)
	}
}
