package obs

import (
	"encoding/json"
	"fmt"
)

// Versioned is implemented by every committed JSON report artifact
// (RunReport, BenchReport, DriftBenchReport). All three share the
// single package-wide SchemaVersion: bumping it is one edit, and
// DecodeStrict makes every decoder assert it, so a stale committed
// artifact fails fast instead of being half-read.
type Versioned interface {
	// Version returns the schema_version the artifact was encoded with.
	Version() int
}

// Version implements Versioned.
func (r *RunReport) Version() int { return r.SchemaVersion }

// Version implements Versioned.
func (r *BenchReport) Version() int { return r.SchemaVersion }

// Version implements Versioned.
func (r *DriftBenchReport) Version() int { return r.SchemaVersion }

// CheckSchemaVersion asserts that a decoded artifact's version matches
// this build's SchemaVersion. kind names the artifact in the error.
func CheckSchemaVersion(kind string, got int) error {
	if got != SchemaVersion {
		return fmt.Errorf("obs: %s has schema_version %d but this build reads %d; regenerate the artifact (or bump obs.SchemaVersion with a migration)",
			kind, got, SchemaVersion)
	}
	return nil
}

// DecodeStrict unmarshals a report artifact and asserts its schema
// version, the standard way to read a committed BENCH_*.json or run
// report back in.
func DecodeStrict(data []byte, v Versioned) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	return CheckSchemaVersion(fmt.Sprintf("%T", v), v.Version())
}
