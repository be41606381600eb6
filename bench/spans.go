package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call — nothing inside the program is instrumented.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // span ID, -1 at the root
	Workload string `json:"workload"`
}

// spanRecorder keeps a workload's spans in memory until the run ends.
// A nil recorder records nothing, so the untraced run shares the code.
type spanRecorder struct {
	workload string
	origin   time.Time
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, origin: now()}
}

// begin opens a span under parent (-1 for a root) and returns its ID.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Workload: r.workload,
		StartNS: now().Sub(r.origin).Nanoseconds(),
	})
	return id
}

// end closes the span and returns its duration in seconds.
func (r *spanRecorder) end(id int) float64 {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.EndNS = now().Sub(r.origin).Nanoseconds()
	return float64(s.EndNS-s.StartNS) / 1e9
}

// write stores the spans as dir/trace-<workload>.json.
func (r *spanRecorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
