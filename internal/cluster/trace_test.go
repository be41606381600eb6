package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"qap/internal/core"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
)

// runTraced runs the complex DAG with causal tracing on.
func runTraced(t testing.TB, streams map[string][]netgen.Packet, workers, batch, winSec int, tc *trace.Config) *Result {
	t.Helper()
	g := buildGraph(t, complexSet)
	p, err := optimizer.Build(g, core.MustParseSet("srcIP"), optimizer.Options{
		Hosts: 4, PartitionsPerHost: 2, PartialAgg: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{
		Costs: DefaultCosts(), Params: testParams,
		Workers: workers, BatchSize: batch, LoadWindowSec: winSec,
		Trace: tc,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracingOffIsFree: enabling tracing must never perturb the run —
// outputs, node rows, and metrics are byte-identical with and without
// a trace config, and an untraced run carries no trace.
func TestTracingOffIsFree(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	plain := runMonitored(t, streams, 1, 1, 10)
	if plain.Trace != nil {
		t.Fatal("untraced run grew a trace")
	}
	traced := runTraced(t, streams, 1, 1, 10, &trace.Config{})
	if traced.Trace == nil {
		t.Fatal("traced run has no trace")
	}
	if !reflect.DeepEqual(plain.Outputs, traced.Outputs) ||
		!reflect.DeepEqual(plain.NodeRows, traced.NodeRows) ||
		!reflect.DeepEqual(*plain.Metrics, *traced.Metrics) {
		t.Error("enabling tracing perturbed the run")
	}
	if !reflect.DeepEqual(plain.LoadSeries, traced.LoadSeries) {
		t.Error("enabling tracing perturbed the load series")
	}
}

// TestTraceCanonicalBytesAcrossCells: the canonical JSONL must be
// byte-identical across the scalar oracle and production on both
// simulator engines, while the full JSONL still records the cell's shape
// in its timing trailer.
func TestTraceCanonicalBytesAcrossCells(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	type cell struct{ workers, batch int }
	cells := []cell{{1, 1}, {1, 256}, {4, 256}}
	var want []byte
	for _, c := range cells {
		res := runTraced(t, streams, c.workers, c.batch, 10, &trace.Config{})
		canon, err := res.Trace.CanonicalJSONL()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = canon
			if len(want) == 0 {
				t.Fatal("canonical trace is empty")
			}
			continue
		}
		if !bytes.Equal(canon, want) {
			t.Errorf("workers=%d batch=%d: canonical JSONL differs from workers=1 batch=1 (%d vs %d bytes)",
				c.workers, c.batch, len(canon), len(want))
		}
		full, err := res.Trace.JSONL()
		if err != nil {
			t.Fatal(err)
		}
		wantTail := fmt.Sprintf(`"workers":%d,"batch_size":%d`, c.workers, c.batch)
		if c.workers == 1 {
			// Sequential runs don't report a worker count.
			wantTail = fmt.Sprintf(`"batch_size":%d`, c.batch)
		}
		if !bytes.Contains(full, []byte(wantTail)) {
			t.Errorf("workers=%d batch=%d: timing trailer missing %s", c.workers, c.batch, wantTail)
		}
	}
}

// TestTraceRebuildsLoadSeries: per-host load reconstructed from the
// trace's host_window events must equal the engine's own monitoring
// output exactly, CPU units included.
func TestTraceRebuildsLoadSeries(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	for _, c := range []struct{ workers, batch int }{{1, 1}, {4, 256}} {
		res := runTraced(t, streams, c.workers, c.batch, 10, &trace.Config{})
		if got := res.Trace.HostLoadSeries(""); !reflect.DeepEqual(got, res.LoadSeries) {
			t.Errorf("workers=%d batch=%d: trace-rebuilt load series differs:\n got %+v\nwant %+v",
				c.workers, c.batch, got, res.LoadSeries)
		}
	}
}

// TestTraceRoundEvents: driver rounds are dense from 0 with
// nondecreasing watermarks, the packet counts sum to the stream size,
// and the flush record closes the sequence.
func TestTraceRoundEvents(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	res := runTraced(t, streams, 1, 1, 0, &trace.Config{})
	next := 0
	var pk int64
	lastWM := uint64(0)
	flushes := 0
	for _, e := range res.Trace.Records {
		switch e.Kind {
		case trace.KindRound:
			if e.Round != next {
				t.Fatalf("round %d out of order, want %d", e.Round, next)
			}
			if e.WM < lastWM {
				t.Fatalf("round %d watermark %d regressed below %d", e.Round, e.WM, lastWM)
			}
			next++
			lastWM = e.WM
			pk += e.Rows
		case trace.KindFlush:
			flushes++
			if e.Round != next {
				t.Fatalf("flush round %d, want %d", e.Round, next)
			}
		}
	}
	if flushes != 1 {
		t.Fatalf("saw %d flush records, want 1", flushes)
	}
	if pk != int64(len(tr.Packets)) {
		t.Fatalf("round packet counts sum to %d, want %d", pk, len(tr.Packets))
	}
}

// TestTraceRingMode: a bounded flight recorder drops oldest events per
// shard but still yields a well-formed, deterministic trace.
func TestTraceRingMode(t *testing.T) {
	tr := driftTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	full := runTraced(t, streams, 1, 1, 10, &trace.Config{})
	ring := runTraced(t, streams, 1, 1, 10, &trace.Config{Mode: trace.ModeRing, RingSize: 4})
	if len(ring.Trace.Records) >= len(full.Trace.Records) {
		t.Fatalf("ring capture (%d records) not smaller than full capture (%d)",
			len(ring.Trace.Records), len(full.Trace.Records))
	}
	ring2 := runTraced(t, streams, 4, 256, 10, &trace.Config{Mode: trace.ModeRing, RingSize: 4})
	a, err := ring.Trace.CanonicalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ring2.Trace.CanonicalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("ring captures differ across engines: same events must be dropped on every run")
	}
}

// BenchmarkTraceOverhead quantifies the tracing tax on the monitored
// run (the acceptance gate wants tracing provably cheap).
func BenchmarkTraceOverhead(b *testing.B) {
	tr := driftTrace(b)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runMonitored(b, streams, 1, 256, 10)
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runTraced(b, streams, 1, 256, 10, &trace.Config{})
		}
	})
}
