package main

import (
	"fmt"
	"os"
	"runtime"

	"qap"
	"qap/internal/netgen"
)

// inputs is what a workload's replays consume and are checked against.
// The seed reaches the program under test only as these packets.
type inputs struct {
	trace *netgen.Trace
	ref   digest
	// generateS is the wall time of netgen.Generate (a harness cost).
	generateS float64
}

// prepare generates the workload's trace from the seed and computes the
// reference digest every replay is compared with.
func prepare(w *workload, seed int64, sc scale, rec *spanRecorder) (*inputs, error) {
	cfg := w.shape()
	cfg.Seed = seed
	if sc.traceSec > 0 {
		cfg.DurationSec = sc.traceSec
	}
	if sc.tracePPS > 0 {
		cfg.PacketsPerSec = sc.tracePPS
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &inputs{}
	id := rec.begin("netgen.Generate", -1)
	t0 := now()
	in.trace = netgen.Generate(cfg)
	in.generateS = since(t0)
	rec.end(id)

	id = rec.begin("reference", -1)
	ref, err := referenceDigest(w, in.trace.Packets)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if ref.rows == 0 {
		return nil, fmt.Errorf("%s: the reference run produced no rows, so nothing would be verified", w.name)
	}
	in.ref = ref
	return in, nil
}

// coldStart is the outcome of one set-up cycle.
type coldStart struct {
	dep     *qap.Deployment
	res     *qap.RunResult
	seconds float64
	// partitioning is the splitter set deployed ("" is round robin).
	partitioning string
}

// setupCycle is one cold start as a user pays it: load the query set,
// analyse, deploy, and run the trace once with no size hints.
func setupCycle(w *workload, in *inputs, collectStats bool) (*coldStart, error) {
	t0 := now()
	sys, err := qap.Load(netgen.SchemaDDL, w.queries)
	if err != nil {
		return nil, err
	}
	an, err := sys.Analyze(nil)
	if err != nil {
		return nil, err
	}
	cfg := w.deployConfig(an.Best)
	cfg.CollectStats = collectStats
	dep, err := sys.Deploy(cfg)
	if err != nil {
		return nil, err
	}
	res, err := dep.Run("TCP", in.trace.Packets)
	if err != nil {
		return nil, err
	}
	return &coldStart{dep: dep, res: res, seconds: since(t0), partitioning: cfg.Partitioning.String()}, nil
}

// sample is a set of back-to-back replays of one deployment.
type sample struct {
	// seconds holds each replay's wall time.
	seconds []float64
	// mallocs and bytes are heap objects and bytes allocated inside the
	// replays; gcCycles and gcPauseNS what the collector did meanwhile.
	mallocs, bytes      uint64
	gcCycles, gcPauseNS uint64
	failed              int
	// last is the final successful replay's result.
	last *qap.RunResult
}

func (s *sample) total() float64 {
	sum := 0.0
	for _, x := range s.seconds {
		sum += x
	}
	return sum
}

// replayer runs a trace once and returns the outputs for verification.
type replayer func() (*qap.RunResult, error)

// measure replays until both minReplays and seconds are reached: a
// closed loop with one client, the next replay starting when the
// previous returns. Each output digest is compared with the reference
// outside the timed region and outside the allocation accounting.
func measure(w *workload, in *inputs, run replayer, seconds float64, minReplays int) *sample {
	s := &sample{}
	var before, after runtime.MemStats
	runtime.GC()
	start := now()
	for n := 0; n < minReplays || since(start) < seconds; n++ {
		runtime.ReadMemStats(&before)
		t0 := now()
		res, err := run()
		dt := since(t0)
		runtime.ReadMemStats(&after)
		s.seconds = append(s.seconds, dt)
		s.mallocs += after.Mallocs - before.Mallocs
		s.bytes += after.TotalAlloc - before.TotalAlloc
		s.gcCycles += uint64(after.NumGC - before.NumGC)
		s.gcPauseNS += after.PauseTotalNs - before.PauseTotalNs
		if err != nil {
			s.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s replay %d: %v\n", w.name, n, err)
			continue
		}
		if q := digestOf(res.Outputs).diff(in.ref); q != "" {
			s.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s replay %d: output of query %s differs from the reference\n", w.name, n, q)
			continue
		}
		s.last = res
	}
	return s
}

// e2eResult is one workload's untraced measurement.
type e2eResult struct {
	vals              values
	attempted, failed int
	// tailPct is the percentile replay_s_tail stands at, with samples
	// replays behind it.
	tailPct float64
	samples int
	// partitioning is the splitter set the deployment used.
	partitioning string
}

// runEndToEnd measures what a user sees: cold set-up cycles, then the
// timed replays with every observability switch off.
func runEndToEnd(w *workload, in *inputs, sc scale) (*e2eResult, error) {
	out := &e2eResult{vals: values{}}
	var dep *qap.Deployment
	setups := make([]float64, 0, sc.setupCycles)
	for i := 0; i < sc.setupCycles; i++ {
		runtime.GC()
		cold, err := setupCycle(w, in, false)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up cycle %d: %w", w.name, i, err)
		}
		out.attempted++
		if q := digestOf(cold.res.Outputs).diff(in.ref); q != "" {
			out.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s set-up cycle %d: output of query %s differs from the reference\n", w.name, i, q)
		}
		setups = append(setups, cold.seconds)
		dep, out.partitioning = cold.dep, cold.partitioning
	}
	out.vals["setup_s"] = median(setups)

	run := func() (*qap.RunResult, error) { return dep.Run("TCP", in.trace.Packets) }
	// The first cycle's run harvested size hints; one more replay lets
	// the warmed state settle before anything is timed.
	if _, err := run(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	s := measure(w, in, run, sc.seconds, sc.minReplays)
	out.attempted += len(s.seconds)
	out.failed += s.failed
	out.samples = len(s.seconds)

	packets := float64(len(in.trace.Packets)) * float64(len(s.seconds))
	out.vals["rows_per_s"] = ratio(packets, s.total())
	out.vals["replay_s_p50"] = median(s.seconds)
	out.vals["replay_s_tail"], out.tailPct = tail(s.seconds)
	out.vals["allocs_per_row"] = ratio(float64(s.mallocs), packets)
	out.vals["bytes_per_row"] = ratio(float64(s.bytes), packets)
	return out, nil
}
