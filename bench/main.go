// Command bench is the repository's benchmark: four workloads across
// the three engines, replay throughput end to end, and every layer
// measured from outside. See README.md in this directory.
//
// It is a closed loop with one client: a single harness goroutine
// replays a pre-generated packet trace through Deployment.Run back to
// back, one replay being one operation. The system has no incremental
// ingest (a run takes the whole trace and returns the collected
// outputs), so the end-to-end figure is work completed per second at a
// stated input size, not latency under an arrival schedule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// maxProcs caps GOMAXPROCS so a bigger box measures the same program.
const maxProcs = 4

// defaultSeconds is the measured phase per workload; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 20

// metricValue is one measured metric as printed and stored.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is everything one workload measured.
type workloadReport struct {
	Name         string `json:"name"`
	Why          string `json:"why"`
	Packets      int    `json:"packets"`
	Partitioning string `json:"partitioning,omitempty"`
	// Samples replays stand behind the end-to-end timings, with
	// replay_s_tail at percentile TailPct.
	Samples   int           `json:"samples,omitempty"`
	TailPct   float64       `json:"tail_pct,omitempty"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	EndToEnd  []metricValue `json:"end_to_end,omitempty"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	SpanFile  string        `json:"span_file,omitempty"`
}

// summary is the whole run. Claim stays null: this benchmark measures,
// it does not argue.
type summary struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadReport `json:"workloads"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Claim      *string          `json:"claim"`
}

// collect orders vals by defs; the caller has checked completeness.
func collect(defs []metricDef, vals values) []metricValue {
	out := make([]metricValue, len(defs))
	for i, d := range defs {
		out[i] = metricValue{Name: d.name, Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// runWorkload measures one workload: the untraced end-to-end run, the
// traced per-layer run, or both. Spans go to spanDir when it is set.
func runWorkload(w *workload, seed int64, sc scale, e2e, layers bool, spanDir string) (*workloadReport, error) {
	var rec *spanRecorder
	if layers {
		rec = newSpanRecorder(w.name)
	}
	in, err := prepare(w, seed, sc, rec)
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{Name: w.name, Why: w.why, Packets: len(in.trace.Packets)}
	if e2e {
		r, err := runEndToEnd(w, in, sc)
		if err != nil {
			return nil, err
		}
		if err := r.vals.checkComplete(endToEnd); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.EndToEnd = collect(endToEnd, r.vals)
		rep.Samples, rep.TailPct, rep.Partitioning = r.samples, r.tailPct, r.partitioning
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	if layers {
		r, err := runLayers(w, in, sc, rec)
		if err != nil {
			return nil, err
		}
		if err := r.vals.checkComplete(perLayer); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.PerLayer = collect(perLayer, r.vals)
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		if spanDir != "" {
			if rep.SpanFile, err = rec.write(spanDir); err != nil {
				return nil, fmt.Errorf("%s: writing spans: %w", w.name, err)
			}
		}
	}
	return rep, nil
}

// printReport writes one line per metric: workload, name, value, unit.
func printReport(out io.Writer, r *workloadReport) {
	if r.Partitioning != "" {
		fmt.Fprintf(out, "# %s: %d packets, partitioning %s\n", r.Name, r.Packets, r.Partitioning)
	}
	if r.Samples > 0 {
		fmt.Fprintf(out, "# %s: samples=%d tail_pct=%.1f\n", r.Name, r.Samples, r.TailPct)
	}
	for _, ms := range [][]metricValue{r.EndToEnd, r.PerLayer} {
		for _, m := range ms {
			fmt.Fprintf(out, "%-16s %-32s %16.6g %s\n", r.Name, m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(out, "%-16s %-32s %16d count\n", r.Name, "replays", r.Attempted)
	fmt.Fprintf(out, "%-16s %-32s %16d count\n", r.Name, "failed_replays", r.Failed)
}

// listing prints the workload and metric names without running.
func listing(out io.Writer) {
	for _, w := range workloads {
		fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "end_to_end %s %s better=%s bound=%g\n", d.name, d.unit, d.better, d.bound)
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "per_layer %s %s better=%s\n", d.name, d.unit, d.better)
	}
}

// driverLine is the one-object result the benchmark driver reads from
// the last line of standard output.
func driverLine(r *workloadReport, ms []metricValue) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(ms))
	for _, m := range ms {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "trace generator seed; the program under test sees only the generated packets")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase per workload")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only, tracing off; 1: the traced per-layer run only; -1: both")
	outPath := fs.String("out", "", "also write the summary as JSON to this file")
	spanDir := fs.String("spans", "bench/out", "directory the traced run writes trace-<workload>.json to")
	list := fs.Bool("list", false, "print the workload and metric names and exit")
	selfcheck := fs.Bool("selfcheck", false, "run everything twice (A B B A) and fail if the two sets disagree beyond the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		listing(stdout)
		return 0
	}
	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", *workloadName)
			return 2
		}
		selected = []*workload{w}
	}
	if *trace < -1 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace takes -1, 0 or 1 and -seconds a positive number")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	fmt.Fprintf(stdout, "# GOMAXPROCS=%d seed=%d seconds=%g\n", runtime.GOMAXPROCS(0), *seed, *seconds)
	sc := productionScale(*seconds)
	if *selfcheck {
		return selfCheck(selected, *seed, sc, stdout, stderr)
	}

	sum := summary{GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds}
	for _, w := range selected {
		rep, err := runWorkload(w, *seed, sc, *trace != 1, *trace != 0, *spanDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printReport(stdout, rep)
		sum.Workloads = append(sum.Workloads, *rep)
		sum.Attempted += rep.Attempted
		sum.Failed += rep.Failed
	}
	sum.Correct = sum.Failed == 0
	if *outPath != "" {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *outPath, err)
			return 1
		}
	}

	// The last line: for one workload in one mode, the driver's result
	// object; otherwise the run's own one-line summary.
	var last []byte
	var err error
	if len(selected) == 1 && *trace >= 0 {
		rep := &sum.Workloads[0]
		ms := rep.EndToEnd
		if *trace == 1 {
			ms = rep.PerLayer
		}
		last, err = driverLine(rep, ms)
	} else {
		last, err = json.Marshal(struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Workloads int     `json:"workloads"`
			Claim     *string `json:"claim"`
		}{sum.Correct, sum.Attempted, sum.Failed, len(sum.Workloads), nil})
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if sum.Failed > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
