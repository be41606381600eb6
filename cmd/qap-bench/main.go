// Command qap-bench regenerates the data behind every measured figure
// of the paper's evaluation (Figures 8, 9, 10, 11, 13, 14) and prints
// the same series as text tables.
//
// Usage:
//
//	qap-bench [-fig 8|10|13|all] [-rate pps] [-duration sec]
//	          [-hosts n] [-leaf]
//	qap-bench -drift [-workers n] [-batch n]
//	qap-bench -check dir
//
// A figure number selects the experiment that produces it (CPU and
// network figures come from the same sweep: 8 prints 8+9, 10 prints
// 10+11, 13 prints 13+14).
//
// -drift runs the adaptive-repartitioning experiment instead: a
// two-phase skew-shift trace under the default drift scenario, static
// versus adaptive, and, with -bench-out, writes BENCH_drift.json (the
// per-window static/adaptive load comparison plus the trigger and
// bound verdicts; see EXPERIMENTS.md).
//
// -check re-validates the committed bench report without re-running
// the experiment: it decodes BENCH_drift.json from the given directory
// (strictly — schema version asserted), recomputes every derived gate
// field from the stored raw measurements, and exits nonzero when a
// verdict disagrees with what is committed or a gate no longer holds.
// CI runs it so a stale bench file fails fast.
//
// Execution throughput is not measured here: that is the repository's
// benchmark, bash bench/run.sh (BENCHMARK.json, bench/README.md).
//
// Reported numbers are deterministic for any -workers value; the
// determinism contract is machine-enforced by cmd/qap-vet, and the
// wall-clock reads below are quarantined under the report's "timing"
// key.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qap"
	"qap/internal/obs"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	fig        string
	rate       int
	duration   int
	hosts      int
	seed       int64
	leaf       bool
	workers    int
	batch      int
	benchOut   string
	driftBench bool
	check      string
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.StringVar(&f.fig, "fig", "all", "figure to regenerate: 8, 9, 10, 11, 13, 14, or all")
	fs.IntVar(&f.rate, "rate", 1500, "trace packet rate (packets/sec)")
	fs.IntVar(&f.duration, "duration", 300, "trace duration (sec)")
	fs.IntVar(&f.hosts, "hosts", 4, "maximum cluster size")
	fs.Int64Var(&f.seed, "seed", 1, "trace random seed")
	fs.BoolVar(&f.leaf, "leaf", false, "also print the Section 6.1 leaf-load series")
	fs.IntVar(&f.workers, "workers", runtime.GOMAXPROCS(0), "simulator worker goroutines (1 = sequential engine; results are identical for any value)")
	fs.IntVar(&f.batch, "batch", 0, "operator batch size (0 = engine default, 1 = tuple-at-a-time; results are identical for any value)")
	fs.StringVar(&f.benchOut, "bench-out", "", "also write each experiment's machine-readable BENCH_<name>.json into this directory")
	fs.BoolVar(&f.driftBench, "drift", false, "run the adaptive-repartitioning drift experiment instead of the figure experiments")
	fs.StringVar(&f.check, "check", "", "re-validate the committed BENCH_drift.json in this directory against its embedded gates and exit")
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	if f.check != "" {
		runCheck(f.check)
		return
	}

	cfg := qap.DefaultExperimentConfig()
	cfg.Trace.Seed = f.seed
	cfg.Trace.PacketsPerSec = f.rate
	cfg.Trace.DurationSec = f.duration
	cfg.MaxHosts = f.hosts
	cfg.Workers = f.workers
	cfg.BatchSize = f.batch

	if f.driftBench {
		runDrift(f.seed, f.workers, f.batch, f.benchOut)
		return
	}

	type experiment struct {
		name string
		ids  []string
		run  func(qap.ExperimentConfig) (*qap.Figure, *qap.Figure, error)
	}
	experiments := []experiment{
		{"fig8_9", []string{"8", "9"}, qap.Figures8and9},
		{"fig10_11", []string{"10", "11"}, qap.Figures10and11},
		{"fig13_14", []string{"13", "14"}, qap.Figures13and14},
	}

	ran := false
	for _, ex := range experiments {
		if f.fig != "all" && f.fig != ex.ids[0] && f.fig != ex.ids[1] {
			continue
		}
		ran = true
		started := time.Now() //qap:allow walltime -- wall time quarantined in obs.Timing
		cpu, net, err := ex.run(cfg)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(started) //qap:allow walltime -- wall time quarantined in obs.Timing
		fmt.Println(cpu.Table())
		fmt.Println(net.Table())
		if f.benchOut != "" {
			writeBench(f.benchOut, ex.name, cfg, wall, cpu, net)
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown figure %q (use 8, 9, 10, 11, 13, 14, or all)", f.fig))
	}

	if f.leaf {
		started := time.Now() //qap:allow walltime -- wall time quarantined in obs.Timing
		loads, err := qap.LeafLoads(cfg)
		if err != nil {
			fatal(err)
		}
		wall := time.Since(started) //qap:allow walltime -- wall time quarantined in obs.Timing
		fmt.Println("Section 6.1 leaf-node CPU load (Naive configuration):")
		fmt.Printf("%8s  %10s\n", "# nodes", "leaf CPU %")
		hosts := make([]int, len(loads))
		for i, l := range loads {
			fmt.Printf("%8d  %10.1f\n", i+1, l)
			hosts[i] = i + 1
		}
		if f.benchOut != "" {
			leafFig := &qap.Figure{
				ID: "leaf", Title: "Leaf-node CPU load (Naive)", Metric: "CPU load (%)",
				Hosts:  hosts,
				Series: []qap.Series{{Name: "Naive", Values: loads}},
			}
			writeBench(f.benchOut, "leaf", cfg, wall, leafFig)
		}
	}
}

// runCheck is the -check mode: decode the committed bench report
// strictly and recompute every derived gate verdict from the stored
// raw measurements. Any disagreement — or a gate that no longer holds
// — exits nonzero.
func runCheck(dir string) {
	problems := checkDrift(filepath.Join(dir, "BENCH_drift.json"))
	if problems > 0 {
		fmt.Printf("check: %d problem(s)\n", problems)
		os.Exit(1)
	}
	fmt.Println("check: all bench gates hold")
}

// checkDrift re-validates BENCH_drift.json; returns the problem count.
func checkDrift(path string) int {
	bad := func(format string, args ...any) int {
		fmt.Printf("check %s: FAIL: %s\n", path, fmt.Sprintf(format, args...))
		return 1
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return bad("%v", err)
	}
	var rep obs.DriftBenchReport
	if err := obs.DecodeStrict(data, &rep); err != nil {
		return bad("%v", err)
	}
	problems := 0
	if rep.TriggerWindow < 0 {
		problems += bad("trigger never fired; the drift scenario must violate the bound")
	}
	if !rep.Repartitioned {
		problems += bad("controller did not repartition; the drift scenario must switch sets")
	}
	within := rep.PostSwitchPeakBps <= rep.TriggerFactor*rep.NewBound
	if within != rep.WithinBoundAfterSwitch {
		problems += bad("stored within_bound_after_switch=%v but recomputed %v (peak %.0f vs %.2f x bound %.0f)",
			rep.WithinBoundAfterSwitch, within, rep.PostSwitchPeakBps, rep.TriggerFactor, rep.NewBound)
	}
	if !within {
		problems += bad("post-switch peak %.0f B/s exceeds %.2f x refreshed bound %.0f B/s",
			rep.PostSwitchPeakBps, rep.TriggerFactor, rep.NewBound)
	}
	// The per-window rows must cover the trigger window and mark the
	// post-switch windows as running the final set.
	seenTrigger := false
	for _, row := range rep.Rows {
		if row.Window == rep.TriggerWindow {
			seenTrigger = true
		}
		if rep.Repartitioned && row.StartSec >= rep.SwitchTimeSec && !row.AdaptiveUsesFinalSet {
			problems += bad("window %d starts at t=%ds (after the switch at t=%ds) but is not marked as using the final set",
				row.Window, row.StartSec, rep.SwitchTimeSec)
		}
	}
	if rep.TriggerWindow >= 0 && !seenTrigger {
		problems += bad("trigger window %d missing from the per-window rows", rep.TriggerWindow)
	}
	if problems == 0 {
		fmt.Printf("check %s: ok (trigger window %d, repartitioned, within bound)\n", path, rep.TriggerWindow)
	}
	return problems
}

// writeBench emits one experiment's BENCH_<name>.json: the figure
// series (deterministic) plus the wall-clock cost of producing them.
func writeBench(dir, name string, cfg qap.ExperimentConfig, wall time.Duration, figs ...*qap.Figure) {
	rep := &obs.BenchReport{
		SchemaVersion: obs.SchemaVersion,
		Name:          name,
		Config: obs.BenchConfig{
			RatePPS:     cfg.Trace.PacketsPerSec,
			DurationSec: cfg.Trace.DurationSec,
			MaxHosts:    cfg.MaxHosts,
			Seed:        cfg.Trace.Seed,
			Workers:     cfg.Workers,
		},
		WallNanos: int64(wall),
	}
	runs := 0
	for _, f := range figs {
		bf := obs.BenchFigure{ID: f.ID, Title: f.Title, Metric: f.Metric, Hosts: f.Hosts}
		for _, s := range f.Series {
			bf.Series = append(bf.Series, obs.BenchSeries{Name: s.Name, Values: s.Values})
		}
		rep.Figures = append(rep.Figures, bf)
	}
	// The CPU and network figures of one experiment come from the same
	// sweep, so the run count is one figure's series x cluster sizes.
	if len(figs) > 0 {
		runs = len(figs[0].Series) * len(figs[0].Hosts)
	}
	if sec := wall.Seconds(); sec > 0 {
		packets := float64(runs) * float64(cfg.Trace.PacketsPerSec) * float64(cfg.Trace.DurationSec)
		rep.SimulatedPacketsPerSec = packets / sec
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := obs.WriteJSON(path, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// runDrift executes the adaptive-repartitioning drift experiment and
// prints the static-vs-adaptive per-window comparison; with benchOut it
// also writes BENCH_drift.json.
func runDrift(seed int64, workers, batch int, benchOut string) {
	sc := qap.DefaultDriftScenario()
	sc.Trace.Seed = seed
	sc.Workers = workers
	sc.BatchSize = batch
	rep, ares, err := qap.RunDriftExperiment(sc)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Adaptive repartitioning under drift (window %ds, trigger %.2fx bound):\n",
		rep.LoadWindowSec, rep.TriggerFactor)
	fmt.Printf("  initial set %s (bound %.0f B/s)\n", rep.InitialSet, rep.Bound)
	if rep.TriggerWindow < 0 {
		fmt.Println("  trigger never fired")
	} else {
		fmt.Printf("  trigger: window %d, measured %.0f B/s; switch at t=%ds\n",
			rep.TriggerWindow, rep.TriggerRate, rep.SwitchTimeSec)
		fmt.Printf("  final set %s (refreshed bound %.0f B/s), repartitioned=%v\n",
			rep.FinalSet, rep.NewBound, rep.Repartitioned)
		fmt.Printf("  post-switch peak %.0f B/s, within bound: %v\n",
			rep.PostSwitchPeakBps, rep.WithinBoundAfterSwitch)
	}
	fmt.Printf("%8s  %8s  %14s  %14s  %s\n", "window", "t (s)", "static B/s", "adaptive B/s", "set")
	for _, row := range rep.Rows {
		set := rep.InitialSet
		if row.AdaptiveUsesFinalSet {
			set = rep.FinalSet
		}
		fmt.Printf("%8d  %8d  %14.0f  %14.0f  %s\n",
			row.Window, row.StartSec, row.StaticMaxHostBps, row.AdaptiveMaxHostBps, set)
	}
	_ = ares

	if benchOut != "" {
		path := filepath.Join(benchOut, "BENCH_drift.json")
		if err := obs.WriteJSON(path, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qap-bench:", err)
	os.Exit(1)
}
