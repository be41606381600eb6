// Command qap-run executes a GSQL query set on the simulated cluster
// over a synthetic packet trace and reports the query outputs and the
// per-host CPU/network load, under a chosen partitioning strategy.
//
// Usage:
//
//	qap-run [-queries file] [-partition set] [-hosts n] [-rate pps]
//	        [-duration sec] [-seed n] [-show n] [-plan]
//
// Examples:
//
//	qap-run -partition srcIP -hosts 4
//	qap-run -queries monitor.gsql -partition 'srcIP & 0xFFF0, destIP'
//	qap-run -partition srcIP -metrics-out report.json   # JSON run report
//	qap-run -partition srcIP -report                    # Prometheus text
//	qap-run -drift -adaptive                            # drift + repartition
//	qap-run -drift -adaptive -trace-out run.jsonl       # causal trace
//	qap-run -partition srcIP -telemetry-addr :8080 -telemetry-hold 60s
//	qap-run -partition srcIP -engine live               # TCP cluster backend
//	qap-run -engine live -nodes 'host1:9430,host2:9430' # separate-process nodes
//
// With -engine live each simulated host runs as a node behind a real
// TCP listener (in-process by default; with -nodes, separate qap-node
// processes, which take the whole deployment from the splitter's
// handshake) and the splitter ships serialized tuple batches over
// persistent connections with credit-based backpressure. Outputs,
// metrics, and traces are byte-identical to the simulator's.
//
// With -drift the generated trace gains a second phase with the
// source/destination pools swapped and the rate trebled; with
// -adaptive the run is driven by the online repartitioning controller:
// load is monitored per -load-window, and when the measured max-host
// network rate exceeds -trigger-factor times the cost model's bound
// the statistics are refreshed, the optimizer re-runs, and the stream
// is replayed on the new partitioning.
//
// A monitored run (-load-window N; -adaptive and tracing default it to
// 10) ends its load report with a "load windows:" section, one line a
// window: its span of trace time, the peak per-host network rate and
// the host that has it.
//
// With -trace-out the run records a deterministic causal trace —
// events keyed by round, window, host, and operator, never wall clock
// — written as JSONL (inspect it with cmd/qap-trace). -trace-chrome
// writes the same trace as Chrome trace_event JSON for about:tracing.
// With -telemetry-addr the process serves live telemetry over HTTP:
// the run report's Prometheus rendering at /metrics, expvar counters
// at /debug/vars, and net/http/pprof under /debug/pprof/.
//
// To check a query set statically before running it — partitioning
// compatibility per node, window alignment, dead columns — see
// cmd/qap-lint.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"qap"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	queryFile     string
	partition     string
	hosts         int
	pph           int
	rate          int
	duration      int
	seed          int64
	show          int
	showPlan      bool
	dotPlan       bool
	naiveScope    bool
	noPartial     bool
	traceFile     string
	dumpFile      string
	workers       int
	batch         int
	metricsOut    string
	report        bool
	promOut       string
	drift         bool
	adaptive      bool
	triggerFactor float64
	loadWindow    int
	traceOut      string
	traceChrome   string
	traceRing     int
	telemetryAddr string
	telemetryHold time.Duration
	engine        string
	nodes         string
	netTimeout    time.Duration
	driveTimeout  time.Duration
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.StringVar(&f.queryFile, "queries", "", "GSQL query set file (default: the paper's Section 3.2 set)")
	fs.StringVar(&f.partition, "partition", "", "partitioning set, e.g. 'srcIP, destIP' (empty = round robin)")
	fs.IntVar(&f.hosts, "hosts", 4, "cluster size")
	fs.IntVar(&f.pph, "pph", 2, "stream partitions per host")
	fs.IntVar(&f.rate, "rate", 2000, "trace packet rate (packets/sec)")
	fs.IntVar(&f.duration, "duration", 120, "trace duration (sec)")
	fs.Int64Var(&f.seed, "seed", 1, "trace random seed")
	fs.IntVar(&f.show, "show", 5, "result rows to print per query")
	fs.BoolVar(&f.showPlan, "plan", false, "print the distributed physical plan")
	fs.BoolVar(&f.dotPlan, "dot", false, "print the physical plan as Graphviz DOT and exit")
	fs.BoolVar(&f.naiveScope, "naive", false, "use per-partition (naive) partial aggregation")
	fs.BoolVar(&f.noPartial, "nopartial", false, "disable partial aggregation (required for the Section 4.2.1 load bound to be tight)")
	fs.StringVar(&f.traceFile, "trace", "", "CSV packet trace file to replay instead of generating one")
	fs.StringVar(&f.dumpFile, "dump", "", "write the generated packet trace to this CSV file")
	fs.IntVar(&f.workers, "workers", runtime.GOMAXPROCS(0), "simulator worker goroutines (1 = sequential engine: one executor, with the splitter on a goroutine of its own; results are identical for any value)")
	fs.IntVar(&f.batch, "batch", 0, "operator batch size (0 = engine default, 1 = the scalar oracle, sequential simulator only; results are identical for any value)")
	fs.StringVar(&f.metricsOut, "metrics-out", "", "write the machine-readable JSON run report to this file")
	fs.BoolVar(&f.report, "report", false, "print the run report in Prometheus text format")
	fs.StringVar(&f.promOut, "prom-out", "", "write the run report in Prometheus text format to this file")
	fs.BoolVar(&f.drift, "drift", false, "append a drifted phase to the generated trace: pools swapped, 3x rate, same duration")
	fs.BoolVar(&f.adaptive, "adaptive", false, "monitor load and repartition online when the bound is violated")
	fs.Float64Var(&f.triggerFactor, "trigger-factor", 1.5, "repartition when measured load exceeds this factor times the bound")
	fs.IntVar(&f.loadWindow, "load-window", 0, "load-monitoring window in trace seconds (0 = off; -adaptive and tracing default to 10)")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the run's deterministic causal trace as JSONL to this file (inspect with qap-trace)")
	fs.StringVar(&f.traceChrome, "trace-chrome", "", "write the run's causal trace as Chrome trace_event JSON to this file")
	fs.IntVar(&f.traceRing, "trace-ring", 0, "bound the causal trace to the last n events per island (flight recorder; 0 = whole-run capture)")
	fs.StringVar(&f.telemetryAddr, "telemetry-addr", "", "serve live telemetry over HTTP on this address: /metrics, /debug/vars, /debug/pprof/")
	fs.DurationVar(&f.telemetryHold, "telemetry-hold", 0, "keep serving telemetry this long after the run before exiting (0 = exit immediately)")
	fs.StringVar(&f.engine, "engine", "sim", "cluster backend: sim (in-process simulator) or live (TCP nodes; results are identical)")
	fs.StringVar(&f.nodes, "nodes", "", "comma-separated qap-node addresses, one per host (live engine; empty = in-process nodes)")
	fs.DurationVar(&f.netTimeout, "net-timeout", 0, "live transport timeout: dial, read, and credit waits (0 = 30s default)")
	fs.DurationVar(&f.driveTimeout, "drive-timeout", 0, "fail the run if the drive loop stalls this long (0 = live transport timeout; sim unguarded)")
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	queries := qap.ComplexQuerySet
	if f.queryFile != "" {
		b, err := os.ReadFile(f.queryFile)
		if err != nil {
			fatal(err)
		}
		queries = string(b)
	}
	sys, err := qap.Load(netgen.SchemaDDL, queries)
	if err != nil {
		fatal(err)
	}

	var ps qap.Set
	if f.partition != "" {
		ps, err = qap.ParseSet(f.partition)
		if err != nil {
			fatal(err)
		}
	}
	scope := qap.ScopeHost
	if f.naiveScope {
		scope = qap.ScopePartition
	}
	params := map[string]qap.Value{"PATTERN": qap.Uint(netgen.AttackPattern)}

	// Assemble the trace. preDriftSec is how much of its prefix is
	// representative of the pre-drift regime (used by -adaptive to
	// measure deploy-time statistics).
	var packets []netgen.Packet
	preDriftSec := uint64(f.duration)
	if f.traceFile != "" {
		file, err := os.Open(f.traceFile)
		if err != nil {
			fatal(err)
		}
		packets, err = netgen.ReadCSV(file)
		file.Close()
		if err != nil {
			fatal(err)
		}
		if n := len(packets); n > 0 {
			// Without generator metadata, treat the first half of the
			// replayed trace as the pre-drift regime.
			preDriftSec = (packets[n-1].Time + 1) / 2
		}
		fmt.Printf("trace: %d packets from %s\n", len(packets), f.traceFile)
	} else {
		cfg := netgen.DefaultConfig()
		cfg.Seed, cfg.DurationSec, cfg.PacketsPerSec = f.seed, f.duration, f.rate
		if f.drift {
			cfg.Phases = []netgen.Phase{
				{DurationSec: f.duration},
				{DurationSec: f.duration, PacketsPerSec: 3 * f.rate,
					SrcHosts: cfg.DstHosts, DstHosts: cfg.SrcHosts},
			}
		}
		if err := cfg.Validate(); err != nil {
			fatal(err)
		}
		gen := netgen.Generate(cfg)
		packets = gen.Packets
		fmt.Printf("trace: %d packets over %ds (%d flows, %d suspicious)\n",
			len(packets), cfg.TotalDurationSec(), gen.TotalFlows, gen.AttackFlows)
	}
	if f.dumpFile != "" {
		file, err := os.Create(f.dumpFile)
		if err != nil {
			fatal(err)
		}
		err = netgen.WriteCSV(file, packets)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace to %s\n", f.dumpFile)
	}

	// Live telemetry starts before the run so the pprof endpoints can
	// profile it; /metrics serves the report once the run publishes it.
	tel, err := f.startTelemetry()
	if err != nil {
		fatal(err)
	}

	baseCfg := qap.DeployConfig{
		Hosts:             f.hosts,
		PartitionsPerHost: f.pph,
		Partitioning:      ps,
		PartialScope:      scope,
		DisablePartialAgg: f.noPartial,
		Costs:             qap.CostConfig{CapacityPerSec: float64(f.rate) * 3},
		Params:            params,
		Workers:           f.workers,
		BatchSize:         f.batch,
		CollectStats:      f.metricsOut != "" || f.report || f.promOut != "" || f.telemetryAddr != "",
		LoadWindowSec:     f.loadWindow,
		Engine:            f.engine,
		Live:              qap.LiveOptions{Nodes: splitNodes(f.nodes), Timeout: f.netTimeout},
		DriveTimeout:      f.driveTimeout,
	}
	if tc := f.traceConfig(); tc != nil {
		baseCfg.Trace = tc
	}

	var res *qap.RunResult
	var runTrace *qap.RunTrace
	if f.adaptive {
		res, runTrace = runAdaptive(sys, baseCfg, packets, preDriftSec, f.triggerFactor, f.loadWindow)
	} else {
		dep, err := sys.Deploy(baseCfg)
		if err != nil {
			fatal(err)
		}
		if f.dotPlan {
			fmt.Print(dep.PlanDOT())
			return
		}
		if f.showPlan {
			fmt.Println("distributed plan:")
			fmt.Print(dep.PlanString())
			fmt.Println()
		}
		if ps.IsEmpty() {
			fmt.Println("partitioning: round robin (query-agnostic)")
		} else {
			fmt.Printf("partitioning: %s\n", ps)
		}
		res, err = dep.Run("TCP", packets)
		if err != nil {
			fatal(err)
		}
		runTrace = res.Trace
	}

	printOutputs(res, f.show)
	fmt.Println("\nload:")
	fmt.Print(res.Metrics.String())
	printLoadWindows(res.LoadSeries)

	f.writeTrace(runTrace)

	if rep := res.Report(); rep != nil {
		if f.metricsOut != "" {
			b, err := rep.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(f.metricsOut, b, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote run report to %s\n", f.metricsOut)
		}
		if f.promOut != "" {
			if err := os.WriteFile(f.promOut, []byte(rep.Prometheus()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote Prometheus report to %s\n", f.promOut)
		}
		if tel != nil {
			tel.SetReport(rep)
		}
		if f.report {
			fmt.Println("\nreport:")
			fmt.Print(rep.Prometheus())
		}
	}

	if tel != nil && f.telemetryHold > 0 {
		fmt.Printf("\nholding telemetry for %s\n", f.telemetryHold)
		time.Sleep(f.telemetryHold) //qap:allow walltime -- interactive serving window, not simulated results
	}
}

// printLoadWindows prints a monitored run's load series, one line a
// window: its span of trace time, the peak per-host network ingress
// rate and the host that has it ("-" when no host received a byte).
func printLoadWindows(series []qap.LoadWindow) {
	if len(series) == 0 {
		return
	}
	fmt.Println("\nload windows:")
	for _, w := range series {
		host, rate := w.MaxHost()
		at := "-"
		if host >= 0 {
			at = strconv.Itoa(host)
		}
		fmt.Printf("  [%d,%d)s  max-host net %.0f B/s  host %s\n", w.StartSec, w.EndSec, rate, at)
	}
}

// traceConfig maps the -trace-* flags onto a capture config, nil when
// tracing is off (the default: tracing must cost nothing unless asked
// for).
func (f *appFlags) traceConfig() *qap.RunTraceConfig {
	if f.traceOut == "" && f.traceChrome == "" {
		return nil
	}
	cfg := &qap.RunTraceConfig{}
	if f.traceRing > 0 {
		cfg.Mode = trace.ModeRing
		cfg.RingSize = f.traceRing
	}
	return cfg
}

// writeTrace exports the run's causal trace per the -trace-* flags.
func (f *appFlags) writeTrace(tr *qap.RunTrace) {
	if tr == nil {
		return
	}
	if f.traceOut != "" {
		b, err := tr.JSONL()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(f.traceOut, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote causal trace (%d records) to %s\n", len(tr.Records), f.traceOut)
	}
	if f.traceChrome != "" {
		b, err := tr.ChromeJSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(f.traceChrome, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s\n", f.traceChrome)
	}
}

// startTelemetry brings up the -telemetry-addr HTTP listener, nil when
// the flag is unset.
func (f *appFlags) startTelemetry() (*qap.Telemetry, error) {
	if f.telemetryAddr == "" {
		return nil, nil
	}
	tel := qap.NewTelemetry()
	ln, err := tel.Serve(f.telemetryAddr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("telemetry: http://%s (/metrics, /debug/vars, /debug/pprof/)\n", ln.Addr())
	return tel, nil
}

// runAdaptive drives the online repartitioning controller: measure
// statistics on the pre-drift prefix, optimize, then run the full
// trace under monitoring with the given trigger. Returns the final
// (authoritative) run result and the composed causal trace.
func runAdaptive(sys *qap.System, deploy qap.DeployConfig, packets []netgen.Packet, preDriftSec uint64, factor float64, loadWindow int) (*qap.RunResult, *qap.RunTrace) {
	cut := sort.Search(len(packets), func(i int) bool { return packets[i].Time >= preDriftSec })
	stats, err := sys.MeasureStats(map[string][]netgen.Packet{"TCP": packets[:cut]})
	if err != nil {
		fatal(fmt.Errorf("measuring pre-drift statistics: %w", err))
	}
	analysis, err := sys.Analyze(stats)
	if err != nil {
		fatal(err)
	}
	if deploy.Partitioning.IsEmpty() {
		deploy.Partitioning = analysis.Best
	}
	fmt.Printf("partitioning: %s (adaptive, trigger %.2fx bound)\n", deploy.Partitioning, factor)

	ares, err := sys.RunAdaptive(qap.AdaptiveConfig{
		Deploy:        deploy,
		Stats:         stats,
		Analysis:      analysis,
		TriggerFactor: factor,
		LoadWindowSec: loadWindow,
	}, map[string][]netgen.Packet{"TCP": packets})
	if err != nil {
		fatal(err)
	}

	if ares.TriggerWindow < 0 {
		fmt.Printf("trigger: never fired (bound %.0f B/s, factor %.2f)\n", ares.Bound, ares.TriggerFactor)
		return ares.Final, ares.Trace
	}
	fmt.Printf("trigger: window %d (t=%ds) measured %.0f B/s > %.2f x bound %.0f B/s\n",
		ares.TriggerWindow, ares.SwitchTimeSec, ares.TriggerRate, ares.TriggerFactor, ares.Bound)
	if !ares.Repartitioned {
		fmt.Printf("re-optimization confirmed %s; no switch\n", ares.InitialSet)
		return ares.Final, ares.Trace
	}
	fmt.Printf("repartitioned: %s -> %s at t=%ds\n", ares.InitialSet, ares.FinalSet, ares.SwitchTimeSec)
	fmt.Printf("post-switch peak %.0f B/s vs refreshed bound %.0f B/s (within bound: %v)\n",
		ares.PostSwitchPeak, ares.NewBound, ares.WithinBoundAfterSwitch())
	return ares.Final, ares.Trace
}

func printOutputs(res *qap.RunResult, show int) {
	for _, name := range res.OutputNames() {
		rows := res.Outputs[name]
		fmt.Printf("\n%s: %d rows\n", name, len(rows))
		for i, r := range rows {
			if i >= show {
				fmt.Printf("  ... %d more\n", len(rows)-show)
				break
			}
			fmt.Printf("  %s\n", r)
		}
	}
}

// splitNodes parses the -nodes list; empty means in-process nodes.
func splitNodes(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qap-run:", err)
	os.Exit(1)
}
