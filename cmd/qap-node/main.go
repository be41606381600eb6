// Command qap-node serves one host of a live cluster deployment as its
// own OS process: it compiles the same distributed plan the splitter
// (qap-run -engine live) uses, binds the chosen host's operators to a
// TCP listener, executes the serialized tuple batches the splitter
// ships, and streams the island-crossing results back. When the run
// completes, the node ships its result shards (metrics, operator
// stats, monitoring windows, trace events) and exits.
//
// Usage:
//
//	qap-node -host 0 -listen :9430 [deployment flags]
//
// The deployment flags (-queries, -partition, -hosts, -pph, -rate,
// -batch, ...) must match the splitter's invocation exactly: both
// sides hash their deployment configuration into a fingerprint and the
// handshake rejects a mismatch, so a misconfigured node fails fast
// instead of silently diverging.
//
// Example — a 2-host cluster on three terminals:
//
//	qap-node -host 0 -listen :9430 -partition srcIP -hosts 2
//	qap-node -host 1 -listen :9431 -partition srcIP -hosts 2
//	qap-run -engine live -nodes 'localhost:9430,localhost:9431' -partition srcIP -hosts 2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qap"
	"qap/internal/netgen"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	host        int
	listen      string
	acceptGrace time.Duration
	netTimeout  time.Duration

	// Deployment flags — the splitter's vocabulary, same defaults.
	queryFile  string
	partition  string
	hosts      int
	pph        int
	rate       int
	naiveScope bool
	noPartial  bool
	batch      int
	collect    bool
	loadWindow int
	traceOn    bool
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.IntVar(&f.host, "host", 0, "which leaf host of the deployment this node serves")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:0", "TCP listen address for the splitter to dial")
	fs.DurationVar(&f.acceptGrace, "accept-grace", 2*time.Minute, "how long to wait for the splitter's first connection")
	fs.DurationVar(&f.netTimeout, "net-timeout", 0, "live transport timeout: read, write, and credit waits (0 = 30s default)")
	fs.StringVar(&f.queryFile, "queries", "", "GSQL query set file (default: the paper's Section 3.2 set)")
	fs.StringVar(&f.partition, "partition", "", "partitioning set, e.g. 'srcIP, destIP' (empty = round robin)")
	fs.IntVar(&f.hosts, "hosts", 4, "cluster size")
	fs.IntVar(&f.pph, "pph", 2, "stream partitions per host")
	fs.IntVar(&f.rate, "rate", 2000, "trace packet rate (packets/sec); sets the capacity model like qap-run")
	fs.BoolVar(&f.naiveScope, "naive", false, "use per-partition (naive) partial aggregation")
	fs.BoolVar(&f.noPartial, "nopartial", false, "disable partial aggregation")
	fs.IntVar(&f.batch, "batch", 0, "operator batch size (0 = engine default; must be > 1: 1 is the scalar oracle, which no node serves)")
	fs.BoolVar(&f.collect, "collect", false, "collect per-operator stats (match the splitter: -metrics-out/-report/-prom-out/-telemetry-addr imply it)")
	fs.IntVar(&f.loadWindow, "load-window", 0, "load-monitoring window in trace seconds (match the splitter)")
	fs.BoolVar(&f.traceOn, "trace", false, "enable causal tracing (match the splitter's -trace-out/-trace-chrome)")
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
	cfg := qap.DeployConfig{
		Hosts:             f.hosts,
		PartitionsPerHost: f.pph,
		Partitioning:      ps,
		PartialScope:      scope,
		DisablePartialAgg: f.noPartial,
		Costs:             qap.CostConfig{CapacityPerSec: float64(f.rate) * 3},
		Params:            map[string]qap.Value{"PATTERN": qap.Uint(netgen.AttackPattern)},
		BatchSize:         f.batch,
		CollectStats:      f.collect,
		LoadWindowSec:     f.loadWindow,
		Engine:            qap.EngineLive,
		Live: qap.LiveOptions{
			Timeout:     f.netTimeout,
			AcceptGrace: f.acceptGrace,
		},
	}
	if f.traceOn {
		cfg.Trace = &qap.RunTraceConfig{}
	}
	dep, err := sys.Deploy(cfg)
	if err != nil {
		fatal(err)
	}
	err = dep.ServeLiveHost(f.host, f.listen, func(addr string) {
		fmt.Printf("qap-node: host %d listening on %s\n", f.host, addr)
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qap-node: host %d done\n", f.host)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qap-node:", err)
	os.Exit(1)
}
