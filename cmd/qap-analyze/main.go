// Command qap-analyze runs the query-aware partitioning analysis on a
// GSQL query set: it prints every query's inferred compatible
// partitioning set, the reconciled candidates with their costs, and
// the recommended optimal partitioning (paper Sections 3-4).
//
// Usage:
//
//	qap-analyze [-schema file] [-queries file] [-explain set] [-lint]
//
// Without -queries it analyzes the paper's Section 3.2 example set.
// With -lint it also prints the static semantic analyzer's QAP0xx
// diagnostics (see cmd/qap-lint for the standalone tool).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"qap"
	"qap/internal/netgen"
	"qap/internal/obs"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	schemaFile string
	queryFile  string
	explain    string
	dot        bool
	perStream  bool
	metricsOut string
	report     bool
	lint       bool
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.StringVar(&f.schemaFile, "schema", "", "stream DDL file (default: the built-in TCP schema)")
	fs.StringVar(&f.queryFile, "queries", "", "GSQL query set file (default: the paper's Section 3.2 set)")
	fs.StringVar(&f.explain, "explain", "", "also explain plan costs under this partitioning set, e.g. 'srcIP, destIP'")
	fs.BoolVar(&f.dot, "dot", false, "print the logical query DAG as Graphviz DOT and exit")
	fs.BoolVar(&f.perStream, "per-stream", false, "also run the per-stream analysis (one set per input stream)")
	fs.StringVar(&f.metricsOut, "metrics-out", "", "write the machine-readable JSON analysis report to this file")
	fs.BoolVar(&f.report, "report", false, "print the analysis report in Prometheus text format")
	fs.BoolVar(&f.lint, "lint", false, "also run the static semantic analyzer and print its QAP0xx diagnostics")
	return f
}

func main() {
	fl := defineFlags(flag.CommandLine)
	flag.Parse()
	schemaFile, queryFile := &fl.schemaFile, &fl.queryFile
	explain, dot, perStream := &fl.explain, &fl.dot, &fl.perStream
	metricsOut, report, lintFlag := &fl.metricsOut, &fl.report, &fl.lint

	ddl := netgen.SchemaDDL
	if *schemaFile != "" {
		b, err := os.ReadFile(*schemaFile)
		if err != nil {
			fatal(err)
		}
		ddl = string(b)
	}
	queries := qap.ComplexQuerySet
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		queries = string(b)
	}

	sys, err := qap.Load(ddl, queries)
	if err != nil {
		fatal(err)
	}
	if *dot {
		fmt.Print(sys.GraphDOT())
		return
	}
	fmt.Println("schema:")
	fmt.Println("  " + sys.Catalog.String())
	fmt.Printf("\nquery set (%d queries):\n", len(sys.Queries.Queries))
	for _, q := range sys.Queries.Queries {
		fmt.Printf("  %s\n", q.Name)
	}

	started := time.Now() //qap:allow walltime -- wall time quarantined in obs.Timing
	res, err := sys.Analyze(nil)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(started) //qap:allow walltime -- wall time quarantined in obs.Timing
	fmt.Println("\nanalysis:")
	fmt.Print(res.Summary())

	if *lintFlag {
		source := *queryFile
		if source == "" {
			source = "<builtin>"
		}
		fmt.Println("\nlint:")
		fmt.Print(sys.Lint(res, source).Human())
	}

	if *metricsOut != "" || *report {
		recommended := ""
		if !res.Best.IsEmpty() {
			recommended = res.Best.String()
		}
		rep := &obs.RunReport{
			SchemaVersion: obs.SchemaVersion,
			Search: &obs.SearchReport{
				Recommended: recommended,
				BestCost:    res.BestCost,
				CentralCost: res.CentralCost,
				Candidates:  len(res.Candidates),
				SearchStats: res.Search,
			},
			Timing: &obs.Timing{
				Engine:               "search",
				WallNanos:            int64(wall),
				SearchEnumerateNanos: res.Search.EnumerateNanos,
				SearchCostNanos:      res.Search.CostNanos,
			},
		}
		if *metricsOut != "" {
			if err := obs.WriteJSON(*metricsOut, rep); err != nil {
				fatal(err)
			}
			fmt.Printf("\nwrote analysis report to %s\n", *metricsOut)
		}
		if *report {
			fmt.Println("\nreport:")
			fmt.Print(rep.Prometheus())
		}
	}

	if *perStream {
		ps, err := sys.AnalyzePerStream(nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nper-stream analysis: %s\n", ps.Sets)
		if len(ps.CrossJoins) > 0 {
			fmt.Printf("  cross-stream joins aligned: %v\n", ps.CrossJoins)
		}
	}

	if *explain != "" {
		ps, err := qap.ParseSet(*explain)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ncost under %s: %.0f B/s (centralized %.0f B/s)\n",
			ps, sys.PlanCost(ps, nil), sys.PlanCost(nil, nil))
		// Sorted, not map order: tool output must be stable run to run.
		reqs := sys.Requirements()
		names := make([]string, 0, len(reqs))
		for name := range reqs { //qap:allow maprange -- keys collected then sorted below
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ok, _ := sys.Compatible(ps, name)
			fmt.Printf("  %-24s compatible=%v\n", name, ok)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qap-analyze:", err)
	os.Exit(1)
}
