// Command qap-lint runs the static semantic analyzer over a GSQL
// query set: it parses the queries, builds the logical plan DAG, runs
// the partitioning analysis, and reports QAP0xx diagnostics — which
// candidate partitioning sets each node is compatible with and which
// scope rule excluded the rest (paper Sections 3.4-3.5), window
// alignment across join inputs, HAVING placement under the sub/super
// aggregate split, holistic aggregates, dead columns, and outer-join
// NULL-padding hazards (Sections 5.2-5.4).
//
// Usage:
//
//	qap-lint [-schema file] [-queries file] [-sets 'a; b & 0xF'] [-format human|json]
//
// Without -queries it lints the paper's Section 3.2 example set. The
// exit status is 1 when any error-severity diagnostic (or a parse or
// plan failure, reported as QAP000) is present, 0 otherwise. Output is
// deterministic: byte-identical across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qap"
	"qap/internal/lint"
	"qap/internal/netgen"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	schemaFile string
	queryFile  string
	sets       string
	format     string
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.StringVar(&f.schemaFile, "schema", "", "stream DDL file (default: the built-in TCP schema)")
	fs.StringVar(&f.queryFile, "queries", "", "GSQL query set file (default: the paper's Section 3.2 set)")
	fs.StringVar(&f.sets, "sets", "", "semicolon-separated candidate partitioning sets to explain (default: derived from the analysis)")
	fs.StringVar(&f.format, "format", "human", "output format: human or json")
	return f
}

func main() {
	fl := defineFlags(flag.CommandLine)
	flag.Parse()
	schemaFile, queryFile := &fl.schemaFile, &fl.queryFile
	setsFlag, format := &fl.sets, &fl.format

	if *format != "human" && *format != "json" {
		fatal(fmt.Errorf("unknown -format %q (want human or json)", *format))
	}

	ddl := netgen.SchemaDDL
	if *schemaFile != "" {
		b, err := os.ReadFile(*schemaFile)
		if err != nil {
			fatal(err)
		}
		ddl = string(b)
	}
	queries := qap.ComplexQuerySet
	source := "<builtin>"
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fatal(err)
		}
		queries = string(b)
		source = *queryFile
	}

	var sets []qap.Set
	for _, s := range strings.Split(*setsFlag, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		ps, err := qap.ParseSet(s)
		if err != nil {
			fatal(err)
		}
		sets = append(sets, ps)
	}

	rep := run(ddl, queries, source, sets)
	switch *format {
	case "json":
		b, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	default:
		fmt.Print(rep.Human())
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

func run(ddl, queries, source string, sets []qap.Set) *qap.LintReport {
	sys, err := qap.Load(ddl, queries)
	if err != nil {
		return qap.LintLoadError(source, err)
	}
	var analysis *qap.Analysis
	if len(sets) == 0 {
		analysis, err = sys.Analyze(nil)
		if err != nil {
			return qap.LintLoadError(source, err)
		}
	}
	var lopts lint.Options
	lopts.Source = source
	lopts.Sets = sets
	lopts.Analysis = analysis
	return lint.Run(sys.Graph, sys.Queries, lopts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qap-lint:", err)
	os.Exit(2)
}
