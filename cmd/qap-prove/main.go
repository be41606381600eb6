// Command qap-prove emits and checks partition-correctness
// certificates: for every node of a GSQL query set's plan it
// constructs an explicit derivation — named scope-rule applications
// with paper-section citations and QAP codes — concluding either
// PARTITIONED≡CENTRAL or MUST-CENTRALIZE for a candidate partitioning
// set, and serializes the whole proof as a canonical JSON certificate
// an independent verifier can re-check against the plan.
//
// Usage:
//
//	qap-prove [-schema file] [-queries file] [-set 'srcIP & 0xFFF0'] \
//	          [-format human|json] [-out cert.json]
//	qap-prove [-schema file] [-queries file] -verify cert.json
//
// Without -queries it proves the paper's Section 3.2 example set;
// without -set it proves the partitioning the analysis recommends.
// -verify mode parses a serialized certificate and checks every
// derivation step against the plan, exiting 1 when the certificate
// does not hold. Output is deterministic: certificate bytes are
// identical across runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"qap"
	"qap/internal/netgen"
	"qap/internal/prove"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	schemaFile string
	queryFile  string
	set        string
	format     string
	out        string
	verifyFile string
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.StringVar(&f.schemaFile, "schema", "", "stream DDL file (default: the built-in TCP schema)")
	fs.StringVar(&f.queryFile, "queries", "", "GSQL query set file (default: the paper's Section 3.2 set)")
	fs.StringVar(&f.set, "set", "auto", "candidate partitioning set to prove; 'auto' proves the analysis's recommendation, '' proves the empty (round-robin) set")
	fs.StringVar(&f.format, "format", "human", "output format: human or json")
	fs.StringVar(&f.out, "out", "", "also write the canonical JSON certificate to this file")
	fs.StringVar(&f.verifyFile, "verify", "", "verify this serialized certificate against the plan instead of proving")
	return f
}

func main() {
	fl := defineFlags(flag.CommandLine)
	flag.Parse()

	if fl.format != "human" && fl.format != "json" {
		fatal(fmt.Errorf("unknown -format %q (want human or json)", fl.format))
	}

	ddl := netgen.SchemaDDL
	if fl.schemaFile != "" {
		b, err := os.ReadFile(fl.schemaFile)
		if err != nil {
			fatal(err)
		}
		ddl = string(b)
	}
	queries := qap.ComplexQuerySet
	if fl.queryFile != "" {
		b, err := os.ReadFile(fl.queryFile)
		if err != nil {
			fatal(err)
		}
		queries = string(b)
	}
	sys, err := qap.Load(ddl, queries)
	if err != nil {
		fatal(err)
	}

	if fl.verifyFile != "" {
		b, err := os.ReadFile(fl.verifyFile)
		if err != nil {
			fatal(err)
		}
		cert, err := prove.ParseCertificate(b)
		if err == nil {
			err = prove.Verify(sys.Graph, cert)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "qap-prove: certificate REJECTED:", err)
			os.Exit(1)
		}
		fmt.Printf("certificate verified: set %s, %d node proofs, plan fingerprint %s\n",
			cert.Set, len(cert.Nodes), cert.Fingerprint)
		return
	}

	ps, err := resolveSet(sys, fl.set)
	if err != nil {
		fatal(err)
	}
	cert := prove.Prove(sys.Graph, ps)
	// Self-check before emitting: a certificate qap-prove prints is
	// one the verifier accepts.
	if err := prove.Verify(sys.Graph, cert); err != nil {
		fatal(fmt.Errorf("internal error: emitted certificate fails verification: %w", err))
	}
	js, err := cert.CanonicalJSON()
	if err != nil {
		fatal(err)
	}
	if fl.out != "" {
		if err := os.WriteFile(fl.out, js, 0o644); err != nil {
			fatal(err)
		}
	}
	switch fl.format {
	case "json":
		os.Stdout.Write(js)
	default:
		fmt.Print(cert.Human())
	}
}

// resolveSet maps the -set flag to a partitioning set: "auto" runs
// the partitioning analysis and proves its recommendation; anything
// else (including the empty string) parses as an explicit set.
func resolveSet(sys *qap.System, set string) (qap.Set, error) {
	if set != "auto" {
		return qap.ParseSet(set)
	}
	analysis, err := sys.Analyze(nil)
	if err != nil {
		return nil, err
	}
	return analysis.Best, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qap-prove:", err)
	os.Exit(2)
}
