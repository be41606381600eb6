// Command qap-difftest runs the randomized differential tester from
// the command line: generate seeded workloads, run the equivalence
// oracle over each, and print PASS/FAIL per seed. On failure the
// output is a complete, minimized repro — the seed, the trace
// configuration literal, the generated query text, and the command
// that re-runs exactly that workload.
//
// Usage:
//
//	qap-difftest [-seed n] [-n count] [-hosts list] [-workers list]
//	             [-batches list] [-live] [-v]
//
// Examples:
//
//	qap-difftest -n 50                 # seeds 0..49
//	qap-difftest -seed 1337            # reproduce one seed
//	qap-difftest -seed 7 -v            # verbose: show the workload too
//	qap-difftest -n 5 -live            # include the live TCP backend axis
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qap/internal/difftest"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	seed    int64
	n       int64
	hosts   string
	workers string
	batches string
	live    bool
	verbose bool
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.Int64Var(&f.seed, "seed", -1, "check exactly this workload seed (repro mode)")
	fs.Int64Var(&f.n, "n", 20, "number of seeds to check, starting at 0 (ignored with -seed)")
	fs.StringVar(&f.hosts, "hosts", "1,2,4", "comma-separated host counts to sweep")
	fs.StringVar(&f.workers, "workers", "1,4", "comma-separated simulator worker counts to sweep (results are identical for any value; the live engine ignores it)")
	fs.StringVar(&f.batches, "batches", "1,7,64,1024", "comma-separated operator batch sizes for the batched cells (results are identical for any value)")
	fs.BoolVar(&f.live, "live", false, "add the live cells: every host count at batch 7 and 256 on the live TCP backend, plus injected transport faults")
	fs.BoolVar(&f.verbose, "v", false, "print the generated workload for passing seeds too")
	return f
}

func main() {
	fl := defineFlags(flag.CommandLine)
	flag.Parse()
	seed, n := &fl.seed, &fl.n
	hosts, workers, batches, verbose := &fl.hosts, &fl.workers, &fl.batches, &fl.verbose

	opts := difftest.Options{
		Hosts:      parseInts(*hosts),
		Workers:    parseInts(*workers),
		BatchSizes: parseInts(*batches),
		Live:       fl.live,
	}
	seeds := make([]int64, 0, *n)
	if *seed >= 0 {
		seeds = append(seeds, *seed)
	} else {
		for s := int64(0); s < *n; s++ {
			seeds = append(seeds, s)
		}
	}

	failed := 0
	for _, s := range seeds {
		rep, err := difftest.CheckSeed(s, opts)
		if err != nil {
			// The generator guarantees runnable workloads; a failure
			// here is itself a bug worth a repro.
			fmt.Printf("seed %d: ERROR (workload not runnable): %v\n", s, err)
			fmt.Printf("rerun: go run ./cmd/qap-difftest -seed %d\n", s)
			failed++
			continue
		}
		if rep.OK() {
			if *verbose {
				fmt.Print(rep)
				fmt.Printf("queries:\n%s\n", rep.Queries)
			} else {
				fmt.Printf("seed %d: PASS (%d configurations)\n", s, rep.Configs)
			}
			continue
		}
		fmt.Print(rep)
		failed++
	}
	if failed > 0 {
		fmt.Printf("%d of %d seeds FAILED\n", failed, len(seeds))
		os.Exit(1)
	}
	fmt.Printf("all %d seeds passed\n", len(seeds))
}

func parseInts(list string) []int {
	var out []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "qap-difftest: bad count %q in list\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
