package qap

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"qap/internal/netgen"
)

// reportRun deploys the complex workload and returns the run result.
func reportRun(t *testing.T, workers int, packets []netgen.Packet) *RunResult {
	t.Helper()
	sys, err := Load(netgen.SchemaDDL, ComplexQuerySet)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(DeployConfig{
		Hosts:             4,
		PartitionsPerHost: 2,
		Partitioning:      MustParseSet("srcIP"),
		Params:            map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
		Workers:           workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Run("TCP", packets)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunReportDeterministic is the acceptance check for the report
// layer: a collected run emits a valid JSON RunReport whose per-node
// rows are consistent with the host accounting, and whose canonical
// form is byte-identical for workers=1 and workers=8.
func TestRunReportDeterministic(t *testing.T) {
	packets := diffTrace(3)
	seq := reportRun(t, 1, packets)
	par := reportRun(t, 8, packets)

	for _, res := range []*RunResult{seq, par} {
		rep := res.Report()
		if rep == nil {
			t.Fatal("Report() is nil")
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Fatal("report is not valid JSON")
		}
		// Σ RowsIn over nodes == Σ Tuples over hosts: every delivery
		// charges exactly one operator and one host.
		var rowsIn int64
		for _, n := range rep.Nodes {
			rowsIn += n.RowsIn
		}
		var tuples int64
		for _, h := range rep.Hosts {
			tuples += h.Tuples
		}
		if rowsIn == 0 || rowsIn != tuples {
			t.Errorf("sum(RowsIn)=%d, sum(Tuples)=%d; want equal and nonzero", rowsIn, tuples)
		}
		if rep.Timing == nil || rep.Timing.WallNanos <= 0 {
			t.Error("timing section missing or empty")
		}
		if rep.Prometheus() == "" {
			t.Error("empty Prometheus rendering")
		}
	}

	sj, err := seq.Report().Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := par.Report().Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("canonical reports differ between workers=1 and workers=8:\n%s\n---\n%s", sj, pj)
	}
}

// TestEveryRunReports: every run returns its operator counters and its
// report, on every engine and at every batch size; the report is built
// once, however many goroutines ask for it, and covers every operator.
func TestEveryRunReports(t *testing.T) {
	packets := diffTrace(3)
	sys := MustLoad(netgen.SchemaDDL, ComplexQuerySet)
	for _, c := range []struct {
		name    string
		workers int
		batch   int
		engine  string
	}{
		{"oracle", 1, 1, EngineSim},
		{"sequential", 1, 0, EngineSim},
		{"parallel", 4, 7, EngineSim},
		{"live", 1, 0, EngineLive},
	} {
		dep, err := sys.Deploy(DeployConfig{
			Hosts: 2, Partitioning: MustParseSet("srcIP"),
			Params:  map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
			Workers: c.workers, BatchSize: c.batch, Engine: c.engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.Run("TCP", packets)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		reps := make([]*RunReport, 4)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				reps[i] = res.Report()
			}(i)
		}
		wg.Wait()
		rep := reps[0]
		if rep == nil || len(res.OpStats) == 0 {
			t.Fatalf("%s: report %v, %d operator counters", c.name, rep != nil, len(res.OpStats))
		}
		if len(rep.Nodes) != len(res.OpStats) || rep.Plan.Operators != len(res.OpStats) {
			t.Errorf("%s: the report has %d node rows for %d operators", c.name, len(rep.Nodes), len(res.OpStats))
		}
		for _, r := range reps[1:] {
			if r != rep {
				t.Errorf("%s: concurrent Report calls built more than one report", c.name)
			}
		}
	}
}

// canonReport is a run's report without its Timing section, as JSON.
func canonReport(t *testing.T, res *RunResult) string {
	t.Helper()
	b, err := res.Report().Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
