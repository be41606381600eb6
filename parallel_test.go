package qap

// The parallel engine's public correctness oracle: for every figure
// workload, seed, host count, and strategy, running with worker
// goroutines must reproduce the sequential engine's result byte for
// byte — same output rows in the same order, same node-row counts, and
// bit-equal metrics.

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"qap/internal/netgen"
)

func diffTrace(seed int64) []netgen.Packet {
	cfg := netgen.DefaultConfig()
	cfg.Seed = seed
	cfg.DurationSec = 30
	cfg.PacketsPerSec = 300
	return netgen.Generate(cfg).Packets
}

func deployRun(t *testing.T, queries string, ps Set, hosts, workers int, packets []netgen.Packet) *RunResult {
	t.Helper()
	sys, err := Load(netgen.SchemaDDL, queries)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sys.Deploy(DeployConfig{
		Hosts:             hosts,
		PartitionsPerHost: 2,
		Partitioning:      ps,
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

func TestWorkersDifferential(t *testing.T) {
	workloads := []struct {
		name    string
		queries string
		ps      Set
	}{
		{"fig8-suspicious", SuspiciousFlowsQuery, MustParseSet("srcIP, destIP, srcPort, destPort")},
		{"fig10-section62", QuerySetSection62, MustParseSet("srcIP & 0xFFF0, destIP")},
		{"fig13-complex", ComplexQuerySet, MustParseSet("srcIP")},
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 7} {
			packets := diffTrace(seed)
			for _, hosts := range []int{1, 2, 4} {
				for _, strategy := range []struct {
					name string
					ps   Set
				}{
					{"naive", nil},
					{"partitioned", w.ps},
				} {
					want := deployRun(t, w.queries, strategy.ps, hosts, 1, packets)
					got := deployRun(t, w.queries, strategy.ps, hosts, 4, packets)
					if !reflect.DeepEqual(want.Outputs, got.Outputs) {
						t.Errorf("%s seed=%d hosts=%d %s: Outputs differ", w.name, seed, hosts, strategy.name)
					}
					if !reflect.DeepEqual(want.NodeRows, got.NodeRows) {
						t.Errorf("%s seed=%d hosts=%d %s: NodeRows differ", w.name, seed, hosts, strategy.name)
					}
					if !reflect.DeepEqual(*want.Metrics, *got.Metrics) {
						t.Errorf("%s seed=%d hosts=%d %s: Metrics differ:\n  want %+v\n  got  %+v",
							w.name, seed, hosts, strategy.name, *want.Metrics, *got.Metrics)
					}
				}
			}
		}
	}
}

func TestRunResultOutputNames(t *testing.T) {
	res := deployRun(t, ComplexQuerySet, MustParseSet("srcIP"), 2, 1, diffTrace(1))
	names := res.OutputNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("OutputNames not sorted: %v", names)
	}
	if len(names) != len(res.Outputs) {
		t.Fatalf("OutputNames has %d names, Outputs has %d", len(names), len(res.Outputs))
	}
	for _, name := range names {
		if _, ok := res.Outputs[name]; !ok {
			t.Fatalf("OutputNames lists %q, not an output", name)
		}
	}
}

// TestBatchOneIsTheOracle: BatchSize 1 is the scalar oracle and runs on
// the sequential simulator only. Workers 4 changes nothing — the same
// rows in the same order, node rows, metrics, stats and canonical trace
// as Workers 1 — and the report names the engine that ran. The live
// backend refuses it with an error naming both settings: the splitter
// before anything listens, a node when the deployment reaches it.
func TestBatchOneIsTheOracle(t *testing.T) {
	sys, err := Load(netgen.SchemaDDL, ComplexQuerySet)
	if err != nil {
		t.Fatal(err)
	}
	packets := diffTrace(1)
	deploy := func(workers int, engine string) *Deployment {
		dep, err := sys.Deploy(DeployConfig{
			Hosts: 4, Partitioning: MustParseSet("srcIP"), Workers: workers, BatchSize: 1,
			Params: map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
			Trace:  &RunTraceConfig{}, Engine: engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	var runs [2]*RunResult
	var traces [2][]byte
	for i, workers := range []int{1, 4} {
		res, err := deploy(workers, EngineSim).Run("TCP", packets)
		if err != nil {
			t.Fatal(err)
		}
		if tm := res.Report().Timing; tm.Engine != "sequential" || tm.Workers == nil || *tm.Workers != workers {
			t.Errorf("workers %d: the report says engine %q, workers %v; want the sequential engine", workers, tm.Engine, tm.Workers)
		}
		if traces[i], err = res.Trace.CanonicalJSONL(); err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	want, got := runs[0], runs[1]
	if !reflect.DeepEqual(want.Outputs, got.Outputs) || !reflect.DeepEqual(want.NodeRows, got.NodeRows) ||
		!reflect.DeepEqual(*want.Metrics, *got.Metrics) || !reflect.DeepEqual(want.OpStats, got.OpStats) ||
		!reflect.DeepEqual(traces[0], traces[1]) {
		t.Error("Workers 4 at BatchSize 1 moved a byte of the oracle's result")
	}

	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: the live backend ran the scalar oracle", what)
		}
		for _, name := range []string{`Engine "live"`, "BatchSize 1"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name %s", what, err, name)
			}
		}
	}
	_, err = deploy(4, EngineLive).Run("TCP", packets)
	refused("Run", err)
	// A splitter never ships BatchSize 1, so the node is handed the spec
	// directly.
	spec, err := deploy(1, EngineLive).encodeSpec()
	if err != nil {
		t.Fatal(err)
	}
	nodeErr, splitErr := serveRefusal(t, spec)
	refused("a node", nodeErr)
	refused("the splitter", splitErr)
}
