package qap

// Benchmarks regenerating every measured figure of the paper's
// evaluation (Figures 8-11, 13, 14), plus ablations over the design
// choices DESIGN.md calls out. Each benchmark iteration replays the
// full experiment sweep (all strategies x cluster sizes) on a scaled
// trace and reports the figure's headline numbers as custom metrics,
// so `go test -bench` output carries the reproduced series.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The same data, at larger scale, is printed as tables by
// `go run ./cmd/qap-bench`.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"qap/internal/cluster"
	"qap/internal/netgen"
	"qap/internal/optimizer"
)

// benchConfig is a reduced-scale trace so each figure sweep runs in a
// couple of seconds.
func benchConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.Trace.DurationSec = 150
	cfg.Trace.PacketsPerSec = 600
	return cfg
}

// reportSeries publishes each series' 1-host and MaxHosts values as
// benchmark metrics, e.g. "Naive@4hosts".
func reportSeries(b *testing.B, f *Figure, unit string) {
	b.Helper()
	for _, s := range f.Series {
		b.ReportMetric(s.Values[0], fmt.Sprintf("%s@1host_%s", sanitize(s.Name), unit))
		b.ReportMetric(s.Values[len(s.Values)-1], fmt.Sprintf("%s@%dhosts_%s", sanitize(s.Name), len(s.Values), unit))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkParallelSpeedup compares sequential vs parallel wall-clock
// on the Figure 8 sweep and reports the ratio. On a single-core
// machine the ratio hovers around 1x (the engines produce identical
// results either way); with spare cores the per-host workers overlap
// and the ratio climbs toward the host count.
func BenchmarkParallelSpeedup(b *testing.B) {
	run := func(workers int) time.Duration {
		cfg := benchConfig()
		cfg.Workers = workers
		start := time.Now()
		if _, _, err := Figures8and9(cfg); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		seq += run(1)
		par += run(runtime.GOMAXPROCS(0))
	}
	b.ReportMetric(seq.Seconds()/float64(b.N), "seq_s/op")
	b.ReportMetric(par.Seconds()/float64(b.N), "par_s/op")
	b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup_x")
}

func BenchmarkFigure8AggregatorCPU(b *testing.B) {
	var cpu *Figure
	for i := 0; i < b.N; i++ {
		var err error
		cpu, _, err = Figures8and9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, cpu, "cpu%")
}

func BenchmarkFigure9AggregatorNet(b *testing.B) {
	var net *Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, net, err = Figures8and9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, net, "tup/s")
}

func BenchmarkFigure10QuerySetCPU(b *testing.B) {
	var cpu *Figure
	for i := 0; i < b.N; i++ {
		var err error
		cpu, _, err = Figures10and11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, cpu, "cpu%")
}

func BenchmarkFigure11QuerySetNet(b *testing.B) {
	var net *Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, net, err = Figures10and11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, net, "tup/s")
}

func BenchmarkFigure13ComplexCPU(b *testing.B) {
	var cpu *Figure
	for i := 0; i < b.N; i++ {
		var err error
		cpu, _, err = Figures13and14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, cpu, "cpu%")
}

func BenchmarkFigure14ComplexNet(b *testing.B) {
	var net *Figure
	for i := 0; i < b.N; i++ {
		var err error
		_, net, err = Figures13and14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, net, "tup/s")
}

func BenchmarkLeafLoadDrop(b *testing.B) {
	var loads []float64
	for i := 0; i < b.N; i++ {
		var err error
		loads, err = LeafLoads(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(loads[0], "leaf@1host_cpu%")
	b.ReportMetric(loads[3], "leaf@4hosts_cpu%")
}

// ---- ablations ----

// BenchmarkAblationRemoteCostRatio sweeps the remote-to-local CPU cost
// ratio: the paper's argument that partition-agnostic plans can exceed
// centralized load hinges on remote tuples being expensive. The metric
// is the naive 4-host aggregator CPU relative to 1 host.
func BenchmarkAblationRemoteCostRatio(b *testing.B) {
	cfg := benchConfig()
	for _, ratio := range []float64{1, 3, 6, 12} {
		b.Run(fmt.Sprintf("remote=%gx", ratio), func(b *testing.B) {
			var growth float64
			for i := 0; i < b.N; i++ {
				sys := MustLoad(netgen.SchemaDDL, SuspiciousFlowsQuery)
				trace := netgen.Generate(cfg.Trace)
				costs := cluster.DefaultCosts()
				costs.RemoteCost = costs.ScanCost * ratio
				costs.CapacityPerSec = 1
				cpu := func(hosts int) float64 {
					dep, err := sys.Deploy(DeployConfig{
						Hosts: hosts, PartitionsPerHost: 2,
						PartialScope: ScopePartition,
						Costs:        costs,
						Params:       map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := dep.Run("TCP", trace.Packets)
					if err != nil {
						b.Fatal(err)
					}
					return res.Metrics.Hosts[0].CPUUnits
				}
				growth = cpu(4) / cpu(1)
			}
			b.ReportMetric(growth, "naive4v1_cpu_ratio")
		})
	}
}

// BenchmarkAblationHavingSelectivity sweeps the suspicious-flow rate:
// the HAVING clause's selectivity drives the Figure 8/9 gap, since
// only the partitioned plan can filter flows before shipping them.
func BenchmarkAblationHavingSelectivity(b *testing.B) {
	for _, frac := range []float64{0.01, 0.05, 0.25, 1.0} {
		b.Run(fmt.Sprintf("attack=%g", frac), func(b *testing.B) {
			var partNet float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Trace.AttackFraction = frac
				sys := MustLoad(netgen.SchemaDDL, SuspiciousFlowsQuery)
				trace := netgen.Generate(cfg.Trace)
				dep, err := sys.Deploy(DeployConfig{
					Hosts: 4, PartitionsPerHost: 2,
					Partitioning: MustParseSet("srcIP, destIP, srcPort, destPort"),
					Params:       map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := dep.Run("TCP", trace.Packets)
				if err != nil {
					b.Fatal(err)
				}
				partNet = res.Metrics.NetLoad(0)
			}
			b.ReportMetric(partNet, "partitioned_net_tup/s")
		})
	}
}

// BenchmarkAblationSkew sweeps the Zipf skew of source addresses: hash
// partitioning on few hot keys imbalances the leaf hosts; the metric
// is the max/mean leaf CPU ratio under (srcIP) partitioning.
func BenchmarkAblationSkew(b *testing.B) {
	for _, s := range []float64{1.05, 1.2, 1.5, 2.5} {
		b.Run(fmt.Sprintf("zipf=%g", s), func(b *testing.B) {
			var imbalance float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Trace.ZipfS = s
				sys := MustLoad(netgen.SchemaDDL, ComplexQuerySet)
				trace := netgen.Generate(cfg.Trace)
				dep, err := sys.Deploy(DeployConfig{
					Hosts: 4, PartitionsPerHost: 2,
					Partitioning: MustParseSet("srcIP"),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := dep.Run("TCP", trace.Packets)
				if err != nil {
					b.Fatal(err)
				}
				maxU, sum := 0.0, 0.0
				for _, h := range res.Metrics.Hosts {
					if h.CPUUnits > maxU {
						maxU = h.CPUUnits
					}
					sum += h.CPUUnits
				}
				imbalance = maxU / (sum / float64(len(res.Metrics.Hosts)))
			}
			b.ReportMetric(imbalance, "max/mean_leaf_cpu")
		})
	}
}

// BenchmarkAblationPartialScope compares the two pre-aggregation
// granularities directly: partial tuples shipped to the aggregator
// per second under per-partition vs per-host scope.
func BenchmarkAblationPartialScope(b *testing.B) {
	for _, scope := range []struct {
		name string
		s    Scope
	}{{"partition", ScopePartition}, {"host", ScopeHost}} {
		b.Run(scope.name, func(b *testing.B) {
			var net float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				sys := MustLoad(netgen.SchemaDDL, SuspiciousFlowsQuery)
				trace := netgen.Generate(cfg.Trace)
				dep, err := sys.Deploy(DeployConfig{
					Hosts: 4, PartitionsPerHost: 2,
					PartialScope: scope.s,
					Params:       map[string]Value{"PATTERN": Uint(netgen.AttackPattern)},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := dep.Run("TCP", trace.Packets)
				if err != nil {
					b.Fatal(err)
				}
				net = res.Metrics.NetLoad(0)
			}
			b.ReportMetric(net, "aggregator_net_tup/s")
		})
	}
}

// BenchmarkBaselineQueryPlanPartitioning measures the baseline the
// paper argues against (Sections 1-2): Borealis-style query plan
// partitioning, one operator per host with streams forwarded between
// them. The metric is the maximum host CPU at 4 hosts relative to the
// centralized single-host run — near or above 1.0 means adding hosts
// did not relieve the bottleneck operator, versus the query-aware
// plan's large reduction.
func BenchmarkBaselineQueryPlanPartitioning(b *testing.B) {
	cfg := benchConfig()
	var opRatio, qaRatio float64
	for i := 0; i < b.N; i++ {
		sys := MustLoad(netgen.SchemaDDL, ComplexQuerySet)
		trace := netgen.Generate(cfg.Trace)
		costs := cluster.DefaultCosts()
		costs.CapacityPerSec = 1

		maxHostUnits := func(p *optimizer.Plan) float64 {
			r, err := cluster.NewRunner(p, cluster.RunConfig{Costs: costs})
			if err != nil {
				b.Fatal(err)
			}
			res, err := r.Run("TCP", trace.Packets)
			if err != nil {
				b.Fatal(err)
			}
			maxU := 0.0
			for _, h := range res.Metrics.Hosts {
				if h.CPUUnits > maxU {
					maxU = h.CPUUnits
				}
			}
			return maxU
		}
		central := maxHostUnits(optimizer.MustBuild(sys.Graph, nil,
			optimizer.Options{Hosts: 1, PartitionsPerHost: 1}))
		opPlace, err := optimizer.BuildOperatorPlacement(sys.Graph,
			optimizer.Options{Hosts: 4, PartitionsPerHost: 2})
		if err != nil {
			b.Fatal(err)
		}
		opRatio = maxHostUnits(opPlace) / central
		qa := optimizer.MustBuild(sys.Graph, MustParseSet("srcIP"),
			optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true})
		qaRatio = maxHostUnits(qa) / central
	}
	b.ReportMetric(opRatio, "queryplan_max/central")
	b.ReportMetric(qaRatio, "queryaware_max/central")
}

// BenchmarkAnalyzer measures the partitioning analysis itself — query
// compilation, requirement inference, and the DP search — on the
// paper's complex set.
func BenchmarkAnalyzer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := Load(netgen.SchemaDDL, ComplexQuerySet)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Analyze(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorThroughput measures raw single-host engine
// throughput (packets/sec through the flows aggregation), the
// substrate number everything else scales from.
func BenchmarkExecutorThroughput(b *testing.B) {
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 60, 2000
	trace := netgen.Generate(cfg)
	sys := MustLoad(netgen.SchemaDDL, "SELECT tb, srcIP, destIP, COUNT(*) FROM TCP GROUP BY time/60 AS tb, srcIP, destIP")
	p := optimizer.MustBuild(sys.Graph, nil, optimizer.Options{Hosts: 1, PartitionsPerHost: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cluster.NewRunner(p, cluster.RunConfig{Costs: cluster.DefaultCosts()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run("TCP", trace.Packets); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(trace.Packets)))
}
