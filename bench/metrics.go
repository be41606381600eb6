package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric the benchmark emits. The two tables below
// are the single source of metric names, units and bounds; BENCHMARK.json
// repeats them for the driver and bench_test.go holds the two equal.
type metricDef struct {
	name, unit string
	// better is "higher" or "lower".
	better string
	// bound is the share of the baseline by which an end-to-end metric may
	// worsen before a change counts as a regression; per-layer metrics
	// carry none.
	bound float64
	// exact marks counts that are pure functions of the seed: two runs of
	// the same code must agree on them to the last digit.
	exact bool
}

// endToEnd lists what a user of the system sees, per workload.
var endToEnd = []metricDef{
	{name: "rows_per_s", unit: "packets/s", better: "higher", bound: 0.24},
	{name: "replay_s_p50", unit: "s", better: "lower", bound: 0.24},
	{name: "replay_s_tail", unit: "s", better: "lower", bound: 0.24},
	{name: "allocs_per_row", unit: "objects/packet", better: "lower", bound: 0.05},
	{name: "bytes_per_row", unit: "B/packet", better: "lower", bound: 0.22},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer lists the layer metrics of the traced run, in layer order.
var perLayer = []metricDef{
	{name: "netgen.generate_s", unit: "s", better: "lower"},
	{name: "netgen.packets", unit: "count", better: "higher", exact: true},
	{name: "netgen.flows", unit: "count", better: "higher", exact: true},

	{name: "gsql.parse_s", unit: "s", better: "lower"},
	{name: "plan.build_s", unit: "s", better: "lower"},
	{name: "plan.nodes", unit: "count", better: "lower", exact: true},
	{name: "core.optimize_s", unit: "s", better: "lower"},
	{name: "core.enumerated", unit: "count", better: "lower", exact: true},
	{name: "core.unique_sets", unit: "count", better: "lower", exact: true},
	{name: "core.cache_hits", unit: "count", better: "higher", exact: true},
	{name: "optimizer.build_s", unit: "s", better: "lower"},
	{name: "optimizer.ops", unit: "count", better: "lower", exact: true},

	{name: "cluster.compile_s", unit: "s", better: "lower"},
	{name: "cluster.drive_s", unit: "s", better: "lower"},
	{name: "cluster.drive_seq_s", unit: "s", better: "lower"},
	{name: "cluster.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "cluster.rounds", unit: "count", better: "lower", exact: true},
	{name: "cluster.batches", unit: "count", better: "lower", exact: true},
	{name: "cluster.link_items", unit: "count", better: "lower", exact: true},
	{name: "cluster.central_net_tuples", unit: "tuples/replay", better: "lower", exact: true},
	{name: "cluster.central_net_bytes", unit: "B/replay", better: "lower", exact: true},
	{name: "cluster.host_skew", unit: "ratio", better: "lower", exact: true},

	{name: "exec.scan_rows", unit: "count", better: "lower", exact: true},
	{name: "exec.selproj_rows_in", unit: "count", better: "lower", exact: true},
	{name: "exec.selproj_rows_out", unit: "count", better: "lower", exact: true},
	{name: "exec.agg_rows_in", unit: "count", better: "lower", exact: true},
	{name: "exec.agg_rows_out", unit: "count", better: "lower", exact: true},
	{name: "exec.join_rows_in", unit: "count", better: "lower", exact: true},
	{name: "exec.join_rows_out", unit: "count", better: "lower", exact: true},

	{name: "exec.pivot_cols_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.pivot_rows_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.pivot_allocs_per_row", unit: "objects/packet", better: "lower"},
	{name: "exec.pivot_samples", unit: "count", better: "higher", exact: true},
	{name: "exec.agg_push_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.agg_emit_ns_per_group", unit: "ns/group", better: "lower"},
	{name: "exec.agg_groups", unit: "count", better: "lower", exact: true},
	{name: "exec.agg_allocs_per_row", unit: "objects/packet", better: "lower"},
	{name: "exec.agg_samples", unit: "count", better: "higher", exact: true},
	{name: "exec.join_push_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.join_evict_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.join_matches", unit: "count", better: "lower", exact: true},
	{name: "exec.join_allocs_per_row", unit: "objects/packet", better: "lower"},
	{name: "exec.join_samples", unit: "count", better: "higher", exact: true},
	{name: "exec.wire_encode_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.wire_decode_ns_per_row", unit: "ns/packet", better: "lower"},
	{name: "exec.wire_bytes_per_row", unit: "B/packet", better: "lower", exact: true},
	{name: "exec.wire_allocs_per_row", unit: "objects/packet", better: "lower"},
	{name: "exec.wire_samples", unit: "count", better: "higher", exact: true},

	{name: "live.transport_s", unit: "s", better: "lower"},
	{name: "live.transport_rows_per_s", unit: "packets/s", better: "higher"},
	{name: "live.transport_bytes", unit: "B", better: "lower"},
	{name: "live.frames", unit: "count", better: "lower", exact: true},
	{name: "live.sendfeed_block_s", unit: "s", better: "lower"},
	{name: "live.overhead_ratio", unit: "ratio", better: "lower"},

	{name: "obs.collect_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cycles_per_replay", unit: "1/replay", better: "lower"},
	{name: "runtime.gc_pause_ms_per_replay", unit: "ms/replay", better: "lower"},
	{name: "probe.rows", unit: "count", better: "higher", exact: true},
	{name: "probe.coverage", unit: "ratio", better: "higher"},
}

// values holds one workload's measured metrics by name.
type values map[string]float64

// checkComplete reports the first metric of defs that vals lacks or
// holds as a non-finite number, so a run can never print a partial set.
func (v values) checkComplete(defs []metricDef) error {
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.name, x)
		}
	}
	return nil
}

// median returns the middle of xs (mean of the two middles for an even
// count); xs is left unsorted. Zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail returns the highest order statistic of xs that still has
// tailBeyond samples above it, and the percentile it stands at. With
// too few samples it degrades to the median.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 2*tailBeyond+1 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - tailBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n)
}

// ratio divides guarding the empty denominator: a probe that saw no
// rows reports 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
