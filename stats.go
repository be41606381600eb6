package qap

import (
	"fmt"
	"sort"
	"strings"

	"qap/internal/netgen"
	"qap/internal/plan"
)

// MeasureStats runs the query set once, centralized and instrumented,
// over sample traces and returns workload statistics measured from the
// actual execution: per-stream tuple rates and per-node selectivity
// factors. Feeding these to Analyze closes the loop the paper
// describes — the analysis is "not as reliant on the quality of the
// cost model" precisely because cheap measured statistics slot in.
func (s *System) MeasureStats(streams map[string][]netgen.Packet) (*StaticStats, error) {
	dep, err := s.Deploy(DeployConfig{
		Hosts:             1,
		PartitionsPerHost: 1,
		Params:            s.defaultParams(),
	})
	if err != nil {
		return nil, err
	}
	res, err := dep.RunStreams(streams)
	if err != nil {
		return nil, err
	}

	stats := NewStats()
	duration := res.Metrics.DurationSec
	if duration <= 0 {
		// An all-empty sample (zero duration) has no rates to measure;
		// the old behavior clamped to 1s and silently reported every
		// rate as zero-over-one, which downstream costing trusts.
		names := make([]string, 0, len(streams))
		for name := range streams { //qap:allow maprange -- names collected then sorted below
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("qap: MeasureStats: sample traces %v are empty (measured duration %.0fs); rates are undefined — supply a non-empty sample", names, duration)
	}
	streamRows := make(map[string]float64, len(streams))
	for name, packets := range streams { //qap:allow maprange -- per-stream rates, order-insensitive
		rate := float64(len(packets)) / duration
		stats.SetRate(name, rate)
		streamRows[strings.ToLower(name)] = float64(len(packets))
	}

	// Selectivity = output rows / input rows, walking the DAG in
	// topological order so each node's input counts are known.
	rows := make(map[string]float64, len(res.NodeRows))
	for name, n := range res.NodeRows { //qap:allow maprange -- map-to-map copy, order-insensitive
		rows[name] = float64(n)
	}
	nodeRows := func(n *plan.Node) (float64, error) {
		if n.Kind == plan.KindSource {
			c, ok := streamRows[strings.ToLower(n.Stream.Name)]
			if !ok {
				return 0, fmt.Errorf("qap: no sample trace for stream %q", n.Stream.Name)
			}
			return c, nil
		}
		return rows[strings.ToLower(n.QueryName)], nil
	}
	for _, n := range s.Graph.QueryNodes() {
		in := 0.0
		for _, child := range n.Inputs {
			c, err := nodeRows(child)
			if err != nil {
				return nil, err
			}
			in += c
		}
		out := rows[strings.ToLower(n.QueryName)]
		if in > 0 {
			stats.SetSelectivity(n.QueryName, out/in)
		} else {
			// A starved node measured zero input. Record the measured
			// zero explicitly: skipping it (the old behavior) silently
			// fell back to the static heuristic, so a node the sample
			// proved dead kept a fabricated non-zero output rate.
			stats.SetSelectivity(n.QueryName, 0)
		}
	}
	return stats, nil
}

// defaultParams supplies the generator's attack pattern for query sets
// using #PATTERN#; user-bound parameters take precedence at Deploy.
func (s *System) defaultParams() map[string]Value {
	return map[string]Value{"PATTERN": Uint(netgen.AttackPattern)}
}
