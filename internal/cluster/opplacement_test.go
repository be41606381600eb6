package cluster

import (
	"testing"

	"qap/internal/core"
	"qap/internal/optimizer"
)

// TestOperatorPlacementEquivalence checks the query-plan-partitioning
// baseline computes exactly the same results as the centralized and
// query-aware plans, and reproduces the paper's Section 1 claim: the
// host carrying the low-level aggregation stays near the centralized
// load while the query-aware plan's worst host drops far below it.
func TestOperatorPlacementEquivalence(t *testing.T) {
	tr := smallTrace(t)
	g := buildGraph(t, complexSet)
	want := centralized(t, g, tr)

	p, err := optimizer.BuildOperatorPlacement(g, optimizer.Options{Hosts: 3, PartitionsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run("TCP", tr.Packets)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range want.Outputs {
		sameOutputs(t, name, rows, got.Outputs[name])
	}

	maxUnits := func(res *Result) float64 {
		maxU := 0.0
		for _, h := range res.Metrics.Hosts {
			if h.CPUUnits > maxU {
				maxU = h.CPUUnits
			}
		}
		return maxU
	}
	central := maxUnits(want)
	opPlace := maxUnits(got)
	qa := maxUnits(runConfig(t, g, core.MustParseSet("srcIP"),
		optimizer.Options{Hosts: 3, PartitionsPerHost: 2, PartialAgg: true}, tr))

	// The operator-placement bottleneck host stays within ~2x of the
	// centralized load (it still ingests the whole stream, plus
	// forwarding overhead), while query-aware partitioning cuts the
	// worst host well below half of centralized.
	if opPlace < central/2 {
		t.Errorf("operator placement should not relieve the bottleneck: %f vs central %f", opPlace, central)
	}
	if qa >= central/2 {
		t.Errorf("query-aware should cut the worst host: %f vs central %f", qa, central)
	}
	if qa >= opPlace {
		t.Errorf("query-aware (%f) should beat operator placement (%f)", qa, opPlace)
	}
}
