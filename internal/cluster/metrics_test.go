package cluster

import (
	"strings"
	"testing"

	"qap/internal/core"
	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/optimizer"
)

// TestOverloadFactorAtCapacity: a host whose demanded work exactly
// equals its budget is not overloaded — the boundary must report 0, not
// an epsilon.
func TestOverloadFactorAtCapacity(t *testing.T) {
	m := &Metrics{
		Hosts:       []HostMetrics{{CPUUnits: 6000}},
		DurationSec: 60,
		Capacity:    100,
	}
	if got := m.OverloadFactor(0); got != 0 {
		t.Errorf("OverloadFactor at exactly capacity = %v, want 0", got)
	}
	if got := m.CPULoad(0); got != 100 {
		t.Errorf("CPULoad at exactly capacity = %v, want 100", got)
	}
	// One unit over the budget: the shed fraction is excess/demand.
	m.Hosts[0].CPUUnits = 6001
	want := 1.0 / 6001
	if got := m.OverloadFactor(0); got != want {
		t.Errorf("OverloadFactor just over capacity = %v, want %v", got, want)
	}
}

// TestLeafCPULoadAggregatorOnly: with a single host that host is both
// aggregator and leaf; LeafCPULoad must report its load rather than an
// empty mean.
func TestLeafCPULoadAggregatorOnly(t *testing.T) {
	m := &Metrics{
		Hosts:       []HostMetrics{{CPUUnits: 300}},
		DurationSec: 10,
		Capacity:    100,
	}
	if got, want := m.LeafCPULoad(0), m.CPULoad(0); got != want {
		t.Errorf("LeafCPULoad single host = %v, want %v", got, want)
	}
}

// TestLoadsWithZeroDenominators: zero capacity or zero duration must
// yield 0 loads, never NaN or Inf.
func TestLoadsWithZeroDenominators(t *testing.T) {
	cases := []struct {
		name     string
		capacity float64
		duration float64
	}{
		{"zero capacity", 0, 60},
		{"zero duration", 100, 0},
		{"both zero", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Metrics{
				Hosts:       []HostMetrics{{CPUUnits: 500, NetTuplesIn: 7, NetBytesIn: 70, IPCTuplesIn: 3}},
				DurationSec: tc.duration,
				Capacity:    tc.capacity,
			}
			if got := m.CPULoad(0); got != 0 {
				t.Errorf("CPULoad = %v, want 0", got)
			}
			if got := m.OverloadFactor(0); got != 0 {
				t.Errorf("OverloadFactor = %v, want 0", got)
			}
			if tc.duration == 0 {
				if got := m.NetLoad(0); got != 0 {
					t.Errorf("NetLoad = %v, want 0", got)
				}
			}
		})
	}
}

// TestLoadsHostOutOfRange: the accessors must tolerate host indexes
// outside the slice — report builders iterate over configured host
// counts, which can exceed the hosts a degenerate run actually
// recorded — returning 0 instead of panicking.
func TestLoadsHostOutOfRange(t *testing.T) {
	m := &Metrics{
		Hosts:       []HostMetrics{{CPUUnits: 500, NetTuplesIn: 7}},
		DurationSec: 10,
		Capacity:    100,
	}
	for _, host := range []int{-1, 1, 99} {
		if got := m.CPULoad(host); got != 0 {
			t.Errorf("CPULoad(%d) = %v, want 0", host, got)
		}
		if got := m.OverloadFactor(host); got != 0 {
			t.Errorf("OverloadFactor(%d) = %v, want 0", host, got)
		}
		if got := m.NetLoad(host); got != 0 {
			t.Errorf("NetLoad(%d) = %v, want 0", host, got)
		}
	}
	// Sanity: in-range still measures.
	if got := m.CPULoad(0); got != 50 {
		t.Errorf("CPULoad(0) = %v, want 50", got)
	}
}

// TestHostMetricsSumsOperators: a host's counts are its operators'
// counters summed, the tuples delivered split by the receiving
// operator's kind, and the cost model prices that split.
func TestHostMetricsSumsOperators(t *testing.T) {
	isl := &island{
		ops:   []*optimizer.Op{{ID: 0, Kind: optimizer.OpScan}, {ID: 3, Kind: optimizer.OpAggSub}, {ID: 5, Kind: optimizer.OpScan}},
		stats: []obs.OpStats{{RowsIn: 10, RowsOut: 99}, {RowsIn: 12, NetTuplesIn: 15, NetBytesIn: 200}, {RowsIn: 8, IPCTuplesIn: 3}},
	}
	want := HostMetrics{NetTuplesIn: 15, NetBytesIn: 200, IPCTuplesIn: 3, Tuples: 30}
	want.KindTuples[optimizer.OpScan], want.KindTuples[optimizer.OpAggSub] = 18, 12
	if got := isl.metrics(); got != want {
		t.Errorf("metrics = %+v, want %+v", got, want)
	}
	for id, wantOK := range map[int]bool{0: true, 3: true, 4: false, 5: true, 6: false} {
		if i, ok := isl.index(id); ok != wantOK || ok && isl.ops[i].ID != id {
			t.Errorf("index(%d) = %d, %t", id, i, ok)
		}
	}
	// 18 scans, 12 sub-aggregate rows, 15 remote and 3 IPC arrivals.
	c := CostConfig{ScanCost: 1, AggCost: 0.5, RemoteCost: 4, IPCCost: 0.25}
	if got := c.withCPU(want).CPUUnits; got != 18+6+60+0.75 {
		t.Errorf("withCPU = %v, want %v", got, 18+6+60+0.75)
	}
}

// TestStringEmptyTrace: rendering metrics of an empty trace
// (DurationSec 0) must not produce NaN rates.
func TestStringEmptyTrace(t *testing.T) {
	m := &Metrics{
		Hosts: []HostMetrics{{NetBytesIn: 1234, IPCTuplesIn: 56, Tuples: 78}},
	}
	out := m.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("String() with zero duration renders NaN/Inf:\n%s", out)
	}
	if !strings.Contains(out, "tuples 78") {
		t.Errorf("String() missing tuple count:\n%s", out)
	}
}

// TestOpCPUSumsToHostCPU: operator and host CPU units are two views of
// the same counts. With integer costs every sum is exact, so the CPU of
// the operators placed on a host must add up to the host's.
func TestOpCPUSumsToHostCPU(t *testing.T) {
	p, err := optimizer.Build(buildGraph(t, complexSet), core.MustParseSet("srcIP, destIP"),
		optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	costs := CostConfig{ScanCost: 1, SelProjCost: 2, AggCost: 3, JoinCost: 4, UnionCost: 5, OutputCost: 7, IPCCost: 11, RemoteCost: 13}
	r, err := NewRunner(p, RunConfig{Costs: costs, Params: testParams, BatchSize: 64, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(map[string][]netgen.Packet{"TCP": smallTrace(t).Packets})
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, p.Hosts)
	for _, op := range p.Ops {
		sums[op.Host] += res.OpStats[op.ID].CPUUnits
	}
	for h, hm := range res.Metrics.Hosts {
		if hm.CPUUnits == 0 || sums[h] != hm.CPUUnits {
			t.Errorf("host %d: operators' CPU units sum to %v, host reports %v", h, sums[h], hm.CPUUnits)
		}
	}
}
