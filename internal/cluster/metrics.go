// Package cluster executes distributed physical plans on a simulated
// cluster: a hash or round-robin stream splitter (paper Section 3.3),
// one simulated process per (host, partition) plus a central process
// per host, and per-host CPU and network accounting. The measured
// quantities mirror the paper's evaluation: CPU load and network load
// (tuples/sec) on the aggregator node, and CPU load on the leaf nodes.
package cluster

import (
	"fmt"
	"strings"

	"qap/internal/obs"
	"qap/internal/optimizer"
)

// CostConfig sets the simulator's CPU cost model. Costs are abstract
// units; CapacityPerSec converts a host's accumulated units into a
// CPU-load percentage. The remote surcharge is what makes
// partition-agnostic plans expensive (paper Section 1: "significant
// overhead involved in processing remote tuples as compared to local
// processing").
type CostConfig struct {
	// Per-operator work charged at the receiving host for every tuple
	// the operator receives.
	ScanCost    float64 // packet ingest and parse
	SelProjCost float64
	AggCost     float64 // hash lookup + accumulate (full/sub/super)
	JoinCost    float64 // hash probe + insert
	UnionCost   float64 // stream merge bookkeeping
	OutputCost  float64 // final result delivery
	// IPCCost is the extra charge when a tuple crosses between
	// processes on the same host (Gigascope's per-query processes
	// exchange tuples through shared-memory ring buffers — cheap but
	// not free).
	IPCCost float64
	// RemoteCost is the extra charge when a tuple crosses hosts: it
	// was serialized, sent through a socket, received, and parsed.
	RemoteCost float64
	// CapacityPerSec is the work units one host sustains per second
	// at 100% CPU.
	CapacityPerSec float64
}

// DefaultCosts returns the cost model used by the experiments; the
// remote-to-local ratio reflects the paper's observation that remote
// tuples are far more expensive to process than local ones.
func DefaultCosts() CostConfig {
	return CostConfig{
		ScanCost:    1.0,
		SelProjCost: 0.4,
		AggCost:     1.2,
		JoinCost:    1.5,
		UnionCost:   0.15,
		OutputCost:  0.05,
		IPCCost:     0.3,
		RemoteCost:  6.0,
	}
}

// opCostOf returns the per-tuple work of an operator kind.
func (c CostConfig) opCostOf(kind optimizer.OpKind) float64 {
	switch kind {
	case optimizer.OpScan:
		return c.ScanCost
	case optimizer.OpSelProj:
		return c.SelProjCost
	case optimizer.OpAggregate, optimizer.OpAggSub, optimizer.OpAggSuper, optimizer.OpWindow:
		return c.AggCost
	case optimizer.OpJoin:
		return c.JoinCost
	case optimizer.OpUnion:
		return c.UnionCost
	case optimizer.OpOutput:
		return c.OutputCost
	default:
		return 1
	}
}

// HostMetrics is one host's activity: the sum of the counters of the
// operators it runs (addOp), taken where a run or a monitoring window
// closes. CPUUnits is the cost model applied to those counts
// (CostConfig.cpuUnits).
type HostMetrics struct {
	// CPUUnits is the total work charged to the host.
	CPUUnits float64
	// NetTuplesIn / NetBytesIn count arrivals over the network, i.e.
	// from operators on other hosts.
	NetTuplesIn int64
	NetBytesIn  int64
	// IPCTuplesIn counts same-host arrivals that crossed a process
	// boundary (ring buffers / loopback), which cost CPU but not
	// network.
	IPCTuplesIn int64
	// Tuples counts every tuple delivered to an operator on the host,
	// and KindTuples splits it by the receiving operator's kind.
	Tuples     int64
	KindTuples [optimizer.OpWindow + 1]int64
}

// addOp adds one operator's counts to m: the tuples delivered to it,
// under its kind, and its network and IPC arrivals.
func (m *HostMetrics) addOp(kind optimizer.OpKind, st obs.OpStats) {
	m.Tuples += st.RowsIn
	m.KindTuples[kind] += st.RowsIn
	m.NetTuplesIn += st.NetTuplesIn
	m.NetBytesIn += st.NetBytesIn
	m.IPCTuplesIn += st.IPCTuplesIn
}

// add folds o into m field by field: how the central island's
// accounting joins the aggregator host's.
func (m *HostMetrics) add(o HostMetrics) {
	m.CPUUnits += o.CPUUnits
	m.NetTuplesIn += o.NetTuplesIn
	m.NetBytesIn += o.NetBytesIn
	m.IPCTuplesIn += o.IPCTuplesIn
	m.Tuples += o.Tuples
	for k := range m.KindTuples {
		m.KindTuples[k] += o.KindTuples[k]
	}
}

// cpuUnits is the cost model's dot product: each kind's tuple count
// times its per-tuple work, in kind order, then the network and IPC
// surcharges. It is the only place CPU units are computed, so any two
// runs with equal counts report bit-equal CPU.
func (c CostConfig) cpuUnits(kinds []int64, net, ipc int64) float64 {
	u := 0.0
	for k, n := range kinds {
		u += float64(n) * c.opCostOf(optimizer.OpKind(k))
	}
	return u + float64(net)*c.RemoteCost + float64(ipc)*c.IPCCost
}

// withCPU returns m with CPUUnits computed from its counts.
func (c CostConfig) withCPU(m HostMetrics) HostMetrics {
	m.CPUUnits = c.cpuUnits(m.KindTuples[:], m.NetTuplesIn, m.IPCTuplesIn)
	return m
}

// Metrics is the full accounting of one run.
type Metrics struct {
	Hosts       []HostMetrics
	DurationSec float64
	Capacity    float64 // units/sec per host
}

// inRange reports whether host is a valid index. The load accessors
// tolerate out-of-range hosts (returning 0) so report builders and
// CLI formatters iterating over configured rather than actual host
// counts degrade to zeros instead of panicking.
func (m *Metrics) inRange(host int) bool {
	return host >= 0 && host < len(m.Hosts)
}

// CPULoad returns the host's CPU utilization percentage.
func (m *Metrics) CPULoad(host int) float64 {
	if m.Capacity <= 0 || m.DurationSec <= 0 || !m.inRange(host) {
		return 0
	}
	return 100 * m.Hosts[host].CPUUnits / (m.Capacity * m.DurationSec)
}

// OverloadFactor reports how far the host's demanded work exceeds its
// capacity: 0 when within capacity, otherwise the fraction of work
// that a real system would have to shed (the paper's Figure 8 point
// where "the system is clearly overloaded and starts dropping input
// tuples").
func (m *Metrics) OverloadFactor(host int) float64 {
	if m.Capacity <= 0 || m.DurationSec <= 0 || !m.inRange(host) {
		return 0
	}
	budget := m.Capacity * m.DurationSec
	excess := m.Hosts[host].CPUUnits - budget
	if excess <= 0 {
		return 0
	}
	return excess / m.Hosts[host].CPUUnits
}

// NetLoad returns the host's network arrivals in tuples per second
// (the paper's Figures 9, 11, 14 report packets/sec received by the
// aggregator).
func (m *Metrics) NetLoad(host int) float64 {
	if m.DurationSec <= 0 || !m.inRange(host) {
		return 0
	}
	return float64(m.Hosts[host].NetTuplesIn) / m.DurationSec
}

// LeafCPULoad returns the mean CPU load over all hosts except the
// aggregator; with a single host it returns that host's load.
func (m *Metrics) LeafCPULoad(aggregator int) float64 {
	if len(m.Hosts) == 1 {
		return m.CPULoad(0)
	}
	total, n := 0.0, 0
	for h := range m.Hosts {
		if h == aggregator {
			continue
		}
		total += m.CPULoad(h)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// perSec divides a counter by the trace duration, returning 0 for an
// empty trace rather than NaN/Inf.
func (m *Metrics) perSec(n int64) float64 {
	if m.DurationSec <= 0 {
		return 0
	}
	return float64(n) / m.DurationSec
}

// String renders a per-host table.
func (m *Metrics) String() string {
	var b strings.Builder
	for h, hm := range m.Hosts {
		fmt.Fprintf(&b, "host %d: cpu %.1f%%  net %.0f tup/s (%.0f B/s)  ipc %.0f tup/s  tuples %d\n",
			h, m.CPULoad(h), m.NetLoad(h), m.perSec(hm.NetBytesIn),
			m.perSec(hm.IPCTuplesIn), hm.Tuples)
	}
	return b.String()
}
