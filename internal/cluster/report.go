package cluster

import (
	"strings"
	"time"

	"qap/internal/exec"
	"qap/internal/obs"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
)

// finalize sums the operator counters into the run's accounting and
// collects its outputs. Each island's CPU units are the cost model
// applied to its counts; the aggregator host adds the central island's
// to its leaf island's, the order mergeLoadSeries and
// trace.HostLoadSeries use. A node's row count is the rows out of the
// operators that produce its complete output: full aggregates,
// super-aggregates, select/project, join instances and windows, not
// scans, unions or partial sub-aggregates.
func (r *Runner) finalize(any bool, maxTime uint64) *Result {
	if any {
		r.metrics.DurationSec = float64(maxTime + 1)
	}
	for h := 0; h < r.plan.Hosts; h++ {
		r.metrics.Hosts[h] = r.cost.withCPU(r.islands[h].metrics())
	}
	r.metrics.Hosts[r.plan.AggregatorHost].add(r.cost.withCPU(r.islands[r.plan.Hosts].metrics()))

	res := &Result{
		Outputs:  make(map[string][]exec.Tuple),
		NodeRows: make(map[string]int64),
		Metrics:  r.metrics,
	}
	for name, c := range r.collectors { //qap:allow maprange -- map-to-map copy, order-insensitive
		res.Outputs[name] = c.Rows
	}
	for _, op := range r.plan.Ops {
		switch op.Kind {
		case optimizer.OpAggregate, optimizer.OpAggSuper, optimizer.OpSelProj,
			optimizer.OpJoin, optimizer.OpWindow:
			res.NodeRows[strings.ToLower(op.Logical.QueryName)] += r.opStatsOf(op).RowsOut
		}
	}
	if r.winSec > 0 && any {
		res.LoadSeries = r.mergeLoadSeries(maxTime)
	}
	if r.collect {
		res.OpStats = make(map[int]*obs.OpStats, len(r.plan.Ops))
		stats := make([]obs.OpStats, len(r.plan.Ops))
		for i, op := range r.plan.Ops {
			st := &stats[i]
			*st = *r.opStatsOf(op)
			var kinds [optimizer.OpWindow + 1]int64
			kinds[op.Kind] = st.RowsIn
			st.CPUUnits = r.cost.cpuUnits(kinds[:], st.NetTuplesIn, st.IPCTuplesIn)
			res.OpStats[op.ID] = st
		}
		res.Report = r.buildReport(res)
	}
	if len(r.sized) > 0 {
		res.SizeHints = make(map[int]int, len(r.sized))
		for _, o := range r.sized {
			if n := o.highWater(); n > res.SizeHints[o.id] {
				res.SizeHints[o.id] = n
			}
		}
	}
	if r.tracer != nil {
		res.Trace = r.buildTrace()
	}
	return res
}

// buildTrace gathers the run's causal trace: a header record, every
// shard's events in canonical order (driver, leaf islands, central),
// and the quarantined timing trailer. Called from finalize, after the
// engine's goroutines have fully joined and mergeLoadSeries has closed
// every remaining window, so every shard is complete and no writer
// races the gather.
func (r *Runner) buildTrace() *trace.Trace {
	p := r.plan
	partitioning := p.Set.String()
	if p.StreamSets != nil {
		partitioning = p.StreamSets.String()
	}
	header := trace.Event{
		Kind:           trace.KindHeader,
		SchemaVersion:  obs.SchemaVersion,
		Hosts:          p.Hosts,
		AggregatorHost: p.AggregatorHost,
		WindowSec:      int(r.winSec),
		DurationSec:    r.metrics.DurationSec,
		Partitioning:   partitioning,
	}
	engine := r.engineName()
	timing := trace.Event{
		Kind:      trace.KindTiming,
		Engine:    engine,
		Workers:   r.workers,
		BatchSize: r.batchSize,
		WallNanos: time.Since(r.started).Nanoseconds(), //qap:allow walltime -- quarantined in the timing trailer
		Rounds:    r.engRounds,
		Batches:   r.engBatches,
		LinkItems: r.engLinkItems,
	}
	return r.tracer.Gather(header, timing)
}

// mergeLoadSeries closes every island's remaining monitoring windows
// (the final, possibly partial, window also absorbs the end-of-stream
// flush work) and folds the per-island window deltas into per-host
// rows, mirroring finalize's fold of the central island into the
// aggregator host so the two accountings always agree.
func (r *Runner) mergeLoadSeries(maxTime uint64) []obs.LoadWindow {
	final := int(maxTime/r.winSec) + 1
	for _, isl := range r.islands {
		isl.closeWindowsTo(final)
	}
	series := make([]obs.LoadWindow, 0, final)
	for w := 0; w < final; w++ {
		lw := obs.LoadWindow{
			Window:   w,
			StartSec: uint64(w) * r.winSec,
			EndSec:   uint64(w+1) * r.winSec,
		}
		if lw.EndSec > maxTime+1 {
			lw.EndSec = maxTime + 1
		}
		lw.Hosts = make([]obs.HostWindow, r.plan.Hosts)
		for h := range lw.Hosts {
			hm := r.islands[h].wins[w]
			if h == r.plan.AggregatorHost {
				hm.add(r.islands[r.plan.Hosts].wins[w])
			}
			lw.Hosts[h] = obs.HostWindow{
				Host:        h,
				CPUUnits:    hm.CPUUnits,
				NetTuplesIn: hm.NetTuplesIn,
				NetBytesIn:  hm.NetBytesIn,
				IPCTuplesIn: hm.IPCTuplesIn,
				Tuples:      hm.Tuples,
			}
		}
		series = append(series, lw)
	}
	return series
}

// buildReport assembles the machine-readable run report. Everything
// outside the Timing section is deterministic: a pure function of the
// plan, the trace, and the cost configuration.
func (r *Runner) buildReport(res *Result) *obs.RunReport {
	p := r.plan
	partitioning := p.Set.String()
	if p.StreamSets != nil {
		partitioning = p.StreamSets.String()
	}
	rep := &obs.RunReport{
		SchemaVersion:  obs.SchemaVersion,
		DurationSec:    r.metrics.DurationSec,
		CapacityPerSec: r.metrics.Capacity,
		Plan: &obs.PlanInfo{
			Hosts:             p.Hosts,
			Partitions:        p.Partitions,
			PartitionsPerHost: p.PartitionsPerHost,
			AggregatorHost:    p.AggregatorHost,
			Partitioning:      partitioning,
			Operators:         len(p.Ops),
		},
	}
	for _, op := range p.Ops {
		nr := obs.NodeReport{ID: op.ID, Kind: op.Kind.String(), Query: opQuery(op),
			Host: op.Host, Partition: op.Partition, OpStats: *res.OpStats[op.ID]}
		if nr.RowsIn > 0 {
			nr.PassRate = float64(nr.RowsOut) / float64(nr.RowsIn)
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	for h, hm := range r.metrics.Hosts {
		rep.Hosts = append(rep.Hosts, obs.HostReport{
			Host:            h,
			CPUUnits:        hm.CPUUnits,
			CPULoadPct:      r.metrics.CPULoad(h),
			OverloadFactor:  r.metrics.OverloadFactor(h),
			NetTuplesIn:     hm.NetTuplesIn,
			NetBytesIn:      hm.NetBytesIn,
			IPCTuplesIn:     hm.IPCTuplesIn,
			Tuples:          hm.Tuples,
			NetTuplesPerSec: r.metrics.NetLoad(h),
		})
	}
	if len(res.LoadSeries) > 0 {
		rep.LoadWindowSec = int(r.winSec)
		rep.LoadSeries = res.LoadSeries
	}
	engine := r.engineName()
	workers := r.workers
	rep.Timing = &obs.Timing{
		Workers:     &workers,
		Engine:      engine,
		BatchRounds: r.batchRounds,
		WallNanos:   time.Since(r.started).Nanoseconds(), //qap:allow walltime -- wall time quarantined in obs.Timing
		Rounds:      r.engRounds,
		Batches:     r.engBatches,
		LinkItems:   r.engLinkItems,
	}
	return rep
}

// engineName labels the backend for the report/trace timing records.
func (r *Runner) engineName() string {
	switch {
	case r.engine == EngineLive && r.parallel:
		return "live"
	case r.parallel:
		return "parallel"
	default:
		return "sequential"
	}
}
