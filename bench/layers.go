package main

import (
	"fmt"
	"os"

	"qap"
	"qap/internal/cluster"
	"qap/internal/core"
	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/schema"
)

// stagedBuilds is how many times the traced run rebuilds the pipeline
// stage by stage; the per-stage times are medians over the rebuilds.
const stagedBuilds = 5

// layerResult is one workload's traced measurement.
type layerResult struct {
	vals              values
	attempted, failed int
}

// staged is the pipeline rebuilt through the packages' own entry
// points, the same calls qap.Load, Analyze and Deploy make.
type staged struct {
	graph    *plan.Graph
	analysis *core.Result
	plan     *optimizer.Plan
}

// runConfig is the cluster configuration qap.Deployment would derive
// from the workload, with the engine and worker count overridable.
func (w *workload) runConfig(engine string, workers int, hints map[int]int) cluster.RunConfig {
	return cluster.RunConfig{
		Costs:   cluster.DefaultCosts(),
		Params:  params(),
		Workers: workers, Columnar: true, Engine: engine, SizeHints: hints,
	}
}

// buildStaged rebuilds the pipeline once with a span around each stage,
// appending each stage's seconds to times.
func buildStaged(w *workload, rec *spanRecorder, parent int, times map[string][]float64) (*staged, error) {
	timed := func(name string, fn func() error) error {
		id := rec.begin(name, parent)
		err := fn()
		times[name] = append(times[name], rec.end(id))
		return err
	}
	var st staged
	var cat *schema.Catalog
	var qs *gsql.QuerySet
	err := timed("gsql.parse", func() (err error) {
		if cat, err = schema.Parse(netgen.SchemaDDL); err != nil {
			return err
		}
		qs, err = gsql.ParseQuerySet(w.queries)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := timed("plan.Build", func() (err error) {
		st.graph, err = plan.Build(cat, qs)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("core.Optimize", func() (err error) {
		st.analysis, err = core.Optimize(st.graph, nil, core.DefaultOptions())
		return err
	}); err != nil {
		return nil, err
	}
	var set core.Set
	if w.bestSet {
		set = st.analysis.Best
	}
	if err := timed("optimizer.Build", func() (err error) {
		st.plan, err = optimizer.Build(st.graph, set, optimizer.Options{
			Hosts: w.hosts, PartitionsPerHost: w.partsPerHost,
			PartialAgg: true, PartialScope: optimizer.ScopeHost,
		})
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("cluster.NewRunner", func() error {
		_, err := cluster.NewRunner(st.plan, w.runConfig(w.engine, w.workers, nil))
		return err
	}); err != nil {
		return nil, err
	}
	return &st, nil
}

// driveVariant is one engine configuration the same plan is driven in.
type driveVariant struct {
	engine  string
	workers int
}

// drive replays the staged plan n times through cluster.Runner in one
// engine configuration, after one untimed replay that harvests the size
// hints, and returns the median replay time.
func drive(w *workload, in *inputs, st *staged, v driveVariant, n int, rec *spanRecorder, parent int, out *layerResult) (float64, error) {
	name := fmt.Sprintf("cluster.RunStreams[%s,workers=%d]", v.engine, v.workers)
	streams := map[string][]netgen.Packet{"TCP": in.trace.Packets}
	var hints map[int]int
	var secs []float64
	for i := 0; i <= n; i++ {
		r, err := cluster.NewRunner(st.plan, w.runConfig(v.engine, v.workers, hints))
		if err != nil {
			return 0, err
		}
		id := rec.begin(name, parent)
		res, err := r.RunStreams(streams)
		sec := rec.end(id)
		out.attempted++
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if q := digestOf(res.Outputs).diff(in.ref); q != "" {
			out.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s %s replay %d: output of query %s differs from the reference\n", w.name, name, i, q)
		}
		hints = res.SizeHints
		if i > 0 {
			secs = append(secs, sec)
		}
	}
	return median(secs), nil
}

// opCounters sums the run report's per-operator row counts by operator
// kind; sub- and super-aggregates count as aggregates.
func opCounters(rep *qap.RunReport, vals values) {
	for _, name := range []string{"exec.scan_rows", "exec.selproj_rows_in", "exec.selproj_rows_out",
		"exec.agg_rows_in", "exec.agg_rows_out", "exec.join_rows_in", "exec.join_rows_out"} {
		vals[name] = 0
	}
	for i := range rep.Nodes {
		n := &rep.Nodes[i]
		switch n.Kind {
		case optimizer.OpScan.String():
			vals["exec.scan_rows"] += float64(n.RowsOut)
		case optimizer.OpSelProj.String():
			vals["exec.selproj_rows_in"] += float64(n.RowsIn)
			vals["exec.selproj_rows_out"] += float64(n.RowsOut)
		case optimizer.OpAggregate.String(), optimizer.OpAggSub.String(), optimizer.OpAggSuper.String():
			vals["exec.agg_rows_in"] += float64(n.RowsIn)
			vals["exec.agg_rows_out"] += float64(n.RowsOut)
		case optimizer.OpJoin.String():
			vals["exec.join_rows_in"] += float64(n.RowsIn)
			vals["exec.join_rows_out"] += float64(n.RowsOut)
		}
	}
}

// hostCounters reads the deterministic load accounting: the paper's
// aggregator network load and the leaf skew that sets a parallel round.
func hostCounters(m *qap.Metrics, vals values) {
	vals["cluster.central_net_tuples"] = float64(m.Hosts[0].NetTuplesIn)
	vals["cluster.central_net_bytes"] = float64(m.Hosts[0].NetBytesIn)
	var sum, maxT float64
	for i := range m.Hosts {
		t := float64(m.Hosts[i].Tuples)
		sum += t
		maxT = max(maxT, t)
	}
	vals["cluster.host_skew"] = ratio(maxT*float64(len(m.Hosts)), sum)
}

// runLayers is the traced run: every layer measured from outside, by
// spans around calls into its exported functions, by the program's own
// deterministic counters, and by probes that isolate one layer.
func runLayers(w *workload, in *inputs, sc scale, rec *spanRecorder) (*layerResult, error) {
	out := &layerResult{vals: values{}}
	vals := out.vals
	vals["netgen.generate_s"] = in.generateS
	vals["netgen.packets"] = float64(len(in.trace.Packets))
	vals["netgen.flows"] = float64(in.trace.TotalFlows)

	// (a) The pipeline, stage by stage.
	phase := rec.begin("build", -1)
	times := map[string][]float64{}
	var st *staged
	for i := 0; i < stagedBuilds; i++ {
		s, err := buildStaged(w, rec, phase, times)
		if err != nil {
			return nil, fmt.Errorf("%s: staged build: %w", w.name, err)
		}
		st = s
	}
	rec.end(phase)
	vals["gsql.parse_s"] = median(times["gsql.parse"])
	vals["plan.build_s"] = median(times["plan.Build"])
	vals["plan.nodes"] = float64(len(st.graph.QueryNodes()))
	vals["core.optimize_s"] = median(times["core.Optimize"])
	vals["core.enumerated"] = float64(st.analysis.Search.Enumerated)
	vals["core.unique_sets"] = float64(st.analysis.Search.UniqueSets)
	vals["core.cache_hits"] = float64(st.analysis.Search.CacheHits)
	vals["optimizer.build_s"] = median(times["optimizer.Build"])
	vals["optimizer.ops"] = float64(len(st.plan.Ops))
	vals["cluster.compile_s"] = median(times["cluster.NewRunner"])

	// (b) Replays with the program's own collectors on, against the
	// same number with them off: the counters, and what they cost.
	phase = rec.begin("replay", -1)
	replaySet := func(name string, collect bool) (*sample, error) {
		cold, err := setupCycle(w, in, collect)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", w.name, name, err)
		}
		run := func() (*qap.RunResult, error) {
			id := rec.begin(name, phase)
			defer rec.end(id)
			return cold.dep.Run("TCP", in.trace.Packets)
		}
		s := measure(w, in, run, 0, sc.statsReplays)
		out.attempted += len(s.seconds)
		out.failed += s.failed
		if s.last == nil {
			return nil, fmt.Errorf("%s: %s: no replay succeeded", w.name, name)
		}
		return s, nil
	}
	plain, err := replaySet("Deployment.Run", false)
	if err != nil {
		return nil, err
	}
	traced, err := replaySet("Deployment.Run[CollectStats]", true)
	if err != nil {
		return nil, err
	}
	rec.end(phase)
	vals["obs.collect_overhead_ratio"] = ratio(median(traced.seconds), median(plain.seconds))
	n := float64(len(plain.seconds))
	vals["runtime.gc_cycles_per_replay"] = float64(plain.gcCycles) / n
	vals["runtime.gc_pause_ms_per_replay"] = float64(plain.gcPauseNS) / 1e6 / n
	rep := traced.last.Report()
	opCounters(rep, vals)
	hostCounters(traced.last.Metrics, vals)
	vals["cluster.rounds"] = float64(rep.Timing.Rounds)
	vals["cluster.batches"] = float64(rep.Timing.Batches)
	vals["cluster.link_items"] = float64(rep.Timing.LinkItems)

	// (c) The same plan under each engine, so that engine overhead can
	// be told from operator time.
	phase = rec.begin("drive", -1)
	own := driveVariant{engine: w.engine, workers: w.workers}
	if own.engine == "" {
		own.engine = cluster.EngineSim
	}
	seq := driveVariant{engine: cluster.EngineSim, workers: 1}
	par := driveVariant{engine: cluster.EngineSim, workers: 2}
	liveV := driveVariant{engine: cluster.EngineLive, workers: 2}
	driven := map[driveVariant]float64{}
	for _, v := range []driveVariant{own, seq, par, liveV} {
		if _, ok := driven[v]; ok {
			continue
		}
		sec, err := drive(w, in, st, v, sc.driveReplays, rec, phase, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		driven[v] = sec
	}
	rec.end(phase)
	vals["cluster.drive_s"] = driven[own]
	vals["cluster.drive_seq_s"] = driven[seq]
	vals["cluster.parallel_speedup"] = ratio(driven[seq], driven[par])
	vals["live.overhead_ratio"] = ratio(driven[liveV], driven[par])

	// (d) One layer at a time.
	phase = rec.begin("probes", -1)
	secs := probeSeconds{}
	packets := probePrefix(in.trace.Packets)
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"pivot", func() error { pivotProbe(packets, vals, secs); return nil }},
		{probeAgg, func() error { return aggProbe(packets, vals, secs) }},
		{probeJoin, func() error { return joinProbe(packets, vals, secs) }},
		{"wire", func() error { return wireProbe(packets, vals) }},
		{"transport", func() error { return transportProbe(packets, vals) }},
	} {
		id := rec.begin("probe."+p.name, phase)
		err := p.fn()
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	rec.end(phase)
	// The probes walked a prefix; a replay walks the whole trace.
	covered := 0.0
	for _, name := range w.covered {
		covered += secs[name]
	}
	covered *= ratio(float64(len(in.trace.Packets)), float64(len(packets)))
	vals["probe.rows"] = float64(len(packets))
	vals["probe.coverage"] = ratio(covered, driven[seq])
	return out, nil
}
