package qap

import (
	"fmt"
	"sort"

	"qap/internal/netgen"
	"qap/internal/obs"
	"qap/internal/obs/trace"
)

// AdaptiveConfig configures RunAdaptive, the drift controller: monitor
// the deployed partitioning's per-host load online, detect divergence
// from the Section 4.2.1 bound, and repartition deterministically.
type AdaptiveConfig struct {
	// Deploy is the initial deployment shape; Deploy.Partitioning is
	// the set being monitored and Deploy.LoadWindowSec the monitoring
	// window in trace seconds (default 10). PerStream deployments are
	// not supported (the re-optimizer targets the shared-set analysis).
	Deploy DeployConfig
	// Stats are the deploy-time workload statistics the Section 4.2.1
	// bound for the initial set is computed from (nil uses the static
	// heuristics). The trigger compares measured load against
	// TriggerFactor times that bound.
	Stats Stats
	// Analysis, when non-nil, is the search result that recommended
	// the initial set. Its candidate enumeration is reused by the
	// incremental re-optimization (Reanalyze); nil falls back to a
	// full re-search under the refreshed statistics.
	Analysis *Analysis
	// TriggerFactor inflates the bound before comparing: the trigger
	// fires on the first window whose measured max-host network rate
	// exceeds TriggerFactor × bound. Default 1.5.
	TriggerFactor float64
}

const (
	// warmupWindows are skipped by the trigger scan: ramp-up windows are
	// not representative.
	warmupWindows = 1
	// refreshWindows is how much recent history, in windows ending at
	// the trigger boundary, the statistics refresh measures: the window
	// that violated the bound is exactly the drifted regime to re-plan
	// for.
	refreshWindows = 1
)

// AdaptiveResult reports one adaptive run: what was monitored, whether
// and when the trigger fired, the refreshed decision, and the final
// (authoritative) run. Every field is deterministic — a pure function
// of the streams and the config — for any Workers/BatchSize, which is
// what lets difftest sweep adaptive runs byte-for-byte.
type AdaptiveResult struct {
	// Initial is the full-trace monitored run on the initial set.
	Initial *RunResult
	// Final holds the authoritative outputs: the post-switch
	// deployment's replayed run when Repartitioned, otherwise
	// Initial itself.
	Final      *RunResult
	InitialSet Set
	FinalSet   Set
	// Bound is the Section 4.2.1 predicted max-host network rate
	// (bytes/sec) for the initial set under the deploy-time stats;
	// the trigger threshold is TriggerFactor × Bound.
	Bound         float64
	TriggerFactor float64
	LoadWindowSec int
	// TriggerWindow is the first monitoring window whose measured
	// max-host rate exceeded the threshold (-1: never fired, in which
	// case every switch field below is zero-valued).
	TriggerWindow int
	// TriggerRate is the offending measured rate.
	TriggerRate float64
	// SwitchTimeSec is the epoch boundary (the trigger window's end)
	// where the controller drains and switches.
	SwitchTimeSec uint64
	// Repartitioned reports whether the refreshed decision actually
	// changed the set (the trigger can fire and re-optimization still
	// confirm the current set).
	Repartitioned bool
	// RefreshedStats are the statistics measured over the trigger
	// window's traffic; NewBound is the bound for FinalSet under
	// them.
	RefreshedStats *StaticStats
	NewBound       float64
	// PostSwitchPeak is the highest measured max-host rate in the
	// windows after the trigger window in the final run (final
	// flush-artifact window excluded); comparing it against
	// TriggerFactor × NewBound is the acceptance check that
	// repartitioning restored the bound.
	PostSwitchPeak float64
	// Trace is the composed causal trace: the initial run's records
	// (phase "initial"), then the controller's decision chain (phase
	// "controller": trigger_eval, trigger, stats_refresh, reanalyze,
	// then switch+replay or confirm), then — when Repartitioned — the
	// replayed final run's records (phase "final"). Nil unless
	// Deploy.Trace was set; deterministic like every other field.
	Trace *RunTrace
}

// WithinBoundAfterSwitch reports whether the post-switch load came
// back inside the (inflated) refreshed bound.
func (a *AdaptiveResult) WithinBoundAfterSwitch() bool {
	return a.PostSwitchPeak <= a.TriggerFactor*a.NewBound
}

// RunAdaptive executes the adaptive repartitioning protocol over the
// given streams:
//
//  1. Deploy the initial set with load monitoring on and run.
//  2. Scan the load series (skipping warmup and the final
//     flush-artifact window) for the first window whose measured
//     max-host network rate exceeds TriggerFactor times the Section
//     4.2.1 bound.
//  3. On a violation, drain at the trigger window's end boundary,
//     refresh statistics by measuring the trigger window's traffic
//     (MeasureStats over the re-based window slice), and re-run the
//     optimizer incrementally (Reanalyze) under the refreshed stats.
//  4. If the decision changed, switch: deploy the new set and replay
//     the buffered stream history through it from clean state.
//
// Because the simulator buffers whole traces, the replay runs the
// complete history, which makes the adapted run's outputs structurally
// byte-identical to a cold restart on the new set — the equivalence
// difftest's repartition axis asserts, alongside the determinism of
// the trigger decision itself across Workers/BatchSize.
func (s *System) RunAdaptive(cfg AdaptiveConfig, streams map[string][]netgen.Packet) (*AdaptiveResult, error) {
	if cfg.Deploy.PerStream != nil {
		return nil, fmt.Errorf("qap: RunAdaptive does not support per-stream partitioning")
	}
	if cfg.TriggerFactor <= 0 {
		cfg.TriggerFactor = 1.5
	}
	depCfg := cfg.Deploy
	if depCfg.LoadWindowSec <= 0 {
		depCfg.LoadWindowSec = 10
	}
	dep, err := s.Deploy(depCfg)
	if err != nil {
		return nil, err
	}
	initial, err := dep.RunStreams(streams)
	if err != nil {
		return nil, err
	}

	// Controller trace events accumulate in ctl; finish composes them
	// with the phase-labelled run traces at every return point.
	tracing := depCfg.Trace != nil
	var ctl []trace.Event
	emit := func(e trace.Event) {
		if tracing {
			e.Phase = "controller"
			ctl = append(ctl, e)
		}
	}
	finish := func(res *AdaptiveResult) *AdaptiveResult {
		if !tracing {
			return res
		}
		tr := res.Initial.Trace.WithPhase("initial")
		tr.Append(ctl...)
		if res.Repartitioned {
			tr.Records = append(tr.Records, res.Final.Trace.WithPhase("final").Records...)
		}
		res.Trace = tr
		return res
	}

	res := &AdaptiveResult{
		Initial:       initial,
		Final:         initial,
		InitialSet:    depCfg.Partitioning,
		FinalSet:      depCfg.Partitioning,
		Bound:         s.PlanTotalCost(depCfg.Partitioning, cfg.Stats),
		TriggerFactor: cfg.TriggerFactor,
		LoadWindowSec: depCfg.LoadWindowSec,
		TriggerWindow: -1,
	}

	// The final window absorbs the end-of-stream flushes (every open
	// epoch emits at once) — a shutdown artifact, not steady-state
	// load a real deployment would ever drain inside. Exclude it.
	series := initial.LoadSeries
	if len(series) > 0 {
		series = series[:len(series)-1]
	}
	win, rate := obs.FirstLoadViolation(series, res.Bound, cfg.TriggerFactor, warmupWindows)
	emit(trace.Event{Kind: trace.KindTriggerEval, Window: win, Rate: rate,
		Bound: res.Bound, Factor: cfg.TriggerFactor, Set: res.InitialSet.String()})
	if win < 0 {
		return finish(res), nil
	}
	res.TriggerWindow, res.TriggerRate = win, rate
	res.SwitchTimeSec = initial.LoadSeries[win].EndSec
	emit(trace.Event{Kind: trace.KindTrigger, Window: win, Rate: rate,
		WM: res.SwitchTimeSec, Bound: res.Bound, Factor: cfg.TriggerFactor,
		Note: "drain at the trigger window's end boundary"})

	// Refresh statistics from the traffic that violated the bound:
	// the refreshWindows windows ending at the drain boundary,
	// re-based to time zero so measured rates reflect the drifted
	// regime rather than being diluted by the whole prefix.
	base := uint64(0)
	if span := uint64(refreshWindows) * uint64(depCfg.LoadWindowSec); res.SwitchTimeSec > span {
		base = res.SwitchTimeSec - span
	}
	sample := make(map[string][]netgen.Packet, len(streams))
	for name, pks := range streams { //qap:allow maprange -- per-stream slicing, order-insensitive
		lo := sort.Search(len(pks), func(i int) bool { return pks[i].Time >= base })
		hi := sort.Search(len(pks), func(i int) bool { return pks[i].Time >= res.SwitchTimeSec })
		win := make([]netgen.Packet, hi-lo)
		for i, p := range pks[lo:hi] {
			p.Time -= base
			win[i] = p
		}
		sample[name] = win
	}
	refreshed, err := s.MeasureStats(sample)
	if err != nil {
		return nil, fmt.Errorf("qap: RunAdaptive: statistics refresh over [%d,%d)s failed: %w",
			base, res.SwitchTimeSec, err)
	}
	res.RefreshedStats = refreshed
	emit(trace.Event{Kind: trace.KindStatsRefresh, WM: res.SwitchTimeSec,
		Note: fmt.Sprintf("measured [%d,%d)s re-based to zero", base, res.SwitchTimeSec)})

	re, err := s.Reanalyze(cfg.Analysis, refreshed)
	if err != nil {
		return nil, err
	}
	res.FinalSet = re.Best
	res.NewBound = s.PlanTotalCost(res.FinalSet, refreshed)
	emit(trace.Event{Kind: trace.KindReanalyze, WM: res.SwitchTimeSec,
		Set: res.FinalSet.String(), Bound: res.NewBound})
	if res.FinalSet.Equal(res.InitialSet) {
		// Re-optimization confirmed the deployed set; no switch. The
		// post-trigger windows of the initial run are the "after".
		res.PostSwitchPeak = peakAfterWindow(initial.LoadSeries, win)
		emit(trace.Event{Kind: trace.KindConfirm, WM: res.SwitchTimeSec,
			Set: res.InitialSet.String(), Rate: res.PostSwitchPeak})
		return finish(res), nil
	}

	// Switch: deploy the refreshed decision and replay the buffered
	// history from clean operator state.
	res.Repartitioned = true
	emit(trace.Event{Kind: trace.KindSwitch, WM: res.SwitchTimeSec,
		Set: res.FinalSet.String(), Bound: res.NewBound})
	newCfg := depCfg
	newCfg.Partitioning = res.FinalSet
	newDep, err := s.Deploy(newCfg)
	if err != nil {
		return nil, err
	}
	final, err := newDep.RunStreams(streams)
	if err != nil {
		return nil, err
	}
	res.Final = final
	res.PostSwitchPeak = peakAfterWindow(final.LoadSeries, win)
	emit(trace.Event{Kind: trace.KindReplay, WM: res.SwitchTimeSec,
		Set: res.FinalSet.String(), Rate: res.PostSwitchPeak,
		Note: "full history replayed from clean state; outputs byte-identical to a cold restart"})
	return finish(res), nil
}

// peakAfterWindow returns the highest per-window max-host network
// rate strictly after window `after`, excluding the final window (the
// end-of-stream flush artifact).
func peakAfterWindow(series []LoadWindow, after int) float64 {
	peak := 0.0
	for i := 0; i < len(series)-1; i++ {
		if series[i].Window <= after {
			continue
		}
		if r := series[i].MaxHostNetBytesPerSec(); r > peak {
			peak = r
		}
	}
	return peak
}
