package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"qap/internal/core"
	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
)

// liveRunConfig is the live backend's RunConfig for tests, tracing on so
// that trace bytes are compared too.
func liveRunConfig(workers, batch int, lc LiveConfig) RunConfig {
	return RunConfig{
		Costs: DefaultCosts(), Params: testParams,
		Workers: workers, BatchSize: batch,
		Trace:  &trace.Config{},
		Engine: EngineLive, Live: lc,
		DriveTimeout: 30 * time.Second,
	}
}

// liveWireModes are the batch sizes every live equivalence test covers:
// 256, the default, and 7, whose chunks of a column group are ragged. The
// simulator reference runs at the same batch size.
var liveWireModes = []int{7, 256}

// runEngine builds and runs a plan under an explicit RunConfig.
func runEngine(t testing.TB, queries string, ps core.Set, o optimizer.Options, streams map[string][]netgen.Packet, cfg RunConfig) *Result {
	t.Helper()
	g := buildGraph(t, queries)
	p, err := optimizer.Build(g, ps, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStreams(streams)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameTrace asserts byte-identical canonical trace exports.
func sameTrace(t *testing.T, want, got *Result) {
	t.Helper()
	if (want.Trace == nil) != (got.Trace == nil) {
		t.Fatalf("trace presence differs: want %v, got %v", want.Trace != nil, got.Trace != nil)
	}
	if want.Trace == nil {
		return
	}
	wb, err := want.Trace.CanonicalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.Trace.CanonicalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		wl := strings.Split(string(wb), "\n")
		gl := strings.Split(string(gb), "\n")
		n := len(wl)
		if len(gl) < n {
			n = len(gl)
		}
		for i := 0; i < n; i++ {
			if wl[i] != gl[i] {
				t.Fatalf("canonical trace diverged at line %d:\n  sim:  %s\n  live: %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("canonical trace lengths differ: sim %d lines, live %d lines", len(wl), len(gl))
	}
}

// TestLiveMatchesSim is the live backend's equivalence oracle inside
// the cluster package: for every workload, host count, worker count,
// and batch size, the live TCP backend must reproduce the simulator
// byte for byte — canonical outputs, metrics, OpStats, run report, and
// canonical trace bytes.
func TestLiveMatchesSim(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	querySets := []struct {
		name    string
		queries string
		ps      core.Set
	}{
		{"flows", flowsQuery, core.MustParseSet("srcIP, destIP")},
		{"complex", complexSet, core.MustParseSet("srcIP")},
		{"suspicious", suspiciousQuery, core.MustParseSet("srcIP, destIP, srcPort, destPort")},
		{"slidingwindow", slidingWindowSet(t), core.MustParseSet("srcIP, destIP")},
		{"joinrows", joinRowsSet, core.MustParseSet("srcIP")},
	}
	for _, qs := range querySets {
		qs := qs
		t.Run(qs.name, func(t *testing.T) {
			t.Parallel()
			for _, hosts := range []int{1, 2, 4} {
				o := optimizer.Options{Hosts: hosts, PartitionsPerHost: 2, PartialAgg: true}
				for _, batch := range liveWireModes {
					simCfg := liveRunConfig(1, batch, LiveConfig{})
					simCfg.Engine = EngineSim
					want := runEngine(t, qs.queries, qs.ps, o, streams, simCfg)
					for _, workers := range []int{1, 4} {
						// The live backend always runs one goroutine per
						// host; Workers is recorded config only, and the
						// results must not depend on it.
						cfg := liveRunConfig(workers, batch, LiveConfig{})
						got := runEngine(t, qs.queries, qs.ps, o, streams, cfg)
						sameResult(t, want, got)
						sameTrace(t, want, got)
					}
				}
			}
		})
	}
}

// TestLiveRoundRobin covers the round-robin splitter on the live
// backend: route state lives in the driver and must not drift.
func TestLiveRoundRobin(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 3, PartitionsPerHost: 2, PartialAgg: true}
	for _, batch := range liveWireModes {
		simCfg := liveRunConfig(1, batch, LiveConfig{})
		simCfg.Engine = EngineSim
		want := runEngine(t, flowsQuery, nil, o, streams, simCfg)
		cfg := liveRunConfig(1, batch, LiveConfig{})
		got := runEngine(t, flowsQuery, nil, o, streams, cfg)
		sameResult(t, want, got)
		sameTrace(t, want, got)
	}
}

// TestLiveTwoStream exercises the multi-cursor merge over the wire:
// advance tags span streams and the Hello's canonical stream order is
// load-bearing.
func TestLiveTwoStream(t *testing.T) {
	g := buildTwoStream(t)
	a, b := twoTraces(t)
	o := optimizer.Options{Hosts: 4, PartitionsPerHost: 2, PartialAgg: true}
	streams := map[string][]netgen.Packet{"PKT1": a.Packets, "PKT2": b.Packets}
	build := func() *optimizer.Plan {
		p, err := optimizer.Build(g, core.MustParseSet("srcIP, destIP"), o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, batch := range liveWireModes {
		simCfg := liveRunConfig(1, batch, LiveConfig{})
		simCfg.Engine = EngineSim
		seq, err := NewRunner(build(), simCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Outputs["combined"]) == 0 {
			t.Fatal("two-stream join found no matches")
		}
		cfg := liveRunConfig(1, batch, LiveConfig{})
		lr, err := NewRunner(build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lr.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got)
		sameTrace(t, want, got)
	}
}

// serveNodes serves hosts through ServeNode on goroutines of this
// process, each compiling its runner with compile, and returns their
// addresses and a channel of their Serve results.
func serveNodes(t *testing.T, hosts int, lc LiveConfig, compile func(deploy []byte) (*Runner, error)) ([]string, chan error) {
	t.Helper()
	addrc := make(chan string, hosts)
	done := make(chan error, hosts)
	addrs := make([]string, hosts)
	for h := 0; h < hosts; h++ {
		go func(h int) {
			done <- ServeNode(h, "127.0.0.1:0", lc, compile, func(addr string) { addrc <- addr })
		}(h)
		addrs[h] = <-addrc
	}
	return addrs, done
}

// TestLiveRemoteNodes runs every leaf host as a separately compiled
// runner served over ServeNode — the same shape as qap-node processes,
// the deployment arriving in the splitter's Hello — and demands
// byte-identical results, including the result shards shipped back
// over the wire.
func TestLiveRemoteNodes(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	g := buildGraph(t, complexSet)
	ps := core.MustParseSet("srcIP")
	build := func() *optimizer.Plan {
		p, err := optimizer.Build(g, ps, o)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const spec = "the deployment"
	for _, batch := range liveWireModes {
		simCfg := liveRunConfig(1, batch, LiveConfig{})
		simCfg.Engine = EngineSim
		seq, err := NewRunner(build(), simCfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := seq.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		cfg := liveRunConfig(1, batch, LiveConfig{})

		// Serve both hosts from runners compiled on the first Hello, as
		// qap-node does in its own process.
		addrs, done := serveNodes(t, o.Hosts, LiveConfig{}, func(deploy []byte) (*Runner, error) {
			if string(deploy) != spec {
				t.Errorf("the node was handed deployment %q, want %q", deploy, spec)
			}
			return NewRunner(build(), cfg)
		})
		cfg.Live.Nodes = addrs
		cfg.Deploy = []byte(spec)
		lr, err := NewRunner(build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lr.RunStreams(streams)
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < o.Hosts; h++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		sameResult(t, want, got)
		sameTrace(t, want, got)
	}
}

// fingerprintCase builds the live runners of the fingerprint tests: a
// 2-host complex-set deployment at the given batch size.
func fingerprintCase(t *testing.T, timeout time.Duration) (map[string][]netgen.Packet, func(batch int) *Runner) {
	t.Helper()
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	g := buildGraph(t, complexSet)
	ps := core.MustParseSet("srcIP")
	return streams, func(batch int) *Runner {
		p, err := optimizer.Build(g, ps, o)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(p, liveRunConfig(1, batch, LiveConfig{Timeout: timeout}))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
}

// refusedEverywhere runs the splitter against the served nodes and
// demands that the run fail by refusal, not by a timeout, and that every
// node fail with an error containing want — every node, at once: the
// first refusal aborts the run, and the splitter's other peer still
// completes its own handshake, so its node refuses too instead of
// waiting out the accept grace for a splitter that left before it
// dialed.
func refusedEverywhere(t *testing.T, sp *Runner, streams map[string][]netgen.Packet, done chan error, want string) {
	t.Helper()
	_, err := sp.RunStreams(streams)
	if err == nil {
		t.Fatal("mismatched deployment fingerprints were accepted")
	}
	// A refusal the splitter saw only as a read deadline running out
	// was the transport timing out, not the handshake.
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the splitter's refusal is a timeout: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want a node-side error containing %q, got: %v", want, err)
		}
	}
}

// TestLiveCompiledFingerprintMismatch: a node whose compiled runner
// does not reproduce the fingerprint the splitter announces — here it
// compiles BatchSize 7 where the splitter runs 256 — refuses the first
// handshake for good instead of silently diverging.
func TestLiveCompiledFingerprintMismatch(t *testing.T) {
	streams, build := fingerprintCase(t, 5*time.Second)
	addrs, done := serveNodes(t, 2, LiveConfig{Timeout: 5 * time.Second}, func([]byte) (*Runner, error) { return build(7), nil })
	sp := build(256)
	sp.liveCfg.Nodes = addrs
	refusedEverywhere(t, sp, streams, done, "the compiled deployment has fingerprint")
}

// TestLiveFingerprintMismatch: a node pins the fingerprint of the first
// Hello it accepts. After a splitter of one deployment has opened its
// sessions and gone, a splitter of another that reaches the same nodes
// is refused as a resume of the wrong deployment, on every node.
func TestLiveFingerprintMismatch(t *testing.T) {
	const timeout = 5 * time.Second
	streams, build := fingerprintCase(t, timeout)
	addrs, done := serveNodes(t, 2, LiveConfig{Timeout: timeout}, func([]byte) (*Runner, error) { return build(7), nil })

	// The first splitter speaks for the BatchSize 7 deployment the nodes
	// compile: both accept it, answer an empty feed, and are left
	// waiting for it to resume.
	first := live.NewSplitter(live.Config{Timeout: timeout}, live.Hello{
		BatchSize: 7, Streams: []string{"tcp"}, Fingerprint: build(7).LiveFingerprint(),
	}, addrs)
	first.Start()
	for h := range addrs {
		if err := first.SendFeed(h, &live.FeedMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	for range addrs {
		select {
		case <-first.Links():
		case err := <-first.Errs():
			t.Fatal(err)
		case <-time.After(timeout):
			t.Fatal("a node never answered the first splitter")
		}
	}
	first.Close()

	sp := build(256)
	sp.liveCfg.Nodes = addrs
	refusedEverywhere(t, sp, streams, done, "resumed hello carries deployment fingerprint")
}

// TestLiveFaultRecovery injects dropped, duplicated, stalled, and cut
// connections into the live transport and demands the run still
// converge to the simulator's exact bytes: the reconnect-and-replay
// protocol may cost time, never correctness.
func TestLiveFaultRecovery(t *testing.T) {
	tr := smallTrace(t)
	streams := map[string][]netgen.Packet{"TCP": tr.Packets}
	o := optimizer.Options{Hosts: 2, PartitionsPerHost: 2, PartialAgg: true}
	ps := core.MustParseSet("srcIP")

	want := make(map[int]*Result)
	for _, batch := range liveWireModes {
		simCfg := liveRunConfig(1, batch, LiveConfig{})
		simCfg.Engine = EngineSim
		want[batch] = runEngine(t, complexSet, ps, o, streams, simCfg)
	}

	plans := []struct {
		name   string
		faults []live.Fault
	}{
		{"drop-feed", []live.Fault{{Host: 0, Session: 0, Write: 3, Action: live.FaultDrop}}},
		{"drop-link", []live.Fault{{Host: 1, Session: 0, Write: 2, Action: live.FaultDrop}}},
		{"dup-feed", []live.Fault{{Host: 0, Session: -1, Write: 2, Action: live.FaultDup}}},
		{"dup-link", []live.Fault{{Host: 0, Session: -1, Write: 1, Action: live.FaultDup}}},
		{"cut-feed", []live.Fault{{Host: 1, Session: 0, Write: 4, Action: live.FaultCut}}},
		{"cut-link", []live.Fault{{Host: 0, Session: 0, Write: 3, Action: live.FaultCut}}},
		{"stall-feed", []live.Fault{{Host: 0, Session: 0, Write: 2, Action: live.FaultStall, Stall: 150 * time.Millisecond}}},
		{"cut-both", []live.Fault{
			{Host: 0, Session: 0, Write: 2, Action: live.FaultCut},
			{Host: 1, Session: 0, Write: 3, Action: live.FaultCut},
			{Host: 0, Session: 1, Write: 5, Action: live.FaultCut},
		}},
	}
	for _, pl := range plans {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			t.Parallel()
			// Both batch sizes ship column groups, so both retransmit
			// out of an outbox of recycled frames.
			for _, batch := range liveWireModes {
				fp := &live.FaultPlan{Faults: pl.faults}
				cfg := liveRunConfig(1, batch, LiveConfig{Faults: fp, Timeout: 2 * time.Second})
				got := runEngine(t, complexSet, ps, o, streams, cfg)
				if fp.Hits() == 0 {
					t.Fatalf("batch=%d: fault plan never fired; the scenario tested nothing", batch)
				}
				sameResult(t, want[batch], got)
				sameTrace(t, want[batch], got)
			}
		})
	}
}

// TestInstallHostShardIsStrict: a remote node's result shard is a
// peer's input, decoded as strictly as the deployment spec. Counters for
// an operator the island does not run are refused with an error naming
// the node and the op, not added to the run's accounting; so is a shard
// in the shape a protocol-7 node shipped (host metrics and node rows
// beside the operator counters), with an error naming the node and the
// offset.
func TestInstallHostShardIsStrict(t *testing.T) {
	p, err := optimizer.Build(buildGraph(t, flowsQuery), core.MustParseSet("srcIP"), optimizer.Options{Hosts: 2, PartitionsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	own := r.islands[1].ops[0].ID
	if err := r.installHostShard(1, []byte(fmt.Sprintf(`{"cur_win":0,"ops":{"%d":{"rows_in":3}}}`, own))); err != nil {
		t.Fatalf("a shard counting the island's own operator was refused: %v", err)
	}
	for _, c := range []struct {
		name, payload string
		want          []string
	}{
		{"unknown op", `{"cur_win":0,"ops":{"999":{"rows_in":3}}}`, []string{"live node 1", "unknown op 999"}},
		{"parent shape", `{"metrics":{},"rows":{"flows":3},"cur_win":0}`, []string{"live node 1", "offset", `"metrics"`}},
		{"trailing data", `{"cur_win":0} {}`, []string{"live node 1", "trailing data at offset"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := r.installHostShard(1, []byte(c.payload))
			if err == nil {
				t.Fatalf("the shard was accepted: Result.NodeRows is %v", r.finalize(false, 0).NodeRows)
			}
			for _, want := range c.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %s", err, want)
				}
			}
		})
	}
}

// TestInstallHostShardRefusesWindowMismatch: a remote node's result
// shard whose window cursor disagrees with its closed windows is
// refused with an error naming the node, not installed for
// mergeLoadSeries to index past the end of.
func TestInstallHostShardRefusesWindowMismatch(t *testing.T) {
	p, err := optimizer.Build(buildGraph(t, flowsQuery), core.MustParseSet("srcIP"), optimizer.Options{Hosts: 2, PartitionsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Costs: DefaultCosts(), Params: testParams, BatchSize: 256, LoadWindowSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		`{"cur_win":9}`,
		`{"cur_win":-1}`,
		`{"cur_win":0,"wins":[{}]}`,
	} {
		err := r.installHostShard(1, []byte(payload))
		if err == nil {
			r.mergeLoadSeries(25)
			t.Fatalf("shard %s accepted", payload)
		}
		if !strings.Contains(err.Error(), "live node 1 result shard") {
			t.Errorf("shard %s: error %q does not name the node", payload, err)
		}
	}
	if err := r.installHostShard(1, []byte(`{"cur_win":2,"wins":[{},{}]}`)); err != nil {
		t.Fatalf("consistent shard refused: %v", err)
	}
}
