package qap

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qap/internal/live"
	"qap/internal/netgen"
	"qap/internal/obs/trace"
	"qap/internal/qgen"
)

// serveNodes serves hosts through ServeNode on goroutines of this
// process, as qap-node processes would, and returns their addresses and
// a channel of their Serve results.
func serveNodes(t *testing.T, hosts int, lo LiveOptions) ([]string, chan error) {
	t.Helper()
	addrc := make(chan string, hosts)
	done := make(chan error, hosts)
	addrs := make([]string, hosts)
	for h := range addrs {
		go func(h int) {
			done <- ServeNode(h, "127.0.0.1:0", lo, func(addr string) { addrc <- addr })
		}(h)
		addrs[h] = <-addrc
	}
	return addrs, done
}

// TestServeNodeMatchesSim: a Deployment driving nodes that know nothing
// but their host and address — every setting reaches them in the
// splitter's Hello — reproduces the simulator byte for byte: outputs,
// node rows, metrics, operator stats, the load series, the canonical
// run report and the canonical trace. The settings are the ones a node
// used to take as must-match flags, at values other than those flags'
// defaults — a parameter, per-partition partial aggregation and a load
// window — with one setting no node flag could express, a trace ring
// small enough to drop events; and then with tracing off, where the
// nodes' shipped operator counters are all the splitter learns of them.
func TestServeNodeMatchesSim(t *testing.T) {
	sys := MustLoad(netgen.SchemaDDL, SuspiciousFlowsQuery+"\n"+ComplexQuerySet)
	packets := diffTrace(1)
	plain := DeployConfig{
		Hosts: 2, PartitionsPerHost: 2, Partitioning: MustParseSet("srcIP"),
		PartialScope:  ScopePartition,
		Params:        map[string]Value{"PATTERN": Uint(netgen.NormalPattern)},
		LoadWindowSec: 5,
	}
	traced := plain
	traced.Trace = &RunTraceConfig{Mode: trace.ModeRing, RingSize: 16}
	run := func(t *testing.T, cfg DeployConfig) *RunResult {
		t.Helper()
		dep, err := sys.Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.Run("TCP", packets)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, c := range []struct {
		name string
		cfg  DeployConfig
	}{{"trace", traced}, {"trace off", plain}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			want := run(t, cfg)
			if len(want.Outputs["suspicious"]) == 0 {
				t.Fatal("the non-default PATTERN selects no flow: the parameter is not tested")
			}
			for h, hm := range want.Metrics.Hosts {
				if hm.CPUUnits == 0 {
					t.Fatalf("host %d has no load: the metrics are not tested", h)
				}
			}
			if cfg.Trace != nil {
				full := cfg
				full.Trace = &RunTraceConfig{}
				if n := len(run(t, full).Trace.Records); len(want.Trace.Records) >= n {
					t.Fatalf("the ring kept all %d events: ring mode is not tested", n)
				}
			}

			addrs, done := serveNodes(t, cfg.Hosts, LiveOptions{Timeout: 10 * time.Second})
			cfg.Engine = EngineLive
			cfg.Live = LiveOptions{Nodes: addrs, Timeout: 10 * time.Second}
			got := run(t, cfg)
			for range addrs {
				if err := <-done; err != nil {
					t.Fatalf("node: %v", err)
				}
			}

			for _, c := range []struct {
				what      string
				want, got any
			}{
				{"outputs", want.Outputs, got.Outputs},
				{"node rows", want.NodeRows, got.NodeRows},
				{"metrics", *want.Metrics, *got.Metrics},
				{"op stats", want.OpStats, got.OpStats},
				{"load series", want.LoadSeries, got.LoadSeries},
				{"run report", canonReport(t, want), canonReport(t, got)},
			} {
				if !reflect.DeepEqual(c.want, c.got) {
					t.Errorf("remote nodes changed the %s", c.what)
				}
			}
			if cfg.Trace == nil {
				return
			}
			wt, err := want.Trace.CanonicalJSONL()
			if err != nil {
				t.Fatal(err)
			}
			gt, err := got.Trace.CanonicalJSONL()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wt, gt) {
				t.Error("remote nodes changed the canonical trace")
			}
		})
	}
}

// TestSpecRoundTrip: the deployment a node decodes from the splitter's
// spec compiles to the splitter's plan and live fingerprint, over the
// example query sets, generated workloads with their own schemas, and a
// per-stream deployment on a two-stream schema, with every shipped
// setting away from its default in one of the configurations.
func TestSpecRoundTrip(t *testing.T) {
	type load struct {
		name, ddl, queries string
	}
	var loads []load
	files, err := filepath.Glob("examples/queries/*.gsql")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example query sets: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, load{filepath.Base(f), netgen.SchemaDDL, string(b)})
	}
	for _, seed := range []int64{1, 2, 3} {
		w := qgen.Generate(qgen.Config{Seed: seed})
		loads = append(loads, load{fmt.Sprintf("qgen seed %d", seed), w.DDL, w.Queries})
	}
	tuned := func(cfg *DeployConfig) {
		cfg.Hosts, cfg.PartitionsPerHost = 3, 3
		cfg.PartialScope = ScopePartition
		cfg.Costs = CostConfig{ScanCost: 2, SelProjCost: 0.25, AggCost: 1.5, JoinCost: 3, UnionCost: 0.125,
			OutputCost: 0.5, IPCCost: 0.75, RemoteCost: 9, CapacityPerSec: 1500}
		cfg.Params = map[string]Value{"PATTERN": Uint(netgen.NormalPattern), "LABEL": Str("a \"quoted\" label")}
		cfg.BatchSize, cfg.LoadWindowSec = 7, 5
		cfg.Trace = &RunTraceConfig{Mode: trace.ModeRing, RingSize: 500}
	}
	for _, l := range loads {
		sys := MustLoad(l.ddl, l.queries)
		a, err := sys.Analyze(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			cfg  DeployConfig
			tune func(*DeployConfig)
		}{
			{"default", DeployConfig{Hosts: 2, Partitioning: a.Best}, nil},
			{"round robin", DeployConfig{Hosts: 2, DisablePartialAgg: true, Trace: &RunTraceConfig{}}, nil},
			{"tuned", DeployConfig{Partitioning: a.Best}, tuned},
		} {
			if c.tune != nil {
				c.tune(&c.cfg)
			}
			checkSpecRoundTrip(t, l.name+" "+c.name, sys, c.cfg)
		}
	}

	sys := MustLoad(`
TCP(time increasing, srcIP, destIP, srcPort, destPort, len, flags, seq)
DNS(time increasing, clientIP, server, clientPort, qtype, size, flags, qseq)`, `
query tcp_flows:
SELECT tb, srcIP, destIP, COUNT(*) FROM TCP GROUP BY time/60 AS tb, srcIP, destIP

query dns_volume:
SELECT tb, clientIP, COUNT(*) FROM DNS GROUP BY time/60 AS tb, clientIP`)
	per, err := sys.AnalyzePerStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DeployConfig{Hosts: 2, PerStream: per.Sets}
	checkSpecRoundTrip(t, "per-stream", sys, cfg)
	cfg.PerStream = StreamSets{"tcp": MustParseSet("srcIP & 0xFFF0, destIP"), "dns": MustParseSet("clientIP")}
	tuned(&cfg)
	checkSpecRoundTrip(t, "per-stream tuned", sys, cfg)
}

// checkSpecRoundTrip deploys cfg as a splitter with remote nodes would,
// decodes its spec as a node does, and compares the two sides.
func checkSpecRoundTrip(t *testing.T, name string, sys *System, cfg DeployConfig) {
	t.Helper()
	cfg.Engine = EngineLive
	cfg.Live = LiveOptions{Nodes: make([]string, max(cfg.Hosts, 1))}
	dep, err := sys.Deploy(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	spec, err := dep.encodeSpec()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	nsys, ncfg, err := decodeSpec(spec)
	if err != nil {
		t.Fatalf("%s: the node refused the spec: %v\n%s", name, err, spec)
	}
	ncfg.Engine = EngineLive
	ndep, err := nsys.Deploy(ncfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if again, err := ndep.encodeSpec(); err != nil || !bytes.Equal(again, spec) {
		t.Errorf("%s: the decoded deployment encodes differently (%v):\n%s\n%s", name, err, spec, again)
	}
	if dep.PlanString() != ndep.PlanString() {
		t.Errorf("%s: plans differ:\nsplitter:\n%s\nnode:\n%s", name, dep.PlanString(), ndep.PlanString())
	}
	sr, err := dep.newRunner()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	nr, err := ndep.newRunner()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if sf, nf := sr.LiveFingerprint(), nr.LiveFingerprint(); sf != nf {
		t.Errorf("%s: live fingerprints differ: splitter %s, node %s", name, sf, nf)
	}
}

// settleGoroutines yields until the goroutine count drops to want or a
// bound passes, and returns the last count.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > want; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// serveRefusal hands spec to a node served by ServeNode in a splitter's
// Hello and returns the node's error and the splitter's. The node must
// fail at once and tell the splitter why, so the splitter reports the
// lost node within its transport timeout after one connection attempt;
// once both are done, no goroutine of either may be left.
func serveRefusal(t *testing.T, spec []byte) (nodeErr, splitErr error) {
	t.Helper()
	const timeout = 2 * time.Second
	before := runtime.NumGoroutine()
	addrs, done := serveNodes(t, 1, LiveOptions{Timeout: timeout})
	start := time.Now()
	var dials atomic.Int32
	dial := live.DefaultDial(timeout)
	sp := live.NewSplitter(live.Config{Timeout: timeout, Dial: func(host, attempt int, addr string) (net.Conn, error) {
		dials.Add(1)
		return dial(host, attempt, addr)
	}}, live.Hello{BatchSize: 256, Streams: []string{"tcp"}, Fingerprint: "fp", Deploy: spec}, addrs)
	sp.Start()
	select {
	case nodeErr = <-done:
	case <-time.After(2 * timeout):
		t.Fatal("the node kept serving a deployment it could not compile")
	}
	if nodeErr == nil {
		t.Fatal("the node served a deployment it could not compile")
	}
	select {
	case splitErr = <-sp.Errs():
	case <-time.After(timeout):
		t.Fatalf("the splitter did not report the refusing node within its %s transport timeout", timeout)
	}
	if d := time.Since(start); d >= timeout {
		t.Errorf("the refusal took %s, not less than the %s transport timeout", d, timeout)
	}
	sp.Close()
	if n := dials.Load(); n != 1 {
		t.Errorf("the splitter dialed the refusing node %d times, want 1", n)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("%d goroutines before the refused session, %d after", before, n)
	}
	return nodeErr, splitErr
}

// TestServeNodeRefusesBadSpec: a deployment a node cannot compile —
// a query set that does not parse, the scalar oracle's batch size, a
// field this version does not know, a value of the wrong kind — fails
// the node for good with an error naming what is wrong, and the
// splitter's error carries the node's.
func TestServeNodeRefusesBadSpec(t *testing.T) {
	sys := MustLoad(netgen.SchemaDDL, ComplexQuerySet)
	encode := func(mutate func(*System, *DeployConfig)) []byte {
		t.Helper()
		s := *sys
		cfg := DeployConfig{Hosts: 2, Partitioning: MustParseSet("srcIP")}
		if mutate != nil {
			mutate(&s, &cfg)
		}
		dep, err := s.Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := dep.encodeSpec()
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	good := encode(nil)
	edit := func(old, new string) []byte {
		t.Helper()
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("the spec has no %s to edit:\n%s", old, good)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	for _, c := range []struct {
		name string
		spec []byte
		want []string
	}{
		{"bad GSQL", encode(func(s *System, _ *DeployConfig) { s.queries = "query q: SELECT FROM" }), []string{`field "Queries"`}},
		{"batch size 1", encode(func(_ *System, cfg *DeployConfig) { cfg.BatchSize = 1 }), []string{`Engine "live"`, "BatchSize 1"}},
		{"unknown field", append(good[:len(good)-1:len(good)-1], `,"Workers":4}`...), []string{`unknown field "Workers"`, "offset"}},
		{"wrong kind", edit(`"Hosts":2`, `"Hosts":"2"`), []string{"Hosts", "offset"}},
		{"bad host count", edit(`"Hosts":2`, `"Hosts":0`), []string{`field "Hosts"`}},
		{"bad set", edit(`"Partitioning":"srcIP"`, `"Partitioning":"srcIP + destIP"`), []string{`field "Partitioning"`}},
		{"bad trace mode", edit(`"Trace":null`, `"Trace":{"Mode":7,"RingSize":0}`), []string{`field "Trace.Mode"`}},
		{"bad parameter", edit(`"Params":null`, `"Params":{"P":{"Kind":"complex","Text":"1"}}`), []string{`field "Params"`, `"P"`, `"complex"`}},
		{"trailing data", append(append([]byte(nil), good...), "{}"...), []string{"trailing data"}},
		{"no deployment", nil, []string{"carries no deployment"}},
	} {
		nodeErr, splitErr := serveRefusal(t, c.spec)
		for _, w := range c.want {
			if !strings.Contains(nodeErr.Error(), w) {
				t.Errorf("%s: node error %q does not name %s", c.name, nodeErr, w)
			}
			if !strings.Contains(splitErr.Error(), w) {
				t.Errorf("%s: splitter error %q does not name %s", c.name, splitErr, w)
			}
		}
	}
}
