package qap

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"qap/internal/exec"
	"qap/internal/netgen"
)

// fiftyQueryWorkload builds a 50-query monitoring application like the
// one the paper mentions ("one of our applications runs 50
// simultaneous queries"): a mix of flow aggregations at several
// granularities, filtered variants, HAVING detectors, second-level
// rollups, and self-joins.
func fiftyQueryWorkload() string {
	var b strings.Builder
	groupings := []struct{ sel, gb string }{
		{"srcIP", "srcIP"},
		{"destIP", "destIP"},
		{"srcIP, destIP", "srcIP, destIP"},
		{"subnet, destIP", "srcIP & 0xFFF0 AS subnet, destIP"},
		{"srcIP, destIP, srcPort, destPort", "srcIP, destIP, srcPort, destPort"},
		{"destIP, destPort", "destIP, destPort"},
		{"srcIP, srcPort", "srcIP, srcPort"},
		{"destPort", "destPort"},
		{"srcnet", "srcIP & 0xFF00 AS srcnet"},
		{"dstnet, destPort", "destIP & 0xFFF0 AS dstnet, destPort"},
	}
	n := 0
	for _, epoch := range []int{30, 60, 120} {
		for _, grouping := range groupings {
			n++
			fmt.Fprintf(&b, `
query agg%d:
SELECT tb, %s, COUNT(*) AS cnt, SUM(len) AS bytes
FROM TCP GROUP BY time/%d AS tb, %s
`, n, grouping.sel, epoch, grouping.gb)
		}
	}
	// Filtered variants.
	for i, port := range []int{80, 443, 53, 22, 25} {
		n++
		fmt.Fprintf(&b, `
query svc%d:
SELECT tb, srcIP, COUNT(*) AS cnt
FROM TCP WHERE destPort = %d GROUP BY time/60 AS tb, srcIP
`, i, port)
	}
	// Detectors with HAVING.
	for i, threshold := range []int{50, 200, 1000} {
		n++
		fmt.Fprintf(&b, `
query hot%d:
SELECT tb, srcIP, destIP, COUNT(*) AS cnt
FROM TCP GROUP BY time/60 AS tb, srcIP, destIP
HAVING COUNT(*) > %d
`, i, threshold)
	}
	// Rollups over the earlier queries that expose srcIP.
	for i, src := range []int{1, 3, 5, 7, 11, 13, 15, 17, 21, 23} {
		fmt.Fprintf(&b, `
query roll%d:
SELECT tb, srcIP, MAX(cnt) AS max_cnt
FROM agg%d GROUP BY tb, srcIP
`, i+1, src)
	}
	// Self-joins correlating consecutive epochs.
	for i := 1; i <= 2; i++ {
		fmt.Fprintf(&b, `
query corr%d:
SELECT A.tb, A.srcIP, A.max_cnt, B.max_cnt
FROM roll%d A, roll%d B
WHERE A.srcIP = B.srcIP AND A.tb = B.tb + 1
`, i, i, i)
	}
	return b.String()
}

func TestFiftyQueryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	text := fiftyQueryWorkload()
	sys, err := Load(TCPSchemaDDL, text)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Queries.Queries); got != 50 {
		t.Fatalf("workload has %d queries, want 50", got)
	}

	// The analysis completes quickly despite 50 constrained nodes and
	// the subset search space. The MaxStates cap binds here: the search
	// records 2^18 candidates, which reconcile to a dozen distinct sets,
	// so enumeration and candidate bookkeeping dominate, not costing.
	start := time.Now()
	res, err := sys.Analyze(nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("analysis took %v", elapsed)
	}
	if res.Best.IsEmpty() {
		t.Fatalf("no recommendation for the 50-query set\n%s", res.Summary())
	}
	t.Logf("50-query analysis in %v: recommended %s (cost %.0f vs central %.0f); %d candidates enumerated, %d distinct sets costed",
		elapsed, res.Best, res.BestCost, res.CentralCost, res.Search.Enumerated, res.Search.UniqueSets)

	// Deploy and run both centralized and partitioned; every one of
	// the 50 root outputs must agree.
	cfg := DefaultTraceConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 150, 400
	trace := GenerateTrace(cfg)

	run := func(ps Set, hosts, pph int) *RunResult {
		dep, err := sys.Deploy(DeployConfig{Hosts: hosts, PartitionsPerHost: pph, Partitioning: ps})
		if err != nil {
			t.Fatal(err)
		}
		r, err := dep.Run("TCP", trace.Packets)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(nil, 1, 1)
	got := run(res.Best, 4, 2)
	// 50 queries, of which 10 aggs feed rollups and 2 rollups feed
	// correlation joins: 38 roots.
	if len(want.Outputs) != 38 {
		t.Fatalf("got %d root outputs, want 38", len(want.Outputs))
	}
	for name, rows := range want.Outputs {
		if len(rows) != len(got.Outputs[name]) {
			t.Fatalf("%s: %d vs %d rows", name, len(rows), len(got.Outputs[name]))
		}
		wm := make(map[string]int, len(rows))
		for _, r := range rows {
			wm[exec.Key(r)]++
		}
		for _, r := range got.Outputs[name] {
			wm[exec.Key(r)]--
		}
		for _, c := range wm {
			if c != 0 {
				t.Fatalf("%s: multiset mismatch", name)
			}
		}
	}
	// The recommended partitioning satisfies a substantial fraction of
	// the workload.
	satisfied := 0
	for name := range sys.Requirements() {
		if ok, _ := sys.Compatible(res.Best, name); ok {
			satisfied++
		}
	}
	t.Logf("recommended set satisfies %d/50 queries", satisfied)
	if satisfied < 20 {
		t.Errorf("only %d/50 queries satisfied by %s", satisfied, res.Best)
	}
	_ = netgen.SchemaDDL
}
