package difftest

import (
	"flag"
	"fmt"
	"sync/atomic"
	"testing"

	"qap/internal/netgen"
)

// sweepSeeds is the fixed seed range CI runs; 15 workload seeds at the
// default sweep dimensions yield well over 200 compared configurations
// (each workload's table holds hosts × partitioning × workers, the
// strategies, batch sizes × workers and the monitored cells, plus the
// metamorphic invariants).
var sweepSeeds = flag.Int64("difftest.seeds", 15, "number of workload seeds TestDifferentialSweep checks")

// TestDifferentialSweep is the table-driven face of the oracle: a fixed
// seed range, every invariant, zero tolerance for mismatches. A failure
// message is a complete repro (seed, trace literal, query text, rerun
// command).
func TestDifferentialSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not a -short test")
	}
	var configs atomic.Int64
	for seed := int64(0); seed < *sweepSeeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep, err := CheckSeed(seed, Options{})
			if err != nil {
				t.Fatalf("seed %d not runnable (generator must emit valid workloads): %v", seed, err)
			}
			configs.Add(int64(rep.Configs))
			if !rep.OK() {
				t.Errorf("differential mismatch:\n%s", rep)
			}
		})
	}
	// Regressions past the range: 18 is a seed whose join migrates to
	// the row layout, 24 the one whose dense aggregate migrates, and
	// joinMigrate a join that migrates with stored panes.
	t.Run("joinMigrate", func(t *testing.T) {
		t.Parallel()
		rep, err := CheckQueries(netgen.SchemaDDL, joinMigrate, netgen.Config{
			Seed: 5, DurationSec: 90, PacketsPerSec: 20, SrcHosts: 8, DstHosts: 4,
			ZipfS: 1.2, MeanFlowPackets: 4, Ports: 32,
		}, Options{})
		if err != nil {
			t.Fatalf("not runnable: %v", err)
		}
		if !rep.OK() {
			t.Errorf("differential mismatch:\n%s", rep)
		}
	})
	for _, seed := range []int64{18, 24} {
		if seed < *sweepSeeds {
			continue
		}
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := CheckSeed(seed, Options{})
			if err != nil {
				t.Fatalf("seed %d not runnable: %v", seed, err)
			}
			if !rep.OK() {
				t.Errorf("differential mismatch:\n%s", rep)
			}
		})
	}
	t.Cleanup(func() {
		if got := configs.Load(); *sweepSeeds >= 15 && got < 200 {
			t.Errorf("sweep compared only %d configurations, want >= 200", got)
		}
	})
}

// joinMigrate is a word-layout self-join whose kept column ttl is a
// uint until time 61 and an Int after it, inside the join's first
// two-minute pane: the batch that brings the first Int migrates the
// join to the row layout over panes already holding entries.
const joinMigrate = `query flows:
SELECT time, srcIP, destIP, srcPort, destPort, seq, 61 - time AS ttl
FROM TCP

query pairs:
SELECT S1.time AS t1, S1.srcIP AS srcIP, S1.ttl AS ttl1, S2.ttl AS ttl2
FROM flows S1, flows S2
WHERE S1.time/120 = S2.time/120 AND S1.srcIP = S2.srcIP AND S1.destIP = S2.destIP
  AND S1.srcPort = S2.srcPort AND S1.destPort = S2.destPort AND S1.seq + 1 = S2.seq
`

// liveSeeds is the seed range the live cells cover; each seed runs
// every host count at batch {7, 256} on real sockets plus the
// fault-injection cells, so the range is smaller than the base sweep's.
var liveSeeds = flag.Int64("difftest.liveseeds", 3, "number of workload seeds TestLiveVsSimSweep checks")

// TestLiveVsSimSweep is the live backend's equivalence sweep: the TCP
// cluster backend in every hosts {1,2,4} × batch {7,256} cell, judged
// against its plan's simulator cells (the live engine does not read
// Workers, so it is not swept), plus scripted transport faults (drop,
// duplicate, cut) that must recover to the same bytes.
func TestLiveVsSimSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("live-vs-sim sweep is not a -short test")
	}
	for seed := int64(0); seed < *liveSeeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rep, err := CheckSeed(seed, Options{Live: true})
			if err != nil {
				t.Fatalf("seed %d not runnable (generator must emit valid workloads): %v", seed, err)
			}
			if !rep.OK() {
				t.Errorf("live-vs-sim mismatch:\n%s", rep)
			}
		})
	}
}
