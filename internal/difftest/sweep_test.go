package difftest

import (
	"flag"
	"fmt"
	"sync/atomic"
	"testing"
)

// sweepSeeds is the fixed seed range CI runs; 15 workload seeds at the
// default sweep dimensions yield well over 200 compared configurations
// (each workload is checked across hosts × partitioning × workers, the
// batched-execution cells across batch sizes × workers, plus the
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
	// Regression seeds past the range: 18 is a seed whose join migrates
	// to the row layout, 24 the one whose dense aggregate migrates.
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

// liveSeeds is the seed range the live-vs-sim axis covers; each seed
// runs the full hosts × workers × batch matrix on real sockets plus
// the fault-injection leg, so the range is smaller than the base
// sweep's.
var liveSeeds = flag.Int64("difftest.liveseeds", 3, "number of workload seeds TestLiveVsSimSweep checks")

// TestLiveVsSimSweep is the live backend's equivalence sweep: the TCP
// cluster backend against the simulator oracle across every
// hosts {1,2,4} × workers {1,4} × batch {1,256} cell, plus scripted
// transport faults (drop, duplicate, cut) that must recover to the
// same bytes.
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
