package live_test

import (
	"runtime"
	"testing"

	"qap"
	"qap/internal/live"
	"qap/internal/netgen"
)

// Budgets of a warm live run on this trace, averaged over the measured
// runs as testing.AllocsPerRun averages.
const (
	// Frame buffers made a run. A run's frames come from the frame stock,
	// which the runs before it filled; a run holding more frames in
	// flight than any before it (on a loaded machine, say) makes the
	// difference once. Without the stock every run made its whole window
	// afresh: about 20 on round robin, 5 on hash.
	framesPerRunBudget = 2
	// Heap bytes a packet. Measured with the stock: about 25 on round
	// robin, 17 on hash; without it, about 65 and 40.
	bytesPerPacketBudget = 40
)

// Warm live runs of a Deployment make (almost) no frame buffer: their
// feed frames, link frames and read buffers all come back from the
// outboxes and sessions of the runs before, by way of the frame stock.
func TestWarmLiveRunsMakeNoFrames(t *testing.T) {
	sys, err := qap.Load(netgen.SchemaDDL, qap.ComplexQuerySet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netgen.DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 300, 2000
	packets := netgen.Generate(cfg).Packets
	const runs = 4
	for _, tc := range []struct {
		name string
		ps   qap.Set
	}{
		{"round-robin", nil},
		{"hash", qap.MustParseSet("srcIP")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep, err := sys.Deploy(qap.DeployConfig{Hosts: 2, Partitioning: tc.ps, Engine: qap.EngineLive})
			if err != nil {
				t.Fatal(err)
			}
			made := live.FramesMade()
			if _, err := dep.Run("TCP", packets); err != nil {
				t.Fatal(err)
			}
			first := live.FramesMade() - made
			made = live.FramesMade()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				if _, err := dep.Run("TCP", packets); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			frames := float64(live.FramesMade()-made) / runs
			perPacket := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / float64(len(packets))
			t.Logf("frame buffers made: %d in the first run, %.2f a run in the next %d; those allocated %.1f B a packet",
				first, frames, runs, perPacket)
			if frames > framesPerRunBudget {
				t.Errorf("warm runs made %.2f frame buffers a run, over the budget of %d", frames, framesPerRunBudget)
			}
			if !live.RaceEnabled && perPacket > bytesPerPacketBudget {
				t.Errorf("warm runs allocated %.1f B a packet, over the budget of %d", perPacket, bytesPerPacketBudget)
			}
		})
	}
}
