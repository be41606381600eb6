package main

import (
	"fmt"
	"io"
	"math"
)

// selfCheck is the repeatability test later changes run before they
// claim anything: every workload is measured as two sets of the same
// code in the order A B B A, so drift over the run falls on both sets
// alike. The sets must agree on every end-to-end metric within its
// bound and on every exact count to the last digit.
func selfCheck(selected []*workload, seed int64, sc scale, stdout, stderr io.Writer) int {
	breaches := 0
	for _, w := range selected {
		var sets [2][]*workloadReport // A, B
		for i, set := range []int{0, 1, 1, 0} {
			// The traced run is needed once per set, for the counts.
			rep, err := runWorkload(w, seed, sc, true, i < 2, "")
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			if rep.Failed > 0 {
				fmt.Fprintf(stderr, "bench: %s: %d of %d replays failed\n", w.name, rep.Failed, rep.Attempted)
				return 1
			}
			sets[set] = append(sets[set], rep)
		}
		for i, d := range endToEnd {
			a := (sets[0][0].EndToEnd[i].Value + sets[0][1].EndToEnd[i].Value) / 2
			b := (sets[1][0].EndToEnd[i].Value + sets[1][1].EndToEnd[i].Value) / 2
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > d.bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-16s %-32s A=%-12.6g B=%-12.6g diff=%6.2f%% bound=%4.1f%% %s\n",
				w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
		for i, d := range perLayer {
			if !d.exact {
				continue
			}
			a, b := sets[0][0].PerLayer[i].Value, sets[1][0].PerLayer[i].Value
			if a != b {
				breaches++
				fmt.Fprintf(stdout, "%-16s %-32s A=%v B=%v BREACH: an exact count moved\n", w.name, d.name, a, b)
			}
		}
	}
	fmt.Fprintf(stdout, "{\"breaches\": %d, \"claim\": null}\n", breaches)
	if breaches > 0 {
		return 1
	}
	return 0
}
