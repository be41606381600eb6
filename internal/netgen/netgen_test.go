package netgen

import (
	"math"
	"math/rand" //qap:allow walltime -- tests seed explicitly
	"slices"
	"strings"
	"testing"

	"qap/internal/exec"
	"qap/internal/sqlval"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 10, 500
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("non-deterministic length: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, a.Packets[i], b.Packets[i])
		}
	}
	cfg.Seed = 2
	c := Generate(cfg)
	same := len(a.Packets) == len(c.Packets)
	if same {
		diff := false
		for i := range a.Packets {
			if a.Packets[i] != c.Packets[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestGenerateTimeOrderedAndSized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 20, 300
	tr := Generate(cfg)
	if got, want := len(tr.Packets), 20*300; got != want {
		t.Fatalf("packet count = %d, want %d", got, want)
	}
	for i := 1; i < len(tr.Packets); i++ {
		if tr.Packets[i].Time < tr.Packets[i-1].Time {
			t.Fatal("packets not time ordered")
		}
	}
	last := tr.Packets[len(tr.Packets)-1]
	if last.Time >= uint64(cfg.DurationSec) {
		t.Errorf("time %d out of range", last.Time)
	}
}

func TestFlowFlagInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 30, 1000
	cfg.AttackFraction = 0.1
	tr := Generate(cfg)

	// OR flags per 5-tuple flow: attack flows OR to exactly
	// AttackPattern, normal flows never do.
	type key struct{ s, d, sp, dp uint64 }
	or := make(map[key]uint64)
	for _, p := range tr.Packets {
		k := key{p.SrcIP, p.DestIP, p.SrcPort, p.DestPort}
		or[k] |= p.Flags
	}
	attacks := 0
	for _, flags := range or {
		if flags == AttackPattern {
			attacks++
		} else if flags&FlagURG != 0 && flags&FlagRST != 0 && flags&FlagSYN != 0 &&
			flags&(FlagACK|FlagPSH|FlagFIN) == 0 {
			t.Fatalf("attack-like OR %b not equal to pattern", flags)
		}
	}
	if attacks == 0 {
		t.Fatal("no attack flows generated")
	}
	frac := float64(tr.AttackFlows) / float64(tr.TotalFlows)
	if frac < 0.05 || frac > 0.2 {
		t.Errorf("attack fraction %.3f far from configured 0.1", frac)
	}
}

func TestZipfSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 30, 2000
	tr := Generate(cfg)
	counts := make(map[uint64]int)
	for _, p := range tr.Packets {
		counts[p.SrcIP]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	// With Zipf skew the most popular host carries far more than the
	// uniform share.
	uniform := len(tr.Packets) / len(counts)
	if maxCount < 4*uniform {
		t.Errorf("insufficient skew: max %d vs uniform %d over %d hosts", maxCount, uniform, len(counts))
	}
}

func TestTupleOrderMatchesSchema(t *testing.T) {
	p := Packet{Time: 1, SrcIP: 2, DestIP: 3, SrcPort: 4, DestPort: 5, Len: 6, Flags: 7, Seq: 8}
	tp := p.Tuple()
	if len(tp) != 8 {
		t.Fatalf("tuple width = %d", len(tp))
	}
	for i, want := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		got, _ := tp[i].AsUint()
		if got != want {
			t.Errorf("col %d = %d, want %d", i, got, want)
		}
	}
}

// AppendRunCols at every stride and read mask, into empty, reset and
// non-empty batches with room to spare or none, leaves exactly the
// batch that AppendCols of every stride-th packet leaves in the masked
// columns, and pruned columns (KindNull, no payload, no bitmap) in the
// others.
func TestAppendRunColsMatchesAppendCols(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pks := make([]Packet, 90)
	for i := range pks {
		pks[i] = Packet{Time: uint64(i / 7), SrcIP: r.Uint64(), DestIP: r.Uint64(), SrcPort: uint64(r.Intn(65536)),
			DestPort: 80, Len: uint64(r.Intn(1500)), Flags: uint64(r.Intn(64)), Seq: uint64(i)}
	}
	// Each start fills a batch with the first pre packets, AppendCols.
	starts := []struct {
		name string
		fill func(pre int) *exec.ColBatch
	}{
		{"fresh", func(pre int) *exec.ColBatch {
			cb := &exec.ColBatch{}
			for _, p := range pks[:pre] {
				p.AppendCols(cb)
			}
			return cb
		}},
		{"roomy", func(pre int) *exec.ColBatch {
			cb := &exec.ColBatch{}
			cb.Reserve(TupleCols, 200, AllCols)
			for _, p := range pks[:pre] {
				p.AppendCols(cb)
			}
			return cb
		}},
		{"reset", func(pre int) *exec.ColBatch {
			cb := &exec.ColBatch{}
			for _, p := range pks[len(pks)-30:] {
				p.AppendCols(cb)
			}
			cb.Reset()
			for _, p := range pks[:pre] {
				p.AppendCols(cb)
			}
			return cb
		}},
	}
	masks := []uint64{AllCols, 0b111, 0b1000_0001, 0}
	for _, st := range starts {
		name, start := st.name, st.fill
		for _, mask := range masks {
			for stride := 1; stride <= 5; stride++ {
				for _, pre := range []int{0, 1, 13} {
					if pre > 0 && mask != AllCols {
						continue // rows already in a batch keep the columns they were filled with
					}
					for _, n := range []int{1, 2, stride, stride + 1, 41, 77} {
						run := pks[pre : pre+n]
						want := start(pre)
						for i := 0; i < n; i += stride {
							run[i].AppendCols(want)
						}
						got := start(pre)
						AppendRunCols(got, run, stride, mask)
						if got.Len != want.Len || len(got.Cols) != len(want.Cols) {
							t.Fatalf("%s mask %b stride %d, %d rows after %d: %d rows in %d columns, want %d in %d",
								name, mask, stride, n, pre, got.Len, len(got.Cols), want.Len, len(want.Cols))
						}
						for c := range want.Cols {
							g, w := got.Cols[c], want.Cols[c]
							if mask&(1<<c) == 0 {
								w = exec.ColVec{Kind: sqlval.KindNull}
							}
							if g.Kind != w.Kind || !slices.Equal(g.U64, w.U64) || len(g.Valid) != 0 || len(g.Int) != 0 {
								t.Fatalf("%s mask %b stride %d, %d rows after %d: column %d is %v %v, want %v %v",
									name, mask, stride, n, pre, c, g.Kind, g.U64, w.Kind, w.U64)
							}
						}
					}
				}
			}
		}
	}
}

func TestSequenceNumbersConsecutivePerFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationSec, cfg.PacketsPerSec = 20, 500
	tr := Generate(cfg)
	type key struct{ s, d, sp, dp uint64 }
	maxSeq := make(map[key]uint64)
	count := make(map[key]uint64)
	for _, p := range tr.Packets {
		k := key{p.SrcIP, p.DestIP, p.SrcPort, p.DestPort}
		if p.Seq >= maxSeq[k] {
			maxSeq[k] = p.Seq
		}
		count[k]++
	}
	// Within one flow, sequence numbers are 0..n-1. Rare 5-tuple
	// collisions between flows and the trace-length truncation can
	// perturb a few, so require the invariant for the vast majority.
	good := 0
	for k, c := range count {
		if maxSeq[k] == c-1 {
			good++
		}
	}
	if frac := float64(good) / float64(len(count)); frac < 0.9 {
		t.Errorf("only %.2f of flows have consecutive sequences", frac)
	}
}

// TestValidateRejectsBadConfigs covers every field check: invalid
// configs must surface a positioned error from Validate rather than
// being quietly rewritten inside Generate (the old behavior, which let
// drift scenarios run with silently substituted parameters).
func TestValidateRejectsBadConfigs(t *testing.T) {
	mut := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	cases := map[string]struct {
		cfg  Config
		want string
	}{
		"zero value":        {Config{}, "Config.DurationSec"},
		"negative duration": {mut(func(c *Config) { c.DurationSec = -5 }), "Config.DurationSec"},
		"zero rate":         {mut(func(c *Config) { c.PacketsPerSec = 0 }), "Config.PacketsPerSec"},
		"zero src pool":     {mut(func(c *Config) { c.SrcHosts = 0 }), "Config.SrcHosts"},
		"zero dst pool":     {mut(func(c *Config) { c.DstHosts = 0 }), "Config.DstHosts"},
		"zipf at one":       {mut(func(c *Config) { c.ZipfS = 1 }), "Config.ZipfS"},
		"nan zipf":          {mut(func(c *Config) { c.ZipfS = math.NaN() }), "Config.ZipfS"},
		"inf zipf":          {mut(func(c *Config) { c.ZipfS = math.Inf(1) }), "Config.ZipfS"},
		"nan mean flow":     {mut(func(c *Config) { c.MeanFlowPackets = math.NaN() }), "Config.MeanFlowPackets"},
		"negative mean":     {mut(func(c *Config) { c.MeanFlowPackets = -4 }), "Config.MeanFlowPackets"},
		"nan attack":        {mut(func(c *Config) { c.AttackFraction = math.NaN() }), "Config.AttackFraction"},
		"attack above one":  {mut(func(c *Config) { c.AttackFraction = 7 }), "Config.AttackFraction"},
		"negative ports":    {mut(func(c *Config) { c.Ports = -1 }), "Config.Ports"},
		"bad phase duration": {mut(func(c *Config) {
			c.Phases = []Phase{{DurationSec: 0}}
		}), "Config.Phases[0].DurationSec"},
		"bad phase zipf": {mut(func(c *Config) {
			c.Phases = []Phase{{DurationSec: 5}, {DurationSec: 5, ZipfS: 0.5}}
		}), "Config.Phases[1].ZipfS"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("DefaultConfig must validate: %v", err)
	}
}

// TestGeneratePanicsOnInvalidConfig pins Generate's contract: an
// invalid config is a programmer error, not an input to be repaired.
func TestGeneratePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Generate must panic on an invalid config")
		}
	}()
	Generate(Config{Seed: 1, DurationSec: 2, PacketsPerSec: 50})
}

// TestGenerateSingleHostPools pins the degenerate-Zipf behavior: a
// one-address pool sends every packet from (to) that single address.
func TestGenerateSingleHostPools(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.DurationSec, cfg.PacketsPerSec = 11, 2, 80
	cfg.SrcHosts, cfg.DstHosts = 1, 1
	tr := Generate(cfg)
	for _, p := range tr.Packets {
		if p.SrcIP != 0x0A000000 || p.DestIP != 0xC0A80000 {
			t.Fatalf("single-host pools must pin the addresses, got %x -> %x", p.SrcIP, p.DestIP)
		}
	}
}

// TestGenerateAttackFractionOne checks the all-attack extreme.
func TestGenerateAttackFractionOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed, cfg.DurationSec, cfg.PacketsPerSec = 12, 2, 50
	cfg.AttackFraction = 1
	tr := Generate(cfg)
	if tr.AttackFlows != tr.TotalFlows {
		t.Errorf("AttackFraction 1 should mark every flow: %d/%d", tr.AttackFlows, tr.TotalFlows)
	}
}

// TestPhaseFreeGenerationUnchanged pins the refactoring invariant the
// golden-output tests rely on: a phase-free config and the equivalent
// explicit single phase produce byte-identical packet sequences.
func TestPhaseFreeGenerationUnchanged(t *testing.T) {
	base := DefaultConfig()
	base.DurationSec, base.PacketsPerSec = 8, 400
	one := base
	one.DurationSec = 0
	one.Phases = []Phase{{DurationSec: 8}}
	a, b := Generate(base), Generate(one)
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs: %+v vs %+v", i, a.Packets[i], b.Packets[i])
		}
	}
	if a.TotalFlows != b.TotalFlows || a.AttackFlows != b.AttackFlows {
		t.Errorf("flow mix differs: %d/%d vs %d/%d",
			a.AttackFlows, a.TotalFlows, b.AttackFlows, b.TotalFlows)
	}
}

// TestPhasedDrift checks the drift knobs end to end: phases play back
// to back, each phase's packets stay inside its window, the packet
// volume follows the per-phase rate, and the skew/pool overrides
// actually move the address distribution between phases.
func TestPhasedDrift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.DurationSec = 0
	cfg.SrcHosts, cfg.DstHosts = 20, 2000
	cfg.Phases = []Phase{
		{DurationSec: 10},
		{DurationSec: 10, PacketsPerSec: 3 * cfg.PacketsPerSec, SrcHosts: 2000, DstHosts: 20, AttackFraction: 0.5},
	}
	if cfg.TotalDurationSec() != 20 {
		t.Fatalf("TotalDurationSec = %d, want 20", cfg.TotalDurationSec())
	}
	tr := Generate(cfg)
	if got, want := len(tr.Packets), 10*cfg.PacketsPerSec+10*3*cfg.PacketsPerSec; got != want {
		t.Fatalf("packet count = %d, want %d", got, want)
	}
	var phase1Srcs, phase2Srcs = map[uint64]bool{}, map[uint64]bool{}
	n1 := 0
	for i, p := range tr.Packets {
		if i > 0 && p.Time < tr.Packets[i-1].Time {
			t.Fatal("packets not time ordered across phases")
		}
		if p.Time >= 20 {
			t.Fatalf("time %d beyond total duration", p.Time)
		}
		if p.Time < 10 {
			n1++
			phase1Srcs[p.SrcIP] = true
		} else {
			phase2Srcs[p.SrcIP] = true
		}
	}
	if got, want := n1, 10*cfg.PacketsPerSec; got != want {
		t.Errorf("phase 1 volume = %d, want %d (phases must not bleed)", got, want)
	}
	// Phase 1 draws from a 20-address pool, phase 2 from 2000: the
	// distinct-source count must widen sharply after the shift.
	if len(phase1Srcs) > 20 {
		t.Errorf("phase 1 used %d sources from a pool of 20", len(phase1Srcs))
	}
	if len(phase2Srcs) < 3*len(phase1Srcs) {
		t.Errorf("source pool did not widen: %d vs %d", len(phase2Srcs), len(phase1Srcs))
	}
}

// TestGeometricGuards covers geometric's mean <= 1 / NaN guard and the
// sanity of a real mean.
func TestGeometricGuards(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, mean := range []float64{0, -3, 1, 0.25, math.NaN()} {
		if n := geometric(r, mean); n != 0 {
			t.Errorf("geometric(%v) = %d, want 0", mean, n)
		}
	}
	sum := 0
	for i := 0; i < 2000; i++ {
		sum += geometric(r, 8)
	}
	if avg := float64(sum) / 2000; avg < 4 || avg > 12 {
		t.Errorf("geometric(8) sample mean %.1f implausible", avg)
	}
}
