// Package netgen generates synthetic, flow-structured TCP packet
// traces that stand in for the paper's one-hour AT&T data-center
// capture (Section 6): Zipf-skewed host popularity, geometric flow
// lengths, realistic TCP flag sequences, and a configurable fraction
// of "suspicious" flows whose OR-ed flags match an attack pattern (the
// Section 6.1 workload filters those with HAVING OR_AGGR(flags) =
// pattern). Generation is fully deterministic for a given Config.
package netgen

import (
	"fmt"
	"math"
	"math/rand" //qap:allow walltime -- generator is explicitly seeded per trace
	"sort"

	"qap/internal/exec"
	"qap/internal/sqlval"
)

// TCP flag bits.
const (
	FlagFIN uint64 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// AttackPattern is the OR of flags that marks a suspicious flow (a
// SYN/RST/URG mix that never occurs in a well-formed TCP session, for
// which the OR is FIN|SYN|PSH|ACK).
const AttackPattern = FlagSYN | FlagRST | FlagURG

// NormalPattern is the OR of flags of a complete well-formed flow.
const NormalPattern = FlagFIN | FlagSYN | FlagPSH | FlagACK

// SchemaDDL is the stream definition traces conform to; seq is the
// packet's position within its flow (TCP sequence stand-in).
const SchemaDDL = `TCP(time increasing, srcIP, destIP, srcPort, destPort, len, flags, seq)`

// Packet is one captured packet.
type Packet struct {
	Time     uint64 // seconds since trace start
	SrcIP    uint64
	DestIP   uint64
	SrcPort  uint64
	DestPort uint64
	Len      uint64
	Flags    uint64
	Seq      uint64 // position within the flow
}

// Tuple renders the packet in SchemaDDL column order.
func (p Packet) Tuple() exec.Tuple {
	return exec.Tuple{
		sqlval.Uint(p.Time), sqlval.Uint(p.SrcIP), sqlval.Uint(p.DestIP),
		sqlval.Uint(p.SrcPort), sqlval.Uint(p.DestPort),
		sqlval.Uint(p.Len), sqlval.Uint(p.Flags), sqlval.Uint(p.Seq),
	}
}

// TupleCols is the number of values Tuple and AppendTuple produce.
const TupleCols = 8

// AppendTuple materializes the packet's tuple into buf's spare
// capacity and returns the grown buffer plus the tuple, which is
// capacity-clamped so later appends cannot bleed into it. A caller
// that carves many tuples out of one slab must not recycle the slab
// while an operator may retain them.
func (p Packet) AppendTuple(buf []sqlval.Value) ([]sqlval.Value, exec.Tuple) {
	n := len(buf)
	buf = append(buf,
		sqlval.Uint(p.Time), sqlval.Uint(p.SrcIP), sqlval.Uint(p.DestIP),
		sqlval.Uint(p.SrcPort), sqlval.Uint(p.DestPort),
		sqlval.Uint(p.Len), sqlval.Uint(p.Flags), sqlval.Uint(p.Seq))
	return buf, exec.Tuple(buf[n:len(buf):len(buf)])
}

// AppendCols appends the packet's values to cb's eight all-uint
// columns, in exactly the SchemaDDL order Tuple and AppendTuple
// produce. An empty (or Reset) batch is shaped on first use; column
// capacity is reused across rounds, so the splitter refills
// recycled batches without allocating.
//
//qap:hot
func (p Packet) AppendCols(cb *exec.ColBatch) {
	if len(cb.Cols) != TupleCols {
		if cap(cb.Cols) < TupleCols {
			cb.Cols = make([]exec.ColVec, TupleCols) //qap:allow hotalloc -- batch shaped once, then recycled
		}
		cb.Cols = cb.Cols[:TupleCols]
		for i := range cb.Cols {
			cb.Cols[i] = exec.ColVec{Kind: sqlval.KindUint, U64: cb.Cols[i].U64[:0]}
		}
	}
	cb.Cols[0].U64 = append(cb.Cols[0].U64, p.Time)
	cb.Cols[1].U64 = append(cb.Cols[1].U64, p.SrcIP)
	cb.Cols[2].U64 = append(cb.Cols[2].U64, p.DestIP)
	cb.Cols[3].U64 = append(cb.Cols[3].U64, p.SrcPort)
	cb.Cols[4].U64 = append(cb.Cols[4].U64, p.DestPort)
	cb.Cols[5].U64 = append(cb.Cols[5].U64, p.Len)
	cb.Cols[6].U64 = append(cb.Cols[6].U64, p.Flags)
	cb.Cols[7].U64 = append(cb.Cols[7].U64, p.Seq)
	cb.Len++
}

// AppendRunCols appends run[0], run[stride], run[2*stride], … to cb's
// eight all-uint columns, what AppendCols does for each in turn, in one
// pass over pre-sized columns. A batch too short for them is resized in
// one slab, with headroom, its rows carried over.
//
//qap:hot
func AppendRunCols(cb *exec.ColBatch, run []Packet, stride int) {
	old := 0
	if len(cb.Cols) == TupleCols {
		old = cb.Len
	}
	n := old + (len(run)+stride-1)/stride
	short := cap(cb.Cols) < TupleCols
	for c := 0; c < TupleCols && !short; c++ {
		short = cap(cb.Cols[:TupleCols][c].U64) < n
	}
	if short {
		prev := cb.Cols
		cb.Reserve(TupleCols, n+n/4+8)
		cb.Cols = cb.Cols[:TupleCols]
		for c := range cb.Cols {
			if old > 0 {
				cb.Cols[c].U64 = append(cb.Cols[c].U64, prev[c].U64[:old]...)
			}
			cb.Cols[c].Kind = sqlval.KindUint
		}
	} else if len(cb.Cols) != TupleCols {
		cb.Cols = cb.Cols[:TupleCols]
		for c := range cb.Cols {
			cb.Cols[c] = exec.ColVec{Kind: sqlval.KindUint, U64: cb.Cols[c].U64[:0]}
		}
	}
	cols := cb.Cols[:TupleCols]
	for c := range cols {
		cols[c].U64 = cols[c].U64[:n]
	}
	t, src, dst := cols[0].U64[old:n], cols[1].U64[old:n], cols[2].U64[old:n]
	sp, dp, ln := cols[3].U64[old:n], cols[4].U64[old:n], cols[5].U64[old:n]
	fl, sq := cols[6].U64[old:n], cols[7].U64[old:n]
	for j, i := 0, 0; j < len(t); j, i = j+1, i+stride {
		p := &run[i]
		t[j], src[j], dst[j], sp[j], dp[j], ln[j], fl[j], sq[j] = p.Time, p.SrcIP, p.DestIP, p.SrcPort, p.DestPort, p.Len, p.Flags, p.Seq
	}
	cb.Len = n
}

// Config controls trace generation. Every field is required to be
// valid (see Validate); defaults live only in DefaultConfig, so a
// config built from user input is never quietly rewritten.
type Config struct {
	Seed        int64
	DurationSec int
	// PacketsPerSec is the average aggregate packet rate.
	PacketsPerSec int
	// SrcHosts and DstHosts are the distinct address pool sizes.
	SrcHosts, DstHosts int
	// ZipfS is the host-popularity skew (> 1; larger = more skew).
	ZipfS float64
	// MeanFlowPackets is the average packets per flow (geometric).
	MeanFlowPackets float64
	// AttackFraction of flows are suspicious (default 5%, matching
	// the paper's trace).
	AttackFraction float64
	// Ports is the ephemeral port range size.
	Ports int
	// Phases, when non-empty, turns the trace into a drifting
	// workload: the phases play back to back, each inheriting the
	// base config where a phase field is zero. With phases the base
	// DurationSec is ignored and the trace lasts TotalDurationSec().
	Phases []Phase
}

// Phase is one segment of a drifting trace. DurationSec is required;
// every other field overrides the base Config within the phase, with
// zero meaning "inherit the base value". (Consequently a phase cannot
// reset AttackFraction to exactly zero; use a negligible positive
// fraction for an attack-free phase over an attack-bearing base.)
type Phase struct {
	DurationSec     int
	PacketsPerSec   int
	SrcHosts        int
	DstHosts        int
	ZipfS           float64
	MeanFlowPackets float64
	AttackFraction  float64
}

// TotalDurationSec is the trace length in seconds: the sum of phase
// durations, or DurationSec when no phases are configured.
func (c Config) TotalDurationSec() int {
	if len(c.Phases) == 0 {
		return c.DurationSec
	}
	total := 0
	for _, p := range c.Phases {
		total += p.DurationSec
	}
	return total
}

// phaseConfig resolves one phase against the base config: zero phase
// fields inherit, non-zero fields override.
func (c Config) phaseConfig(p Phase) Config {
	eff := c
	eff.Phases = nil
	eff.DurationSec = p.DurationSec
	if p.PacketsPerSec != 0 {
		eff.PacketsPerSec = p.PacketsPerSec
	}
	if p.SrcHosts != 0 {
		eff.SrcHosts = p.SrcHosts
	}
	if p.DstHosts != 0 {
		eff.DstHosts = p.DstHosts
	}
	if p.ZipfS != 0 {
		eff.ZipfS = p.ZipfS
	}
	if p.MeanFlowPackets != 0 {
		eff.MeanFlowPackets = p.MeanFlowPackets
	}
	if p.AttackFraction != 0 {
		eff.AttackFraction = p.AttackFraction
	}
	return eff
}

// Validate checks the configuration and returns an error naming the
// first offending field. Zero-valued required fields are errors, not
// defaults — start from DefaultConfig to get the paper's trace shape.
// CLIs and workload generators must call Validate on any config built
// from external input before handing it to Generate, which treats an
// invalid config as a programmer error and panics.
func (c Config) Validate() error {
	if err := validateFields(c, "Config", len(c.Phases) > 0); err != nil {
		return err
	}
	for i, p := range c.Phases {
		pos := fmt.Sprintf("Config.Phases[%d]", i)
		if err := validateFields(c.phaseConfig(p), pos, false); err != nil {
			return err
		}
	}
	return nil
}

// validateFields checks the scalar generation parameters of one
// resolved configuration (the base config or one phase's effective
// config). skipDuration suppresses the DurationSec check for a base
// config whose duration is superseded by phases.
func validateFields(c Config, pos string, skipDuration bool) error {
	if !skipDuration && c.DurationSec < 1 {
		return fmt.Errorf("netgen: %s.DurationSec = %d, need >= 1", pos, c.DurationSec)
	}
	if c.PacketsPerSec < 1 {
		return fmt.Errorf("netgen: %s.PacketsPerSec = %d, need >= 1", pos, c.PacketsPerSec)
	}
	if c.SrcHosts < 1 {
		return fmt.Errorf("netgen: %s.SrcHosts = %d, need >= 1", pos, c.SrcHosts)
	}
	if c.DstHosts < 1 {
		return fmt.Errorf("netgen: %s.DstHosts = %d, need >= 1", pos, c.DstHosts)
	}
	// The negated comparisons also catch NaN: rand.NewZipf returns nil
	// for s <= 1 (and misbehaves for non-finite s), which would panic
	// at the first draw.
	if !(c.ZipfS > 1) || math.IsInf(c.ZipfS, 0) {
		return fmt.Errorf("netgen: %s.ZipfS = %v, need a finite skew > 1", pos, c.ZipfS)
	}
	if !(c.MeanFlowPackets >= 1) || math.IsInf(c.MeanFlowPackets, 0) {
		return fmt.Errorf("netgen: %s.MeanFlowPackets = %v, need a finite mean >= 1", pos, c.MeanFlowPackets)
	}
	if !(c.AttackFraction >= 0 && c.AttackFraction <= 1) {
		return fmt.Errorf("netgen: %s.AttackFraction = %v, need a fraction in [0, 1]", pos, c.AttackFraction)
	}
	if c.Ports < 1 {
		return fmt.Errorf("netgen: %s.Ports = %d, need >= 1", pos, c.Ports)
	}
	return nil
}

// DefaultConfig mirrors the paper's trace shape at a laptop-friendly
// rate; the benches scale PacketsPerSec and DurationSec.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		DurationSec:     120,
		PacketsPerSec:   2000,
		SrcHosts:        2000,
		DstHosts:        1000,
		ZipfS:           1.2,
		MeanFlowPackets: 8,
		AttackFraction:  0.05,
		Ports:           4096,
	}
}

// Trace is a generated, time-ordered packet sequence.
type Trace struct {
	Packets []Packet
	Config  Config
	// AttackFlows and TotalFlows report the generated flow mix.
	AttackFlows, TotalFlows int
}

// Generate builds a deterministic trace for the configuration. The
// config must be valid: Generate panics with the Validate error
// otherwise (callers holding external input validate first).
//
// Phases share one random stream in order, so a multi-phase trace is
// deterministic as a whole, and a phase-free config generates exactly
// the same packets as before phases existed (single-phase playback
// degenerates to the original algorithm).
func Generate(cfg Config) *Trace {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{Config: cfg}
	phases := cfg.Phases
	if len(phases) == 0 {
		phases = []Phase{{DurationSec: cfg.DurationSec}}
	}
	var packets []Packet
	offset := uint64(0)
	for _, p := range phases {
		eff := cfg.phaseConfig(p)
		// Zipf construction draws nothing from r, so per-phase
		// reconstruction keeps the phase-free stream unchanged.
		srcZipf := rand.NewZipf(r, eff.ZipfS, 1, uint64(eff.SrcHosts-1))
		dstZipf := rand.NewZipf(r, eff.ZipfS, 1, uint64(eff.DstHosts-1))

		budget := eff.DurationSec * eff.PacketsPerSec
		ph := make([]Packet, 0, budget+16)
		for len(ph) < budget {
			flow := makeFlow(r, srcZipf, dstZipf, eff)
			tr.TotalFlows++
			if flow.attack {
				tr.AttackFlows++
			}
			ph = append(ph, flow.packets...)
		}
		ph = ph[:budget]
		sort.SliceStable(ph, func(i, j int) bool { return ph[i].Time < ph[j].Time })
		if offset > 0 {
			for i := range ph {
				ph[i].Time += offset
			}
		}
		packets = append(packets, ph...)
		offset += uint64(eff.DurationSec)
	}
	tr.Packets = packets
	return tr
}

type flow struct {
	attack  bool
	packets []Packet
}

func makeFlow(r *rand.Rand, srcZipf, dstZipf *rand.Zipf, cfg Config) flow {
	var f flow
	f.attack = r.Float64() < cfg.AttackFraction
	src := 0x0A000000 + srcZipf.Uint64()              // 10.0.0.0/8
	dst := 0xC0A80000 + dstZipf.Uint64()              // 192.168.0.0/16-ish
	sport := uint64(1024 + r.Intn(cfg.Ports))         // ephemeral
	dport := []uint64{80, 443, 53, 22, 25}[r.Intn(5)] // services
	n := 1 + geometric(r, cfg.MeanFlowPackets)
	start := uint64(r.Intn(cfg.DurationSec))
	// Spread the flow's packets over up to ~30 seconds.
	span := n / 4
	if span > 30 {
		span = 30
	}
	for i := 0; i < n; i++ {
		t := start
		if span > 0 {
			t += uint64(r.Intn(span + 1))
		}
		if int(t) >= cfg.DurationSec {
			t = uint64(cfg.DurationSec - 1)
		}
		f.packets = append(f.packets, Packet{
			Time:     t,
			SrcIP:    src,
			DestIP:   dst,
			SrcPort:  sport,
			DestPort: dport,
			Len:      uint64(40 + r.Intn(1460)),
			Flags:    flowFlags(r, f.attack, i, n),
		})
	}
	sort.SliceStable(f.packets, func(a, b int) bool { return f.packets[a].Time < f.packets[b].Time })
	// Sequence numbers follow time order within the flow.
	for i := range f.packets {
		f.packets[i].Seq = uint64(i)
	}
	return f
}

// flowFlags produces per-packet flags such that the OR over a
// complete flow is exactly NormalPattern for well-formed flows and
// exactly AttackPattern for suspicious ones.
func flowFlags(r *rand.Rand, attack bool, i, n int) uint64 {
	if attack {
		switch {
		case i == 0:
			return FlagSYN | FlagURG
		case i == n-1:
			return FlagRST
		default:
			return []uint64{FlagSYN, FlagRST, FlagURG}[r.Intn(3)]
		}
	}
	switch {
	case n == 1:
		return FlagSYN | FlagACK | FlagPSH | FlagFIN
	case i == 0:
		return FlagSYN
	case i == n-1:
		return FlagFIN | FlagACK
	default:
		if r.Intn(2) == 0 {
			return FlagACK | FlagPSH
		}
		return FlagACK
	}
}

// geometric samples a geometric-ish count with the given mean. Means
// at or below one (including zero, negative, and NaN — the negated
// comparison catches all three) yield zero extra packets, so callers
// always get single-packet flows rather than a division by zero or an
// endless rejection loop.
func geometric(r *rand.Rand, mean float64) int {
	if !(mean > 1) {
		return 0
	}
	p := 1 / mean
	n := 0
	for r.Float64() > p && n < 10000 {
		n++
	}
	return n
}
