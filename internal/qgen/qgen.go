// Package qgen is a seeded, deterministic generator of random — but
// valid — GSQL query DAGs over the netgen TCP schema, together with a
// matching random trace configuration. It is the workload half of the
// differential-testing subsystem (internal/difftest holds the oracle):
// every generated workload exercises the partitioning theorems of
// paper Sections 3–5 on query shapes nobody hand-wrote.
//
// The generator composes selection/projection, tumbling-window
// aggregations with random group-by subsets (including coarsened keys
// like srcIP & 0xFF00), equi-joins including the outer variants, DAG
// fan-out (several queries reading one upstream query, which the
// optimizer turns into physical unions), random HAVING / WINDOW /
// holistic-aggregate sprinkles, and subtractions — a - b over two
// columns and c - k — in select lists, join projections, SUM arguments
// and predicates, whose result is a negative Int on exactly the rows
// where the data makes it underflow. Validity is guaranteed two ways: the
// grammar below only emits shapes plan.Build accepts, and every
// emitted query is re-validated through the real parser and planner —
// a candidate the planner rejects is discarded and redrawn, so a
// Workload always loads.
//
// Everything is a pure function of Config.Seed: the same seed yields
// the same query text and the same trace, which is what makes
// cmd/qap-difftest's -seed reproduction mode possible.
package qgen

import (
	"fmt"
	"math/rand" //qap:allow walltime -- generation is a pure function of Config.Seed
	"strings"

	"qap/internal/gsql"
	"qap/internal/netgen"
	"qap/internal/plan"
	"qap/internal/schema"
)

// Config seeds and sizes one generated workload.
type Config struct {
	// Seed determines everything: query shapes and trace parameters.
	Seed int64
	// MaxQueries bounds the DAG size; 0 draws 3–5 from the seed.
	MaxQueries int
}

// Workload is one generated differential-test input: a schema, a query
// set guaranteed to load, and the trace configuration to drive it.
type Workload struct {
	Seed    int64
	DDL     string
	Queries string
	Trace   netgen.Config
}

// colInfo tracks what the generator may legally do with one output
// column of a generated query.
type colInfo struct {
	Name string
	// Temporal: lineage reaches the base temporal attribute, so the
	// column can anchor a downstream tumbling window or temporal join
	// key. Epoch additionally marks it as already divided (time/N).
	Temporal, Epoch bool
	// Float columns only appear as MIN/MAX arguments or passthroughs
	// downstream: float sums are not associative, so feeding them to
	// SUM/AVG/VARIANCE would make the distributed result depend on
	// partial-aggregation order — a false differential mismatch.
	Float bool
	// Small marks values bounded well under 2^17, keeping float
	// moment accumulators (AVG/VARIANCE sums of squares) exactly
	// representable and therefore order-independent.
	Small bool
	// Nullable: outer-join padding can make the value NULL.
	Nullable bool
	// Diff marks a subtraction's result, or a MIN/MAX of one: a
	// negative Int on the rows where it underflowed.
	Diff bool
}

// nodeInfo is the generator's model of one DAG node's output.
type nodeInfo struct {
	Name string
	Cols []colInfo
	// Agg marks reduced-cardinality outputs (safe to join without an
	// extra equi-key); Join marks join outputs (never re-joined, to
	// bound fan-out); Base marks the TCP source.
	Agg, Join, Base bool
	TemporalIdx     int // index into Cols, -1 when no usable temporal column
}

func (n nodeInfo) temporal() (colInfo, bool) {
	if n.TemporalIdx < 0 {
		return colInfo{}, false
	}
	return n.Cols[n.TemporalIdx], true
}

// gen carries generator state.
type gen struct {
	r       *rand.Rand
	cat     *schema.Catalog
	nodes   []nodeInfo
	queries []string
	joins   int
	nextCol int
}

// baseNode models the netgen TCP schema. Magnitudes: ports, len,
// flags, seq and (short-trace) time are small; addresses are not.
func baseNode() nodeInfo {
	return nodeInfo{
		Name: "TCP",
		Base: true,
		Cols: []colInfo{
			{Name: "time", Temporal: true, Small: true},
			{Name: "srcIP"},
			{Name: "destIP"},
			{Name: "srcPort", Small: true},
			{Name: "destPort", Small: true},
			{Name: "len", Small: true},
			{Name: "flags", Small: true},
			{Name: "seq", Small: true},
		},
		TemporalIdx: 0,
	}
}

// Generate builds the workload for cfg. It always succeeds: candidate
// queries the planner rejects are redrawn, and the workload keeps
// whatever prefix validated if the draw budget runs out.
func Generate(cfg Config) *Workload {
	r := rand.New(rand.NewSource(cfg.Seed))
	want := cfg.MaxQueries
	if want <= 0 {
		want = 3 + r.Intn(3)
	}
	cat, err := schema.Parse(netgen.SchemaDDL)
	if err != nil {
		panic(fmt.Sprintf("qgen: base schema must parse: %v", err))
	}
	g := &gen{r: r, cat: cat, nodes: []nodeInfo{baseNode()}}

	for len(g.queries) < want {
		accepted := false
		for attempt := 0; attempt < 20; attempt++ {
			text, info := g.genQuery()
			if text == "" {
				continue
			}
			candidate := strings.Join(append(append([]string{}, g.queries...), text), "\n\n")
			if !g.loads(candidate) {
				continue
			}
			g.queries = append(g.queries, text)
			g.nodes = append(g.nodes, info)
			accepted = true
			break
		}
		if !accepted {
			// Fall back to a shape that is always valid, so every
			// workload has at least `want` queries.
			name := fmt.Sprintf("q%d", len(g.queries)+1)
			text := fmt.Sprintf("query %s:\nSELECT tb, COUNT(*) AS cnt\nFROM TCP\nGROUP BY time/60 AS tb", name)
			g.queries = append(g.queries, text)
			g.nodes = append(g.nodes, nodeInfo{
				Name: name, Agg: true, TemporalIdx: 0,
				Cols: []colInfo{
					{Name: "tb", Temporal: true, Epoch: true, Small: true},
					{Name: "cnt", Small: true},
				},
			})
		}
	}

	return &Workload{
		Seed:    cfg.Seed,
		DDL:     netgen.SchemaDDL,
		Queries: strings.Join(g.queries, "\n\n"),
		Trace:   g.genTrace(cfg.Seed),
	}
}

// loads re-validates a candidate query set through the real parser and
// planner — the generator's grammar is deliberately conservative, but
// the planner stays the single source of truth for validity.
func (g *gen) loads(queries string) bool {
	qs, err := gsql.ParseQuerySet(queries)
	if err != nil {
		return false
	}
	_, err = plan.Build(g.cat, qs)
	return err == nil
}

// genTrace draws a deliberately small trace: differential sweeps run
// hundreds of configurations, and join fan-out grows quadratically
// with the per-epoch packet count. Streams with a base-level join get
// the smallest traces.
func (g *gen) genTrace(seed int64) netgen.Config {
	cfg := netgen.Config{
		Seed:            seed,
		DurationSec:     5 + g.r.Intn(8),
		PacketsPerSec:   60 + g.r.Intn(120),
		SrcHosts:        1 + g.r.Intn(30),
		DstHosts:        1 + g.r.Intn(15),
		ZipfS:           1.05 + g.r.Float64(),
		MeanFlowPackets: 1 + 9*g.r.Float64(),
		AttackFraction:  g.r.Float64() * 0.3,
		Ports:           4 + g.r.Intn(500),
	}
	if g.joins > 0 {
		cfg.DurationSec = 5 + g.r.Intn(3)
		cfg.PacketsPerSec = 40 + g.r.Intn(60)
	}
	// The draw ranges above keep every field valid by construction;
	// Validate guards that invariant against future range edits (an
	// invalid config would otherwise panic deep inside Generate).
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("qgen: genTrace produced an invalid config: %v", err))
	}
	return cfg
}

// genQuery draws one query. Empty text means the draw was infeasible
// (e.g. no join-eligible inputs) and the caller should redraw.
func (g *gen) genQuery() (string, nodeInfo) {
	name := fmt.Sprintf("q%d", len(g.queries)+1)
	p := g.r.Float64()
	switch {
	case p < 0.30 && g.joins < 2:
		return g.genJoin(name)
	case p < 0.75:
		return g.genAggregate(name)
	default:
		return g.genSelProj(name)
	}
}

// pickInput draws an upstream node, weighting the base stream double
// so DAGs keep fanning out from the source.
func (g *gen) pickInput(need func(nodeInfo) bool) (nodeInfo, bool) {
	var elig []nodeInfo
	for _, n := range g.nodes {
		if need == nil || need(n) {
			elig = append(elig, n)
			if n.Base {
				elig = append(elig, n) // double weight
			}
		}
	}
	if len(elig) == 0 {
		return nodeInfo{}, false
	}
	return elig[g.r.Intn(len(elig))], true
}

func (g *gen) alias(prefix string) string {
	g.nextCol++
	return fmt.Sprintf("%s%d", prefix, g.nextCol)
}

// intCols returns the indexes of in's integer (non-float) columns,
// excluding the temporal one.
func intCols(in nodeInfo) []int {
	var idx []int
	for i, c := range in.Cols {
		if !c.Float && i != in.TemporalIdx {
			idx = append(idx, i)
		}
	}
	return idx
}

// literalFor draws a comparison literal in the column's value range.
func (g *gen) literalFor(c colInfo) string {
	if c.Small {
		return fmt.Sprintf("%d", g.r.Intn(1500))
	}
	if g.r.Intn(2) == 0 {
		return fmt.Sprintf("%d", 0x0A000000+uint64(g.r.Intn(40)))
	}
	return fmt.Sprintf("%d", 0xC0A80000+uint64(g.r.Intn(20)))
}

var cmpOps = []string{"<", "<=", ">", ">=", "<>"}

// genFilter renders a WHERE conjunction over qualified or bare column
// references.
func (g *gen) genFilter(in nodeInfo, qual string) string {
	n := 1 + g.r.Intn(2)
	var conj []string
	for i := 0; i < n; i++ {
		c := in.Cols[g.r.Intn(len(in.Cols))]
		ref := c.Name
		if qual != "" {
			ref = qual + "." + c.Name
		}
		if idx := intCols(in); len(idx) > 0 && g.r.Float64() < 0.2 {
			ref, c = g.differenceOver(in, idx, qual)
		}
		op := cmpOps[g.r.Intn(len(cmpOps))]
		conj = append(conj, fmt.Sprintf("%s %s %s", ref, op, g.literalFor(c)))
	}
	if len(conj) == 2 && g.r.Float64() < 0.3 {
		return conj[0] + " OR " + conj[1]
	}
	return strings.Join(conj, " AND ")
}

// derived renders a scalar transformation of an integer column and the
// resulting colInfo. These are the shapes core.ParseElem classifies
// (mask, divide, modulo), plus a small additive shift.
func (g *gen) derived(c colInfo) (string, colInfo) {
	out := colInfo{Nullable: c.Nullable, Small: c.Small}
	switch g.r.Intn(4) {
	case 0:
		masks := []uint64{0x3F, 0xFF, 0xFF00, 0xFFF0}
		m := masks[g.r.Intn(len(masks))]
		if m <= 0xFFFF {
			out.Small = true
		}
		return fmt.Sprintf("%s & 0x%X", c.Name, m), out
	case 1:
		divs := []uint64{2, 16, 256}
		return fmt.Sprintf("%s / %d", c.Name, divs[g.r.Intn(len(divs))]), out
	case 2:
		mods := []uint64{8, 64, 1024}
		out.Small = true
		return fmt.Sprintf("%s %% %d", c.Name, mods[g.r.Intn(len(mods))]), out
	default:
		return fmt.Sprintf("%s + %d", c.Name, 1+g.r.Intn(7)), out
	}
}

// difference renders a subtraction over integer columns and the
// resulting colInfo: a - b, or c - k with a literal from the column's
// value range. Either way the data decides which rows underflow into a
// negative Int. a and b are reference texts (bare or qualified names) of
// the columns ca and cb.
func (g *gen) difference(a string, ca colInfo, b string, cb colInfo) (string, colInfo) {
	if a == b || g.r.Intn(3) == 0 {
		return fmt.Sprintf("%s - %s", a, g.literalFor(ca)), colInfo{Nullable: ca.Nullable, Small: ca.Small, Diff: true}
	}
	return fmt.Sprintf("%s - %s", a, b), colInfo{Nullable: ca.Nullable || cb.Nullable, Small: ca.Small && cb.Small, Diff: true}
}

// differenceOver draws difference's operands from one input's integer
// columns, qualified when qual is set.
func (g *gen) differenceOver(in nodeInfo, idx []int, qual string) (string, colInfo) {
	ca, cb := in.Cols[idx[g.r.Intn(len(idx))]], in.Cols[idx[g.r.Intn(len(idx))]]
	a, b := ca.Name, cb.Name
	if qual != "" {
		a, b = qual+"."+a, qual+"."+b
	}
	return g.difference(a, ca, b, cb)
}

// genSelProj draws a selection/projection over one input.
func (g *gen) genSelProj(name string) (string, nodeInfo) {
	in, ok := g.pickInput(nil)
	if !ok {
		return "", nodeInfo{}
	}
	info := nodeInfo{Name: name, TemporalIdx: -1}
	var items []string

	// Keep the temporal column (when present) so downstream queries
	// can still window and join.
	if t, ok := in.temporal(); ok {
		info.TemporalIdx = 0
		info.Cols = append(info.Cols, t)
		items = append(items, t.Name)
	}
	picked := 0
	for i, c := range in.Cols {
		if i == in.TemporalIdx || g.r.Float64() > 0.6 {
			continue
		}
		picked++
		if !c.Float && g.r.Float64() < 0.35 {
			expr, derived := g.derived(c)
			derived.Name = g.alias("c")
			items = append(items, fmt.Sprintf("%s AS %s", expr, derived.Name))
			info.Cols = append(info.Cols, derived)
		} else {
			items = append(items, c.Name)
			info.Cols = append(info.Cols, c)
		}
	}
	if picked == 0 {
		idx := intCols(in)
		if len(idx) == 0 {
			return "", nodeInfo{}
		}
		c := in.Cols[idx[g.r.Intn(len(idx))]]
		items = append(items, c.Name)
		info.Cols = append(info.Cols, c)
	}
	if idx := intCols(in); len(idx) > 0 && g.r.Float64() < 0.3 {
		expr, diff := g.differenceOver(in, idx, "")
		diff.Name = g.alias("d")
		items = append(items, fmt.Sprintf("%s AS %s", expr, diff.Name))
		info.Cols = append(info.Cols, diff)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "query %s:\nSELECT %s\nFROM %s", name, strings.Join(items, ", "), in.Name)
	if g.r.Float64() < 0.5 {
		fmt.Fprintf(&b, "\nWHERE %s", g.genFilter(in, ""))
	}
	return b.String(), info
}

// aggDef is one drawn aggregate: its call text, alias, and output
// colInfo traits.
type aggDef struct {
	call       string
	out        colInfo
	splittable bool
}

// genAggs draws 1–3 aggregate calls over the input's columns.
func (g *gen) genAggs(in nodeInfo) []aggDef {
	ints := intCols(in)
	var smallInts, diffs, smallDiffs []int
	for _, i := range ints {
		c := in.Cols[i]
		if c.Small {
			smallInts = append(smallInts, i)
		}
		if c.Diff {
			diffs = append(diffs, i)
			if c.Small {
				smallDiffs = append(smallDiffs, i)
			}
		}
	}
	pick := func(idx []int) colInfo { return in.Cols[idx[g.r.Intn(len(idx))]] }
	// overDiff draws MIN/MAX/AVG's argument: often an input column that
	// is a difference (a join's S2.b - S1.a), else now and then a
	// difference of its own, so the dense store sees Int rows.
	overDiff := func(c colInfo, diffs, ints []int) (string, colInfo) {
		switch {
		case len(diffs) > 0 && g.r.Float64() < 0.5:
			c = pick(diffs)
		case len(ints) > 0 && g.r.Float64() < 0.3:
			return g.differenceOver(in, ints, "")
		}
		return c.Name, c
	}

	n := 1 + g.r.Intn(3)
	var defs []aggDef
	seen := map[string]bool{}
	for len(defs) < n {
		var d aggDef
		d.splittable = true
		switch w := g.r.Intn(12); {
		case w < 3:
			d.call = "COUNT(*)"
			d.out = colInfo{Small: true}
		case w < 5 && len(ints) > 0:
			c := pick(ints)
			arg := c.Name
			if g.r.Float64() < 0.3 {
				arg, c = g.differenceOver(in, ints, "") // may sum to a negative Int
			}
			d.call = fmt.Sprintf("SUM(%s)", arg)
			d.out = colInfo{Nullable: c.Nullable} // not Small: sums grow
		case w < 7:
			arg, c := overDiff(in.Cols[g.r.Intn(len(in.Cols))], diffs, ints)
			fn := "MIN"
			if g.r.Intn(2) == 0 {
				fn = "MAX"
			}
			d.call = fmt.Sprintf("%s(%s)", fn, arg)
			d.out = colInfo{Float: c.Float, Small: c.Small, Nullable: c.Nullable, Diff: c.Diff}
		case w < 9 && len(smallInts) > 0:
			arg, c := overDiff(pick(smallInts), smallDiffs, smallInts)
			d.call = fmt.Sprintf("AVG(%s)", arg)
			d.out = colInfo{Float: true, Nullable: c.Nullable}
		case w < 10 && len(ints) > 0:
			c := pick(ints)
			fns := []string{"OR_AGGR", "AND_AGGR", "XOR_AGGR"}
			d.call = fmt.Sprintf("%s(%s)", fns[g.r.Intn(3)], c.Name)
			d.out = colInfo{Small: c.Small, Nullable: c.Nullable}
		case w < 11 && len(smallInts) > 0:
			c := pick(smallInts)
			fn := "VARIANCE"
			if g.r.Intn(2) == 0 {
				fn = "STDDEV"
			}
			d.call = fmt.Sprintf("%s(%s)", fn, c.Name)
			d.out = colInfo{Float: true, Nullable: c.Nullable}
		case len(ints) > 0:
			c := pick(ints)
			fn := "COUNT_DISTINCT" // the holistic sprinkle (paper §5.2.2 limits)
			d.splittable = false
			if g.r.Intn(3) == 0 {
				fn = "APPROX_COUNT_DISTINCT" // HLL: splittable sketch
				d.splittable = true
			}
			d.call = fmt.Sprintf("%s(%s)", fn, c.Name)
			d.out = colInfo{Small: true}
		default:
			continue
		}
		if seen[d.call] {
			continue
		}
		seen[d.call] = true
		d.out.Name = g.alias("a")
		defs = append(defs, d)
	}
	return defs
}

// genAggregate draws a tumbling-window aggregation: a temporal group
// term, a random subset of (possibly coarsened) group keys, random
// aggregates, and optional HAVING / WINDOW clauses.
func (g *gen) genAggregate(name string) (string, nodeInfo) {
	in, ok := g.pickInput(func(n nodeInfo) bool {
		t, ok := n.temporal()
		return ok && !t.Nullable
	})
	if !ok {
		return "", nodeInfo{}
	}
	t, _ := in.temporal()
	info := nodeInfo{Name: name, Agg: true, TemporalIdx: 0}

	// Temporal group term: divide raw time into epochs, or reuse /
	// coarsen an upstream epoch column.
	var groupItems, selItems []string
	tb := colInfo{Name: t.Name, Temporal: true, Epoch: true, Small: true}
	switch {
	case !t.Epoch:
		epochs := []int{5, 10, 30, 60}
		tb.Name = "tb"
		groupItems = append(groupItems, fmt.Sprintf("%s/%d AS tb", t.Name, epochs[g.r.Intn(len(epochs))]))
	case g.r.Float64() < 0.4:
		tb.Name = "tb"
		groupItems = append(groupItems, fmt.Sprintf("%s/%d AS tb", t.Name, 2+g.r.Intn(3)))
	default:
		groupItems = append(groupItems, t.Name)
	}
	selItems = append(selItems, tb.Name)
	info.Cols = append(info.Cols, tb)

	// Random group-key subset, coarsened now and then.
	keys := intCols(in)
	for _, i := range keys {
		if g.r.Float64() > 0.4 || len(groupItems) > 3 {
			continue
		}
		c := in.Cols[i]
		if g.r.Float64() < 0.3 {
			expr, derived := g.derived(c)
			derived.Name = g.alias("k")
			groupItems = append(groupItems, fmt.Sprintf("%s AS %s", expr, derived.Name))
			selItems = append(selItems, derived.Name)
			info.Cols = append(info.Cols, derived)
		} else {
			groupItems = append(groupItems, c.Name)
			selItems = append(selItems, c.Name)
			info.Cols = append(info.Cols, c)
		}
	}

	defs := g.genAggs(in)
	splittable := true
	for _, d := range defs {
		selItems = append(selItems, fmt.Sprintf("%s AS %s", d.call, d.out.Name))
		info.Cols = append(info.Cols, d.out)
		splittable = splittable && d.splittable
	}

	var b strings.Builder
	fmt.Fprintf(&b, "query %s:\nSELECT %s\nFROM %s", name, strings.Join(selItems, ", "), in.Name)
	if g.r.Float64() < 0.3 {
		fmt.Fprintf(&b, "\nWHERE %s", g.genFilter(in, ""))
	}
	fmt.Fprintf(&b, "\nGROUP BY %s", strings.Join(groupItems, ", "))
	if g.r.Float64() < 0.3 {
		// HAVING over one of the drawn aggregates; integer thresholds
		// only (float equality would be fragile, not wrong).
		d := defs[g.r.Intn(len(defs))]
		op := []string{">", ">="}[g.r.Intn(2)]
		lhs := d.call
		if !d.out.Float && g.r.Float64() < 0.3 {
			lhs = fmt.Sprintf("%s - %d", d.call, 1+g.r.Intn(3)) // underflows for the smallest groups
		}
		fmt.Fprintf(&b, "\nHAVING %s %s %d", lhs, op, 1+g.r.Intn(4))
	}
	if splittable && g.r.Float64() < 0.15 {
		fmt.Fprintf(&b, "\nWINDOW %d", 2+g.r.Intn(3))
	}
	return b.String(), info
}

// genJoin draws a two-input equi-join with a temporal key pair and,
// for unreduced inputs, at least one extra equi-key to bound fan-out.
func (g *gen) genJoin(name string) (string, nodeInfo) {
	eligible := func(n nodeInfo) bool {
		if n.Join {
			return false
		}
		t, ok := n.temporal()
		return ok && !t.Nullable
	}
	left, ok := g.pickInput(eligible)
	if !ok {
		return "", nodeInfo{}
	}
	right, ok := g.pickInput(eligible)
	if !ok {
		return "", nodeInfo{}
	}
	lt, _ := left.temporal()
	rt, _ := right.temporal()
	// Match temporal granularity: raw time joins raw time, epochs join
	// epochs (misaligned epochs would still build, but add nothing).
	if lt.Epoch != rt.Epoch {
		return "", nodeInfo{}
	}

	jt := "inner"
	switch p := g.r.Float64(); {
	case p < 0.15:
		jt = "LEFT"
	case p < 0.25:
		jt = "RIGHT"
	case p < 0.40:
		jt = "FULL"
	case p < 0.50:
		jt = "JOIN" // explicit inner JOIN ... ON
	}

	// Key predicates: the temporal pair first.
	temporalKey := fmt.Sprintf("S1.%s = S2.%s", lt.Name, rt.Name)
	if jt == "inner" && lt.Epoch && g.r.Float64() < 0.15 {
		// The paper's flow_pairs pattern: consecutive epochs.
		temporalKey = fmt.Sprintf("S1.%s = S2.%s + 1", lt.Name, rt.Name)
	}
	preds := []string{temporalKey}

	lk, rk := intCols(left), intCols(right)
	extra := g.r.Intn(3)
	if !left.Agg || !right.Agg {
		extra = 1 + g.r.Intn(2) // unreduced input: force a selective key
	}
	for i := 0; i < extra && len(lk) > 0 && len(rk) > 0; i++ {
		var lc, rc colInfo
		if pair, ok := g.sameNamePair(left, right, lk, rk); ok && g.r.Float64() < 0.7 {
			lc, rc = pair[0], pair[1]
		} else {
			lc = left.Cols[lk[g.r.Intn(len(lk))]]
			rc = right.Cols[rk[g.r.Intn(len(rk))]]
		}
		preds = append(preds, fmt.Sprintf("S1.%s = S2.%s", lc.Name, rc.Name))
	}

	// Select list: preserved-side temporal first, then a few columns
	// from each side, all aliased (the two sides may share names).
	info := nodeInfo{Name: name, Join: true, TemporalIdx: -1}
	var items []string
	leftNullable := jt == "RIGHT" || jt == "FULL"
	rightNullable := jt == "LEFT" || jt == "FULL"
	if jt != "FULL" {
		side, bind, nullable := lt, "S1", leftNullable
		if jt == "RIGHT" {
			side, bind, nullable = rt, "S2", rightNullable
		}
		out := side
		out.Name = g.alias("t")
		out.Nullable = nullable
		items = append(items, fmt.Sprintf("%s.%s AS %s", bind, side.Name, out.Name))
		info.TemporalIdx = 0
		info.Cols = append(info.Cols, out)
	}
	addCols := func(n nodeInfo, bind string, nullable bool, count int) {
		for i := 0; i < count; i++ {
			c := n.Cols[g.r.Intn(len(n.Cols))]
			out := c
			out.Name = g.alias("j")
			out.Temporal, out.Epoch = false, false
			out.Nullable = c.Nullable || nullable
			items = append(items, fmt.Sprintf("%s.%s AS %s", bind, c.Name, out.Name))
			info.Cols = append(info.Cols, out)
		}
	}
	addCols(left, "S1", leftNullable, 1+g.r.Intn(2))
	addCols(right, "S2", rightNullable, 1+g.r.Intn(2))
	if len(lk) > 0 && len(rk) > 0 && g.r.Float64() < 0.3 {
		// The paper's jitter pattern: a right column less a left one.
		lc, rc := left.Cols[lk[g.r.Intn(len(lk))]], right.Cols[rk[g.r.Intn(len(rk))]]
		lc.Nullable, rc.Nullable = lc.Nullable || leftNullable, rc.Nullable || rightNullable
		expr, diff := g.difference("S2."+rc.Name, rc, "S1."+lc.Name, lc)
		diff.Name = g.alias("j")
		items = append(items, fmt.Sprintf("%s AS %s", expr, diff.Name))
		info.Cols = append(info.Cols, diff)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "query %s:\nSELECT %s\n", name, strings.Join(items, ", "))
	switch jt {
	case "inner":
		fmt.Fprintf(&b, "FROM %s S1, %s S2\nWHERE %s", left.Name, right.Name, strings.Join(preds, " AND "))
		if g.r.Float64() < 0.25 {
			fmt.Fprintf(&b, " AND %s", g.genFilter(left, "S1"))
		}
	case "JOIN":
		fmt.Fprintf(&b, "FROM %s S1 JOIN %s S2 ON %s", left.Name, right.Name, strings.Join(preds, " AND "))
	default:
		fmt.Fprintf(&b, "FROM %s S1 %s OUTER JOIN %s S2 ON %s", left.Name, jt, right.Name, strings.Join(preds, " AND "))
	}
	g.joins++
	return b.String(), info
}

// sameNamePair looks for an integer column name both sides share (the
// natural srcIP = srcIP style key).
func (g *gen) sameNamePair(left, right nodeInfo, lk, rk []int) ([2]colInfo, bool) {
	var pairs [][2]colInfo
	for _, li := range lk {
		for _, ri := range rk {
			if strings.EqualFold(left.Cols[li].Name, right.Cols[ri].Name) {
				pairs = append(pairs, [2]colInfo{left.Cols[li], right.Cols[ri]})
			}
		}
	}
	if len(pairs) == 0 {
		return [2]colInfo{}, false
	}
	return pairs[g.r.Intn(len(pairs))], true
}
