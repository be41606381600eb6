package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"qap/internal/exec"
	"qap/internal/gsql"
	"qap/internal/obs"
	"qap/internal/obs/trace"
	"qap/internal/optimizer"
	"qap/internal/plan"
	"qap/internal/sqlval"
)

// ---- stream splitter (paper Section 3.3) ----

type router struct {
	// hash holds the partitioning set's elements, each compiled once:
	// route evaluates their Row closures, routeCols their uint kernels
	// where they have one. nil => round robin.
	hash []exec.ColExpr
	outs []exec.Consumer
	// islands[p] is the executor that runs partition p's scan: its leaf
	// island, or 0 throughout in a sequential runner, whose one
	// executor runs every partition.
	islands  []int
	rr       int
	hashVals []sqlval.Value // route scratch, driver-goroutine-owned
	row      exec.Tuple     // routeCols' row scratch, driver-goroutine-owned
}

// route picks the destination partition for one tuple. It mutates the
// round-robin cursor and the hash scratch, so in parallel mode only
// the splitter (driver) goroutine may call it.
func (rt *router) route(t exec.Tuple) int {
	if rt.hash == nil {
		idx := rt.rr % len(rt.outs)
		rt.rr++
		return idx
	}
	vals := rt.hashVals[:0]
	for i := range rt.hash {
		vals = append(vals, rt.hash[i].Row(t))
	}
	rt.hashVals = vals
	return rangeSplit(sqlval.HashTuple(vals), len(rt.outs))
}

// rangeSplit maps hash h to one of m partitions: partition i receives
// H in [i*R/M, (i+1)*R/M).
func rangeSplit(h uint64, m int) int { return int((h >> 32) * uint64(m) >> 32) }

// FNV-1a as sqlval.HashTuple runs it.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// routeCols is route for every row of cb, a non-empty all-uint batch
// of the stream's columns on a hash router: it returns parts, grown to
// cb.Len, with parts[i] the partition of row i. The hash is
// HashTuple's, run element-major: an element with a uint kernel folds
// its words into every row's hash at once, the way HashInto folds a
// Uint or an Int (the same eight bytes either way, so a may-be-Int
// kernel needs no bitmap); any other element evaluates its row
// closure on row i and folds the value.
//
//qap:hot
func (rt *router) routeCols(cb *exec.ColBatch, parts []uint64) []uint64 {
	h := slices.Grow(parts[:0], cb.Len)[:cb.Len]
	for i := range h {
		h[i] = fnvOffset
	}
	for e := range rt.hash {
		ce := &rt.hash[e]
		if ce.U != nil {
			hashWords(h, ce.U(cb))
			continue
		}
		for i := range h {
			rt.row = rt.row[:0]
			for c := range cb.Cols {
				rt.row = append(rt.row, cb.Cols[c].Value(i))
			}
			h[i] = ce.Row(rt.row).HashInto(h[i])
		}
	}
	for i, x := range h {
		h[i] = uint64(rangeSplit(x, len(rt.outs)))
	}
	return h
}

// hashWords folds w[i] into running hash h[i], low byte first: what
// sqlval's HashInto does with a Uint or Int value.
//
//qap:hot
func hashWords(h, w []uint64) {
	w = w[:len(h)]
	for i, u := range w {
		x := h[i]
		x = (x ^ u&0xff) * fnvPrime
		x = (x ^ u>>8&0xff) * fnvPrime
		x = (x ^ u>>16&0xff) * fnvPrime
		x = (x ^ u>>24&0xff) * fnvPrime
		x = (x ^ u>>32&0xff) * fnvPrime
		x = (x ^ u>>40&0xff) * fnvPrime
		x = (x ^ u>>48&0xff) * fnvPrime
		x = (x ^ u>>56) * fnvPrime
		h[i] = x
	}
}

func (rt *router) Push(t exec.Tuple) {
	rt.outs[rt.route(t)].Push(t)
}

func (rt *router) Advance(wm uint64) {
	for _, o := range rt.outs {
		o.Advance(wm)
	}
}

func (rt *router) Flush() {
	for _, o := range rt.outs {
		o.Flush()
	}
}

// ---- edge accounting ----

type procID struct{ host, partition int }

type edge struct {
	next exec.Consumer
	net  bool // crosses hosts (counts as network)
	ipc  bool // crosses processes on the same host
	// id indexes Runner.edges for island-crossing edges (a link item's
	// name for the edge); 0 and unregistered otherwise. from, on those
	// edges, is the producing operator, whose output width the live
	// backend holds link items to.
	id   int
	from *optimizer.Op
	// st is the receiving operator's counters. The edge always executes
	// on the receiving operator's island (captured edges replay
	// centrally), so they have a single writer and accumulate in
	// canonical order in every engine.
	st *obs.OpStats
}

func (e *edge) Push(t exec.Tuple) {
	var bytes int64
	if e.net {
		bytes = int64(t.WireSize())
	}
	e.count(1, bytes)
	e.next.Push(t)
}

// PushCols implements exec.ColConsumer: Push's accounting for the whole
// batch at once (integer adds only; the wire size comes straight from
// the columns), then the batch moves downstream — pivoting only if the
// receiving operator has no columnar fast path.
//
//qap:hot
func (e *edge) PushCols(cb *exec.ColBatch) {
	var bytes int64
	if e.net {
		bytes = int64(cb.WireSize())
	}
	e.count(int64(cb.Len), bytes)
	exec.PushColsAll(e.next, cb)
}

// count charges n tuples of bytes wire bytes to the receiving
// operator. CPU units are not summed here: they are the cost model
// applied to these counts when a window or the run closes.
func (e *edge) count(n, bytes int64) {
	e.st.RowsIn += n
	switch {
	case e.net:
		e.st.NetTuplesIn += n
		e.st.NetBytesIn += bytes
	case e.ipc:
		e.st.IPCTuplesIn += n
	}
}

func (e *edge) Advance(wm uint64) {
	e.st.Advances++
	e.next.Advance(wm)
}

func (e *edge) Flush() {
	e.st.Flushes++
	e.next.Flush()
}

// opOut counts an operator's emitted rows between the operator and its
// fanout, on the producing operator's island, so each emission counts
// once — before any Tee duplication and before island-crossing capture.
type opOut struct {
	st   *obs.OpStats
	next exec.Consumer
}

func (o *opOut) Push(t exec.Tuple) { o.st.RowsOut++; o.next.Push(t) }
func (o *opOut) Advance(wm uint64) { o.next.Advance(wm) }
func (o *opOut) Flush()            { o.next.Flush() }

// PushCols implements exec.ColConsumer.
func (o *opOut) PushCols(cb *exec.ColBatch) {
	o.st.RowsOut += int64(cb.Len)
	exec.PushColsAll(o.next, cb)
}

// ---- compilation ----

type portRef struct {
	op   *optimizer.Op
	port int
}

func (r *Runner) compile() error {
	p := r.plan
	// Consumers of each producer, in deterministic order.
	consumers := make(map[*optimizer.Op][]portRef)
	for _, op := range p.Ops {
		for port, in := range op.Inputs {
			consumers[in] = append(consumers[in], portRef{op, port})
		}
	}
	// entries[op][port] is the accounted consumer feeding that port.
	entries := make(map[*optimizer.Op][]exec.Consumer)
	outs := make([]opOut, len(p.Ops))

	// Build in reverse topological order so downstream entries exist.
	for i := len(p.Ops) - 1; i >= 0; i-- {
		op := p.Ops[i]
		outs[i] = opOut{st: r.opStatsOf(op), next: r.fanout(op, consumers[op], entries)}
		ports, err := r.instantiate(op, &outs[i])
		if err != nil {
			return fmt.Errorf("cluster: op %d (%s): %w", op.ID, op.Label(), err)
		}
		entries[op] = ports
	}
	// Routers deliver into the scan entries, partition-ordered.
	for _, src := range p.Graph.Sources() {
		scans := make([]exec.Consumer, p.Partitions)
		islandIDs := make([]int, p.Partitions)
		for _, op := range p.Ops {
			if op.Kind == optimizer.OpScan && op.Logical == src {
				scans[op.Partition] = entries[op][0]
				if r.parallel {
					islandIDs[op.Partition] = r.islandOf(op).id
				}
			}
		}
		rt := &router{outs: scans, islands: islandIDs}
		if set := p.SplitterSet(src.Stream.Name); !set.IsEmpty() {
			names := colNames(src.OutCols)
			for _, elem := range set {
				ce, err := r.compileExpr(elem.Expr, exec.ColsResolver("", names))
				if err != nil {
					return fmt.Errorf("cluster: partitioning element %s: %w", elem, err)
				}
				rt.hash = append(rt.hash, ce)
			}
		}
		r.routers[strings.ToLower(src.Stream.Name)] = rt
	}
	r.routerNames = r.routerNames[:0]
	for name := range r.routers { //qap:allow maprange -- names collected then sorted below
		r.routerNames = append(r.routerNames, name)
	}
	sort.Strings(r.routerNames)
	return nil
}

// fanout wraps each consumer's entry port with an accounting edge and
// combines multiple consumers into a Tee.
func (r *Runner) fanout(op *optimizer.Op, cons []portRef, entries map[*optimizer.Op][]exec.Consumer) exec.Consumer {
	if len(cons) == 0 {
		return exec.Discard{}
	}
	sort.SliceStable(cons, func(i, j int) bool {
		if cons[i].op.ID != cons[j].op.ID {
			return cons[i].op.ID < cons[j].op.ID
		}
		return cons[i].port < cons[j].port
	})
	from := procID{op.Host, op.Proc}
	fromIsl := r.islandOf(op)
	outs := make([]exec.Consumer, len(cons))
	for i, c := range cons {
		to := procID{c.op.Host, c.op.Proc}
		toIsl := r.islandOf(c.op)
		e := &edge{
			next: entries[c.op][c.port],
			st:   r.opStatsOf(c.op),
			net:  from.host != to.host,
		}
		e.ipc = !e.net && from != to
		if r.parallel && fromIsl != toIsl {
			// Island-crossing link: the producing worker records the
			// delivery; the central replay loop applies it (engine.go).
			// The edge id is its index in compile order — deterministic
			// for a given plan, so two runners compiled from the same
			// plan (a live splitter and a remote node) agree on every id.
			e.id, e.from = len(r.edges), op
			r.edges = append(r.edges, e)
			outs[i] = &capture{isl: fromIsl, e: e}
		} else {
			outs[i] = e
		}
	}
	if len(outs) == 1 {
		return outs[0]
	}
	return &exec.Tee{Outs: outs}
}

// outWidth is the number of columns op emits: a union forwards its
// inputs', a sub-aggregate emits groups ++ partials, and every other
// operator its logical node's output columns.
func outWidth(op *optimizer.Op) int {
	switch op.Kind {
	case optimizer.OpUnion:
		return outWidth(op.Inputs[0])
	case optimizer.OpAggSub:
		return len(op.Logical.GroupBy) + len(partialNames(op.Logical))
	default:
		return len(op.Logical.OutCols)
	}
}

// instantiate builds the exec operator for one physical op and returns
// its input ports.
func (r *Runner) instantiate(op *optimizer.Op, out exec.Consumer) ([]exec.Consumer, error) {
	switch op.Kind {
	case optimizer.OpScan:
		// The scan itself charges the receiving host for ingesting the
		// packet (the splitter hardware is free).
		fp := &exec.FilterProject{Out: out}
		selfEdge := &edge{next: fp, st: r.opStatsOf(op)}
		return []exec.Consumer{selfEdge}, nil
	case optimizer.OpUnion:
		u := exec.NewUnion(len(op.Inputs), out)
		ports := make([]exec.Consumer, len(op.Inputs))
		for i := range ports {
			ports[i] = u.Port(i)
		}
		return ports, nil
	case optimizer.OpOutput:
		c := &exec.Collector{}
		r.collectors[op.Logical.QueryName] = c
		return []exec.Consumer{c}, nil
	case optimizer.OpSelProj:
		fp, err := r.buildSelProj(op.Logical)
		if err != nil {
			return nil, err
		}
		fp.Out = out
		return []exec.Consumer{fp}, nil
	case optimizer.OpAggregate, optimizer.OpAggSub, optimizer.OpAggSuper:
		agg, err := r.buildAggregate(op, out)
		if err != nil {
			return nil, err
		}
		r.sized = append(r.sized, sizedOp{op.ID, agg.GroupHighWater, agg})
		return []exec.Consumer{agg}, nil
	case optimizer.OpWindow:
		w, err := r.buildWindow(op, out)
		if err != nil {
			return nil, err
		}
		return []exec.Consumer{w}, nil
	case optimizer.OpJoin:
		return r.buildJoin(op, out)
	default:
		return nil, fmt.Errorf("unknown op kind %v", op.Kind)
	}
}

func colNames(cols []plan.ColDef) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// compileExpr compiles e once: with its column kernels when the runner
// executes batches, as the row closure alone otherwise, so the scalar
// oracle builds no kernel. Every expression of a plan compiles here, and
// its result fills the operator's Col* field on either path: the exec
// readers take a form without kernels as no column form at all.
func (r *Runner) compileExpr(e gsql.Expr, res exec.Resolver) (exec.ColExpr, error) {
	if r.batched() {
		return exec.CompileCol(e, res, r.params)
	}
	f, err := exec.Compile(e, res, r.params)
	return exec.ColExpr{Row: f}, err
}

func (r *Runner) buildSelProj(n *plan.Node) (*exec.FilterProject, error) {
	res := exec.ColsResolver(n.InBind, colNames(n.Inputs[0].OutCols))
	fp := &exec.FilterProject{Projs: make([]exec.EvalFunc, 0, len(n.Projs))}
	if n.Filter != nil {
		ce, err := r.compileExpr(n.Filter, res)
		if err != nil {
			return nil, err
		}
		fp.Filter = ce.Row
		fp.ColFilter = &ce
	}
	for _, pr := range n.Projs {
		ce, err := r.compileExpr(pr.Expr, res)
		if err != nil {
			return nil, err
		}
		fp.Projs = append(fp.Projs, ce.Row)
		fp.ColProjs = append(fp.ColProjs, ce)
	}
	return fp, nil
}

// epochOfWM compiles the watermark translator for a temporal group
// column: the lineage base expression evaluated at the watermark.
func (r *Runner) epochOfWM(lin plan.Lineage) (func(uint64) sqlval.Value, error) {
	if lin.Base == nil {
		return nil, nil
	}
	f, err := exec.Compile(lin.Base.Expr, exec.ColsResolver("", []string{lin.Base.Attr}), r.params)
	if err != nil {
		return nil, err
	}
	// One scratch tuple per instantiated closure: each belongs to one
	// operator instance, and operators are single-writer per island.
	scratch := make(exec.Tuple, 1)
	return func(wm uint64) sqlval.Value {
		scratch[0] = sqlval.Uint(wm)
		return f(scratch)
	}, nil
}

// momentParts returns the partial column suffixes of an aggregate
// whose decomposition needs several components, or nil for aggregates
// that split one-to-one (the SubName/SuperName pair).
func momentParts(spec gsql.AggSpec) []string {
	switch spec.Name {
	case "AVG":
		return []string{"$sum", "$cnt"}
	case "VARIANCE", "STDDEV":
		return []string{"$sum", "$sumsq", "$cnt"}
	default:
		return nil
	}
}

// momentSubAccums returns the accumulator names matching momentParts.
func momentSubAccums(spec gsql.AggSpec) []string {
	switch spec.Name {
	case "AVG":
		return []string{"SUM", "COUNT"}
	case "VARIANCE", "STDDEV":
		return []string{"SUM", "SUMSQ", "COUNT"}
	default:
		return nil
	}
}

// partialNames lists the sub-aggregate output columns for an
// aggregation's partials.
func partialNames(n *plan.Node) []string {
	var out []string
	for _, a := range n.Aggs {
		if parts := momentParts(a.Spec); parts != nil {
			for _, p := range parts {
				out = append(out, a.Name+p)
			}
		} else {
			out = append(out, a.Name)
		}
	}
	return out
}

// momentFinalExpr builds the expression reconstructing a moment-split
// aggregate's value from its merged partials:
//
//	AVG       sum/cnt
//	VARIANCE  sumsq/cnt - (sum/cnt)^2
//	STDDEV    SQRT(variance)
//
// The multiplication by 1.0 forces floating-point arithmetic over
// integer partials.
func momentFinalExpr(spec gsql.AggSpec, name string) gsql.Expr {
	ref := func(suffix string) gsql.Expr { return &gsql.ColumnRef{Name: name + suffix} }
	fdiv := func(num, den gsql.Expr) gsql.Expr {
		return &gsql.Binary{
			Op: gsql.OpDiv,
			L:  &gsql.Binary{Op: gsql.OpMul, L: num, R: &gsql.NumberLit{IsFloat: true, F: 1}},
			R:  den,
		}
	}
	mean := fdiv(ref("$sum"), ref("$cnt"))
	switch spec.Name {
	case "AVG":
		return mean
	case "VARIANCE", "STDDEV":
		variance := &gsql.Binary{
			Op: gsql.OpSub,
			L:  fdiv(ref("$sumsq"), ref("$cnt")),
			R:  &gsql.Binary{Op: gsql.OpMul, L: mean, R: mean},
		}
		if spec.Name == "VARIANCE" {
			return variance
		}
		return &gsql.FuncCall{Name: "SQRT", Args: []gsql.Expr{variance}}
	default:
		return &gsql.ColumnRef{Name: name}
	}
}

// rewriteSplitRefs substitutes references to moment-split aggregates
// with their reconstruction expressions in super-aggregate HAVING and
// projection clauses.
func rewriteSplitRefs(e gsql.Expr, split map[string]gsql.AggSpec) gsql.Expr {
	if e == nil {
		return nil
	}
	switch t := e.(type) {
	case *gsql.ColumnRef:
		if spec, ok := split[strings.ToLower(t.Name)]; ok && t.Qualifier == "" {
			return momentFinalExpr(spec, t.Name)
		}
		return gsql.CloneExpr(e)
	case *gsql.Unary:
		return &gsql.Unary{Op: t.Op, X: rewriteSplitRefs(t.X, split)}
	case *gsql.Binary:
		return &gsql.Binary{Op: t.Op, L: rewriteSplitRefs(t.L, split), R: rewriteSplitRefs(t.R, split)}
	case *gsql.FuncCall:
		args := make([]gsql.Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = rewriteSplitRefs(a, split)
		}
		return &gsql.FuncCall{Name: t.Name, Star: t.Star, Args: args}
	default:
		return gsql.CloneExpr(e)
	}
}

func (r *Runner) buildAggregate(op *optimizer.Op, out exec.Consumer) (*exec.Aggregate, error) {
	n := op.Logical
	cfg := exec.AggregateConfig{EpochIdx: n.EpochGroupCol(), Out: out,
		ColEmit:      r.batched(),
		SizeHint:     r.sizeHints[op.ID],
		OnEpochFlush: r.traceEmitter(op, trace.KindEpochFlush)}

	if n.WindowPanes > 1 && op.Kind != optimizer.OpAggSub {
		return nil, fmt.Errorf("windowed aggregation %s must lower to sub-aggregate + window", n.QueryName)
	}
	if op.Kind == optimizer.OpAggSuper {
		return r.buildSuperAggregate(n, cfg)
	}

	inRes := exec.ColsResolver(n.InBind, colNames(n.Inputs[0].OutCols))
	if n.PreFilter != nil {
		ce, err := r.compileExpr(n.PreFilter, inRes)
		if err != nil {
			return nil, err
		}
		cfg.PreFilter = ce.Row
		cfg.ColPreFilter = &ce
	}
	for _, g := range n.GroupBy {
		ce, err := r.compileExpr(g.Expr, inRes)
		if err != nil {
			return nil, err
		}
		cfg.GroupBy = append(cfg.GroupBy, ce.Row)
		cfg.ColGroupBy = append(cfg.ColGroupBy, ce)
	}
	if cfg.EpochIdx >= 0 {
		ewm, err := r.epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr))
		if err != nil {
			return nil, err
		}
		cfg.EpochOfWM = ewm
	}

	sub := op.Kind == optimizer.OpAggSub
	for _, a := range n.Aggs {
		var arg exec.EvalFunc
		var colArg *exec.ColExpr
		if a.Arg != nil {
			ce, err := r.compileExpr(a.Arg, inRes)
			if err != nil {
				return nil, err
			}
			arg, colArg = ce.Row, &ce
		}
		// cfg.ColArgs stays index-aligned with cfg.Aggs (nil = COUNT(*)).
		addAgg := func(fac exec.AccumFactory) {
			cfg.Aggs = append(cfg.Aggs, exec.AggColumn{Factory: fac, Arg: arg})
			cfg.ColArgs = append(cfg.ColArgs, colArg)
		}
		switch {
		case sub && momentParts(a.Spec) != nil:
			for _, accName := range momentSubAccums(a.Spec) {
				fac, err := exec.NewAccumFactory(accName)
				if err != nil {
					return nil, err
				}
				addAgg(fac)
			}
		case sub:
			fac, err := exec.NewAccumFactory(a.Spec.SubName)
			if err != nil {
				return nil, err
			}
			addAgg(fac)
		default:
			fac, err := exec.NewAccumFactory(a.Spec.Name)
			if err != nil {
				return nil, err
			}
			addAgg(fac)
		}
	}
	if sub {
		// Sub-aggregates emit groups ++ partials; HAVING and the final
		// projection wait for complete values in the super-aggregate
		// (Section 5.2.2).
		return exec.NewAggregate(cfg), nil
	}

	// Full aggregation: HAVING and post-projection over groups++aggs.
	rowNames := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		rowNames = append(rowNames, g.Name)
	}
	for _, a := range n.Aggs {
		rowNames = append(rowNames, a.Name)
	}
	if err := r.compileEmit(&cfg, n, nil, exec.ColsResolver("", rowNames)); err != nil {
		return nil, err
	}
	return exec.NewAggregate(cfg), nil
}

// compileEmit compiles an aggregate's HAVING and final projection over
// its groups++aggs row: the row closures and — batched — the column
// kernels a dense aggregate filters and projects an emitted epoch with.
// split rewrites references to moment aggregates into their
// reconstruction from the partial columns (nil: there are none).
func (r *Runner) compileEmit(cfg *exec.AggregateConfig, n *plan.Node, split map[string]gsql.AggSpec, rowRes exec.Resolver) error {
	if n.Having != nil {
		ce, err := r.compileExpr(rewriteSplitRefs(n.Having, split), rowRes)
		if err != nil {
			return err
		}
		cfg.Having = ce.Row
		cfg.ColHaving = &ce
	}
	for _, p := range n.Post {
		ce, err := r.compileExpr(rewriteSplitRefs(p.Expr, split), rowRes)
		if err != nil {
			return err
		}
		cfg.Post = append(cfg.Post, ce.Row)
		cfg.ColPost = append(cfg.ColPost, ce)
	}
	return nil
}

// buildSuperAggregate assembles the central half of a partial
// aggregation: it groups the sub-aggregates' outputs by the original
// group columns and merges partials with each aggregate's
// super-function (COUNT's partials SUM, MIN's MIN, and so on).
func (r *Runner) buildSuperAggregate(n *plan.Node, cfg exec.AggregateConfig) (*exec.Aggregate, error) {
	groupNames := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groupNames[i] = g.Name
	}
	inNames := append(append([]string{}, groupNames...), partialNames(n)...)
	inRes := exec.ColsResolver("", inNames)

	for _, name := range groupNames {
		ce, err := r.compileExpr(&gsql.ColumnRef{Name: name}, inRes)
		if err != nil {
			return nil, err
		}
		cfg.GroupBy = append(cfg.GroupBy, ce.Row)
		cfg.ColGroupBy = append(cfg.ColGroupBy, ce)
	}
	if cfg.EpochIdx >= 0 {
		ewm, err := r.epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr))
		if err != nil {
			return nil, err
		}
		cfg.EpochOfWM = ewm
	}

	split := make(map[string]gsql.AggSpec)
	var rowNames []string
	rowNames = append(rowNames, groupNames...)
	// Keeps cfg.ColArgs index-aligned with cfg.Aggs; every super-side
	// argument is a plain column reference over the partial row.
	addAgg := func(fac exec.AccumFactory, name string) error {
		ce, err := r.compileExpr(&gsql.ColumnRef{Name: name}, inRes)
		if err != nil {
			return err
		}
		cfg.Aggs = append(cfg.Aggs, exec.AggColumn{Factory: fac, Arg: ce.Row})
		cfg.ColArgs = append(cfg.ColArgs, &ce)
		return nil
	}
	for _, a := range n.Aggs {
		if parts := momentParts(a.Spec); parts != nil {
			split[strings.ToLower(a.Name)] = a.Spec
			for _, suffix := range parts {
				pn := a.Name + suffix
				fac, _ := exec.NewAccumFactory("SUM")
				if err := addAgg(fac, pn); err != nil {
					return nil, err
				}
				rowNames = append(rowNames, pn)
			}
			continue
		}
		fac, err := exec.NewAccumFactory(a.Spec.SuperName)
		if err != nil {
			return nil, err
		}
		if err := addAgg(fac, a.Name); err != nil {
			return nil, err
		}
		rowNames = append(rowNames, a.Name)
	}

	if err := r.compileEmit(&cfg, n, split, exec.ColsResolver("", rowNames)); err != nil {
		return nil, err
	}
	return exec.NewAggregate(cfg), nil
}

// buildWindow assembles the sliding-window merge over per-pane
// partials: mergers per partial column (SUM for moment parts, the
// super-function otherwise), then the original HAVING and projection
// with moment references reconstructed.
func (r *Runner) buildWindow(op *optimizer.Op, out exec.Consumer) (*exec.SlidingWindow, error) {
	n := op.Logical
	cfg := exec.SlidingWindowConfig{
		GroupCols:   len(n.GroupBy),
		EpochIdx:    n.EpochGroupCol(),
		Panes:       n.WindowPanes,
		Out:         out,
		OnPaneFlush: r.traceEmitter(op, trace.KindPaneFlush),
	}
	if cfg.EpochIdx < 0 {
		return nil, fmt.Errorf("window %s has no temporal pane column", n.QueryName)
	}
	ewm, err := r.epochOfWM(n.LineageOf(n.GroupBy[cfg.EpochIdx].Expr))
	if err != nil {
		return nil, err
	}
	cfg.PaneOfWM = ewm

	split := make(map[string]gsql.AggSpec)
	groupNames := make([]string, len(n.GroupBy))
	for i, g := range n.GroupBy {
		groupNames[i] = g.Name
	}
	rowNames := append([]string{}, groupNames...)
	for _, a := range n.Aggs {
		if parts := momentParts(a.Spec); parts != nil {
			split[strings.ToLower(a.Name)] = a.Spec
			for _, suffix := range parts {
				fac, _ := exec.NewAccumFactory("SUM")
				cfg.Mergers = append(cfg.Mergers, fac)
				rowNames = append(rowNames, a.Name+suffix)
			}
			continue
		}
		fac, err := exec.NewAccumFactory(a.Spec.SuperName)
		if err != nil {
			return nil, err
		}
		cfg.Mergers = append(cfg.Mergers, fac)
		rowNames = append(rowNames, a.Name)
	}
	rowRes := exec.ColsResolver("", rowNames)
	if n.Having != nil {
		f, err := exec.Compile(rewriteSplitRefs(n.Having, split), rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Having = f
	}
	for _, p := range n.Post {
		f, err := exec.Compile(rewriteSplitRefs(p.Expr, split), rowRes, r.params)
		if err != nil {
			return nil, err
		}
		cfg.Post = append(cfg.Post, f)
	}
	return exec.NewSlidingWindow(cfg), nil
}

// joinResolver resolves qualified references over the concatenation of
// the two join inputs.
func joinResolver(leftBind string, leftNames []string, rightBind string, rightNames []string) exec.Resolver {
	return func(ref *gsql.ColumnRef) (int, error) {
		if ref.Qualifier != "" {
			switch {
			case strings.EqualFold(ref.Qualifier, leftBind):
				for i, nm := range leftNames {
					if strings.EqualFold(nm, ref.Name) {
						return i, nil
					}
				}
			case strings.EqualFold(ref.Qualifier, rightBind):
				for i, nm := range rightNames {
					if strings.EqualFold(nm, ref.Name) {
						return len(leftNames) + i, nil
					}
				}
			default:
				return 0, fmt.Errorf("exec: unknown qualifier %q", ref.Qualifier)
			}
			return 0, fmt.Errorf("exec: unknown column %s", ref)
		}
		found := -1
		for i, nm := range leftNames {
			if strings.EqualFold(nm, ref.Name) {
				found = i
			}
		}
		for i, nm := range rightNames {
			if strings.EqualFold(nm, ref.Name) {
				if found >= 0 {
					return 0, fmt.Errorf("exec: ambiguous column %q", ref.Name)
				}
				found = len(leftNames) + i
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("exec: unknown column %q", ref.Name)
		}
		return found, nil
	}
}

func (r *Runner) buildJoin(op *optimizer.Op, out exec.Consumer) ([]exec.Consumer, error) {
	n := op.Logical
	leftNames := colNames(n.Inputs[0].OutCols)
	rightNames := colNames(n.Inputs[1].OutCols)
	leftRes := exec.ColsResolver(n.LeftBind, leftNames)
	rightRes := exec.ColsResolver(n.RightBind, rightNames)

	cfg := exec.JoinConfig{Type: n.JoinType, Out: out, SizeHint: r.sizeHints[op.ID]}
	cfg.Left.Width, cfg.Right.Width = len(leftNames), len(rightNames)
	cfg.Left.TemporalIdx, cfg.Right.TemporalIdx = n.TemporalKey, n.TemporalKey

	for i := range n.LeftKeys {
		lc, err := r.compileExpr(n.LeftKeys[i], leftRes)
		if err != nil {
			return nil, err
		}
		rc, err := r.compileExpr(n.RightKeys[i], rightRes)
		if err != nil {
			return nil, err
		}
		cfg.Left.Keys = append(cfg.Left.Keys, lc.Row)
		cfg.Right.Keys = append(cfg.Right.Keys, rc.Row)
		cfg.Left.ColKeys = append(cfg.Left.ColKeys, lc)
		cfg.Right.ColKeys = append(cfg.Right.ColKeys, rc)
	}
	lwm, err := r.epochOfWM(n.SideLineage(0, n.LeftKeys[n.TemporalKey]))
	if err != nil {
		return nil, err
	}
	rwm, err := r.epochOfWM(n.SideLineage(1, n.RightKeys[n.TemporalKey]))
	if err != nil {
		return nil, err
	}
	cfg.Left.MinFutureKey, cfg.Right.MinFutureKey = lwm, rwm

	// Residual and projection over left ++ right: the row closures and —
	// batched — the column kernels a word-layout join runs over a batch's
	// gathered matches.
	comb := joinResolver(n.LeftBind, leftNames, n.RightBind, rightNames)
	if n.Residual != nil {
		ce, err := r.compileExpr(n.Residual, comb)
		if err != nil {
			return nil, err
		}
		cfg.Residual = ce.Row
		cfg.ColResidual = &ce
	}
	for _, p := range n.JoinProjs {
		ce, err := r.compileExpr(p.Expr, comb)
		if err != nil {
			return nil, err
		}
		cfg.Projs = append(cfg.Projs, ce.Row)
		cfg.ColProjs = append(cfg.ColProjs, ce)
	}
	j := exec.NewJoin(cfg)
	r.sized = append(r.sized, sizedOp{op.ID, j.PaneHighWater, j})
	// Side filters split out of the WHERE clause apply before the join
	// tables; interpose lightweight local filters on the ports.
	left, right := exec.Consumer(j.LeftIn()), exec.Consumer(j.RightIn())
	if n.LeftFilter != nil {
		fp, err := r.sideFilter(n.LeftFilter, leftRes, left)
		if err != nil {
			return nil, err
		}
		left = fp
	}
	if n.RightFilter != nil {
		fp, err := r.sideFilter(n.RightFilter, rightRes, right)
		if err != nil {
			return nil, err
		}
		right = fp
	}
	return []exec.Consumer{left, right}, nil
}

// sideFilter is a join side's pushed-down WHERE conjunct in front of
// its port.
func (r *Runner) sideFilter(e gsql.Expr, res exec.Resolver, port exec.Consumer) (*exec.FilterProject, error) {
	ce, err := r.compileExpr(e, res)
	if err != nil {
		return nil, err
	}
	fp := &exec.FilterProject{Filter: ce.Row, Out: port}
	fp.ColFilter = &ce
	return fp, nil
}
