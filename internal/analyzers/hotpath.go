package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolleak checks the pooled-batch ownership contract from
// internal/exec: every container acquired with exec.GetBatch must be
// released with exec.PutBatch, and every column batch acquired with
// exec.GetColBatch with exec.PutColBatch — or have its ownership
// transferred by storing it, returning it, or sending it — on every
// control-flow path. Passing a live batch as a plain call argument is a read, not
// a transfer: the pool contract says consumers copy what they keep,
// so the producer still owes the PutBatch.
//
// The analysis is a per-function walk over the statement tree with a
// possibly-live-at-exit state: branches fork the live set and exits
// (returns and the fall-off end) report any batch still owed. It is
// deliberately conservative about transfers — a batch stored into a
// struct, captured by a closure, or handed to a goroutine stops being
// tracked rather than reported — so a finding means a path where the
// container is provably dropped.
var Poolleak = &Analyzer{
	Name: "poolleak",
	Doc:  "flags pooled batches (exec.GetBatch, exec.GetColBatch) not returned via PutBatch / PutColBatch on every path",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &leakWalker{p: p, reported: map[*types.Var]bool{}}
				s, term := w.stmts(fd.Body.List, leakState{})
				if !term {
					w.exit(s, fd.Body.Rbrace)
				}
			}
		}
	},
}

// Hotalloc flags heap-allocating expressions inside functions whose
// doc comment carries the //qap:hot directive — the batched operator
// push paths and the cluster's splitter, sinks and round executor,
// which run once per tuple, batch or round and must stay
// allocation-free to keep the benchmark's allocs_per_row bound. Flagged: make, new, slice and map composite
// literals, address-taken composite literals, and closures. Value
// struct literals and append are not flagged (no fresh heap cell in
// the steady state). Deliberate one-time or amortized allocations
// carry //qap:allow hotalloc with a reason.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags heap-allocating expressions inside //qap:hot functions",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHot(fd) {
					continue
				}
				name := fd.Name.Name
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch e := n.(type) {
					case *ast.UnaryExpr:
						if e.Op == token.AND {
							if _, ok := e.X.(*ast.CompositeLit); ok {
								p.Reportf(e.Pos(), "&%s allocates in hot function %s — reuse a pooled or preallocated value", typeLabel(p, e.X), name)
								return false
							}
						}
					case *ast.CompositeLit:
						if isRefLit(p.Info.TypeOf(e)) {
							p.Reportf(e.Pos(), "%s literal allocates its backing store in hot function %s", typeLabel(p, e), name)
						}
					case *ast.FuncLit:
						p.Reportf(e.Pos(), "closure allocates in hot function %s — hoist it out of the hot path", name)
					case *ast.CallExpr:
						if id, ok := e.Fun.(*ast.Ident); ok {
							if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin && (id.Name == "make" || id.Name == "new") {
								p.Reportf(e.Pos(), "%s allocates in hot function %s", id.Name, name)
							}
						}
					}
					return true
				})
			}
		}
	},
}

// isHot reports whether the function's doc comment carries the
// //qap:hot directive.
func isHot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "qap:hot" || strings.HasPrefix(text, "qap:hot ") {
			return true
		}
	}
	return false
}

// isRefLit reports whether a composite literal of type t allocates a
// backing store (slice or map); struct and array literals are values.
func isRefLit(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// leakState maps a live (acquired, not yet released or transferred)
// batch variable to the position of its GetBatch call.
type leakState map[*types.Var]token.Pos

func (s leakState) clone() leakState {
	c := leakState{}
	for v, pos := range s { //qap:allow maprange -- building a copy; order-insensitive
		c[v] = pos
	}
	return c
}

// union merges b into a: a variable possibly live on either branch is
// possibly live after the join.
func union(a, b leakState) leakState {
	for v, pos := range b { //qap:allow maprange -- set union; order-insensitive
		if _, ok := a[v]; !ok {
			a[v] = pos
		}
	}
	return a
}

// leakWalker carries one function's poolleak analysis.
type leakWalker struct {
	p        *Pass
	reported map[*types.Var]bool
}

// stmts flows the live set through a statement list. The returned
// bool means every path through the list reached an exit, so nothing
// flows past it.
func (w *leakWalker) stmts(list []ast.Stmt, s leakState) (leakState, bool) {
	for _, st := range list {
		var term bool
		s, term = w.stmt(st, s)
		if term {
			return s, true
		}
	}
	return s, false
}

func (w *leakWalker) stmt(st ast.Stmt, s leakState) (leakState, bool) {
	switch x := st.(type) {
	case *ast.AssignStmt:
		w.assign(x, s)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					if w.isAcquire(val) {
						if i < len(vs.Names) {
							if v := w.varObj(vs.Names[i]); v != nil {
								s[v] = val.Pos()
							}
						}
						continue
					}
					w.scan(val, s, true)
				}
			}
		}
	case *ast.ExprStmt:
		w.scan(x.X, s, false)
	case *ast.SendStmt:
		w.scan(x.Chan, s, false)
		w.scan(x.Value, s, true)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.scan(r, s, true)
		}
		w.exit(s, x.Pos())
		return leakState{}, true
	case *ast.IfStmt:
		if x.Init != nil {
			s, _ = w.stmt(x.Init, s)
		}
		w.scan(x.Cond, s, false)
		thenS, thenT := w.stmts(x.Body.List, s.clone())
		elseS, elseT := s, false
		if x.Else != nil {
			elseS, elseT = w.stmt(x.Else, s.clone())
		}
		switch {
		case thenT && elseT:
			return leakState{}, true
		case thenT:
			return elseS, false
		case elseT:
			return thenS, false
		default:
			return union(thenS, elseS), false
		}
	case *ast.BlockStmt:
		return w.stmts(x.List, s)
	case *ast.ForStmt:
		if x.Init != nil {
			s, _ = w.stmt(x.Init, s)
		}
		if x.Cond != nil {
			w.scan(x.Cond, s, false)
		}
		bodyS, bodyT := w.stmts(x.Body.List, s.clone())
		if !bodyT && x.Post != nil {
			bodyS, _ = w.stmt(x.Post, bodyS)
		}
		return union(s, bodyS), false
	case *ast.RangeStmt:
		w.scan(x.X, s, false)
		bodyS, _ := w.stmts(x.Body.List, s.clone())
		return union(s, bodyS), false
	case *ast.SwitchStmt:
		if x.Init != nil {
			s, _ = w.stmt(x.Init, s)
		}
		if x.Tag != nil {
			w.scan(x.Tag, s, false)
		}
		return w.clauses(x.Body.List, s)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s, _ = w.stmt(x.Init, s)
		}
		if as, ok := x.Assign.(*ast.AssignStmt); ok {
			for _, r := range as.Rhs {
				w.scan(r, s, false)
			}
		} else if es, ok := x.Assign.(*ast.ExprStmt); ok {
			w.scan(es.X, s, false)
		}
		return w.clauses(x.Body.List, s)
	case *ast.SelectStmt:
		if len(x.Body.List) == 0 {
			return s, false
		}
		merged := leakState{}
		allTerm := true
		for _, cc := range x.Body.List {
			c := cc.(*ast.CommClause)
			cs := s.clone()
			if c.Comm != nil {
				cs, _ = w.stmt(c.Comm, cs)
			}
			cs, ct := w.stmts(c.Body, cs)
			if !ct {
				merged = union(merged, cs)
				allTerm = false
			}
		}
		if allTerm {
			return leakState{}, true
		}
		return merged, false
	case *ast.DeferStmt:
		if w.isPutBatch(x.Call) {
			w.release(x.Call.Args[0], s)
			return s, false
		}
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure that puts a batch releases it on
			// every exit; other captured batches escape.
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && w.isPutBatch(call) {
					w.release(call.Args[0], s)
				}
				return true
			})
			w.escapeAll(fl.Body, s)
			return s, false
		}
		w.escapeAll(x.Call, s)
	case *ast.GoStmt:
		w.escapeAll(x.Call, s)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, s)
	}
	return s, false
}

// clauses flows each switch clause from a fork of the incoming state.
// The incoming state stays in the merge: an expression switch may
// match no case.
func (w *leakWalker) clauses(list []ast.Stmt, s leakState) (leakState, bool) {
	merged := s.clone()
	allTerm := len(list) > 0
	hasDefault := false
	for _, cc := range list {
		c, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if c.List == nil {
			hasDefault = true
		}
		for _, e := range c.List {
			w.scan(e, s, false)
		}
		cs, ct := w.stmts(c.Body, s.clone())
		if !ct {
			merged = union(merged, cs)
			allTerm = false
		}
	}
	if allTerm && hasDefault {
		return leakState{}, true
	}
	return merged, false
}

// assign handles acquires (v := exec.GetBatch(), v := append(exec.GetBatch(), ...)),
// neutral self-appends (v = append(v, ...)), and transfers (any live
// batch on the right of an assignment escapes into the destination).
func (w *leakWalker) assign(x *ast.AssignStmt, s leakState) {
	pairwise := len(x.Lhs) == len(x.Rhs)
	for i, rhs := range x.Rhs {
		var lid *ast.Ident
		if pairwise {
			lid, _ = x.Lhs[i].(*ast.Ident)
		}
		if w.isAcquire(rhs) {
			if lid != nil && lid.Name != "_" {
				if v := w.varObj(lid); v != nil {
					if pos, live := s[v]; live && !w.reported[v] {
						w.reported[v] = true
						w.p.Reportf(pos, "pooled batch %s overwritten before PutBatch — the container is lost", v.Name())
					}
					s[v] = rhs.Pos()
				}
			}
			continue
		}
		if lid != nil && w.isSelfAppend(lid, rhs) {
			continue // v = append(v, ...) grows the same container
		}
		w.scan(rhs, s, true)
	}
	for _, lhs := range x.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			w.scan(lhs, s, false)
		}
	}
}

// scan walks an expression. transfer marks a context where a live
// batch identifier escapes (stored, returned, sent, address taken) —
// ownership moves and we stop tracking it. Plain call arguments are
// reads under the pool contract, so they do not transfer.
func (w *leakWalker) scan(e ast.Expr, s leakState, transfer bool) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		if transfer {
			if v := w.varObj(x); v != nil {
				delete(s, v)
			}
		}
	case *ast.ParenExpr:
		w.scan(x.X, s, transfer)
	case *ast.CallExpr:
		if w.isPutBatch(x) {
			w.release(x.Args[0], s)
			return
		}
		w.scan(x.Fun, s, false)
		for _, a := range x.Args {
			w.scan(a, s, false)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			w.scan(el, s, true)
		}
	case *ast.UnaryExpr:
		w.scan(x.X, s, transfer || x.Op == token.AND)
	case *ast.StarExpr:
		w.scan(x.X, s, false)
	case *ast.SelectorExpr:
		w.scan(x.X, s, false)
	case *ast.IndexExpr:
		w.scan(x.X, s, false)
		w.scan(x.Index, s, false)
	case *ast.SliceExpr:
		// A slice of the container aliases its backing store, so it
		// transfers exactly when the slice expression itself does.
		w.scan(x.X, s, transfer)
		w.scan(x.Low, s, false)
		w.scan(x.High, s, false)
		w.scan(x.Max, s, false)
	case *ast.BinaryExpr:
		w.scan(x.X, s, false)
		w.scan(x.Y, s, false)
	case *ast.TypeAssertExpr:
		w.scan(x.X, s, transfer)
	case *ast.FuncLit:
		w.escapeAll(x.Body, s)
	}
}

// escapeAll stops tracking every live batch mentioned under n —
// goroutines and closures may retain what they capture.
func (w *leakWalker) escapeAll(n ast.Node, s leakState) {
	ast.Inspect(n, func(nn ast.Node) bool {
		if id, ok := nn.(*ast.Ident); ok {
			if v := w.varObj(id); v != nil {
				delete(s, v)
			}
		}
		return true
	})
}

// exit reports every batch still live at a function exit.
func (w *leakWalker) exit(s leakState, at token.Pos) {
	line := w.p.Fset.Position(at).Line
	for v, acq := range s { //qap:allow maprange -- each var reports once; RunAll sorts findings
		if w.reported[v] {
			continue
		}
		w.reported[v] = true
		w.p.Reportf(acq, "pooled batch %s acquired here may leak: no %s on the path to the exit at line %d", v.Name(), putName(v), line)
	}
}

// release drops the batch named by arg (if tracked) from the live set.
func (w *leakWalker) release(arg ast.Expr, s leakState) {
	if id, ok := unparen(arg).(*ast.Ident); ok {
		if v := w.varObj(id); v != nil {
			delete(s, v)
		}
	}
}

// varObj resolves an identifier to a live-trackable variable object.
func (w *leakWalker) varObj(id *ast.Ident) *types.Var {
	v, _ := w.p.Info.ObjectOf(id).(*types.Var)
	return v
}

// isAcquire reports whether e yields a fresh pooled container:
// exec.GetBatch() itself, or append(exec.GetBatch(), ...) which grows
// the fresh container in place.
func (w *leakWalker) isAcquire(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if w.isExecFunc(call, "GetBatch") || w.isExecFunc(call, "GetColBatch") {
		return true
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if _, builtin := w.p.Info.Uses[id].(*types.Builtin); builtin {
			return w.isAcquire(call.Args[0])
		}
	}
	return false
}

// isSelfAppend reports whether rhs is append(lid, ...): the assigned
// container is the (possibly regrown) same one, so liveness persists.
func (w *leakWalker) isSelfAppend(lid *ast.Ident, rhs ast.Expr) bool {
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, builtin := w.p.Info.Uses[id].(*types.Builtin); !builtin {
		return false
	}
	first, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	lv, fv := w.varObj(lid), w.varObj(first)
	return lv != nil && lv == fv
}

func (w *leakWalker) isPutBatch(call *ast.CallExpr) bool {
	return len(call.Args) == 1 && (w.isExecFunc(call, "PutBatch") || w.isExecFunc(call, "PutColBatch"))
}

// putName names the release a tracked variable is owed: a row batch is
// a slice, a pooled column batch a pointer.
func putName(v *types.Var) string {
	if _, ok := v.Type().Underlying().(*types.Pointer); ok {
		return "PutColBatch"
	}
	return "PutBatch"
}

// isExecFunc reports whether the call targets the named function of a
// package named exec (the pool lives in qap/internal/exec; matching
// on the package name keeps the analyzer testable in fixture modules).
func (w *leakWalker) isExecFunc(call *ast.CallExpr, name string) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := w.p.Info.ObjectOf(id).(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Name() == "exec"
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
