package exec

// Column-compiled expressions. CompileCol lowers a gsql expression to
// a ColExpr: the ordinary row closure (always present, the oracle)
// plus optional vectorized kernels that evaluate the whole column in
// one call when the input batch is all-uint (ColBatch.AllUint).
//
// Kernels are built by composing column getters: a column reference
// returns the column's payload slice directly (zero copy), constants
// fold at compile time, and each operator node owns a private scratch
// vector it refills per call — so a compiled kernel allocates nothing
// in steady state. Whether a kernel exists is decided here, once, by
// the expression's shape; a kernel that exists answers every batch,
// with what the row evaluator yields, value for value, kind for kind
// (KindUint, the Int rows of a subtraction, or Bool for predicates).
// It exists for:
//
//   - uint vectors (ColExpr.U): column refs, uint literals and
//     parameters, ABS, bitwise not, +, -, *, &, |, ^, <<, >> (shifts
//     mask to 6 bits exactly like evalUintOp), and / and % with a
//     non-zero constant divisor. Division by a non-constant expression
//     is excluded (a zero divisor yields NULL), as are unary minus and
//     anything with a float in it.
//   - truth vectors (ColExpr.Truth): comparisons over two uint
//     kernels, AND/OR/NOT composition, and the truthiness (!= 0) of
//     any uint kernel. evalBinary evaluates both operands of AND/OR
//     before testing them, so elementwise &/| is exact, not an
//     approximation of short-circuit evaluation.
//
// Subtraction is the one operator whose result kind depends on the
// data: l - r is KindUint unless r > l, where evalUintOp yields
// sqlval.Int(int64(l - r)) — the same word, with the borrow for its
// kind. A non-constant subtraction is therefore may-be-Int: its kernel
// yields the words plus an Int bitmap marking the rows that borrowed
// (ColVec.Int's form). Three consumers accept such an operand: the
// expression root, whose ColExpr hands the bitmap out with the words; a
// comparison, which compares an Int row as evalBinary does; and
// truthiness, which is word != 0 for either kind. Any other parent of a may-be-Int operand
// compiles no kernel. Constant operands fold at compile time (5 - 3 is
// a constant, 3 - 5 has no kernel).
//
// Anything outside the whitelist simply compiles with nil kernels and
// the operators fall back to the pivoted row path.

import (
	"math/bits"
	"strings"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// ColExpr is a column-compiled expression. Row is always set and is
// the semantic oracle; U and Truth, when non-nil, are only valid on
// non-empty batches for which AllUint() holds.
type ColExpr struct {
	// Row evaluates one tuple, identically to Compile's closure.
	Row EvalFunc
	// U returns a read-only vector v with len == cb.Len where
	// sqlval.Uint(v[i]) == Row(row i) exactly — or, for a row the Int
	// bitmap (ints) marks, sqlval.Int(int64(v[i])). The vector may
	// alias a column of cb or scratch owned by this ColExpr: it is valid
	// only until the next U/Truth call on this ColExpr or until cb is
	// recycled, and must not be mutated.
	U func(cb *ColBatch) []uint64
	// Truth returns a read-only 0/1 vector where v[i] != 0 iff
	// Row(row i).AsBool(). Same lifetime rules as U.
	Truth func(cb *ColBatch) []uint64
	// Const is set when the expression folds to a single uint value
	// (U then returns a constant-filled vector).
	Const *uint64
	// ints is set when the expression may be Int (a subtraction at its
	// root): it returns the Int bitmap of the vector U last returned,
	// nil when no row of it is an Int.
	ints func() []uint64
	// reads is the set of input columns the expression mentions (colBit);
	// ref is 1 + the column a bare reference forwards, 0 for anything
	// computed. Both hold with or without kernels.
	reads uint64
	ref   int
}

// CompileCol compiles e into a ColExpr. The error cases are exactly
// Compile's; kernel derivation never fails, it just yields nil
// kernels for unsupported shapes.
func CompileCol(e gsql.Expr, resolve Resolver, params Params) (ColExpr, error) {
	row, err := Compile(e, resolve, params)
	if err != nil {
		return ColExpr{}, err
	}
	k := colKernel(e, resolve, params)
	return ColExpr{Row: row, U: k.u, Truth: truthOf(k), Const: k.cnst, ints: k.ints, reads: k.reads, ref: k.ref}, nil
}

// vecFn is a kernel: a whole-column producer over an all-uint batch.
type vecFn = func(cb *ColBatch) []uint64

// colKer is the internal kernel form: a uint-value vector producer, a
// 0/1 truth vector producer, or both; cnst marks compile-time
// constants for folding, and ints, set only on a may-be-Int node, gets
// the Int bitmap of u's last vector. reads and ref are ColExpr's, and
// are set whether or not a kernel exists.
type colKer struct {
	u, b  vecFn
	cnst  *uint64
	ints  func() []uint64
	reads uint64
	ref   int
}

// uintOperand reports whether k can feed a parent that takes only
// uints: a kernel exists, and it is never Int.
func (k colKer) uintOperand() bool { return k.u != nil && k.ints == nil }

// intsNow calls a may-be-Int node's bitmap getter; nil for any other.
func intsNow(ints func() []uint64) []uint64 {
	if ints == nil {
		return nil
	}
	return ints()
}

// constKernel fills a private scratch vector with c.
func constKernel(c uint64) colKer {
	var buf []uint64
	u := c
	return colKer{
		u: func(cb *ColBatch) []uint64 {
			buf = growUints(buf, cb.Len)
			for i := range buf {
				buf[i] = u
			}
			return buf
		},
		cnst: &u,
	}
}

// foldConst is the kernel of a constant-folded node: the value when it
// stayed a uint (5 - 3), none when it did not (3 - 5, 1 / 0).
func foldConst(v sqlval.Value) colKer {
	if u, ok := v.AsUint(); ok && v.Kind() == sqlval.KindUint {
		return constKernel(u)
	}
	return colKer{}
}

// mapKernel is the elementwise kernel over one operand: loop fills dst
// from v.
func mapKernel(x vecFn, loop func(dst, v []uint64)) vecFn {
	var buf []uint64
	return func(cb *ColBatch) []uint64 {
		v := x(cb)
		buf = growUints(buf, len(v))
		loop(buf, v)
		return buf
	}
}

// zipKernel is the elementwise kernel of a two-operand node whose
// operands are never Int (zipWords).
func zipKernel(op gsql.BinOp, l, r vecFn) vecFn {
	var buf []uint64
	return func(cb *ColBatch) []uint64 {
		lv, rv := l(cb), r(cb)
		buf = growUints(buf, len(lv))
		zipWords(op, buf, lv, rv)
		return buf
	}
}

// zipWords fills dst with lv op rv. The arithmetic loops match
// evalUintOp on two uints, the comparisons (0/1) evalBinary's
// Equal/Compare on two KindUint values, and AND/OR work on truth
// vectors.
//
//qap:hot
func zipWords(op gsql.BinOp, dst, lv, rv []uint64) {
	switch op {
	case gsql.OpAdd:
		for i := range lv {
			dst[i] = lv[i] + rv[i]
		}
	case gsql.OpMul:
		for i := range lv {
			dst[i] = lv[i] * rv[i]
		}
	case gsql.OpBitAnd, gsql.OpAnd:
		for i := range lv {
			dst[i] = lv[i] & rv[i]
		}
	case gsql.OpBitOr, gsql.OpOr:
		for i := range lv {
			dst[i] = lv[i] | rv[i]
		}
	case gsql.OpBitXor:
		for i := range lv {
			dst[i] = lv[i] ^ rv[i]
		}
	case gsql.OpShl:
		for i := range lv {
			dst[i] = lv[i] << (rv[i] & 63)
		}
	case gsql.OpShr:
		for i := range lv {
			dst[i] = lv[i] >> (rv[i] & 63)
		}
	case gsql.OpEq:
		for i := range lv {
			dst[i] = b2u(lv[i] == rv[i])
		}
	case gsql.OpNeq:
		for i := range lv {
			dst[i] = b2u(lv[i] != rv[i])
		}
	case gsql.OpLt:
		for i := range lv {
			dst[i] = b2u(lv[i] < rv[i])
		}
	case gsql.OpLe:
		for i := range lv {
			dst[i] = b2u(lv[i] <= rv[i])
		}
	case gsql.OpGt:
		for i := range lv {
			dst[i] = b2u(lv[i] > rv[i])
		}
	case gsql.OpGe:
		for i := range lv {
			dst[i] = b2u(lv[i] >= rv[i])
		}
	}
}

// cmpKernel is a comparison with a may-be-Int operand: rows of uints
// compare as words (zipWords), and the rows a subtraction marked Int —
// only a batch where one borrowed has them — through evalBinary itself.
func cmpKernel(op gsql.BinOp, lk, rk colKer) vecFn {
	var buf []uint64
	return func(cb *ColBatch) []uint64 {
		lv, rv := lk.u(cb), rk.u(cb)
		buf = growUints(buf, len(lv))
		zipWords(op, buf, lv, rv)
		li, ri := intsNow(lk.ints), intsNow(rk.ints)
		if li == nil && ri == nil {
			return buf
		}
		for i := range lv {
			if l, r := bitAt(li, i), bitAt(ri, i); l || r {
				buf[i] = b2u(evalBinary(op, wordValue(lv[i], l), wordValue(rv[i], r)).AsBool())
			}
		}
		return buf
	}
}

// truthOf returns the best truth kernel for a subexpression: its own
// boolean kernel, or the truthiness of its uint kernel (AsBool is
// word != 0 on KindUint and KindInt alike).
func truthOf(k colKer) vecFn {
	if k.b != nil || k.u == nil {
		return k.b
	}
	return mapKernel(k.u, func(dst, v []uint64) {
		for i, x := range v {
			dst[i] = b2u(x != 0)
		}
	})
}

// colKernel derives vector kernels for e, returning a colKer without
// kernels for unsupported expressions. It mirrors Compile's structure;
// resolve errors yield no kernel here and surface through Compile.
func colKernel(e gsql.Expr, resolve Resolver, params Params) colKer {
	switch t := e.(type) {
	case *gsql.ColumnRef:
		idx, err := resolve(t)
		if err != nil {
			return colKer{}
		}
		return colKer{
			u:     func(cb *ColBatch) []uint64 { return cb.Cols[idx].U64[:cb.Len] },
			reads: colBit(idx),
			ref:   idx + 1,
		}
	case *gsql.NumberLit:
		if t.IsFloat {
			return colKer{}
		}
		return constKernel(t.U)
	case *gsql.ParamRef:
		v, ok := params.Get(t.Name)
		if !ok {
			return colKer{}
		}
		return foldConst(v)
	case *gsql.Unary:
		x := colKernel(t.X, resolve, params)
		k := colUnaryKernel(t.Op, x)
		k.reads = x.reads
		return k
	case *gsql.Binary:
		l, r := colKernel(t.L, resolve, params), colKernel(t.R, resolve, params)
		k := colBinaryKernel(t.Op, l, r)
		k.reads = l.reads | r.reads
		return k
	case *gsql.FuncCall:
		// ABS is the identity on uint values (evalAbs returns the
		// operand unchanged), so it inherits a uint argument's kernel.
		abs := strings.EqualFold(t.Name, "ABS") && len(t.Args) == 1
		var k colKer
		for _, a := range t.Args {
			x := colKernel(a, resolve, params)
			k.reads |= x.reads
			if abs && x.uintOperand() {
				k.u, k.cnst = x.u, x.cnst
			}
		}
		return k
	default:
		return colKer{}
	}
}

// colBit is column idx's bit in a read set; columns past 62 share the
// last bit, which errs towards "read".
func colBit(idx int) uint64 { return 1 << min(idx, 63) }

func colUnaryKernel(op gsql.UnaryOp, k colKer) colKer {
	switch op {
	case gsql.OpBitNot:
		if !k.uintOperand() {
			return colKer{}
		}
		if k.cnst != nil {
			return constKernel(^*k.cnst)
		}
		return colKer{u: mapKernel(k.u, func(dst, v []uint64) {
			for i, w := range v {
				dst[i] = ^w
			}
		})}
	case gsql.OpNot:
		tr := truthOf(k)
		if tr == nil {
			return colKer{}
		}
		return colKer{b: mapKernel(tr, func(dst, v []uint64) {
			for i, w := range v {
				dst[i] = 1 - w
			}
		})}
	default: // OpNeg yields KindInt; no kernel.
		return colKer{}
	}
}

func colBinaryKernel(op gsql.BinOp, lk, rk colKer) colKer {
	switch op {
	case gsql.OpAnd, gsql.OpOr:
		lt, rt := truthOf(lk), truthOf(rk)
		if lt == nil || rt == nil {
			return colKer{}
		}
		return colKer{b: zipKernel(op, lt, rt)}
	case gsql.OpEq, gsql.OpNeq, gsql.OpLt, gsql.OpLe, gsql.OpGt, gsql.OpGe:
		switch {
		case lk.u == nil || rk.u == nil:
			return colKer{}
		case lk.ints == nil && rk.ints == nil:
			return colKer{b: zipKernel(op, lk.u, rk.u)}
		default:
			return colKer{b: cmpKernel(op, lk, rk)}
		}
	case gsql.OpAdd, gsql.OpSub, gsql.OpMul, gsql.OpBitAnd, gsql.OpBitOr, gsql.OpBitXor, gsql.OpShl, gsql.OpShr:
		if !lk.uintOperand() || !rk.uintOperand() {
			return colKer{}
		}
		if lk.cnst != nil && rk.cnst != nil {
			return foldConst(evalUintOp(op, *lk.cnst, *rk.cnst))
		}
		if op == gsql.OpSub {
			return subKernel(lk.u, rk.u)
		}
		return colKer{u: zipKernel(op, lk.u, rk.u)}
	case gsql.OpDiv, gsql.OpMod:
		// Only a non-zero constant divisor is kernelable: a zero
		// divisor yields NULL, which a uint vector cannot carry.
		if !lk.uintOperand() || rk.cnst == nil || *rk.cnst == 0 {
			return colKer{}
		}
		if lk.cnst != nil {
			return foldConst(evalUintOp(op, *lk.cnst, *rk.cnst))
		}
		d, mod := *rk.cnst, op == gsql.OpMod
		return colKer{u: mapKernel(lk.u, func(dst, v []uint64) {
			if mod {
				for i, w := range v {
					dst[i] = w % d
				}
			} else {
				for i, w := range v {
					dst[i] = w / d
				}
			}
		})}
	default:
		return colKer{}
	}
}

// subKernel is the may-be-Int l - r: the words, and the bitmap of the
// rows that borrowed, built only for a batch where one did.
func subKernel(l, r vecFn) colKer {
	var buf, bm, cur []uint64
	return colKer{
		u: func(cb *ColBatch) []uint64 {
			lv, rv := l(cb), r(cb)
			buf, cur = growUints(buf, len(lv)), nil
			if subWords(buf, lv, rv) {
				bm = growUints(bm, (len(lv)+63)>>6)
				clear(bm)
				for i := range lv {
					if rv[i] > lv[i] {
						bm[i>>6] |= 1 << uint(i&63)
					}
				}
				cur = bm
			}
			return buf
		},
		ints: func() []uint64 { return cur },
	}
}

// subWords computes every difference as a word — evalUintOp's bits,
// whichever the kind — and reports whether some row borrowed.
//
//qap:hot
func subWords(dst, lv, rv []uint64) bool {
	var borrow uint64
	for i := range lv {
		d, b := bits.Sub64(lv[i], rv[i], 0)
		dst[i] = d
		borrow |= b
	}
	return borrow != 0
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
