package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

// EvalFunc evaluates a compiled expression against a tuple.
type EvalFunc func(Tuple) sqlval.Value

// Resolver maps a column reference to its position in the input tuple.
type Resolver func(*gsql.ColumnRef) (int, error)

// Params supplies values for #NAME# placeholders at plan time.
type Params map[string]sqlval.Value

// Get looks up a parameter case-insensitively.
func (p Params) Get(name string) (sqlval.Value, bool) {
	if p == nil {
		return sqlval.Null, false
	}
	if v, ok := p[name]; ok {
		return v, true
	}
	// Case-insensitive fallback over sorted keys: two keys that fold
	// to the same name must resolve identically on every run.
	keys := make([]string, 0, len(p))
	for k := range p { //qap:allow maprange -- keys collected then sorted below
		if strings.EqualFold(k, name) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return sqlval.Null, false
	}
	sort.Strings(keys)
	return p[keys[0]], true
}

// ColsResolver builds a Resolver over a list of column names with an
// optional binding qualifier.
func ColsResolver(binding string, names []string) Resolver {
	return func(ref *gsql.ColumnRef) (int, error) {
		if ref.Qualifier != "" && binding != "" && !strings.EqualFold(ref.Qualifier, binding) {
			return 0, fmt.Errorf("exec: unknown qualifier %q", ref.Qualifier)
		}
		for i, n := range names {
			if strings.EqualFold(n, ref.Name) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("exec: unknown column %q", ref.Name)
	}
}

// Compile translates an expression into an evaluation function.
// Aggregate calls are rejected: callers extract them first (the plan
// builder already rewrote aggregate expressions into references).
func Compile(e gsql.Expr, resolve Resolver, params Params) (EvalFunc, error) {
	switch t := e.(type) {
	case *gsql.ColumnRef:
		idx, err := resolve(t)
		if err != nil {
			return nil, err
		}
		return func(tp Tuple) sqlval.Value { return tp[idx] }, nil
	case *gsql.NumberLit:
		var v sqlval.Value
		if t.IsFloat {
			v = sqlval.Float(t.F)
		} else {
			v = sqlval.Uint(t.U)
		}
		return func(Tuple) sqlval.Value { return v }, nil
	case *gsql.StringLit:
		v := sqlval.Str(t.S)
		return func(Tuple) sqlval.Value { return v }, nil
	case *gsql.ParamRef:
		v, ok := params.Get(t.Name)
		if !ok {
			return nil, fmt.Errorf("exec: unbound parameter #%s#", t.Name)
		}
		return func(Tuple) sqlval.Value { return v }, nil
	case *gsql.Unary:
		x, err := Compile(t.X, resolve, params)
		if err != nil {
			return nil, err
		}
		op := t.Op
		return func(tp Tuple) sqlval.Value { return evalUnary(op, x(tp)) }, nil
	case *gsql.Binary:
		l, err := Compile(t.L, resolve, params)
		if err != nil {
			return nil, err
		}
		r, err := Compile(t.R, resolve, params)
		if err != nil {
			return nil, err
		}
		op := t.Op
		return func(tp Tuple) sqlval.Value { return evalBinary(op, l(tp), r(tp)) }, nil
	case *gsql.FuncCall:
		if gsql.IsAggregateName(t.Name) {
			return nil, fmt.Errorf("exec: aggregate %s cannot be compiled as a scalar", t.Name)
		}
		if strings.EqualFold(t.Name, "ABS") && len(t.Args) == 1 {
			x, err := Compile(t.Args[0], resolve, params)
			if err != nil {
				return nil, err
			}
			return func(tp Tuple) sqlval.Value { return evalAbs(x(tp)) }, nil
		}
		if strings.EqualFold(t.Name, "SQRT") && len(t.Args) == 1 {
			x, err := Compile(t.Args[0], resolve, params)
			if err != nil {
				return nil, err
			}
			return func(tp Tuple) sqlval.Value { return evalSqrt(x(tp)) }, nil
		}
		return nil, fmt.Errorf("exec: unknown function %s", t.Name)
	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

// MustCompile is Compile that panics on error, for tests.
func MustCompile(e gsql.Expr, resolve Resolver, params Params) EvalFunc {
	f, err := Compile(e, resolve, params)
	if err != nil {
		panic(err)
	}
	return f
}

func evalUnary(op gsql.UnaryOp, v sqlval.Value) sqlval.Value {
	if v.IsNull() {
		if op == gsql.OpNot {
			return sqlval.Bool(true) // NOT NULL-as-false
		}
		return sqlval.Null
	}
	switch op {
	case gsql.OpNeg:
		switch v.Kind() {
		case sqlval.KindFloat:
			f, _ := v.AsFloat()
			return sqlval.Float(-f)
		default:
			i, _ := v.AsInt()
			return sqlval.Int(-i)
		}
	case gsql.OpBitNot:
		u, ok := v.AsUint()
		if !ok {
			return sqlval.Null
		}
		return sqlval.Uint(^u)
	case gsql.OpNot:
		return sqlval.Bool(!v.AsBool())
	default:
		return sqlval.Null
	}
}

func evalBinary(op gsql.BinOp, l, r sqlval.Value) sqlval.Value {
	switch op {
	case gsql.OpAnd:
		return sqlval.Bool(l.AsBool() && r.AsBool())
	case gsql.OpOr:
		return sqlval.Bool(l.AsBool() || r.AsBool())
	}
	if l.IsNull() || r.IsNull() {
		if op == gsql.OpEq || op == gsql.OpNeq || op == gsql.OpLt ||
			op == gsql.OpLe || op == gsql.OpGt || op == gsql.OpGe {
			return sqlval.Bool(false) // SQL: comparisons with NULL are not true
		}
		return sqlval.Null
	}
	switch op {
	case gsql.OpEq:
		return sqlval.Bool(l.Equal(r))
	case gsql.OpNeq:
		return sqlval.Bool(!l.Equal(r))
	case gsql.OpLt:
		return sqlval.Bool(l.Compare(r) < 0)
	case gsql.OpLe:
		return sqlval.Bool(l.Compare(r) <= 0)
	case gsql.OpGt:
		return sqlval.Bool(l.Compare(r) > 0)
	case gsql.OpGe:
		return sqlval.Bool(l.Compare(r) >= 0)
	}
	// Arithmetic and bit operations.
	if l.Kind() == sqlval.KindFloat || r.Kind() == sqlval.KindFloat {
		lf, ok1 := l.AsFloat()
		rf, ok2 := r.AsFloat()
		if !ok1 || !ok2 {
			return sqlval.Null
		}
		switch op {
		case gsql.OpAdd:
			return sqlval.Float(lf + rf)
		case gsql.OpSub:
			return sqlval.Float(lf - rf)
		case gsql.OpMul:
			return sqlval.Float(lf * rf)
		case gsql.OpDiv:
			if rf == 0 {
				return sqlval.Null
			}
			return sqlval.Float(lf / rf)
		default:
			return sqlval.Null
		}
	}
	if l.Kind() == sqlval.KindInt || r.Kind() == sqlval.KindInt {
		li, ok1 := l.AsInt()
		ri, ok2 := r.AsInt()
		if !ok1 || !ok2 {
			return sqlval.Null
		}
		return evalIntOp(op, li, ri)
	}
	lu, ok1 := l.AsUint()
	ru, ok2 := r.AsUint()
	if !ok1 || !ok2 {
		return sqlval.Null
	}
	return evalUintOp(op, lu, ru)
}

func evalIntOp(op gsql.BinOp, l, r int64) sqlval.Value {
	switch op {
	case gsql.OpAdd:
		return sqlval.Int(l + r)
	case gsql.OpSub:
		return sqlval.Int(l - r)
	case gsql.OpMul:
		return sqlval.Int(l * r)
	case gsql.OpDiv:
		if r == 0 {
			return sqlval.Null
		}
		return sqlval.Int(l / r)
	case gsql.OpMod:
		if r == 0 {
			return sqlval.Null
		}
		return sqlval.Int(l % r)
	case gsql.OpBitAnd:
		return sqlval.Int(l & r)
	case gsql.OpBitOr:
		return sqlval.Int(l | r)
	case gsql.OpBitXor:
		return sqlval.Int(l ^ r)
	case gsql.OpShl:
		return sqlval.Int(l << uint(r&63))
	case gsql.OpShr:
		return sqlval.Int(l >> uint(r&63))
	default:
		return sqlval.Null
	}
}

func evalUintOp(op gsql.BinOp, l, r uint64) sqlval.Value {
	switch op {
	case gsql.OpAdd:
		return sqlval.Uint(l + r)
	case gsql.OpSub:
		if r > l {
			return sqlval.Int(int64(l) - int64(r))
		}
		return sqlval.Uint(l - r)
	case gsql.OpMul:
		return sqlval.Uint(l * r)
	case gsql.OpDiv:
		if r == 0 {
			return sqlval.Null
		}
		return sqlval.Uint(l / r)
	case gsql.OpMod:
		if r == 0 {
			return sqlval.Null
		}
		return sqlval.Uint(l % r)
	case gsql.OpBitAnd:
		return sqlval.Uint(l & r)
	case gsql.OpBitOr:
		return sqlval.Uint(l | r)
	case gsql.OpBitXor:
		return sqlval.Uint(l ^ r)
	case gsql.OpShl:
		return sqlval.Uint(l << (r & 63))
	case gsql.OpShr:
		return sqlval.Uint(l >> (r & 63))
	default:
		return sqlval.Null
	}
}

func evalSqrt(v sqlval.Value) sqlval.Value {
	f, ok := v.AsFloat()
	if !ok || f < 0 {
		return sqlval.Null
	}
	return sqlval.Float(math.Sqrt(f))
}

func evalAbs(v sqlval.Value) sqlval.Value {
	switch v.Kind() {
	case sqlval.KindFloat:
		f, _ := v.AsFloat()
		if f < 0 {
			f = -f
		}
		return sqlval.Float(f)
	case sqlval.KindInt:
		i, _ := v.AsInt()
		if i < 0 {
			i = -i
		}
		return sqlval.Int(i)
	case sqlval.KindUint:
		return v
	default:
		return sqlval.Null
	}
}
