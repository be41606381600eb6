package exec

import (
	"testing"
	"testing/quick"

	"qap/internal/gsql"
	"qap/internal/sqlval"
)

func i64(v int64) sqlval.Value { return sqlval.Int(v) }

func TestIntArithmetic(t *testing.T) {
	r := res("a", "b")
	cases := []struct {
		src  string
		tp   Tuple
		want sqlval.Value
	}{
		{"a + b", Tuple{i64(-2), i64(3)}, i64(1)},
		{"a - b", Tuple{i64(-2), i64(3)}, i64(-5)},
		{"a * b", Tuple{i64(-2), i64(3)}, i64(-6)},
		{"a / b", Tuple{i64(-7), i64(2)}, i64(-3)},
		{"a % b", Tuple{i64(-7), i64(2)}, i64(-1)},
		{"a & b", Tuple{i64(6), i64(3)}, i64(2)},
		{"a | b", Tuple{i64(6), i64(1)}, i64(7)},
		{"a ^ b", Tuple{i64(6), i64(3)}, i64(5)},
		{"a << b", Tuple{i64(3), i64(2)}, i64(12)},
		{"a >> b", Tuple{i64(-8), i64(1)}, i64(-4)},
		{"a / 0", Tuple{i64(5), i64(0)}, sqlval.Null},
		{"a % 0", Tuple{i64(5), i64(0)}, sqlval.Null},
	}
	for _, c := range cases {
		f := MustCompile(gsql.MustParseExpr(c.src), r, nil)
		got := f(c.tp)
		if !equalOrBothNull(got, c.want) {
			t.Errorf("%s over %v = %v, want %v", c.src, c.tp, got, c.want)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	r := res("x", "y")
	cases := []struct {
		src  string
		tp   Tuple
		want sqlval.Value
	}{
		{"x + y", Tuple{sqlval.Float(1.5), sqlval.Float(2)}, sqlval.Float(3.5)},
		{"x - y", Tuple{sqlval.Float(1.5), sqlval.Float(2)}, sqlval.Float(-0.5)},
		{"x * y", Tuple{sqlval.Float(1.5), sqlval.Float(2)}, sqlval.Float(3)},
		{"x / y", Tuple{sqlval.Float(3), sqlval.Float(2)}, sqlval.Float(1.5)},
		{"x / y", Tuple{sqlval.Float(3), sqlval.Float(0)}, sqlval.Null},
		// Mixed uint/float promotes to float.
		{"x + y", Tuple{u(2), sqlval.Float(0.5)}, sqlval.Float(2.5)},
		// Bit operations on floats are NULL.
		{"x & y", Tuple{sqlval.Float(3), sqlval.Float(2)}, sqlval.Null},
	}
	for _, c := range cases {
		f := MustCompile(gsql.MustParseExpr(c.src), r, nil)
		got := f(c.tp)
		if !equalOrBothNull(got, c.want) {
			t.Errorf("%s over %v = %v, want %v", c.src, c.tp, got, c.want)
		}
	}
}

func TestAbsAndNegKinds(t *testing.T) {
	r := res("x")
	abs := MustCompile(gsql.MustParseExpr("ABS(x)"), r, nil)
	if got := abs(Tuple{sqlval.Float(-2.5)}); !got.Equal(sqlval.Float(2.5)) {
		t.Errorf("ABS(-2.5) = %v", got)
	}
	if got := abs(Tuple{u(7)}); !got.Equal(u(7)) {
		t.Errorf("ABS(7) = %v", got)
	}
	if !abs(Tuple{sqlval.Str("x")}).IsNull() {
		t.Error("ABS of string should be NULL")
	}
	neg := MustCompile(gsql.MustParseExpr("-x"), r, nil)
	if got := neg(Tuple{sqlval.Float(2)}); !got.Equal(sqlval.Float(-2)) {
		t.Errorf("-2.0 = %v", got)
	}
	if !neg(Tuple{sqlval.Null}).IsNull() {
		t.Error("-NULL should be NULL")
	}
	bitnot := MustCompile(gsql.MustParseExpr("~x"), r, nil)
	if !bitnot(Tuple{sqlval.Str("a")}).IsNull() {
		t.Error("~string should be NULL")
	}
}

func TestParamsGetCaseInsensitive(t *testing.T) {
	p := Params{"Pattern": u(5)}
	if v, ok := p.Get("PATTERN"); !ok || !v.Equal(u(5)) {
		t.Error("case-insensitive parameter lookup failed")
	}
	if _, ok := p.Get("other"); ok {
		t.Error("missing parameter should not resolve")
	}
	var nilP Params
	if _, ok := nilP.Get("x"); ok {
		t.Error("nil params should resolve nothing")
	}
}

// TestEvalMatchesGoSemanticsProperty: uint arithmetic agrees with Go's
// for random operands.
func TestEvalMatchesGoSemanticsProperty(t *testing.T) {
	r := res("a", "b")
	add := MustCompile(gsql.MustParseExpr("a + b"), r, nil)
	div := MustCompile(gsql.MustParseExpr("a / b"), r, nil)
	and := MustCompile(gsql.MustParseExpr("a & b"), r, nil)
	f := func(a, b uint64) bool {
		tp := Tuple{u(a), u(b)}
		if got, _ := add(tp).AsUint(); got != a+b {
			return false
		}
		if b != 0 {
			if got, _ := div(tp).AsUint(); got != a/b {
				return false
			}
		} else if !div(tp).IsNull() {
			return false
		}
		got, _ := and(tp).AsUint()
		return got == a&b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleString(t *testing.T) {
	tp := Tuple{u(1), sqlval.Str("x"), sqlval.Null}
	if got := tp.String(); got != `(1, "x", NULL)` {
		t.Errorf("Tuple.String() = %q", got)
	}
}

func TestDiscardAndUnionAccessors(t *testing.T) {
	var d Discard
	d.Push(Tuple{u(1)})
	d.Advance(5)
	d.Flush()
	un := NewUnion(3, &Collector{})
	if un.Inputs() != 3 {
		t.Errorf("Inputs() = %d", un.Inputs())
	}
}
