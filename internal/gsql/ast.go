package gsql

import (
	"fmt"
	"strings"
)

// Expr is a GSQL scalar or aggregate expression.
type Expr interface {
	isExpr()
	String() string
}

// ColumnRef is a (possibly qualified) column reference: name or
// qualifier.name.
type ColumnRef struct {
	Qualifier string // table alias or stream/query name; "" if unqualified
	Name      string
}

// NumberLit is an integer or floating-point literal.
type NumberLit struct {
	IsFloat bool
	U       uint64  // integer payload
	F       float64 // float payload
	Text    string  // original spelling (preserves hex)
}

// StringLit is a quoted string literal.
type StringLit struct{ S string }

// ParamRef is a #NAME# placeholder bound at plan time.
type ParamRef struct{ Name string }

// UnaryOp enumerates unary operators.
type UnaryOp uint8

// Unary operators.
const (
	OpNeg UnaryOp = iota // -x
	OpBitNot
	OpNot
)

// Unary applies a unary operator.
type Unary struct {
	Op UnaryOp
	X  Expr
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, grouped by precedence class.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpBitOr
	OpBitXor
	OpBitAnd
	OpShl
	OpShr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// FuncCall is a function invocation; Star marks COUNT(*).
type FuncCall struct {
	Name string
	Star bool
	Args []Expr
}

func (*ColumnRef) isExpr() {}
func (*NumberLit) isExpr() {}
func (*StringLit) isExpr() {}
func (*ParamRef) isExpr()  {}
func (*Unary) isExpr()     {}
func (*Binary) isExpr()    {}
func (*FuncCall) isExpr()  {}

// String renders the reference as written.
func (e *ColumnRef) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

// String renders the literal with its original spelling when known.
func (e *NumberLit) String() string {
	if e.Text != "" {
		return e.Text
	}
	if e.IsFloat {
		return fmt.Sprintf("%g", e.F)
	}
	return fmt.Sprintf("%d", e.U)
}

// String renders the literal single-quoted, escaping the characters
// the lexer's escape handling understands.
func (e *StringLit) String() string {
	var b strings.Builder
	b.WriteByte('\'')
	for i := 0; i < len(e.S); i++ {
		switch c := e.S[i]; c {
		case '\'':
			b.WriteString(`\'`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('\'')
	return b.String()
}

// String renders the parameter placeholder.
func (e *ParamRef) String() string { return "#" + e.Name + "#" }

// String renders the unary expression. Non-primary operands are
// parenthesized: "-(-x)" must not print as "--x" (a comment), and
// "-(NOT x)" is not parseable without the parentheses.
func (e *Unary) String() string {
	var op string
	switch e.Op {
	case OpNeg:
		op = "-"
	case OpBitNot:
		op = "~"
	case OpNot:
		op = "NOT "
	}
	x := e.X.String()
	switch e.X.(type) {
	case *Binary, *Unary:
		x = "(" + x + ")"
	}
	return op + x
}

// OpText returns the surface syntax of a binary operator.
func (op BinOp) OpText() string {
	switch op {
	case OpOr:
		return "OR"
	case OpAnd:
		return "AND"
	case OpEq:
		return "="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBitOr:
		return "|"
	case OpBitXor:
		return "^"
	case OpBitAnd:
		return "&"
	case OpShl:
		return "<<"
	case OpShr:
		return ">>"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Precedence returns the binding strength of the operator; higher
// binds tighter. Mirrors the parser's precedence ladder.
func (op BinOp) Precedence() int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe:
		return 4
	case OpBitOr, OpBitXor:
		return 5
	case OpBitAnd:
		return 6
	case OpShl, OpShr:
		return 7
	case OpAdd, OpSub:
		return 8
	case OpMul, OpDiv, OpMod:
		return 9
	default:
		return 0
	}
}

// IsComparison reports whether the operator is one of the six
// (non-associative) comparison operators.
func (op BinOp) IsComparison() bool {
	switch op {
	case OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// String renders the binary expression with minimal parentheses.
// Comparisons are non-associative, so a comparison child of a
// comparison parent is parenthesized on either side; a NOT operand of
// anything binding tighter than NOT itself (precedence 3) needs
// parentheses too, since the grammar only admits NOT above the
// comparison level.
func (e *Binary) String() string {
	wrapChild := func(child Expr, left bool) string {
		s := child.String()
		switch c := child.(type) {
		case *Binary:
			if c.Op.Precedence() < e.Op.Precedence() ||
				(!left && c.Op.Precedence() == e.Op.Precedence()) ||
				(c.Op.IsComparison() && e.Op.IsComparison()) {
				return "(" + s + ")"
			}
		case *Unary:
			if c.Op == OpNot && e.Op.Precedence() > 2 {
				return "(" + s + ")"
			}
		}
		return s
	}
	return wrapChild(e.L, true) + " " + e.Op.OpText() + " " + wrapChild(e.R, false)
}

// String renders the call.
func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	Expr  Expr
	Alias string // "" if none
	Pos   Pos    // position of the item's first token
}

// String renders the item.
func (s SelectItem) String() string {
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// JoinType enumerates join kinds.
type JoinType uint8

// Join kinds. JoinNone means a single-input FROM.
const (
	JoinNone JoinType = iota
	JoinInner
	JoinLeftOuter
	JoinRightOuter
	JoinFullOuter
)

// String returns the SQL keywords for the join type.
func (j JoinType) String() string {
	switch j {
	case JoinNone:
		return ""
	case JoinInner:
		return "JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinRightOuter:
		return "RIGHT OUTER JOIN"
	case JoinFullOuter:
		return "FULL OUTER JOIN"
	default:
		return fmt.Sprintf("join(%d)", uint8(j))
	}
}

// TableRef names a source stream or an upstream query, optionally
// aliased.
type TableRef struct {
	Name  string
	Alias string
	Pos   Pos // position of the referenced name
}

// Binding returns the name other clauses use to refer to this input.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders the reference.
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// FromClause is the FROM part: one input, or a two-way join. Following
// the paper, join predicates normally live in WHERE; On holds an
// explicit ON condition when given.
type FromClause struct {
	Left  TableRef
	Join  JoinType
	Right TableRef // valid when Join != JoinNone
	On    Expr     // optional explicit ON condition
}

// GroupItem is one GROUP BY term, optionally aliased so the select
// list can reference it (GROUP BY time/60 AS tb).
type GroupItem struct {
	Expr  Expr
	Alias string
	Pos   Pos // position of the term's first token
}

// String renders the item.
func (g GroupItem) String() string {
	if g.Alias != "" {
		return g.Expr.String() + " AS " + g.Alias
	}
	return g.Expr.String()
}

// SelectStmt is a single GSQL SELECT statement.
type SelectStmt struct {
	Items   []SelectItem
	From    FromClause
	Where   Expr // nil if absent
	GroupBy []GroupItem
	Having  Expr // nil if absent
	// WindowPanes > 1 turns the aggregation into a pane-based sliding
	// window: the temporal GROUP BY term defines the pane, and each
	// result covers the WindowPanes most recent panes, sliding by one
	// pane (Li et al.'s evaluation strategy, paper Section 3.1).
	WindowPanes uint64
	// Clause positions: Pos is the SELECT keyword; the others are the
	// corresponding clause keywords, zero when the clause is absent.
	Pos       Pos
	WherePos  Pos
	GroupPos  Pos
	HavingPos Pos
	WindowPos Pos
}

// String pretty-prints the statement on multiple lines.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString("\nFROM ")
	b.WriteString(s.From.Left.String())
	if s.From.Join != JoinNone {
		b.WriteByte(' ')
		b.WriteString(s.From.Join.String())
		b.WriteByte(' ')
		b.WriteString(s.From.Right.String())
		if s.From.On != nil {
			b.WriteString(" ON ")
			b.WriteString(s.From.On.String())
		}
	}
	if s.Where != nil {
		b.WriteString("\nWHERE ")
		b.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString("\nGROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString("\nHAVING ")
		b.WriteString(s.Having.String())
	}
	if s.WindowPanes > 1 {
		fmt.Fprintf(&b, "\nWINDOW %d", s.WindowPanes)
	}
	return b.String()
}

// Query is a named statement within a query set.
type Query struct {
	Name string
	Stmt *SelectStmt
	// Pos is the position of the query's name token, or of the SELECT
	// keyword for anonymous queries.
	Pos Pos
}

// QuerySet is an ordered collection of named queries; later queries may
// read the outputs of earlier ones by name.
type QuerySet struct {
	Queries []*Query
}

// Lookup finds a query by case-insensitive name.
func (qs *QuerySet) Lookup(name string) (*Query, bool) {
	for _, q := range qs.Queries {
		if strings.EqualFold(q.Name, name) {
			return q, true
		}
	}
	return nil, false
}

// String renders the whole set in the paper's "query NAME: ..." form.
func (qs *QuerySet) String() string {
	var b strings.Builder
	for i, q := range qs.Queries {
		if i > 0 {
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "query %s:\n%s", q.Name, q.Stmt)
	}
	return b.String()
}

// WalkExpr calls fn for e and every sub-expression, pre-order. fn
// returning false prunes descent into that node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColumnRef:
		c := *x
		return &c
	case *NumberLit:
		c := *x
		return &c
	case *StringLit:
		c := *x
		return &c
	case *ParamRef:
		c := *x
		return &c
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X)}
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &FuncCall{Name: x.Name, Star: x.Star, Args: args}
	default:
		panic(fmt.Sprintf("gsql: CloneExpr: unknown expression type %T", e))
	}
}

// EqualExpr reports structural equality of two expressions, with
// case-insensitive identifier and function-name comparison.
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		return ok && strings.EqualFold(x.Qualifier, y.Qualifier) && strings.EqualFold(x.Name, y.Name)
	case *NumberLit:
		y, ok := b.(*NumberLit)
		if !ok || x.IsFloat != y.IsFloat {
			return false
		}
		if x.IsFloat {
			return x.F == y.F
		}
		return x.U == y.U
	case *StringLit:
		y, ok := b.(*StringLit)
		return ok && x.S == y.S
	case *ParamRef:
		y, ok := b.(*ParamRef)
		return ok && strings.EqualFold(x.Name, y.Name)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		if !ok || !strings.EqualFold(x.Name, y.Name) || x.Star != y.Star || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
