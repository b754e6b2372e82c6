// Package ast defines the abstract syntax tree of the mini-HPF input
// language: routines containing declarations, HPF distribution
// directives, DO loops, IF statements, and (array-)assignments whose
// subscripts may be F90 section triplets. The scalarizer rewrites
// section assignments into elementwise DO loops before analysis, so
// the communication pass only ever sees scalar subscripts.
package ast

import (
	"fmt"
	"strings"

	"gcao/internal/source"
)

// ElemType is the element type of a variable.
type ElemType int

const (
	Real ElemType = iota
	Integer
)

func (t ElemType) String() string {
	if t == Integer {
		return "integer"
	}
	return "real"
}

// Program is a whole compilation unit.
type Program struct {
	Routines []*Routine
}

// Routine finds a routine by (lower-cased) name, or nil.
func (p *Program) Routine(name string) *Routine {
	for _, r := range p.Routines {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Routine is one procedure. Params are integer scalars whose values
// are supplied at compile time (the paper compiles for fixed problem
// sizes; pHPF likewise specializes on the data partitioning).
type Routine struct {
	Name   string
	Params []string
	Decls  []*Decl
	Dirs   []Dir
	Body   []Stmt
	Pos    source.Pos
	// Bytes is the heap the routine keeps alive, counted where it was
	// made: everything its parse allocated (the routines of one source
	// share their node slabs) and, for a routine inlining made, what
	// inlining allocated. The source text its names slice is not in it.
	Bytes int64
}

// Decl declares one or more variables of an element type. A variable
// with Bounds is an array; otherwise it is a scalar.
type Decl struct {
	Type  ElemType
	Items []DeclItem
	Pos   source.Pos
}

// DeclItem is a single declared variable.
type DeclItem struct {
	Name   string
	Bounds []Bound // nil for scalars
}

// Bound is one array dimension declaration lo:hi (lo defaults to 1).
type Bound struct {
	Lo, Hi Expr // Lo may be nil meaning 1
}

// Dir is an HPF directive.
type Dir interface {
	dirNode()
	String() string
}

// ProcessorsDir declares a named processor arrangement:
// !hpf$ processors p(4,4)
type ProcessorsDir struct {
	Name  string
	Shape []Expr
	Pos   source.Pos
}

func (*ProcessorsDir) dirNode() {}
func (d *ProcessorsDir) String() string {
	parts := make([]string, len(d.Shape))
	for i, e := range d.Shape {
		parts[i] = ExprString(e)
	}
	return fmt.Sprintf("!hpf$ processors %s(%s)", d.Name, strings.Join(parts, ","))
}

// DistKind is a per-dimension distribution keyword.
type DistKind int

const (
	DistStar DistKind = iota
	DistBlock
	DistCyclic
)

func (k DistKind) String() string {
	switch k {
	case DistStar:
		return "*"
	case DistBlock:
		return "block"
	case DistCyclic:
		return "cyclic"
	}
	return "?"
}

// DistributeDir distributes arrays: !hpf$ distribute a(block,block) onto p
// A single directive may name several arrays sharing the same pattern
// via "distribute (block,block) onto p :: a, b, c".
type DistributeDir struct {
	Arrays []string
	Kinds  []DistKind
	Onto   string // optional processors name
	Pos    source.Pos
}

func (*DistributeDir) dirNode() {}
func (d *DistributeDir) String() string {
	parts := make([]string, len(d.Kinds))
	for i, k := range d.Kinds {
		parts[i] = k.String()
	}
	s := fmt.Sprintf("!hpf$ distribute (%s)", strings.Join(parts, ","))
	if d.Onto != "" {
		s += " onto " + d.Onto
	}
	return s + " :: " + strings.Join(d.Arrays, ", ")
}

// Stmt is a statement.
type Stmt interface {
	stmtNode()
}

// AssignStmt is "lhs = rhs". The LHS reference may carry section
// subscripts before scalarization.
type AssignStmt struct {
	LHS *Ref
	RHS Expr
	Pos source.Pos
	// Label is an optional source label carried through scalarization
	// so that analyses can report statements in terms of the original
	// program lines (used by the Fig. 4 running-example tests).
	Label string
}

func (*AssignStmt) stmtNode() {}

// CallStmt invokes another routine: call sub(a, n). The inliner
// (package inline) substitutes the callee's body before analysis —
// the paper defers interprocedural analysis to future work (§7), and
// full inlining is the standard way pHPF-era compilers realized it.
type CallStmt struct {
	Name string
	Args []Expr
	Pos  source.Pos
}

func (*CallStmt) stmtNode() {}

// DoStmt is a counted DO loop: do v = lo, hi [, step].
type DoStmt struct {
	Var          string
	Lo, Hi, Step Expr // Step may be nil meaning 1
	Body         []Stmt
	Pos          source.Pos
}

func (*DoStmt) stmtNode() {}

// IfStmt is if (cond) then ... [else ...] endif.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  source.Pos
}

func (*IfStmt) stmtNode() {}

// Expr is an expression.
type Expr interface {
	exprNode()
	ExprPos() source.Pos
}

// NumLit is a numeric literal. An integer literal (IsInt) carries its
// exact value in Int — what integer consumers (bounds, subscripts) read —
// and the nearest float64 in Value; a real literal only Value.
type NumLit struct {
	Text  string
	Value float64
	Int   int
	IsInt bool
	Pos   source.Pos
}

func (*NumLit) exprNode()             {}
func (e *NumLit) ExprPos() source.Pos { return e.Pos }

// Ident is a scalar variable or parameter reference.
type Ident struct {
	Name string
	Pos  source.Pos
}

func (*Ident) exprNode()             {}
func (e *Ident) ExprPos() source.Pos { return e.Pos }

// SubKind distinguishes element subscripts from section triplets.
type SubKind int

const (
	SubExpr  SubKind = iota // a(i+1)
	SubRange                // a(1:n:2) or a(:)
)

// Sub is one subscript.
type Sub struct {
	Kind SubKind
	X    Expr // element subscript (SubExpr)
	// Triplet parts; nil means the declared bound / step 1.
	Lo, Hi, Step Expr
}

// Ref is an array reference a(subs...) or a bare array name "a" (whole
// array, equivalent to all-":" subscripts).
type Ref struct {
	Name string
	Subs []Sub
	Pos  source.Pos
}

func (*Ref) exprNode()             {}
func (e *Ref) ExprPos() source.Pos { return e.Pos }

// HasSection reports whether any subscript is a range (so the ref
// denotes an array section rather than an element). A bare name with
// no subscripts also counts once the name is known to be an array; the
// parser cannot know that, so callers consult the symbol table.
func (e *Ref) HasSection() bool {
	for _, s := range e.Subs {
		if s.Kind == SubRange {
			return true
		}
	}
	return false
}

// BinOp is a binary operator.
type BinOp int

const (
	Add BinOp = iota
	Sub_
	Mul
	Div
	Pow
	CmpLt
	CmpGt
	CmpLe
	CmpGe
	CmpEq
	CmpNe
)

var binOpNames = map[BinOp]string{
	Add: "+", Sub_: "-", Mul: "*", Div: "/", Pow: "**",
	CmpLt: "<", CmpGt: ">", CmpLe: "<=", CmpGe: ">=", CmpEq: "==", CmpNe: "/=",
}

func (op BinOp) String() string { return binOpNames[op] }

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOp
	X, Y Expr
	Pos  source.Pos
}

func (*BinExpr) exprNode()             {}
func (e *BinExpr) ExprPos() source.Pos { return e.Pos }

// UnaryExpr is unary minus.
type UnaryExpr struct {
	X   Expr
	Pos source.Pos
}

func (*UnaryExpr) exprNode()             {}
func (e *UnaryExpr) ExprPos() source.Pos { return e.Pos }

// Call is an intrinsic call: sum, sqrt, abs, min, max, cshift, mod.
type Call struct {
	Func string
	Args []Expr
	Pos  source.Pos
}

func (*Call) exprNode()             {}
func (e *Call) ExprPos() source.Pos { return e.Pos }

// Intrinsics lists the supported intrinsic functions.
var Intrinsics = map[string]bool{
	"sum": true, "sqrt": true, "abs": true, "min": true, "max": true,
	"mod": true, "exp": true,
}

// ExprString renders an expression back to surface syntax.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case nil:
		return ""
	case *NumLit:
		return e.Text
	case *Ident:
		return e.Name
	case *Ref:
		if len(e.Subs) == 0 {
			return e.Name
		}
		parts := make([]string, len(e.Subs))
		for i, s := range e.Subs {
			parts[i] = subString(s)
		}
		return e.Name + "(" + strings.Join(parts, ",") + ")"
	case *BinExpr:
		return "(" + ExprString(e.X) + " " + e.Op.String() + " " + ExprString(e.Y) + ")"
	case *UnaryExpr:
		return "(-" + ExprString(e.X) + ")"
	case *Call:
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = ExprString(a)
		}
		return e.Func + "(" + strings.Join(parts, ",") + ")"
	}
	return fmt.Sprintf("<%T>", e)
}

func subString(s Sub) string {
	if s.Kind == SubExpr {
		return ExprString(s.X)
	}
	out := ExprString(s.Lo) + ":" + ExprString(s.Hi)
	if s.Step != nil {
		out += ":" + ExprString(s.Step)
	}
	return out
}

// StmtString renders a statement (single line for assignments,
// multi-line for compound statements) for diagnostics.
func StmtString(s Stmt) string {
	var b strings.Builder
	writeStmt(&b, s, 0)
	return strings.TrimRight(b.String(), "\n")
}

func writeStmt(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	switch s := s.(type) {
	case *AssignStmt:
		fmt.Fprintf(b, "%s%s = %s\n", ind, ExprString(s.LHS), ExprString(s.RHS))
	case *DoStmt:
		step := ""
		if s.Step != nil {
			step = ", " + ExprString(s.Step)
		}
		fmt.Fprintf(b, "%sdo %s = %s, %s%s\n", ind, s.Var, ExprString(s.Lo), ExprString(s.Hi), step)
		for _, c := range s.Body {
			writeStmt(b, c, depth+1)
		}
		fmt.Fprintf(b, "%senddo\n", ind)
	case *CallStmt:
		parts := make([]string, len(s.Args))
		for i, a := range s.Args {
			parts[i] = ExprString(a)
		}
		fmt.Fprintf(b, "%scall %s(%s)\n", ind, s.Name, strings.Join(parts, ", "))
	case *IfStmt:
		fmt.Fprintf(b, "%sif (%s) then\n", ind, ExprString(s.Cond))
		for _, c := range s.Then {
			writeStmt(b, c, depth+1)
		}
		if len(s.Else) > 0 {
			fmt.Fprintf(b, "%selse\n", ind)
			for _, c := range s.Else {
				writeStmt(b, c, depth+1)
			}
		}
		fmt.Fprintf(b, "%sendif\n", ind)
	}
}

// WalkExprs visits every expression in an expression tree, depth first.
func WalkExprs(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *BinExpr:
		WalkExprs(e.X, f)
		WalkExprs(e.Y, f)
	case *UnaryExpr:
		WalkExprs(e.X, f)
	case *Call:
		for _, a := range e.Args {
			WalkExprs(a, f)
		}
	case *Ref:
		for _, s := range e.Subs {
			WalkExprs(s.X, f)
			WalkExprs(s.Lo, f)
			WalkExprs(s.Hi, f)
			WalkExprs(s.Step, f)
		}
	}
}
