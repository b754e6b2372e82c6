// Package parser implements a recursive-descent parser for the
// mini-HPF language. See package ast for the tree it produces and
// package source for lexical conventions.
//
// Grammar (newline-terminated statements, case-insensitive keywords):
//
//	program   = { routine } .
//	routine   = "routine" name [ "(" name {"," name} ")" ] NL
//	            { decl | directive | stmt } "end" NL .
//	decl      = ("real"|"integer") item {"," item} NL .
//	item      = name [ "(" bound {"," bound} ")" ] .
//	bound     = expr [ ":" expr ] .
//	directive = "!hpf$" "processors" name "(" expr {"," expr} ")" NL
//	          | "!hpf$" "distribute" name "(" dk {"," dk} ")" ["onto" name] NL
//	          | "!hpf$" "distribute" "(" dk {"," dk} ")" ["onto" name]
//	            "::" name {"," name} NL .
//	dk        = "block" | "cyclic" | "*" .
//	stmt      = assign | do | if .
//	do        = "do" name "=" expr "," expr ["," expr] NL {stmt} enddo NL .
//	enddo     = "enddo" | "end" "do" .
//	if        = "if" "(" expr ")" "then" NL {stmt}
//	            ["else" NL {stmt}] endif NL .
//	endif     = "endif" | "end" "if" .
//	assign    = ref "=" expr NL .
//	ref       = name [ "(" sub {"," sub} ")" ] .
//	sub       = expr | [expr] ":" [expr] [":" expr] .
//	expr      = rel { ("<"|">"|"<="|">="|"=="|"/=") rel } .
//	rel       = term { ("+"|"-") term } .
//	term      = pow { ("*"|"/") pow } .
//	pow       = factor [ "**" pow ] .
//	factor    = number | ref | call | "(" expr ")" | "-" factor .
package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gcao/internal/ast"
	"gcao/internal/heapsize"
	"gcao/internal/source"
)

// maxNesting bounds how deeply the constructs the parser recurses on may
// nest: parentheses (grouping, subscript lists, intrinsic arguments),
// unary minus, the right operands of a ** chain, and DO and IF bodies,
// all on one count. Without it a source of a million "(" — half of what
// gcaod accepts in a body — overflows the goroutine stack, a fatal error
// recover cannot catch.
const maxNesting = 10000

// parser reads tokens from the scanner as it goes: tok is the current
// token and la the one after it, the lookahead factor needs to tell an
// intrinsic call from a reference. Both are lexemes, whose text stays in
// the source until a node takes it.
type parser struct {
	sc      *source.Scanner
	tok, la source.Lexeme
	depth   int // constructs open around the current token (maxNesting)
	a       *slabs
	// bytes counts what the parse keeps: its slabs' chunks, which they add,
	// the program, routines, declarations, directives and their lists.
	bytes int64
	// Lists under construction, nested lists above their parents': a
	// finished list is carved from its slab and popped. Each stack
	// starts in an array of the parser's own, which the lists of the
	// Fig. 10(a) routines never outgrow.
	stmts    []ast.Stmt
	exprs    []ast.Expr
	subs     []ast.Sub
	items    []ast.DeclItem
	bounds   []ast.Bound
	names    []string
	stmtBuf  [64]ast.Stmt
	exprBuf  [16]ast.Expr
	subBuf   [16]ast.Sub
	itemBuf  [16]ast.DeclItem
	boundBuf [16]ast.Bound
	nameBuf  [16]string
}

// Parse parses a whole program. When the input holds a character the
// scanner rejects, that error is the result, wherever it lies.
func Parse(src string) (*ast.Program, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("parser: a source of %d bytes is over the scanner's 2 GiB", len(src))
	}
	p := &parser{sc: source.NewScanner(src)}
	p.a = newSlabs(len(src), &p.bytes)
	p.stmts, p.exprs, p.subs = p.stmtBuf[:0], p.exprBuf[:0], p.subBuf[:0]
	p.items, p.bounds, p.names = p.itemBuf[:0], p.boundBuf[:0], p.nameBuf[:0]
	p.tok = p.sc.Scan()
	p.la = p.sc.Scan()
	prog, err := p.program()
	if err != nil {
		for p.sc.Scan().Kind != source.EOF {
		}
	}
	if serr := p.sc.Err(); serr != nil {
		return nil, serr
	}
	return prog, err
}

func (p *parser) program() (*ast.Program, error) {
	prog := &ast.Program{}
	p.skipNewlines()
	for !p.at(source.EOF) {
		r, err := p.routine()
		if err != nil {
			return nil, err
		}
		prog.Routines = append(prog.Routines, r)
		p.skipNewlines()
	}
	if len(prog.Routines) == 0 {
		return nil, fmt.Errorf("parser: no routines in input")
	}
	// The routines share the slabs, so each keeps the whole parse alive.
	n := p.bytes + heapsize.Of(prog) + heapsize.Slice(prog.Routines)
	for _, r := range prog.Routines {
		r.Bytes = n
	}
	return prog, nil
}

// ParseRoutine parses a source fragment containing exactly one routine.
func ParseRoutine(src string) (*ast.Routine, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Routines) != 1 {
		return nil, fmt.Errorf("parser: expected 1 routine, found %d", len(prog.Routines))
	}
	return prog.Routines[0], nil
}

func (p *parser) cur() source.Lexeme    { return p.tok }
func (p *parser) at(k source.Kind) bool { return p.tok.Kind == k }

// text returns a lexeme's canonical text.
func (p *parser) text(l source.Lexeme) string { return p.sc.Text(l) }

// token returns a lexeme as the token an error message names.
func (p *parser) token(l source.Lexeme) source.Token {
	return source.Token{Kind: l.Kind, Text: p.text(l), Pos: l.Pos}
}

func (p *parser) atKw(kw string) bool {
	return p.tok.Kind == source.Ident && p.text(p.tok) == kw
}

func (p *parser) next() source.Lexeme {
	t := p.tok
	if t.Kind != source.EOF {
		p.tok = p.la
		p.la = p.sc.Scan()
	}
	return t
}

// enter opens one more nesting level at pos, or fails past maxNesting;
// leave closes it.
func (p *parser) enter(pos source.Pos) error {
	if p.depth == maxNesting {
		return source.Errorf(pos, "nesting deeper than %d levels", maxNesting)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) expect(k source.Kind) (source.Lexeme, error) {
	if !p.at(k) {
		return p.cur(), source.Errorf(p.cur().Pos, "expected %s, found %s", k, p.token(p.cur()))
	}
	return p.next(), nil
}

func (p *parser) expectKw(kw string) error {
	if !p.atKw(kw) {
		return source.Errorf(p.cur().Pos, "expected %q, found %s", kw, p.token(p.cur()))
	}
	p.next()
	return nil
}

func (p *parser) expectNL() error {
	if p.at(source.EOF) {
		return nil
	}
	if !p.at(source.Newline) {
		return source.Errorf(p.cur().Pos, "expected end of statement, found %s", p.token(p.cur()))
	}
	p.skipNewlines()
	return nil
}

func (p *parser) skipNewlines() {
	for p.at(source.Newline) {
		p.next()
	}
}

func (p *parser) routine() (*ast.Routine, error) {
	start := p.cur().Pos
	if err := p.expectKw("routine"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(source.Ident)
	if err != nil {
		return nil, err
	}
	r := &ast.Routine{Name: p.text(nameTok), Pos: start}
	if p.at(source.LParen) {
		p.next()
		mark := len(p.names)
		for !p.at(source.RParen) {
			t, err := p.expect(source.Ident)
			if err != nil {
				return nil, err
			}
			p.names = append(p.names, p.text(t))
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		r.Params = heapsize.Pop(&p.names, mark, &p.a.names)
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	// Declarations and directives may be interleaved before the body;
	// we also accept directives between statements (HPF allows comment
	// directives anywhere) but bind them at routine scope.
	for {
		switch {
		case p.atKw("real") || p.atKw("integer"):
			d, err := p.decl()
			if err != nil {
				return nil, err
			}
			r.Decls = append(r.Decls, d)
		case p.at(source.HPFDir):
			d, err := p.directive()
			if err != nil {
				return nil, err
			}
			r.Dirs = append(r.Dirs, d)
		default:
			goto body
		}
	}
body:
	mark := len(p.stmts)
	for !p.atKw("end") {
		if p.at(source.EOF) {
			return nil, source.Errorf(p.cur().Pos, "unexpected EOF in routine %q (missing 'end'?)", r.Name)
		}
		if p.at(source.HPFDir) {
			d, err := p.directive()
			if err != nil {
				return nil, err
			}
			r.Dirs = append(r.Dirs, d)
			continue
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	r.Body = heapsize.Pop(&p.stmts, mark, &p.a.stmts)
	p.next() // "end"
	// Optional "end routine [name]".
	if p.atKw("routine") {
		p.next()
		if p.at(source.Ident) {
			p.next()
		}
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	p.bytes += heapsize.Of(r) + heapsize.Slice(r.Decls) + heapsize.Slice(r.Dirs)
	return r, nil
}

func (p *parser) decl() (*ast.Decl, error) {
	start := p.cur().Pos
	var typ ast.ElemType
	if p.atKw("real") {
		typ = ast.Real
	} else {
		typ = ast.Integer
	}
	p.next()
	d := &ast.Decl{Type: typ, Pos: start}
	p.bytes += heapsize.Of(d)
	mark := len(p.items)
	for {
		t, err := p.expect(source.Ident)
		if err != nil {
			return nil, err
		}
		item := ast.DeclItem{Name: p.text(t)}
		if p.at(source.LParen) {
			p.next()
			bmark := len(p.bounds)
			for {
				b, err := p.bound()
				if err != nil {
					return nil, err
				}
				p.bounds = append(p.bounds, b)
				if p.at(source.Comma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(source.RParen); err != nil {
				return nil, err
			}
			item.Bounds = heapsize.Pop(&p.bounds, bmark, &p.a.bounds)
		}
		p.items = append(p.items, item)
		if p.at(source.Comma) {
			p.next()
			continue
		}
		break
	}
	d.Items = heapsize.Pop(&p.items, mark, &p.a.items)
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) bound() (ast.Bound, error) {
	e, err := p.expr()
	if err != nil {
		return ast.Bound{}, err
	}
	if p.at(source.Colon) {
		p.next()
		hi, err := p.expr()
		if err != nil {
			return ast.Bound{}, err
		}
		return ast.Bound{Lo: e, Hi: hi}, nil
	}
	return ast.Bound{Lo: nil, Hi: e}, nil
}

func (p *parser) directive() (ast.Dir, error) {
	start := p.cur().Pos
	p.next() // !hpf$
	switch {
	case p.atKw("processors"):
		p.next()
		nameTok, err := p.expect(source.Ident)
		if err != nil {
			return nil, err
		}
		d := &ast.ProcessorsDir{Name: p.text(nameTok), Pos: start}
		p.bytes += heapsize.Of(d)
		if _, err := p.expect(source.LParen); err != nil {
			return nil, err
		}
		mark := len(p.exprs)
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.exprs = append(p.exprs, e)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		d.Shape = heapsize.Pop(&p.exprs, mark, &p.a.exprs)
		if err := p.expectNL(); err != nil {
			return nil, err
		}
		return d, nil
	case p.atKw("distribute"):
		p.next()
		d := &ast.DistributeDir{Pos: start}
		// Either "distribute a(block,block)" or "distribute (block,...)
		// [onto p] :: a, b".
		mark := len(p.names)
		if p.at(source.Ident) {
			nameTok := p.next()
			p.names = append(p.names, p.text(nameTok))
		}
		if _, err := p.expect(source.LParen); err != nil {
			return nil, err
		}
		for {
			k, err := p.distKind()
			if err != nil {
				return nil, err
			}
			d.Kinds = append(d.Kinds, k)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		if p.atKw("onto") {
			p.next()
			t, err := p.expect(source.Ident)
			if err != nil {
				return nil, err
			}
			d.Onto = p.text(t)
		}
		if len(p.names) == mark {
			// "::" a, b, c
			if _, err := p.expect(source.Colon); err != nil {
				return nil, err
			}
			if _, err := p.expect(source.Colon); err != nil {
				return nil, err
			}
			for {
				t, err := p.expect(source.Ident)
				if err != nil {
					return nil, err
				}
				p.names = append(p.names, p.text(t))
				if p.at(source.Comma) {
					p.next()
					continue
				}
				break
			}
		}
		d.Arrays = heapsize.Pop(&p.names, mark, &p.a.names)
		p.bytes += heapsize.Of(d) + heapsize.Slice(d.Kinds)
		if err := p.expectNL(); err != nil {
			return nil, err
		}
		return d, nil
	}
	return nil, source.Errorf(p.cur().Pos, "unknown HPF directive %s", p.token(p.cur()))
}

func (p *parser) distKind() (ast.DistKind, error) {
	switch {
	case p.at(source.Star):
		p.next()
		return ast.DistStar, nil
	case p.atKw("block"):
		p.next()
		return ast.DistBlock, nil
	case p.atKw("cyclic"):
		p.next()
		return ast.DistCyclic, nil
	}
	return 0, source.Errorf(p.cur().Pos, "expected distribution kind, found %s", p.token(p.cur()))
}

func (p *parser) stmt() (ast.Stmt, error) {
	switch {
	case p.atKw("do"):
		return p.doStmt()
	case p.atKw("if"):
		return p.ifStmt()
	case p.atKw("call"):
		return p.callStmt()
	case p.at(source.Ident):
		return p.assign()
	}
	return nil, source.Errorf(p.cur().Pos, "expected statement, found %s", p.token(p.cur()))
}

// block parses statements up to one of the keywords that close a body,
// reporting EOF before it as unterminated, and returns them carved.
func (p *parser) block(start source.Pos, what string, closers ...string) ([]ast.Stmt, error) {
	mark := len(p.stmts)
	for {
		for _, kw := range closers {
			if p.atKw(kw) {
				return heapsize.Pop(&p.stmts, mark, &p.a.stmts), nil
			}
		}
		if p.at(source.EOF) {
			return nil, source.Errorf(start, "unterminated %s", what)
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
}

func (p *parser) callStmt() (ast.Stmt, error) {
	start := p.cur().Pos
	p.next() // call
	name, err := p.expect(source.Ident)
	if err != nil {
		return nil, err
	}
	s := p.a.callStmts.New()
	s.Name, s.Pos = p.text(name), start
	if p.at(source.LParen) {
		p.next()
		mark := len(p.exprs)
		for !p.at(source.RParen) {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.exprs = append(p.exprs, a)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		s.Args = heapsize.Pop(&p.exprs, mark, &p.a.exprs)
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) doStmt() (ast.Stmt, error) {
	start := p.cur().Pos
	p.next() // do
	v, err := p.expect(source.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(source.Assign); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(source.Comma); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	var step ast.Expr
	if p.at(source.Comma) {
		p.next()
		step, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	if err := p.enter(start); err != nil {
		return nil, err
	}
	body, err := p.block(start, "do loop", "enddo", "end")
	if err != nil {
		return nil, err
	}
	p.leave()
	d := p.a.dos.New()
	d.Var, d.Lo, d.Hi, d.Step, d.Body, d.Pos = p.text(v), lo, hi, step, body, start
	if p.atKw("enddo") {
		p.next()
	} else { // "end" "do"
		p.next()
		if err := p.expectKw("do"); err != nil {
			return nil, err
		}
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	start := p.cur().Pos
	p.next() // if
	if _, err := p.expect(source.LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(source.RParen); err != nil {
		return nil, err
	}
	if err := p.expectKw("then"); err != nil {
		return nil, err
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	if err := p.enter(start); err != nil {
		return nil, err
	}
	s := p.a.ifs.New()
	s.Cond, s.Pos = cond, start
	if s.Then, err = p.block(start, "if statement", "else", "endif", "end"); err != nil {
		return nil, err
	}
	if p.atKw("else") {
		p.next()
		if err := p.expectNL(); err != nil {
			return nil, err
		}
		if s.Else, err = p.block(start, "else branch", "endif", "end"); err != nil {
			return nil, err
		}
	}
	p.leave()
	if p.atKw("endif") {
		p.next()
	} else { // "end" "if"
		p.next()
		if err := p.expectKw("if"); err != nil {
			return nil, err
		}
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) assign() (ast.Stmt, error) {
	start := p.cur().Pos
	lhs, err := p.ref()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(source.Assign); err != nil {
		return nil, err
	}
	rhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectNL(); err != nil {
		return nil, err
	}
	s := p.a.assigns.New()
	s.LHS, s.RHS, s.Pos = lhs, rhs, start
	return s, nil
}

func (p *parser) ref() (*ast.Ref, error) {
	t, err := p.expect(source.Ident)
	if err != nil {
		return nil, err
	}
	r := p.a.refs.New()
	r.Name, r.Pos = p.text(t), t.Pos
	if p.at(source.LParen) {
		if err := p.enter(p.next().Pos); err != nil {
			return nil, err
		}
		mark := len(p.subs)
		for {
			s, err := p.sub()
			if err != nil {
				return nil, err
			}
			p.subs = append(p.subs, s)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		p.leave()
		r.Subs = heapsize.Pop(&p.subs, mark, &p.a.subs)
	}
	return r, nil
}

func (p *parser) sub() (ast.Sub, error) {
	if p.at(source.Colon) {
		p.next()
		return p.subTail(nil)
	}
	e, err := p.expr()
	if err != nil {
		return ast.Sub{}, err
	}
	if p.at(source.Colon) {
		p.next()
		return p.subTail(e)
	}
	return ast.Sub{Kind: ast.SubExpr, X: e}, nil
}

// subTail parses the part of a range subscript after the first colon.
func (p *parser) subTail(lo ast.Expr) (ast.Sub, error) {
	s := ast.Sub{Kind: ast.SubRange, Lo: lo}
	if p.at(source.Comma) || p.at(source.RParen) {
		return s, nil
	}
	if p.at(source.Colon) { // "lo::step"
		p.next()
		step, err := p.expr()
		if err != nil {
			return ast.Sub{}, err
		}
		s.Step = step
		return s, nil
	}
	hi, err := p.expr()
	if err != nil {
		return ast.Sub{}, err
	}
	s.Hi = hi
	if p.at(source.Colon) {
		p.next()
		step, err := p.expr()
		if err != nil {
			return ast.Sub{}, err
		}
		s.Step = step
	}
	return s, nil
}

// bin returns the binary operation x op y at pos.
func (p *parser) bin(op ast.BinOp, x, y ast.Expr, pos source.Pos) *ast.BinExpr {
	e := p.a.bins.New()
	e.Op, e.X, e.Y, e.Pos = op, x, y, pos
	return e
}

func (p *parser) expr() (ast.Expr, error) { return p.binary(precCmp) }

// The left-associative binary operators bind in three levels, loosest
// first; ** binds tighter than all of them (powExpr).
const (
	precCmp = 1 + iota // < > <= >= == /=
	precAdd            // + -
	precMul            // * /
)

// binOp returns the binary operator a token kind spells and its level,
// or level 0 for a kind that is not one.
func binOp(k source.Kind) (ast.BinOp, int) {
	switch k {
	case source.Lt:
		return ast.CmpLt, precCmp
	case source.Gt:
		return ast.CmpGt, precCmp
	case source.Le:
		return ast.CmpLe, precCmp
	case source.Ge:
		return ast.CmpGe, precCmp
	case source.EqEq:
		return ast.CmpEq, precCmp
	case source.Ne:
		return ast.CmpNe, precCmp
	case source.Plus:
		return ast.Add, precAdd
	case source.Minus:
		return ast.Sub_, precAdd
	case source.Star:
		return ast.Mul, precMul
	case source.Slash:
		return ast.Div, precMul
	}
	return 0, 0
}

// binary parses operands joined by operators of level prec or tighter,
// left-associatively: rel, term and the comparison chain of the grammar
// by precedence climbing, two calls a primary rather than four.
func (p *parser) binary(prec int) (ast.Expr, error) {
	x, err := p.powExpr()
	if err != nil {
		return nil, err
	}
	for {
		op, level := binOp(p.tok.Kind)
		if level < prec {
			return x, nil
		}
		pos := p.next().Pos
		y, err := p.binary(level + 1)
		if err != nil {
			return nil, err
		}
		x = p.bin(op, x, y, pos)
	}
}

func (p *parser) powExpr() (ast.Expr, error) {
	x, err := p.factor()
	if err != nil {
		return nil, err
	}
	if p.at(source.Power) {
		pos := p.next().Pos
		if err := p.enter(pos); err != nil {
			return nil, err
		}
		y, err := p.powExpr() // right associative
		if err != nil {
			return nil, err
		}
		p.leave()
		return p.bin(ast.Pow, x, y, pos), nil
	}
	return x, nil
}

func (p *parser) factor() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case source.Number:
		p.next()
		lit := p.a.nums.New()
		text := p.text(t)
		lit.Text, lit.IsInt, lit.Pos = text, !strings.ContainsAny(text, ".e"), t.Pos
		var err error
		if lit.IsInt {
			lit.Int, err = strconv.Atoi(text)
			lit.Value = float64(lit.Int)
		} else {
			lit.Value, err = strconv.ParseFloat(text, 64)
		}
		if err != nil {
			return nil, source.Errorf(t.Pos, "bad number %q", text)
		}
		return lit, nil
	case source.Minus:
		p.next()
		if err := p.enter(t.Pos); err != nil {
			return nil, err
		}
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		p.leave()
		u := p.a.unaries.New()
		u.X, u.Pos = x, t.Pos
		return u, nil
	case source.LParen:
		p.next()
		if err := p.enter(t.Pos); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		p.leave()
		return x, nil
	case source.Ident:
		if p.la.Kind != source.LParen {
			p.next()
			id := p.a.idents.New()
			id.Name, id.Pos = p.text(t), t.Pos
			return id, nil
		}
		if !ast.Intrinsics[p.text(t)] {
			return p.ref()
		}
		p.next()
		if err := p.enter(p.next().Pos); err != nil { // (
			return nil, err
		}
		mark := len(p.exprs)
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.exprs = append(p.exprs, a)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		p.leave()
		call := p.a.calls.New()
		call.Func, call.Args, call.Pos = p.text(t), heapsize.Pop(&p.exprs, mark, &p.a.exprs), t.Pos
		return call, nil
	}
	return nil, source.Errorf(t.Pos, "expected expression, found %s", p.token(t))
}
