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
	"strconv"
	"strings"

	"gcao/internal/ast"
	"gcao/internal/source"
)

type parser struct {
	toks []source.Token
	pos  int
}

// Parse parses a whole program.
func Parse(src string) (*ast.Program, error) {
	toks, err := source.ScanAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
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

func (p *parser) cur() source.Token     { return p.toks[p.pos] }
func (p *parser) at(k source.Kind) bool { return p.cur().Kind == k }

func (p *parser) atKw(kw string) bool {
	t := p.cur()
	return t.Kind == source.Ident && t.Text == kw
}

func (p *parser) next() source.Token {
	t := p.toks[p.pos]
	if t.Kind != source.EOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k source.Kind) (source.Token, error) {
	if !p.at(k) {
		return p.cur(), source.Errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectKw(kw string) error {
	if !p.atKw(kw) {
		return source.Errorf(p.cur().Pos, "expected %q, found %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectNL() error {
	if p.at(source.EOF) {
		return nil
	}
	if !p.at(source.Newline) {
		return source.Errorf(p.cur().Pos, "expected end of statement, found %s", p.cur())
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
	r := &ast.Routine{Name: nameTok.Text, Pos: start}
	if p.at(source.LParen) {
		p.next()
		for !p.at(source.RParen) {
			t, err := p.expect(source.Ident)
			if err != nil {
				return nil, err
			}
			r.Params = append(r.Params, t.Text)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
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
		r.Body = append(r.Body, s)
	}
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
	for {
		t, err := p.expect(source.Ident)
		if err != nil {
			return nil, err
		}
		item := ast.DeclItem{Name: t.Text}
		if p.at(source.LParen) {
			p.next()
			for {
				b, err := p.bound()
				if err != nil {
					return nil, err
				}
				item.Bounds = append(item.Bounds, b)
				if p.at(source.Comma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(source.RParen); err != nil {
				return nil, err
			}
		}
		d.Items = append(d.Items, item)
		if p.at(source.Comma) {
			p.next()
			continue
		}
		break
	}
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
		d := &ast.ProcessorsDir{Name: nameTok.Text, Pos: start}
		if _, err := p.expect(source.LParen); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Shape = append(d.Shape, e)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		if err := p.expectNL(); err != nil {
			return nil, err
		}
		return d, nil
	case p.atKw("distribute"):
		p.next()
		d := &ast.DistributeDir{Pos: start}
		// Either "distribute a(block,block)" or "distribute (block,...)
		// [onto p] :: a, b".
		if p.at(source.Ident) {
			nameTok := p.next()
			d.Arrays = append(d.Arrays, nameTok.Text)
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
			d.Onto = t.Text
		}
		if len(d.Arrays) == 0 {
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
				d.Arrays = append(d.Arrays, t.Text)
				if p.at(source.Comma) {
					p.next()
					continue
				}
				break
			}
		}
		if err := p.expectNL(); err != nil {
			return nil, err
		}
		return d, nil
	}
	return nil, source.Errorf(p.cur().Pos, "unknown HPF directive %s", p.cur())
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
	return 0, source.Errorf(p.cur().Pos, "expected distribution kind, found %s", p.cur())
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
	return nil, source.Errorf(p.cur().Pos, "expected statement, found %s", p.cur())
}

func (p *parser) callStmt() (ast.Stmt, error) {
	start := p.cur().Pos
	p.next() // call
	name, err := p.expect(source.Ident)
	if err != nil {
		return nil, err
	}
	s := &ast.CallStmt{Name: name.Text, Pos: start}
	if p.at(source.LParen) {
		p.next()
		for !p.at(source.RParen) {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.Args = append(s.Args, a)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
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
	d := &ast.DoStmt{Var: v.Text, Lo: lo, Hi: hi, Step: step, Pos: start}
	for !p.atKw("enddo") && !p.atKw("end") {
		if p.at(source.EOF) {
			return nil, source.Errorf(start, "unterminated do loop")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		d.Body = append(d.Body, s)
	}
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
	s := &ast.IfStmt{Cond: cond, Pos: start}
	for !p.atKw("else") && !p.atKw("endif") && !p.atKw("end") {
		if p.at(source.EOF) {
			return nil, source.Errorf(start, "unterminated if statement")
		}
		c, err := p.stmt()
		if err != nil {
			return nil, err
		}
		s.Then = append(s.Then, c)
	}
	if p.atKw("else") {
		p.next()
		if err := p.expectNL(); err != nil {
			return nil, err
		}
		for !p.atKw("endif") && !p.atKw("end") {
			if p.at(source.EOF) {
				return nil, source.Errorf(start, "unterminated else branch")
			}
			c, err := p.stmt()
			if err != nil {
				return nil, err
			}
			s.Else = append(s.Else, c)
		}
	}
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
	return &ast.AssignStmt{LHS: lhs, RHS: rhs, Pos: start}, nil
}

func (p *parser) ref() (*ast.Ref, error) {
	t, err := p.expect(source.Ident)
	if err != nil {
		return nil, err
	}
	r := &ast.Ref{Name: t.Text, Pos: t.Pos}
	if p.at(source.LParen) {
		p.next()
		for {
			s, err := p.sub()
			if err != nil {
				return nil, err
			}
			r.Subs = append(r.Subs, s)
			if p.at(source.Comma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
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

func (p *parser) expr() (ast.Expr, error) {
	x, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Kind {
		case source.Lt:
			op = ast.CmpLt
		case source.Gt:
			op = ast.CmpGt
		case source.Le:
			op = ast.CmpLe
		case source.Ge:
			op = ast.CmpGe
		case source.EqEq:
			op = ast.CmpEq
		case source.Ne:
			op = ast.CmpNe
		default:
			return x, nil
		}
		pos := p.next().Pos
		y, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		x = &ast.BinExpr{Op: op, X: x, Y: y, Pos: pos}
	}
}

func (p *parser) addExpr() (ast.Expr, error) {
	x, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(source.Plus) || p.at(source.Minus) {
		op := ast.Add
		if p.at(source.Minus) {
			op = ast.Sub_
		}
		pos := p.next().Pos
		y, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		x = &ast.BinExpr{Op: op, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *parser) mulExpr() (ast.Expr, error) {
	x, err := p.powExpr()
	if err != nil {
		return nil, err
	}
	for p.at(source.Star) || p.at(source.Slash) {
		op := ast.Mul
		if p.at(source.Slash) {
			op = ast.Div
		}
		pos := p.next().Pos
		y, err := p.powExpr()
		if err != nil {
			return nil, err
		}
		x = &ast.BinExpr{Op: op, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *parser) powExpr() (ast.Expr, error) {
	x, err := p.factor()
	if err != nil {
		return nil, err
	}
	if p.at(source.Power) {
		pos := p.next().Pos
		y, err := p.powExpr() // right associative
		if err != nil {
			return nil, err
		}
		return &ast.BinExpr{Op: ast.Pow, X: x, Y: y, Pos: pos}, nil
	}
	return x, nil
}

func (p *parser) factor() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case source.Number:
		p.next()
		lit := &ast.NumLit{Text: t.Text, IsInt: !strings.ContainsAny(t.Text, ".e"), Pos: t.Pos}
		var err error
		if lit.IsInt {
			lit.Int, err = strconv.Atoi(t.Text)
			lit.Value = float64(lit.Int)
		} else {
			lit.Value, err = strconv.ParseFloat(t.Text, 64)
		}
		if err != nil {
			return nil, source.Errorf(t.Pos, "bad number %q", t.Text)
		}
		return lit, nil
	case source.Minus:
		p.next()
		x, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &ast.UnaryExpr{X: x, Pos: t.Pos}, nil
	case source.LParen:
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(source.RParen); err != nil {
			return nil, err
		}
		return x, nil
	case source.Ident:
		if ast.Intrinsics[t.Text] && p.toks[p.pos+1].Kind == source.LParen {
			p.next()
			p.next() // (
			call := &ast.Call{Func: t.Text, Pos: t.Pos}
			for {
				a, err := p.argExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.at(source.Comma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(source.RParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		r, err := p.ref()
		if err != nil {
			return nil, err
		}
		if len(r.Subs) == 0 {
			return &ast.Ident{Name: r.Name, Pos: r.Pos}, nil
		}
		return r, nil
	}
	return nil, source.Errorf(t.Pos, "expected expression, found %s", t)
}

// argExpr parses an intrinsic argument, which may be a full expression
// (possibly containing section refs, e.g. sum(g(i,ny,:))).
func (p *parser) argExpr() (ast.Expr, error) {
	return p.expr()
}
