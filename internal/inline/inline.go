// Package inline realizes the paper's §7 interprocedural direction the
// way pHPF-generation compilers did in practice: by inlining. Flatten
// substitutes every CALL statement with a renamed clone of the callee's
// body, producing a single routine over which the global communication
// analysis runs unchanged — so redundancy elimination and message
// combining work across what used to be procedure boundaries.
//
// Argument binding is Fortran-flavoured:
//
//   - an argument naming an array of the (flattened) caller binds the
//     formal by renaming: the formal's own declaration is dropped and
//     every reference is rewritten to the actual array;
//   - any other argument is substituted as an expression (macro
//     style), which covers the integer size parameters the mini-HPF
//     language uses;
//   - callee-local variables are renamed uniquely per call site, and
//     their declarations and DISTRIBUTE directives are hoisted into
//     the flattened routine.
//
// Recursion is rejected (HPF procedures are not recursive).
package inline

import (
	"fmt"
	"slices"

	"gcao/internal/ast"
	"gcao/internal/heapsize"
	"gcao/internal/source"
)

// Flatten inlines every call reachable from the named main routine and
// returns the resulting self-contained routine. The input program is
// not modified.
type flattener struct {
	prog    *ast.Program
	out     *ast.Routine
	callSeq int
	// arrays tracks array names visible in the flattened routine, for
	// argument classification.
	arrays map[string]bool
	// bytes counts what inlining made for the flattened routine: its new
	// nodes, lists and names (see rewriteBody).
	bytes int64
}

// Flatten inlines all calls in main. A routine or a list of statements
// without calls in or below it is the parsed one.
func Flatten(prog *ast.Program, main string) (*ast.Routine, error) {
	r := prog.Routine(main)
	if r == nil {
		return nil, fmt.Errorf("inline: no routine %q", main)
	}
	if !slices.ContainsFunc(r.Body, hasCall) {
		return r, nil
	}
	f := &flattener{prog: prog, arrays: map[string]bool{}}
	f.out = &ast.Routine{Name: r.Name, Params: r.Params, Pos: r.Pos}
	for _, d := range r.Decls {
		f.out.Decls = append(f.out.Decls, d)
		for _, item := range d.Items {
			if len(item.Bounds) > 0 {
				f.arrays[item.Name] = true
			}
		}
	}
	f.out.Dirs = append(f.out.Dirs, r.Dirs...)
	body, err := f.body(r.Body, map[string]bool{main: true})
	if err != nil {
		return nil, err
	}
	f.out.Body = body
	f.out.Bytes = r.Bytes + f.bytes + heapsize.Of(f.out) + heapsize.Slice(f.out.Decls) + heapsize.Slice(f.out.Dirs)
	return f.out, nil
}

// body returns stmts with every call in or below them inlined: stmts
// itself when there is none.
func (f *flattener) body(stmts []ast.Stmt, active map[string]bool) ([]ast.Stmt, error) {
	if !slices.ContainsFunc(stmts, hasCall) {
		return stmts, nil
	}
	var out []ast.Stmt
	for _, s := range stmts {
		if !hasCall(s) {
			out = append(out, s)
			continue
		}
		switch s := s.(type) {
		case *ast.CallStmt:
			inlined, err := f.expand(s, active)
			if err != nil {
				return nil, err
			}
			out = append(out, inlined...)
		case *ast.DoStmt:
			b, err := f.body(s.Body, active)
			if err != nil {
				return nil, err
			}
			out = append(out, &ast.DoStmt{Var: s.Var, Lo: s.Lo, Hi: s.Hi, Step: s.Step, Body: b, Pos: s.Pos})
			f.bytes += heapsize.Of(s)
		case *ast.IfStmt:
			t, err := f.body(s.Then, active)
			if err != nil {
				return nil, err
			}
			e, err := f.body(s.Else, active)
			if err != nil {
				return nil, err
			}
			out = append(out, &ast.IfStmt{Cond: s.Cond, Then: t, Else: e, Pos: s.Pos})
			f.bytes += heapsize.Of(s)
		}
	}
	f.bytes += heapsize.Slice(out)
	return out, nil
}

// hasCall reports whether s is a call or holds one.
func hasCall(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.CallStmt:
		return true
	case *ast.DoStmt:
		return slices.ContainsFunc(s.Body, hasCall)
	case *ast.IfStmt:
		return slices.ContainsFunc(s.Then, hasCall) || slices.ContainsFunc(s.Else, hasCall)
	}
	return false
}

// expand inlines one call site.
func (f *flattener) expand(call *ast.CallStmt, active map[string]bool) ([]ast.Stmt, error) {
	callee := f.prog.Routine(call.Name)
	if callee == nil {
		return nil, source.Errorf(call.Pos, "inline: call to unknown routine %q", call.Name)
	}
	if active[call.Name] {
		return nil, source.Errorf(call.Pos, "inline: recursive call to %q", call.Name)
	}
	if len(call.Args) != len(callee.Params) {
		return nil, source.Errorf(call.Pos, "inline: %q takes %d arguments, call passes %d",
			call.Name, len(callee.Params), len(call.Args))
	}
	f.callSeq++
	seq := f.callSeq

	// Classify formals: array binding vs expression substitution.
	// A formal is an array formal when the callee declares it with
	// bounds.
	formalArray := map[string]bool{}
	for _, d := range callee.Decls {
		for _, item := range d.Items {
			if len(item.Bounds) > 0 {
				for _, p := range callee.Params {
					if p == item.Name {
						formalArray[p] = true
					}
				}
			}
		}
	}

	rename := map[string]string{} // formal/local array or scalar -> new name
	substExpr := map[string]ast.Expr{}
	for i, p := range callee.Params {
		arg := call.Args[i]
		if formalArray[p] {
			id, ok := arg.(*ast.Ident)
			if !ok {
				if r, okr := arg.(*ast.Ref); okr && len(r.Subs) == 0 {
					id = &ast.Ident{Name: r.Name, Pos: r.Pos}
					ok = true
				}
			}
			if !ok || !f.arrays[id.Name] {
				return nil, source.Errorf(call.Pos,
					"inline: argument %d of %q must name an array (formal %q is an array)", i+1, call.Name, p)
			}
			rename[p] = id.Name
			continue
		}
		substExpr[p] = arg
	}

	// Hoist callee locals with fresh names; drop declarations of array
	// formals (they alias the actuals).
	for _, d := range callee.Decls {
		nd := &ast.Decl{Type: d.Type, Pos: d.Pos}
		for _, item := range d.Items {
			if _, isFormalArray := rename[item.Name]; isFormalArray && formalArray[item.Name] {
				continue
			}
			if _, isParam := substExpr[item.Name]; isParam {
				return nil, source.Errorf(d.Pos, "inline: %q: parameter %q redeclared as a local", call.Name, item.Name)
			}
			fresh := fmt.Sprintf("%s$c%d", item.Name, seq)
			rename[item.Name] = fresh
			ni := ast.DeclItem{Name: fresh}
			for _, b := range item.Bounds {
				ni.Bounds = append(ni.Bounds, ast.Bound{
					Lo: f.rewriteExpr(b.Lo, rename, substExpr),
					Hi: f.rewriteExpr(b.Hi, rename, substExpr),
				})
			}
			nd.Items = append(nd.Items, ni)
			if len(ni.Bounds) > 0 {
				f.arrays[fresh] = true
			}
			f.bytes += int64(len(fresh)) + heapsize.Slice(ni.Bounds)
		}
		if len(nd.Items) > 0 {
			f.out.Decls = append(f.out.Decls, nd)
			f.bytes += heapsize.Of(nd) + heapsize.Slice(nd.Items)
		}
	}

	// Hoist callee directives with renamed targets; directives naming
	// array formals are dropped (the actual's distribution governs).
	for _, dir := range callee.Dirs {
		switch dir := dir.(type) {
		case *ast.ProcessorsDir:
			return nil, source.Errorf(dir.Pos, "inline: %q: PROCESSORS directives belong in the main routine", call.Name)
		case *ast.DistributeDir:
			nd := &ast.DistributeDir{Kinds: dir.Kinds, Onto: dir.Onto, Pos: dir.Pos}
			for _, name := range dir.Arrays {
				if formalArray[name] {
					continue // actual's distribution applies
				}
				if fresh, ok := rename[name]; ok {
					nd.Arrays = append(nd.Arrays, fresh)
				} else {
					nd.Arrays = append(nd.Arrays, name)
				}
			}
			if len(nd.Arrays) > 0 {
				f.out.Dirs = append(f.out.Dirs, nd)
				f.bytes += heapsize.Of(nd) + heapsize.Slice(nd.Arrays)
			}
		}
	}

	// Clone and rewrite the body, then inline the calls the clone holds.
	inner := map[string]bool{}
	for k := range active {
		inner[k] = true
	}
	inner[call.Name] = true
	cloned := f.rewriteBody(callee.Body, rename, substExpr)
	return f.body(cloned, inner)
}

// rewriteBody clones stmts under the renaming and substitution and counts
// the clones but a call's, which body replaces (as it does a cloned list
// or statement holding a call, which is counted all the same).
func (f *flattener) rewriteBody(stmts []ast.Stmt, rename map[string]string, subst map[string]ast.Expr) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.AssignStmt:
			out = append(out, &ast.AssignStmt{
				LHS:   f.rewriteRef(s.LHS, rename, subst),
				RHS:   f.rewriteExpr(s.RHS, rename, subst),
				Pos:   s.Pos,
				Label: s.Label,
			})
			f.bytes += heapsize.Of(s)
		case *ast.DoStmt:
			// Loop variables are local to the loop; rename them per
			// call site so nests from different expansions stay
			// independent.
			fresh := fmt.Sprintf("%s$c%d", s.Var, f.callSeq)
			f.bytes += int64(len(fresh)) + heapsize.Of(s)
			inner := map[string]string{}
			for k, v := range rename {
				inner[k] = v
			}
			inner[s.Var] = fresh
			out = append(out, &ast.DoStmt{
				Var:  fresh,
				Lo:   f.rewriteExpr(s.Lo, rename, subst),
				Hi:   f.rewriteExpr(s.Hi, rename, subst),
				Step: f.rewriteExpr(s.Step, rename, subst),
				Body: f.rewriteBody(s.Body, inner, subst),
				Pos:  s.Pos,
			})
		case *ast.IfStmt:
			out = append(out, &ast.IfStmt{
				Cond: f.rewriteExpr(s.Cond, rename, subst),
				Then: f.rewriteBody(s.Then, rename, subst),
				Else: f.rewriteBody(s.Else, rename, subst),
				Pos:  s.Pos,
			})
			f.bytes += heapsize.Of(s)
		case *ast.CallStmt:
			args := make([]ast.Expr, len(s.Args))
			for i, a := range s.Args {
				args[i] = f.rewriteExpr(a, rename, subst)
			}
			out = append(out, &ast.CallStmt{Name: s.Name, Args: args, Pos: s.Pos})
		}
	}
	f.bytes += heapsize.Slice(out)
	return out
}

func (f *flattener) rewriteRef(r *ast.Ref, rename map[string]string, subst map[string]ast.Expr) *ast.Ref {
	name := r.Name
	if fresh, ok := rename[name]; ok {
		name = fresh
	}
	nr := &ast.Ref{Name: name, Pos: r.Pos}
	for _, sub := range r.Subs {
		nr.Subs = append(nr.Subs, ast.Sub{
			Kind: sub.Kind,
			X:    f.rewriteExpr(sub.X, rename, subst),
			Lo:   f.rewriteExpr(sub.Lo, rename, subst),
			Hi:   f.rewriteExpr(sub.Hi, rename, subst),
			Step: f.rewriteExpr(sub.Step, rename, subst),
		})
	}
	f.bytes += heapsize.Of(nr) + heapsize.Slice(nr.Subs)
	return nr
}

func (f *flattener) rewriteExpr(e ast.Expr, rename map[string]string, subst map[string]ast.Expr) ast.Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.NumLit:
		return e
	case *ast.Ident:
		if repl, ok := subst[e.Name]; ok {
			return repl
		}
		if fresh, ok := rename[e.Name]; ok {
			f.bytes += heapsize.Of(e)
			return &ast.Ident{Name: fresh, Pos: e.Pos}
		}
		return e
	case *ast.Ref:
		if len(e.Subs) == 0 {
			if repl, ok := subst[e.Name]; ok {
				return repl
			}
		}
		return f.rewriteRef(e, rename, subst)
	case *ast.BinExpr:
		f.bytes += heapsize.Of(e)
		return &ast.BinExpr{Op: e.Op,
			X:   f.rewriteExpr(e.X, rename, subst),
			Y:   f.rewriteExpr(e.Y, rename, subst),
			Pos: e.Pos}
	case *ast.UnaryExpr:
		f.bytes += heapsize.Of(e)
		return &ast.UnaryExpr{X: f.rewriteExpr(e.X, rename, subst), Pos: e.Pos}
	case *ast.Call:
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = f.rewriteExpr(a, rename, subst)
		}
		f.bytes += heapsize.Of(e) + heapsize.Slice(args)
		return &ast.Call{Func: e.Func, Args: args, Pos: e.Pos}
	}
	return e
}
