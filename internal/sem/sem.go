// Package sem performs semantic analysis of a parsed routine: it binds
// declarations and HPF directives into symbol tables, evaluates array
// bounds for the compile-time parameter values (the compiler, like
// pHPF in the paper's experiments, specializes on the problem size and
// processor count), and validates references.
package sem

import (
	"fmt"
	"math"
	"slices"

	"gcao/internal/ast"
	"gcao/internal/dist"
	"gcao/internal/heapsize"
	"gcao/internal/source"
)

// Array is a declared array with concrete bounds and an optional
// distribution. A nil Dist means the array is replicated on every
// processor (the HPF default for undistributed arrays in this model).
type Array struct {
	Name   string
	Type   ast.ElemType
	Lo, Hi []int
	Dist   *dist.Dist
	// Slot is the array's position in its unit's ArrayNames.
	Slot int
}

// Rank returns the array's dimensionality.
func (a *Array) Rank() int { return len(a.Lo) }

// Size returns the total element count.
func (a *Array) Size() int {
	n := 1
	for i := range a.Lo {
		n *= a.Hi[i] - a.Lo[i] + 1
	}
	return n
}

// ElemBytes returns the storage size of one element (the paper's
// benchmarks are all double precision: 8 bytes).
func (a *Array) ElemBytes() int { return 8 }

// Scalar is a declared scalar variable or routine parameter.
type Scalar struct {
	Name    string
	Type    ast.ElemType
	IsParam bool
}

// Unit is the analyzed routine: the result of semantic analysis and
// the input to scalarization and communication analysis.
type Unit struct {
	Routine *ast.Routine
	Params  map[string]int
	Arrays  map[string]*Array
	Scalars map[string]*Scalar
	Grid    dist.Grid
	// ArrayNames lists arrays in declaration order for deterministic
	// iteration.
	ArrayNames []string

	// bytes counts the slabs Analyze carves arrays, scalars, bounds,
	// distributions and their dimensions from, and any sub-grid's shape.
	bytes int64
}

// Bytes returns what the unit holds beside its routine: itself, its
// symbol tables and what they are carved from.
func (u *Unit) Bytes() int64 {
	return heapsize.Of(u) + u.bytes + heapsize.Map(u.Params) + heapsize.Map(u.Arrays) +
		heapsize.Map(u.Scalars) + heapsize.Slice(u.ArrayNames) + heapsize.Slice(u.Grid.Shape)
}

// Options configures analysis.
type Options struct {
	// Procs is the processor count used when the routine lacks a
	// PROCESSORS directive. Ignored when a directive is present.
	Procs int
}

// Analyze checks the routine and builds its symbol tables. params
// supplies compile-time values for the routine's integer parameters.
//
// A first pass counts the routine's declarations and distributions, so
// that its arrays, scalars, bounds, distributions, their dimensions and
// the directives' kinds are each carved from one allocation and its maps
// are sized once: the unit allocates by the routine, not by the symbol.
func Analyze(r *ast.Routine, params map[string]int, opt Options) (*Unit, error) {
	nArrays, nScalars, nBounds, nDists, nKinds, nDims := 0, len(r.Params), 0, 0, 0, 0
	for _, d := range r.Decls {
		for _, item := range d.Items {
			if len(item.Bounds) == 0 {
				nScalars++
			} else {
				nArrays++
				nBounds += 2 * len(item.Bounds)
			}
		}
	}
	for _, dir := range r.Dirs {
		if dd, ok := dir.(*ast.DistributeDir); ok {
			nDists += len(dd.Arrays)
			nKinds += len(dd.Kinds)
			nDims += len(dd.Arrays) * len(dd.Kinds)
		}
	}
	arrays := make([]Array, nArrays)
	scalars := make([]Scalar, nScalars)
	bounds := make([]int, nBounds)
	dists := make([]dist.Dist, nDists)
	kindSlab := make([]dist.Kind, nKinds)
	dims := make([]dist.DimDist, nDims)
	u := &Unit{
		Routine:    r,
		Params:     make(map[string]int, len(r.Params)),
		Arrays:     make(map[string]*Array, nArrays),
		Scalars:    make(map[string]*Scalar, nScalars),
		ArrayNames: make([]string, 0, nArrays),
		bytes:      heapsize.Slice(arrays) + heapsize.Slice(scalars) + heapsize.Slice(bounds) + heapsize.Slice(dists) + heapsize.Slice(dims),
	}
	newScalar := func(sc Scalar) {
		scalars[0] = sc
		u.Scalars[sc.Name] = &scalars[0]
		scalars = scalars[1:]
	}
	for _, p := range r.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("sem: routine %q: no value supplied for parameter %q", r.Name, p)
		}
		u.Params[p] = v
		newScalar(Scalar{Name: p, Type: ast.Integer, IsParam: true})
	}

	// Declarations.
	for _, d := range r.Decls {
		for _, item := range d.Items {
			if _, dup := u.Arrays[item.Name]; dup {
				return nil, source.Errorf(d.Pos, "sem: %q declared twice", item.Name)
			}
			if _, dup := u.Scalars[item.Name]; dup {
				return nil, source.Errorf(d.Pos, "sem: %q declared twice", item.Name)
			}
			if len(item.Bounds) == 0 {
				newScalar(Scalar{Name: item.Name, Type: d.Type})
				continue
			}
			rank := len(item.Bounds)
			a := &arrays[0]
			arrays = arrays[1:]
			*a = Array{Name: item.Name, Type: d.Type, Lo: bounds[:0:rank], Hi: bounds[rank : rank : 2*rank], Slot: len(u.ArrayNames)}
			bounds = bounds[2*rank:]
			for _, b := range item.Bounds {
				lo := 1
				if b.Lo != nil {
					v, err := u.EvalInt(b.Lo)
					if err != nil {
						return nil, err
					}
					lo = v
				}
				hi, err := u.EvalInt(b.Hi)
				if err != nil {
					return nil, err
				}
				if hi < lo {
					return nil, source.Errorf(d.Pos, "sem: array %q has empty dimension %d:%d", item.Name, lo, hi)
				}
				a.Lo = append(a.Lo, lo)
				a.Hi = append(a.Hi, hi)
			}
			u.Arrays[item.Name] = a
			u.ArrayNames = append(u.ArrayNames, item.Name)
		}
	}

	// Processor grid: from a PROCESSORS directive if present, else a
	// default grid sized by opt.Procs and the maximum distributed rank.
	var gridShape []int
	maxDistRank := 0
	for _, dir := range r.Dirs {
		switch dir := dir.(type) {
		case *ast.ProcessorsDir:
			if gridShape != nil {
				return nil, source.Errorf(dir.Pos, "sem: multiple PROCESSORS directives")
			}
			for _, e := range dir.Shape {
				v, err := u.EvalInt(e)
				if err != nil {
					return nil, err
				}
				gridShape = append(gridShape, v)
			}
		case *ast.DistributeDir:
			n := 0
			for _, k := range dir.Kinds {
				if k != ast.DistStar {
					n++
				}
			}
			if n > maxDistRank {
				maxDistRank = n
			}
		}
	}
	switch {
	case gridShape != nil:
		g, err := dist.NewGrid(gridShape...)
		if err != nil {
			return nil, err
		}
		u.Grid = g
	case maxDistRank >= 2:
		g, err := dist.SquareGrid(maxProcs(opt))
		if err != nil {
			return nil, err
		}
		u.Grid = g
	default:
		g, err := dist.NewGrid(maxProcs(opt))
		if err != nil {
			return nil, err
		}
		u.Grid = g
	}

	// Distribute directives. A directive's kinds and grid are the same
	// for every array it names.
	for _, dir := range r.Dirs {
		dd, ok := dir.(*ast.DistributeDir)
		if !ok {
			continue
		}
		kinds := heapsize.Take(&kindSlab, len(dd.Kinds))
		for i, k := range dd.Kinds {
			switch k {
			case ast.DistStar:
				kinds[i] = dist.Star
			case ast.DistBlock:
				kinds[i] = dist.Block
			case ast.DistCyclic:
				kinds[i] = dist.Cyclic
			}
		}
		grid := u.Grid
		// A distribution using fewer grid dims than the full grid
		// uses a prefix; dist.New validates.
		nd := 0
		for _, k := range kinds {
			if k != dist.Star {
				nd++
			}
		}
		if nd < grid.Rank() {
			// Collapse onto the leading nd grid dims when possible:
			// flatten the grid so NumProcs is preserved only if the
			// trailing dims are 1; otherwise build a sub-grid.
			shape := append([]int(nil), grid.Shape[:nd]...)
			rest := 1
			for _, s := range grid.Shape[nd:] {
				rest *= s
			}
			if nd > 0 {
				shape[nd-1] *= rest
			} else {
				shape = []int{rest}
			}
			g2, err := dist.NewGrid(shape...)
			if err != nil {
				return nil, err
			}
			grid = g2
			u.bytes += heapsize.Slice(grid.Shape)
		}
		for _, name := range dd.Arrays {
			a, ok := u.Arrays[name]
			if !ok {
				return nil, source.Errorf(dd.Pos, "sem: DISTRIBUTE names undeclared array %q", name)
			}
			if len(dd.Kinds) != a.Rank() {
				return nil, source.Errorf(dd.Pos, "sem: DISTRIBUTE rank %d for rank-%d array %q", len(dd.Kinds), a.Rank(), name)
			}
			dv, err := dist.New(grid, a.Lo, a.Hi, &dims, kinds...)
			if err != nil {
				return nil, source.Errorf(dd.Pos, "sem: %q: %v", name, err)
			}
			dists[0] = dv
			a.Dist = &dists[0]
			dists = dists[1:]
		}
	}

	// Validate statements.
	c := checker{Unit: u, loopVars: make([]string, 0, 8)}
	if err := c.body(r.Body); err != nil {
		return nil, err
	}
	return u, nil
}

func maxProcs(opt Options) int {
	if opt.Procs > 0 {
		return opt.Procs
	}
	return 4
}

// checker validates a routine's statements against its symbol tables.
// loopVars holds the index variables of the DO loops around the
// statement being checked, outermost first: implicitly declared integer
// scalars, in scope for their loop's body only.
type checker struct {
	*Unit
	loopVars []string
}

// body validates references and collects implicitly declared loop index
// variables as integer scalars.
func (c *checker) body(body []ast.Stmt) error {
	for _, s := range body {
		switch s := s.(type) {
		case *ast.AssignStmt:
			if err := c.ref(s.LHS, true); err != nil {
				return err
			}
			if err := c.expr(s.RHS); err != nil {
				return err
			}
		case *ast.DoStmt:
			if err := c.expr(s.Lo); err != nil {
				return err
			}
			if err := c.expr(s.Hi); err != nil {
				return err
			}
			if err := c.expr(s.Step); err != nil {
				return err
			}
			if _, isArr := c.Arrays[s.Var]; isArr {
				return source.Errorf(s.Pos, "sem: loop index %q is an array", s.Var)
			}
			c.loopVars = append(c.loopVars, s.Var)
			if err := c.body(s.Body); err != nil {
				return err
			}
			c.loopVars = c.loopVars[:len(c.loopVars)-1]
		case *ast.IfStmt:
			if err := c.expr(s.Cond); err != nil {
				return err
			}
			if err := c.body(s.Then); err != nil {
				return err
			}
			if err := c.body(s.Else); err != nil {
				return err
			}
		case *ast.CallStmt:
			return source.Errorf(s.Pos, "sem: call to %q not inlined (run inline.Flatten on multi-routine programs)", s.Name)
		}
	}
	return nil
}

// expr validates an expression, a node before its operands; nil is
// valid. A reference's subscripts are checked once, by ref: the walk
// that also descended into them after ref had took time exponential in
// how deeply subscripts nest (a(a(a(...)))).
func (c *checker) expr(e ast.Expr) error {
	switch e := e.(type) {
	case *ast.Ident:
		if !c.known(e.Name) {
			return source.Errorf(e.Pos, "sem: undeclared variable %q", e.Name)
		}
	case *ast.Ref:
		return c.ref(e, false)
	case *ast.Call:
		if !ast.Intrinsics[e.Func] {
			return source.Errorf(e.Pos, "sem: unknown intrinsic %q", e.Func)
		}
		for _, a := range e.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
	case *ast.BinExpr:
		if err := c.expr(e.X); err != nil {
			return err
		}
		return c.expr(e.Y)
	case *ast.UnaryExpr:
		return c.expr(e.X)
	}
	return nil
}

func (c *checker) isLoopVar(name string) bool {
	return slices.Contains(c.loopVars, name)
}

func (c *checker) known(name string) bool {
	if c.isLoopVar(name) {
		return true
	}
	if _, ok := c.Scalars[name]; ok {
		return true
	}
	_, ok := c.Arrays[name]
	return ok
}

func (c *checker) ref(r *ast.Ref, isLHS bool) error {
	a, isArr := c.Arrays[r.Name]
	if !isArr {
		if len(r.Subs) > 0 {
			return source.Errorf(r.Pos, "sem: %q subscripted but not an array", r.Name)
		}
		if !c.known(r.Name) {
			return source.Errorf(r.Pos, "sem: undeclared variable %q", r.Name)
		}
		if isLHS {
			if c.isLoopVar(r.Name) {
				return source.Errorf(r.Pos, "sem: assignment to loop index %q", r.Name)
			}
			if sc := c.Scalars[r.Name]; sc != nil && sc.IsParam {
				return source.Errorf(r.Pos, "sem: assignment to parameter %q", r.Name)
			}
		}
		return nil
	}
	if len(r.Subs) != 0 && len(r.Subs) != a.Rank() {
		return source.Errorf(r.Pos, "sem: %q has rank %d, subscripted with %d", r.Name, a.Rank(), len(r.Subs))
	}
	for _, sub := range r.Subs {
		for _, e := range [...]ast.Expr{sub.X, sub.Lo, sub.Hi, sub.Step} {
			if err := c.expr(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// EvalInt evaluates an integer-valued constant expression using the
// routine parameters. Loop variables are not in scope.
func (u *Unit) EvalInt(e ast.Expr) (int, error) {
	v, err := u.evalIntEnv(e, nil)
	return v, err
}

// EvalIntEnv evaluates an integer expression with extra bindings (loop
// variable values during simulation, for example).
func (u *Unit) EvalIntEnv(e ast.Expr, env map[string]int) (int, error) {
	return u.evalIntEnv(e, env)
}

func (u *Unit) evalIntEnv(e ast.Expr, env map[string]int) (int, error) {
	switch e := e.(type) {
	case *ast.NumLit:
		if !e.IsInt {
			return 0, source.Errorf(e.Pos, "sem: real literal %q where integer expected", e.Text)
		}
		return e.Int, nil
	case *ast.Ident:
		if env != nil {
			if v, ok := env[e.Name]; ok {
				return v, nil
			}
		}
		if v, ok := u.Params[e.Name]; ok {
			return v, nil
		}
		return 0, source.Errorf(e.Pos, "sem: %q is not a compile-time integer", e.Name)
	case *ast.UnaryExpr:
		v, err := u.evalIntEnv(e.X, env)
		return -v, err
	case *ast.BinExpr:
		x, err := u.evalIntEnv(e.X, env)
		if err != nil {
			return 0, err
		}
		y, err := u.evalIntEnv(e.Y, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case ast.Add:
			return x + y, nil
		case ast.Sub_:
			return x - y, nil
		case ast.Mul:
			return x * y, nil
		case ast.Div:
			if y == 0 {
				return 0, source.Errorf(e.Pos, "sem: division by zero")
			}
			return x / y, nil
		case ast.Pow:
			return int(math.Pow(float64(x), float64(y))), nil
		}
		return 0, source.Errorf(e.Pos, "sem: operator %s in integer expression", e.Op)
	case *ast.Call:
		if e.Func == "mod" && len(e.Args) == 2 {
			x, err := u.evalIntEnv(e.Args[0], env)
			if err != nil {
				return 0, err
			}
			y, err := u.evalIntEnv(e.Args[1], env)
			if err != nil {
				return 0, err
			}
			if y == 0 {
				return 0, source.Errorf(e.Pos, "sem: mod by zero")
			}
			return x % y, nil
		}
	}
	return 0, source.Errorf(exprPos(e), "sem: not a compile-time integer expression: %s", ast.ExprString(e))
}

func exprPos(e ast.Expr) source.Pos {
	if e == nil {
		return source.Pos{}
	}
	return e.ExprPos()
}
