// Package bench contains the mini-HPF sources of the paper's four
// benchmarks — shallow (NCAR shallow water), gravity (NPAC),
// trimesh, and hydflo — rewritten from the structural descriptions in
// §2 and §5, together with the harness that regenerates the Fig. 10
// tables and charts. The sources follow the real codes' computational
// patterns (the shallow water equations of the NCAR SWM kernel, the
// plane-sweep + global sums of gravity, multi-array stencil sweeps for
// trimesh, and two-stage flux updates over (n+2)³ state arrays for
// hydflo), at the distributions the paper states: (BLOCK,BLOCK) for
// the 2-d codes and (*,BLOCK,BLOCK) for the 3-d codes.
package bench

import (
	"fmt"

	"gcao/internal/core"
	"gcao/internal/parser"
	"gcao/internal/sem"
)

// Program is one benchmark routine with its parameter binding.
type Program struct {
	// Bench and Routine name the Fig. 10(a) row.
	Bench, Routine string
	// CommType is the communication column of Fig. 10(a).
	CommType core.CommKind
	// Source is the mini-HPF text.
	Source string
	// Params binds the routine parameters for problem size n with a
	// fixed small number of timesteps.
	Params func(n int) map[string]int
	// DefaultN is a representative problem size for static counts.
	DefaultN int
	// Procs returns the processor count the paper used per machine.
	Procs map[string]int
}

// Unit runs the front end — parse and semantic analysis — for problem
// size n on p processors.
func (pr *Program) Unit(n, p int) (*sem.Unit, error) {
	r, err := parser.ParseRoutine(pr.Source)
	if err != nil {
		return nil, fmt.Errorf("bench %s/%s: %w", pr.Bench, pr.Routine, err)
	}
	u, err := sem.Analyze(r, pr.Params(n), sem.Options{Procs: p})
	if err != nil {
		return nil, fmt.Errorf("bench %s/%s: %w", pr.Bench, pr.Routine, err)
	}
	return u, nil
}

// Compile runs the front end and communication analysis for problem
// size n on p processors.
func (pr *Program) Compile(n, p int) (*core.Analysis, error) {
	u, err := pr.Unit(n, p)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAnalysis(u)
	if err != nil {
		return nil, fmt.Errorf("bench %s/%s: %w", pr.Bench, pr.Routine, err)
	}
	return a, nil
}

// ---------------------------------------------------------------------
// shallow — the NCAR shallow water model main loop (13 two-dimensional
// (BLOCK,BLOCK) arrays; §5 and Fig. 2). One timestep: the loop-100
// nest computing cu, cv, z, h; the loop-200 nest computing unew, vnew,
// pnew; and the loop-300 time smoothing.
const shallowSrc = `
routine main(n, steps)
real p(0:n+1, 0:n+1), u(0:n+1, 0:n+1), v(0:n+1, 0:n+1)
real cu(0:n+1, 0:n+1), cv(0:n+1, 0:n+1), z(0:n+1, 0:n+1), h(0:n+1, 0:n+1)
real unew(0:n+1, 0:n+1), vnew(0:n+1, 0:n+1), pnew(0:n+1, 0:n+1)
real uold(0:n+1, 0:n+1), vold(0:n+1, 0:n+1), pold(0:n+1, 0:n+1)
real fsdx, fsdy, tdts8, tdtsdx, tdtsdy, alpha
!hpf$ distribute (block, block) :: p, u, v, cu, cv, z, h
!hpf$ distribute (block, block) :: unew, vnew, pnew, uold, vold, pold
fsdx = 4.0 / n
fsdy = 4.0 / n
tdts8 = 0.125
tdtsdx = 2.0 / n
tdtsdy = 2.0 / n
alpha = 0.001
do i = 0, n + 1
do j = 0, n + 1
p(i, j) = 10.0 + i * 0.01 + j * 0.02
u(i, j) = 1.0 + mod(i + j, 3)
v(i, j) = 2.0 - mod(i * j, 5) * 0.1
uold(i, j) = u(i, j)
vold(i, j) = v(i, j)
pold(i, j) = p(i, j)
cu(i, j) = 0
cv(i, j) = 0
z(i, j) = 0
h(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 1, n
do j = 1, n
cu(i, j) = 0.5 * (p(i, j) + p(i - 1, j)) * u(i, j)
cv(i, j) = 0.5 * (p(i, j) + p(i, j - 1)) * v(i, j)
z(i, j) = (fsdx * (v(i, j) - v(i - 1, j)) - fsdy * (u(i, j) - u(i, j - 1))) / (p(i - 1, j - 1) + p(i, j - 1) + p(i - 1, j) + p(i, j))
h(i, j) = p(i, j) + 0.25 * (u(i + 1, j) * u(i + 1, j) + u(i, j) * u(i, j) + v(i, j + 1) * v(i, j + 1) + v(i, j) * v(i, j))
enddo
enddo
do i = 1, n
do j = 1, n
unew(i, j) = uold(i, j) + tdts8 * (z(i, j + 1) + z(i, j)) * (cv(i, j + 1) + cv(i - 1, j + 1) + cv(i - 1, j) + cv(i, j)) - tdtsdx * (h(i, j) - h(i - 1, j))
vnew(i, j) = vold(i, j) - tdts8 * (z(i + 1, j) + z(i, j)) * (cu(i + 1, j) + cu(i, j) + cu(i, j - 1) + cu(i + 1, j - 1)) - tdtsdy * (h(i, j) - h(i, j - 1))
pnew(i, j) = pold(i, j) - tdtsdx * (cu(i + 1, j) - cu(i, j)) - tdtsdy * (cv(i, j + 1) - cv(i, j))
enddo
enddo
do i = 1, n
do j = 1, n
uold(i, j) = u(i, j) + alpha * (unew(i, j) - 2 * u(i, j) + uold(i, j))
vold(i, j) = v(i, j) + alpha * (vnew(i, j) - 2 * v(i, j) + vold(i, j))
pold(i, j) = p(i, j) + alpha * (pnew(i, j) - 2 * p(i, j) + pold(i, j))
u(i, j) = unew(i, j)
v(i, j) = vnew(i, j)
p(i, j) = pnew(i, j)
enddo
enddo
enddo
end
`

// ---------------------------------------------------------------------
// gravity — the NPAC gravity code of Fig. 1: a 3-d field g(nx,ny,nz)
// distributed (*,BLOCK,BLOCK) swept plane by plane; per plane, NNC
// stencils of g and of the saved previous plane glast, four boundary
// SUM reductions of each, and the plane update.
const gravitySrc = `
routine main(nx, ny, nz, steps)
real g(nx, ny, nz)
real glast(ny, nz), w1(ny, nz), w2(ny, nz)
real s1, s2, s3, s4, t1, t2, t3, t4, c
!hpf$ distribute (*, block, block) :: g
!hpf$ distribute (block, block) :: glast, w1, w2
c = 0.25
do j = 1, ny
do k = 1, nz
glast(j, k) = 0
w1(j, k) = 0
w2(j, k) = 0
do i = 1, nx
g(i, j, k) = 1.0 + mod(i + 2 * j + 3 * k, 7) * 0.125
enddo
enddo
enddo
do it = 1, steps
do i = 2, nx - 1
do j = 2, ny - 1
do k = 2, nz - 1
w1(j, k) = g(i, j - 1, k) + g(i, j + 1, k) + g(i, j, k - 1) + g(i, j, k + 1) - 4 * g(i, j, k)
enddo
enddo
do j = 2, ny - 1
do k = 2, nz - 1
w2(j, k) = glast(j - 1, k) + glast(j + 1, k) + glast(j, k - 1) + glast(j, k + 1) - 4 * glast(j, k)
enddo
enddo
s1 = sum(g(i, ny, 1:nz))
s2 = sum(g(i, ny - 1, 1:nz))
s3 = sum(g(i, 1, 1:nz))
s4 = sum(g(i, 2, 1:nz))
do j = 2, ny - 1
do k = 2, nz - 1
w1(j, k) = w1(j, k) + 0.001 * (s1 + s2 + s3 + s4)
enddo
enddo
t1 = sum(glast(ny, 1:nz))
t2 = sum(glast(ny - 1, 1:nz))
t3 = sum(glast(1, 1:nz))
t4 = sum(glast(2, 1:nz))
do j = 2, ny - 1
do k = 2, nz - 1
w2(j, k) = w2(j, k) + 0.001 * (t1 + t2 + t3 + t4)
enddo
enddo
do j = 2, ny - 1
do k = 2, nz - 1
glast(j, k) = g(i, j, k)
enddo
enddo
do j = 2, ny - 1
do k = 2, nz - 1
g(i, j, k) = g(i, j, k) + c * (w1(j, k) + w2(j, k))
enddo
enddo
enddo
enddo
end
`

// ---------------------------------------------------------------------
// trimesh — triangular-mesh relaxation over many n×n (BLOCK,BLOCK)
// arrays ("over 25 such arrays", §5). The normdot routine applies a
// five-point stencil to six edge fields; gauss is a Gauss-style sweep
// over three coefficient arrays plus a right-hand side.
const trimeshNormdotSrc = `
routine normdot(n, steps)
real e1(n, n), e2(n, n), e3(n, n), e4(n, n), e5(n, n), e6(n, n)
real r1(n, n), r2(n, n), r3(n, n), r4(n, n), r5(n, n), r6(n, n)
real w
!hpf$ distribute (block, block) :: e1, e2, e3, e4, e5, e6
!hpf$ distribute (block, block) :: r1, r2, r3, r4, r5, r6
w = 0.2
do i = 1, n
do j = 1, n
e1(i, j) = 1 + mod(i + j, 4) * 0.25
e2(i, j) = 1 + mod(i + 2 * j, 5) * 0.2
e3(i, j) = 1 + mod(2 * i + j, 3) * 0.5
e4(i, j) = 1 + mod(i * j, 7) * 0.125
e5(i, j) = 1 + mod(3 * i + j, 4) * 0.3
e6(i, j) = 1 + mod(i + 3 * j, 6) * 0.15
r1(i, j) = 0
r2(i, j) = 0
r3(i, j) = 0
r4(i, j) = 0
r5(i, j) = 0
r6(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
r1(i, j) = e1(i - 1, j) + e1(i + 1, j) + e1(i, j - 1) + e1(i, j + 1) - 4 * e1(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
r2(i, j) = e2(i - 1, j) + e2(i + 1, j) + e2(i, j - 1) + e2(i, j + 1) - 4 * e2(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
r3(i, j) = e3(i - 1, j) + e3(i + 1, j) + e3(i, j - 1) + e3(i, j + 1) - 4 * e3(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
r4(i, j) = e4(i - 1, j) + e4(i + 1, j) + e4(i, j - 1) + e4(i, j + 1) - 4 * e4(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
r5(i, j) = e5(i - 1, j) + e5(i + 1, j) + e5(i, j - 1) + e5(i, j + 1) - 4 * e5(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
r6(i, j) = e6(i - 1, j) + e6(i + 1, j) + e6(i, j - 1) + e6(i, j + 1) - 4 * e6(i, j)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
e1(i, j) = e1(i, j) + w * r1(i, j)
e2(i, j) = e2(i, j) + w * r2(i, j)
e3(i, j) = e3(i, j) + w * r3(i, j)
e4(i, j) = e4(i, j) + w * r4(i, j)
e5(i, j) = e5(i, j) + w * r5(i, j)
e6(i, j) = e6(i, j) + w * r6(i, j)
enddo
enddo
enddo
end
`

const trimeshGaussSrc = `
routine gauss(n, steps)
real a(n, n), b(n, n), cc(n, n), rhs(n, n)
real q1(n, n), q2(n, n), q3(n, n), q4(n, n)
real w
!hpf$ distribute (block, block) :: a, b, cc, rhs, q1, q2, q3, q4
w = 0.25
do i = 1, n
do j = 1, n
a(i, j) = 1 + mod(i + j, 3) * 0.4
b(i, j) = 1 + mod(i + 2 * j, 4) * 0.3
cc(i, j) = 1 + mod(2 * i + j, 5) * 0.2
rhs(i, j) = mod(i * j, 9) * 0.1
q1(i, j) = 0
q2(i, j) = 0
q3(i, j) = 0
q4(i, j) = 0
enddo
enddo
do it = 1, steps
do i = 2, n - 1
do j = 2, n - 1
q1(i, j) = a(i - 1, j) + a(i + 1, j) + a(i, j - 1) + a(i, j + 1)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
q2(i, j) = b(i - 1, j) + b(i + 1, j) + b(i, j - 1) + b(i, j + 1)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
q3(i, j) = cc(i - 1, j) + cc(i + 1, j) + cc(i, j - 1) + cc(i, j + 1)
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
q4(i, j) = rhs(i - 1, j) + w * (q1(i, j) + q2(i, j) + q3(i, j))
enddo
enddo
do i = 2, n - 1
do j = 2, n - 1
a(i, j) = a(i, j) + w * q1(i, j)
b(i, j) = b(i, j) + w * q2(i, j)
cc(i, j) = cc(i, j) + w * q3(i, j)
rhs(i, j) = rhs(i, j) + w * q4(i, j)
enddo
enddo
enddo
end
`

// ---------------------------------------------------------------------
// hydflo — hydrodynamic flow over (n+2)³ state arrays distributed
// (*,BLOCK,BLOCK) ("eight 5×(n+2)³ arrays", §5). The flux routine
// computes directional fluxes from seven state fields and applies them
// in five conservative updates; hydro is a two-stage stencil pass.
const hydfloFluxSrc = `
routine flux(n, steps)
real qa(n + 2, n + 2, n + 2), qb(n + 2, n + 2, n + 2), qc(n + 2, n + 2, n + 2)
real qd(n + 2, n + 2, n + 2), qe(n + 2, n + 2, n + 2), qf(n + 2, n + 2, n + 2)
real qg(n + 2, n + 2, n + 2)
real fx(n + 2, n + 2, n + 2), fy(n + 2, n + 2, n + 2), wk(n + 2, n + 2, n + 2)
real cfl
!hpf$ distribute (*, block, block) :: qa, qb, qc, qd, qe, qf, qg, fx, fy, wk
cfl = 0.1
do i = 1, n + 2
do j = 1, n + 2
do k = 1, n + 2
qa(i, j, k) = 1 + mod(i + j + k, 3) * 0.2
qb(i, j, k) = 1 + mod(i + 2 * j + k, 4) * 0.15
qc(i, j, k) = 1 + mod(i + j + 2 * k, 5) * 0.1
qd(i, j, k) = 1 + mod(2 * i + j + k, 3) * 0.25
qe(i, j, k) = 1 + mod(i + 3 * j + k, 6) * 0.05
qf(i, j, k) = 1 + mod(3 * i + j + k, 4) * 0.12
qg(i, j, k) = 1 + mod(i + j + 3 * k, 5) * 0.08
fx(i, j, k) = 0
fy(i, j, k) = 0
wk(i, j, k) = 0
enddo
enddo
enddo
do it = 1, steps
do i = 2, n + 1
do j = 2, n + 1
do k = 2, n + 1
fx(i, j, k) = qa(i, j - 1, k) - qa(i, j + 1, k) + qb(i, j - 1, k) - qb(i, j + 1, k) + qc(i, j - 1, k) - qc(i, j + 1, k) + qd(i, j - 1, k) - qd(i, j + 1, k) + qe(i, j - 1, k) - qe(i, j + 1, k) + qf(i, j - 1, k) - qf(i, j + 1, k) + qg(i, j - 1, k) - qg(i, j + 1, k)
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n + 1
do k = 2, n + 1
fy(i, j, k) = qa(i, j, k - 1) - qa(i, j, k + 1) + qb(i, j, k - 1) - qb(i, j, k + 1) + qc(i, j, k - 1) - qc(i, j, k + 1) + qd(i, j, k - 1) - qd(i, j, k + 1) + qe(i, j, k - 1) - qe(i, j, k + 1) + qf(i, j, k - 1) - qf(i, j, k + 1) + qg(i, j, k - 1) - qg(i, j, k + 1)
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n + 1
do k = 2, n + 1
wk(i, j, k) = qa(i, j - 1, k) + qa(i, j + 1, k) + qb(i, j - 1, k) + qb(i, j + 1, k) + qc(i, j - 1, k) + qc(i, j + 1, k) + qd(i, j - 1, k) + qd(i, j + 1, k) + qe(i, j - 1, k) + qe(i, j + 1, k) + qf(i, j - 1, k) + qf(i, j + 1, k) + qg(i, j - 1, k) + qg(i, j + 1, k)
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qa(i, j, k) = qa(i, j, k) - cfl * (fx(i, j + 1, k) - fx(i, j, k)) - cfl * (fy(i, j, k + 1) - fy(i, j, k))
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qb(i, j, k) = qb(i, j, k) - cfl * (fx(i, j + 1, k) - fx(i, j, k)) - cfl * (fy(i, j, k + 1) - fy(i, j, k))
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qc(i, j, k) = qc(i, j, k) - cfl * (fx(i, j + 1, k) - fx(i, j, k)) - cfl * (fy(i, j, k + 1) - fy(i, j, k))
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qd(i, j, k) = qd(i, j, k) - cfl * (fx(i, j + 1, k) - fx(i, j, k)) - cfl * (fy(i, j, k + 1) - fy(i, j, k))
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qe(i, j, k) = qe(i, j, k) - cfl * (fx(i, j + 1, k) - fx(i, j, k)) - cfl * (fy(i, j, k + 1) - fy(i, j, k))
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qf(i, j, k) = qf(i, j, k) + cfl * wk(i, j, k)
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n
do k = 2, n
qg(i, j, k) = qg(i, j, k) - cfl * wk(i, j, k)
enddo
enddo
enddo
enddo
end
`

const hydfloHydroSrc = `
routine hydro(n, steps)
real da(n + 2, n + 2, n + 2), db(n + 2, n + 2, n + 2), dc(n + 2, n + 2, n + 2)
real t1(n + 2, n + 2, n + 2), t2(n + 2, n + 2, n + 2)
real cfl
!hpf$ distribute (*, block, block) :: da, db, dc, t1, t2
cfl = 0.05
do i = 1, n + 2
do j = 1, n + 2
do k = 1, n + 2
da(i, j, k) = 1 + mod(i + j + k, 4) * 0.2
db(i, j, k) = 1 + mod(i + 2 * j + k, 3) * 0.3
dc(i, j, k) = 1 + mod(i + j + 2 * k, 5) * 0.1
t1(i, j, k) = 0
t2(i, j, k) = 0
enddo
enddo
enddo
do it = 1, steps
do i = 2, n + 1
do j = 2, n + 1
do k = 2, n + 1
t1(i, j, k) = da(i, j - 1, k) + da(i, j + 1, k) + db(i, j - 1, k) + db(i, j + 1, k)
dc(i, j, k) = da(i, j, k) + db(i, j, k)
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n + 1
do k = 2, n + 1
t2(i, j, k) = 0.5 * t1(i, j, k) + da(i, j, k - 1) + da(i, j, k + 1) + db(i, j, k - 1) + db(i, j, k + 1) + dc(i, j, k - 1) + dc(i, j, k + 1) + dc(i, j - 1, k) + dc(i, j + 1, k)
enddo
enddo
enddo
do i = 2, n + 1
do j = 2, n + 1
do k = 2, n + 1
da(i, j, k) = da(i, j, k) + cfl * t2(i, j, k)
db(i, j, k) = db(i, j, k) - cfl * t2(i, j, k)
enddo
enddo
enddo
enddo
end
`

// Programs lists the Fig. 10(a) rows in paper order.
func Programs() []*Program {
	steps := func(extra map[string]int) func(n int) map[string]int {
		return func(n int) map[string]int {
			m := map[string]int{"n": n, "steps": 2}
			for k, v := range extra {
				m[k] = v
			}
			return m
		}
	}
	return []*Program{
		{
			Bench: "shallow", Routine: "main", CommType: core.KindShift,
			Source: shallowSrc, Params: steps(nil), DefaultN: 64,
			Procs: map[string]int{"SP2": 25, "NOW": 8},
		},
		{
			Bench: "gravity", Routine: "main", CommType: core.KindShift,
			Source: gravitySrc,
			Params: func(n int) map[string]int {
				return map[string]int{"nx": n, "ny": n, "nz": n, "steps": 1}
			},
			DefaultN: 16,
			Procs:    map[string]int{"SP2": 25, "NOW": 8},
		},
		{
			Bench: "trimesh", Routine: "normdot", CommType: core.KindShift,
			Source: trimeshNormdotSrc, Params: steps(nil), DefaultN: 64,
			Procs: map[string]int{"SP2": 25, "NOW": 8},
		},
		{
			Bench: "trimesh", Routine: "gauss", CommType: core.KindShift,
			Source: trimeshGaussSrc, Params: steps(nil), DefaultN: 64,
			Procs: map[string]int{"SP2": 25, "NOW": 8},
		},
		{
			Bench: "hydflo", Routine: "flux", CommType: core.KindShift,
			Source: hydfloFluxSrc, Params: steps(nil), DefaultN: 16,
			Procs: map[string]int{"SP2": 25, "NOW": 8},
		},
		{
			Bench: "hydflo", Routine: "hydro", CommType: core.KindShift,
			Source: hydfloHydroSrc, Params: steps(nil), DefaultN: 16,
			Procs: map[string]int{"SP2": 25, "NOW": 8},
		},
	}
}

// ByName returns the program for a bench/routine pair.
func ByName(bench, routine string) (*Program, error) {
	for _, p := range Programs() {
		if p.Bench == bench && p.Routine == routine {
			return p, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown program %s/%s", bench, routine)
}
