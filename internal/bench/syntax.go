package bench

// Source is a named routine text.
type Source struct{ Name, Src string }

// SyntaxSources returns hand-written inputs that exercise the parser's
// syntax — declarations and directives, control flow, subscripts,
// operators and intrinsics, several routines in one text, the end forms,
// literals, comments and continuations, whitespace and letters. Every one
// parses; not every one passes sem. TestASTGolden pins the parser's tree
// on them, and the scalarizer's tests run what sem accepts.
func SyntaxSources() []Source {
	return []Source{
		{"routine shape", `
routine foo(n, m)
real a(n, m), b(0:n+1)
integer k
!hpf$ processors p(2, 2)
!hpf$ distribute a(block, block) onto p
!hpf$ distribute (block) :: b
a(1, 1) = 0
end
`},
		{"control flow", `
routine cf(n)
real a(n)
real x
do i = 1, n, 2
if (x > 0) then
a(i) = 1
else
a(i) = 2
endif
enddo
do j = 1, n
a(j) = 0
end do
end
`},
		{"subscripts", `
routine subs(n)
real a(n, n), b(n, n)
b(2:n, :) = a(1:n-1:2, 1)
b(:n, 2:) = a(::2, 1::3)
end
`},
		{"precedence", `
routine e()
real x, y, z
x = y + z * 2 ** 3 ** 2
x = (x - y) / z - -x ** 2
end
`},
		{"intrinsics", `
routine s(n)
real g(n, n)
real x
x = sum(g(1, :)) + sqrt(abs(x)) + min(x, 2.0) + mod(3, 2)
end
`},
		{"unary and comparison", `
routine u()
real x, y
if (-x <= y) then
y = -2 * x
endif
if (x < y) then
x = 1
else
endif
if (x == y) then
else
y = x
end if
if (x /= y) then
x = y
endif
x = (x > y) + (x >= y)
end
`},
		{"multiple routines", `
routine a()
real x
x = 1
end

routine b()
real y
y = 2
call a()
call c(y, 3 + y)
end
`},
		{"end routine form", "routine f()\nreal x\nx = 1\nend routine f\n"},
		{"end routine bare", "routine f()\nreal x\nx = 1\nend routine\n"},
		{"numeric literals", "routine f()\nx = 9007199254740993\nx = 9223372036854775807\nx = 00012\nx = 1e-400\nx = 2.5d-3\nx = 1e3\nx = 1E+2\nx = 3.14\nend\n"},
		{"comments, continuations, case", "! leading comment\nROUTINE Mixed(N)  ! trailing\nREAL A(N)\n!HPF$ DISTRIBUTE A(CYCLIC)\nA(1) = 1 + &\n   2 &\n   + 3\n\n\nDo I = 1, N\nA(I) = A(I) * 2\nEndDo\nEND\n"},
		{"directives", "routine d(n)\nreal a(n, n), b(n)\n!hpf$ processors grid(2, n / 2)\n!hpf$ distribute (block, *) onto grid :: a\n!hpf$ distribute b(cyclic)\na(1, 1) = 0\n!hpf$ distribute (*, block) :: c, e\nend\n"},
		{"no trailing newline", "routine f()\nx = 1\nend"},
		{"tabs and carriage returns", "routine f()\r\n\tx\t=\t1\r\nend\r\n"},
		{"non-ASCII letters", "routine f()\nreal xª, µ\nxª = µ\nend\n"},
	}
}
