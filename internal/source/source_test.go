package source

import (
	"strings"
	"testing"
)

// ScanAll tokenizes the whole input, returning the token stream ending
// in EOF, or the first error.
func ScanAll(src string) ([]Token, error) {
	sc := NewScanner(src)
	var out []Token
	for {
		l := sc.Scan()
		out = append(out, Token{Kind: l.Kind, Text: sc.Text(l), Pos: l.Pos})
		if l.Kind == EOF {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestScanBasics(t *testing.T) {
	toks, err := ScanAll("a = b(i-1, 1:n:2) + 3.5e2\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Ident, Assign, Ident, LParen, Ident, Minus, Number, Comma,
		Number, Colon, Ident, Colon, Number, RParen, Plus, Number, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), toks, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v (stream %v)", i, got[i], want[i], toks)
		}
	}
}

func TestCaseInsensitiveIdents(t *testing.T) {
	toks, err := ScanAll("Do I = 1, N\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "do" || toks[1].Text != "i" || toks[5].Text != "n" {
		t.Errorf("identifiers not lower-cased: %v", toks)
	}
}

func TestCommentsAndDirectives(t *testing.T) {
	src := "a = 1 ! trailing comment\n!hpf$ distribute a(block)\n! full line\nb = 2\n"
	toks, err := ScanAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var sawHPF bool
	for _, tok := range toks {
		if tok.Kind == HPFDir {
			sawHPF = true
		}
		if tok.Kind == Ident && tok.Text == "trailing" {
			t.Error("comment text leaked into token stream")
		}
	}
	if !sawHPF {
		t.Error("!hpf$ sentinel not recognized")
	}
	// Case-insensitive sentinel.
	toks2, err := ScanAll("!HPF$ processors p(4)\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks2[0].Kind != HPFDir {
		t.Error("!HPF$ (upper case) not recognized")
	}
}

func TestContinuation(t *testing.T) {
	toks, err := ScanAll("a = b + &\n    c\n")
	if err != nil {
		t.Fatal(err)
	}
	// The continuation swallows the newline: a = b + c NL EOF.
	want := []Kind{Ident, Assign, Ident, Plus, Ident, Newline, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("tokens %v", toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]string{
		"42":     "42",
		"3.14":   "3.14",
		"1e6":    "1e6",
		"2.5d-3": "2.5e-3", // Fortran double exponent normalized
		"1E+2":   "1e+2",
	}
	for in, want := range cases {
		toks, err := ScanAll(in + "\n")
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].Kind != Number || toks[0].Text != want {
			t.Errorf("scan %q = %v, want Number(%q)", in, toks[0], want)
		}
	}
	// "2elements" must not absorb the identifier.
	toks, err := ScanAll("2elements\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Number || toks[0].Text != "2" || toks[1].Kind != Ident {
		t.Errorf("2elements scanned as %v", toks[:2])
	}
}

func TestOperators(t *testing.T) {
	toks, err := ScanAll("a ** b <= c /= d == e >= f < g > h / i\n")
	if err != nil {
		t.Fatal(err)
	}
	var ops []Kind
	for _, tok := range toks {
		switch tok.Kind {
		case Power, Le, Ne, EqEq, Ge, Lt, Gt, Slash:
			ops = append(ops, tok.Kind)
		}
	}
	want := []Kind{Power, Le, Ne, EqEq, Ge, Lt, Gt, Slash}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, ops[i], want[i])
		}
	}
}

func TestPositions(t *testing.T) {
	toks, err := ScanAll("a = 1\n  b = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	// "b" is on line 2, column 3.
	for _, tok := range toks {
		if tok.Kind == Ident && tok.Text == "b" {
			if tok.Pos.Line != 2 || tok.Pos.Col != 3 {
				t.Errorf("b at %v, want 2:3", tok.Pos)
			}
			return
		}
	}
	t.Fatal("b not found")
}

func TestScanError(t *testing.T) {
	_, err := ScanAll("a = @\n")
	if err == nil {
		t.Fatal("unexpected character should error")
	}
	if !strings.Contains(err.Error(), "1:5") {
		t.Errorf("error should carry position: %v", err)
	}
}

func TestEOFIdempotent(t *testing.T) {
	s := NewScanner("x")
	s.Scan() // x
	for i := 0; i < 3; i++ {
		if l := s.Scan(); l.Kind != EOF {
			t.Fatalf("Scan after EOF = %v", l)
		}
	}
}
