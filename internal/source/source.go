// Package source provides source positions, tokens, and the scanner
// for the mini-HPF input language of this compiler. The language is a
// Fortran-90 flavoured subset sufficient to express the paper's
// benchmarks: routines, REAL/INTEGER declarations, HPF PROCESSORS and
// DISTRIBUTE directives, DO loops, IF/THEN/ELSE, array-section
// assignments, and the SUM and CSHIFT intrinsics.
//
// Lexical conventions follow free-form Fortran: case-insensitive
// keywords (we canonicalize to lower case), "!" starts a comment except
// for the "!hpf$" directive sentinel, and statements end at newlines.
package source

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Pos is a source position, 1-based.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string {
	if p.Line == 0 {
		return "-"
	}
	return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Col)
}

// Kind enumerates token kinds.
type Kind int

const (
	EOF Kind = iota
	Newline
	Ident
	Number // integer or real literal
	String // quoted string (used only in error messages today)
	HPFDir // the "!hpf$" sentinel; directive words follow as Idents
	LParen
	RParen
	Comma
	Colon
	Assign // =
	Plus
	Minus
	Star
	Slash
	Power // **
	Lt
	Gt
	Le
	Ge
	EqEq // ==
	Ne   // /=
)

var kindNames = map[Kind]string{
	EOF: "EOF", Newline: "newline", Ident: "identifier", Number: "number",
	String: "string", HPFDir: "!hpf$", LParen: "(", RParen: ")", Comma: ",",
	Colon: ":", Assign: "=", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Power: "**", Lt: "<", Gt: ">", Le: "<=", Ge: ">=", EqEq: "==", Ne: "/=",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string // canonical (lower-cased for identifiers)
	Pos  Pos
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Text)
	}
	return t.Kind.String()
}

// Error is a positioned scan or parse error.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Errorf builds a positioned error.
func Errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Scanner tokenizes mini-HPF source text.
type Scanner struct {
	src  string
	off  int
	line int
	col  int
	err  error
}

// NewScanner builds a scanner over the source text.
func NewScanner(src string) *Scanner {
	return &Scanner{src: src, line: 1, col: 1}
}

// Err returns the first scan error encountered, if any.
func (s *Scanner) Err() error { return s.err }

func (s *Scanner) pos() Pos { return Pos{Line: s.line, Col: s.col} }

func (s *Scanner) peek() byte {
	if s.off >= len(s.src) {
		return 0
	}
	return s.src[s.off]
}

func (s *Scanner) peek2() byte {
	if s.off+1 >= len(s.src) {
		return 0
	}
	return s.src[s.off+1]
}

func (s *Scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || c == '$' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// Next returns the next token. After EOF it keeps returning EOF.
func (s *Scanner) Next() Token {
	for {
		// Skip horizontal whitespace and line continuations ("&\n").
		for s.off < len(s.src) {
			c := s.peek()
			if c == ' ' || c == '\t' || c == '\r' {
				s.advance()
				continue
			}
			if c == '&' {
				// Fortran continuation: swallow through the newline.
				s.advance()
				for s.off < len(s.src) && s.peek() != '\n' {
					s.advance()
				}
				if s.off < len(s.src) {
					s.advance() // the newline itself
				}
				continue
			}
			break
		}
		if s.off >= len(s.src) {
			return Token{Kind: EOF, Pos: s.pos()}
		}
		start := s.pos()
		c := s.peek()
		switch {
		case c == '\n':
			s.advance()
			return Token{Kind: Newline, Pos: start}
		case c == '!':
			// Directive or comment.
			rest := s.src[s.off:]
			if len(rest) >= 5 && strings.EqualFold(rest[:5], "!hpf$") {
				for i := 0; i < 5; i++ {
					s.advance()
				}
				return Token{Kind: HPFDir, Text: "!hpf$", Pos: start}
			}
			for s.off < len(s.src) && s.peek() != '\n' {
				s.advance()
			}
			continue
		case isIdentStart(c):
			from := s.off
			for s.off < len(s.src) && isIdentCont(s.peek()) {
				s.advance()
			}
			// ToLower returns its argument when it is lower case already:
			// such a token's text is a slice of the source, not a copy.
			return Token{Kind: Ident, Text: strings.ToLower(s.src[from:s.off]), Pos: start}
		case unicode.IsDigit(rune(c)):
			return s.scanNumber(start)
		case c == '(':
			s.advance()
			return Token{Kind: LParen, Pos: start}
		case c == ')':
			s.advance()
			return Token{Kind: RParen, Pos: start}
		case c == ',':
			s.advance()
			return Token{Kind: Comma, Pos: start}
		case c == ':':
			s.advance()
			return Token{Kind: Colon, Pos: start}
		case c == '+':
			s.advance()
			return Token{Kind: Plus, Pos: start}
		case c == '-':
			s.advance()
			return Token{Kind: Minus, Pos: start}
		case c == '*':
			s.advance()
			if s.peek() == '*' {
				s.advance()
				return Token{Kind: Power, Pos: start}
			}
			return Token{Kind: Star, Pos: start}
		case c == '/':
			s.advance()
			if s.peek() == '=' {
				s.advance()
				return Token{Kind: Ne, Pos: start}
			}
			return Token{Kind: Slash, Pos: start}
		case c == '=':
			s.advance()
			if s.peek() == '=' {
				s.advance()
				return Token{Kind: EqEq, Pos: start}
			}
			return Token{Kind: Assign, Pos: start}
		case c == '<':
			s.advance()
			if s.peek() == '=' {
				s.advance()
				return Token{Kind: Le, Pos: start}
			}
			return Token{Kind: Lt, Pos: start}
		case c == '>':
			s.advance()
			if s.peek() == '=' {
				s.advance()
				return Token{Kind: Ge, Pos: start}
			}
			return Token{Kind: Gt, Pos: start}
		default:
			if s.err == nil {
				s.err = Errorf(start, "unexpected character %q", string(rune(c)))
			}
			s.advance()
			continue
		}
	}
}

func (s *Scanner) scanNumber(start Pos) Token {
	from := s.off
	digits := func() {
		for s.off < len(s.src) && unicode.IsDigit(rune(s.peek())) {
			s.advance()
		}
	}
	digits()
	// Fractional part; careful not to eat "1:2" or "1..2".
	if s.peek() == '.' && unicode.IsDigit(rune(s.peek2())) {
		s.advance()
		digits()
	}
	// Exponent.
	if c := s.peek(); c == 'e' || c == 'E' || c == 'd' || c == 'D' {
		save := *s
		s.advance()
		if s.peek() == '+' || s.peek() == '-' {
			s.advance()
		}
		if unicode.IsDigit(rune(s.peek())) {
			digits()
			text := s.src[from:s.off]
			if c != 'e' { // canonical exponent letter
				text = s.src[from:save.off] + "e" + s.src[save.off+1:s.off]
			}
			return Token{Kind: Number, Text: text, Pos: start}
		}
		*s = save // not an exponent after all (e.g. "2elements")
	}
	return Token{Kind: Number, Text: s.src[from:s.off], Pos: start}
}

// ScanAll tokenizes the whole input, returning the token stream ending
// in EOF, or the first error.
func ScanAll(src string) ([]Token, error) {
	sc := NewScanner(src)
	// The suite's densest routine has a token per 1.7 bytes; sized for
	// that, the slice never grows.
	out := make([]Token, 0, len(src)*5/8+1)
	for {
		t := sc.Next()
		out = append(out, t)
		if t.Kind == EOF {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
