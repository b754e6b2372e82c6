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

// Token is a lexeme with its canonical text: what an error message
// names ("found identifier(\"x\")").
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

// Scanner tokenizes mini-HPF source text, one lexeme per Scan: a parser
// pulls tokens as it goes, so no token stream is ever stored.
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

// skipTo moves to offset off over bytes that hold no newline.
func (s *Scanner) skipTo(off int) {
	s.col += off - s.off
	s.off = off
}

// classes holds the character classes of every byte, so that the
// scanner's test is one table read. A byte is classified as the code
// point of the same number, as package unicode sees it: ASCII as ASCII,
// a byte from 0x80 up as the Latin-1 letter or digit it would be.
var classes = func() (t [256]uint8) {
	for i := range t {
		letter, digit := unicode.IsLetter(rune(i)), unicode.IsDigit(rune(i))
		if i == '_' || letter {
			t[i] |= classIdentStart
		}
		if i == '_' || i == '$' || letter || digit {
			t[i] |= classIdentCont
		}
		if digit {
			t[i] |= classDigit
		}
	}
	return t
}()

const (
	classIdentStart = 1 << iota
	classIdentCont
	classDigit
)

func isIdentStart(c byte) bool { return classes[c]&classIdentStart != 0 }
func isIdentCont(c byte) bool  { return classes[c]&classIdentCont != 0 }
func isDigit(c byte) bool      { return classes[c]&classDigit != 0 }

// Lexeme is a token with its text left in the source: the token's Kind
// and Pos, and the span src[Off:End] its text was scanned from. A Lexeme
// holds no pointer, so a parser copies one with no write barrier, and
// fits in 32 bytes, so the compiler keeps one in registers rather than
// moving it through memory (int32 offsets: a source is under 2 GiB).
// Text gives the text.
type Lexeme struct {
	Kind     Kind
	Pos      Pos
	Off, End int32
}

// Text returns the canonical text of a lexeme of this scanner's source:
// an identifier lower-cased, a number's exponent letter made "e", the
// directive sentinel as "!hpf$", nothing for the other kinds.
func (s *Scanner) Text(l Lexeme) string {
	switch l.Kind {
	case Ident:
		// ToLower returns its argument when it is lower case already:
		// such a token's text is a slice of the source, not a copy.
		return strings.ToLower(s.src[l.Off:l.End])
	case Number:
		raw := s.src[l.Off:l.End]
		for i := 0; i < len(raw); i++ {
			if c := raw[i]; c == 'E' || c == 'd' || c == 'D' {
				return raw[:i] + "e" + raw[i+1:]
			}
		}
		return raw
	case HPFDir:
		return "!hpf$"
	}
	return ""
}

// Scan returns the next lexeme. After EOF it keeps returning EOF.
func (s *Scanner) Scan() Lexeme {
	for {
		// Skip horizontal whitespace and line continuations ("&\n").
		for s.off < len(s.src) {
			c := s.src[s.off]
			if c == ' ' || c == '\t' || c == '\r' {
				s.off++
				s.col++
				continue
			}
			if c == '&' {
				// Fortran continuation: swallow through the newline.
				s.skipTo(s.lineEnd())
				if s.off < len(s.src) {
					s.advance() // the newline itself
				}
				continue
			}
			break
		}
		// The lexeme is assembled from scalars and built once, at the
		// return: a struct filled field by field and then copied out
		// stalls store forwarding on every token.
		pos, off := s.pos(), s.off
		if off >= len(s.src) {
			return Lexeme{Kind: EOF, Pos: pos, Off: int32(off), End: int32(off)}
		}
		c := s.src[off]
		s.off++
		s.col++
		var kind Kind
		switch c {
		case '\n':
			s.line++
			s.col = 1
			kind = Newline
		case '!':
			// Directive or comment.
			rest := s.src[off:]
			if len(rest) >= 5 && strings.EqualFold(rest[:5], "!hpf$") {
				s.skipTo(off + 5)
				kind = HPFDir
				break
			}
			s.skipTo(s.lineEnd())
			continue
		case '(':
			kind = LParen
		case ')':
			kind = RParen
		case ',':
			kind = Comma
		case ':':
			kind = Colon
		case '+':
			kind = Plus
		case '-':
			kind = Minus
		case '*':
			kind = s.pair('*', Star, Power)
		case '/':
			kind = s.pair('=', Slash, Ne)
		case '=':
			kind = s.pair('=', Assign, EqEq)
		case '<':
			kind = s.pair('=', Lt, Le)
		case '>':
			kind = s.pair('=', Gt, Ge)
		default:
			switch {
			case isIdentStart(c):
				kind = Ident
				end := s.off
				for end < len(s.src) && isIdentCont(s.src[end]) {
					end++
				}
				s.skipTo(end)
			case isDigit(c):
				kind = Number
				s.scanNumber()
			default:
				if s.err == nil {
					s.err = Errorf(pos, "unexpected character %q", string(rune(c)))
				}
				continue
			}
		}
		return Lexeme{Kind: kind, Pos: pos, Off: int32(off), End: int32(s.off)}
	}
}

// pair scans the second byte of a two-byte operator: two when the next
// byte is c, else one.
func (s *Scanner) pair(c byte, one, two Kind) Kind {
	if s.peek() == c {
		s.off++
		s.col++
		return two
	}
	return one
}

// lineEnd returns the offset of the next newline, or the end of input.
func (s *Scanner) lineEnd() int {
	if i := strings.IndexByte(s.src[s.off:], '\n'); i >= 0 {
		return s.off + i
	}
	return len(s.src)
}

// scanNumber scans the rest of a number whose first digit is consumed.
func (s *Scanner) scanNumber() {
	digits := func() {
		for s.off < len(s.src) && isDigit(s.src[s.off]) {
			s.off++
			s.col++
		}
	}
	digits()
	// Fractional part; careful not to eat "1:2" or "1..2".
	if s.peek() == '.' && isDigit(s.peek2()) {
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
		if isDigit(s.peek()) {
			digits()
			return
		}
		*s = save // not an exponent after all (e.g. "2elements")
	}
}
