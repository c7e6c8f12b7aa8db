// Package lexer tokenizes WebdamLog source text.
//
// The concrete syntax follows the paper: atoms `m@p(t1, …, tn)`, variables
// `$x`, quoted string constants, rules with `:-`, and `not` for negation.
// Statements are terminated with ';'. Line comments start with `//` or `#`,
// block comments are `/* … */`.
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Variable // $x, Text holds "x"
	String   // "…", Text holds the unquoted payload
	Number   // integer or float, Text holds the literal
	Hex      // 0x…, Text holds the hex digits (without 0x)
	At       // @
	LParen   // (
	RParen   // )
	Comma    // ,
	Semi     // ;
	ColonDash
	Plus
	Minus
	Bang
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Variable:
		return "variable"
	case String:
		return "string"
	case Number:
		return "number"
	case Hex:
		return "hex literal"
	case At:
		return "'@'"
	case LParen:
		return "'('"
	case RParen:
		return "')'"
	case Comma:
		return "','"
	case Semi:
		return "';'"
	case ColonDash:
		return "':-'"
	case Plus:
		return "'+'"
	case Minus:
		return "'-'"
	case Bang:
		return "'!'"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Token is one lexical unit with its source position (1-based line/column).
type Token struct {
	Kind Kind
	Text string
	Line int
	Col  int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Number:
		return fmt.Sprintf("%q", t.Text)
	case Variable:
		return fmt.Sprintf("\"$%s\"", t.Text)
	case String:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}

// Error is a lexical error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer scans WebdamLog source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans all of src and returns the token stream (excluding EOF),
// or the first lexical error.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return out, nil
		}
		out = append(out, t)
	}
}

func (l *Lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peekAt(1) == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &Error{Line: startLine, Col: startCol, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *Lexer) lexIdent() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentCont(l.peek()) {
		l.advance()
	}
	return l.src[start:l.pos]
}

func (l *Lexer) lexString() (string, error) {
	// Opening quote already verified by caller.
	startLine, startCol := l.line, l.col
	l.advance() // consume '"'
	var sb strings.Builder
	for {
		if l.pos >= len(l.src) {
			return "", &Error{Line: startLine, Col: startCol, Msg: "unterminated string literal"}
		}
		r := l.advance()
		switch r {
		case '"':
			return sb.String(), nil
		case '\\':
			if l.pos >= len(l.src) {
				return "", &Error{Line: startLine, Col: startCol, Msg: "unterminated string literal"}
			}
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case '0':
				sb.WriteByte(0)
			case 'a':
				sb.WriteByte('\a')
			case 'b':
				sb.WriteByte('\b')
			case 'f':
				sb.WriteByte('\f')
			case 'v':
				sb.WriteByte('\v')
			case 'x', 'u', 'U':
				// Hex escapes, as the renderer (strconv.Quote) emits them
				// for non-printable content: \xNN is a raw byte, \uNNNN and
				// \UNNNNNNNN are runes.
				n := 2
				if esc == 'u' {
					n = 4
				} else if esc == 'U' {
					n = 8
				}
				var code uint32
				for i := 0; i < n; i++ {
					if l.pos >= len(l.src) || !isHexDigit(l.src[l.pos]) {
						return "", l.errf("invalid hex escape \\%c: want %d hex digits", esc, n)
					}
					d := l.advance()
					code <<= 4
					switch {
					case d >= '0' && d <= '9':
						code |= uint32(d - '0')
					case d >= 'a' && d <= 'f':
						code |= uint32(d-'a') + 10
					default:
						code |= uint32(d-'A') + 10
					}
				}
				if esc == 'x' {
					sb.WriteByte(byte(code))
				} else {
					if code > 0x10FFFF {
						return "", l.errf("invalid hex escape \\%c: rune out of range", esc)
					}
					sb.WriteRune(rune(code))
				}
			default:
				return "", l.errf("unknown escape sequence \\%c", esc)
			}
		case '\n':
			return "", &Error{Line: startLine, Col: startCol, Msg: "newline in string literal"}
		default:
			sb.WriteRune(r)
		}
	}
}

func isHexDigit(b byte) bool {
	return (b >= '0' && b <= '9') || (b >= 'a' && b <= 'f') || (b >= 'A' && b <= 'F')
}

// Next returns the next token, or a token of kind EOF at end of input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	tok := func(k Kind, text string) Token {
		return Token{Kind: k, Text: text, Line: line, Col: col}
	}
	if l.pos >= len(l.src) {
		return tok(EOF, ""), nil
	}
	r := l.peek()
	switch {
	case r == '$':
		l.advance()
		if !isIdentStart(l.peek()) {
			return Token{}, l.errf("expected variable name after '$'")
		}
		return tok(Variable, l.lexIdent()), nil
	case r == '"':
		s, err := l.lexString()
		if err != nil {
			return Token{}, err
		}
		return tok(String, s), nil
	case r == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X'):
		l.advance()
		l.advance()
		start := l.pos
		// Hex digits are single bytes and never a newline: scan the run
		// bytewise and move the column by its length.
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
		l.col += l.pos - start
		if l.pos == start {
			return Token{}, l.errf("expected hex digits after 0x")
		}
		return tok(Hex, l.src[start:l.pos]), nil
	case unicode.IsDigit(r):
		return l.lexNumber(line, col, false)
	case isIdentStart(r):
		return tok(Ident, l.lexIdent()), nil
	}
	switch r {
	case '@':
		l.advance()
		return tok(At, "@"), nil
	case '(':
		l.advance()
		return tok(LParen, "("), nil
	case ')':
		l.advance()
		return tok(RParen, ")"), nil
	case ',':
		l.advance()
		return tok(Comma, ","), nil
	case ';':
		l.advance()
		return tok(Semi, ";"), nil
	case ':':
		l.advance()
		if l.peek() != '-' {
			return Token{}, l.errf("expected '-' after ':'")
		}
		l.advance()
		return tok(ColonDash, ":-"), nil
	case '+':
		l.advance()
		return tok(Plus, "+"), nil
	case '-':
		l.advance()
		if unicode.IsDigit(l.peek()) {
			return l.lexNumber(line, col, true)
		}
		return tok(Minus, "-"), nil
	case '!':
		l.advance()
		return tok(Bang, "!"), nil
	}
	return Token{}, l.errf("unexpected character %q", r)
}

func (l *Lexer) lexNumber(line, col int, neg bool) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
	// Fraction: only if a digit follows the dot (so `f(1)` vs `1.5` both work).
	if l.peek() == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		l.advance()
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
	}
	if r := l.peek(); r == 'e' || r == 'E' {
		save := l.pos
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if unicode.IsDigit(l.peek()) {
			for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
				l.advance()
			}
		} else {
			l.pos = save // not an exponent after all
		}
	}
	text := l.src[start:l.pos]
	if neg {
		text = "-" + text
	}
	return Token{Kind: Number, Text: text, Line: line, Col: col}, nil
}
