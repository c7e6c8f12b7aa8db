package lexer

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	toks, err := Tokenize(`pictures@sigmod(32, "sea.jpg", $x) :- a@b($y);`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Ident, At, Ident, LParen, Number, Comma, String, Comma, Variable, RParen,
		ColonDash, Ident, At, Ident, LParen, Variable, RParen, Semi}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVariableText(t *testing.T) {
	toks, err := Tokenize(`$attendee`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Kind != Variable || toks[0].Text != "attendee" {
		t.Fatalf("toks = %v", toks)
	}
}

func TestStringEscapes(t *testing.T) {
	toks, err := Tokenize(`"a\"b\n\t\\c"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\"b\n\t\\c" {
		t.Errorf("unescaped = %q", toks[0].Text)
	}
}

func TestStringHexEscapes(t *testing.T) {
	// The renderer (strconv.Quote) writes non-printable content as \xNN /
	// \uNNNN / \UNNNNNNNN and control characters as \a\b\f\v, so the lexer
	// must read all of them back (found by FuzzParseProgram).
	cases := map[string]string{
		`"\x00\xff"`:   "\x00\xff",
		`"\a\b\f\v"`:   "\a\b\f\v",
		`"\u00e9"`:     "é",
		`"\U0001F600"`: "\U0001F600",
		`"mix\x41B"`:   "mixAB",
	}
	for src, want := range cases {
		toks, err := Tokenize(src)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if toks[0].Text != want {
			t.Errorf("%s = %q, want %q", src, toks[0].Text, want)
		}
	}
	for _, bad := range []string{`"\x0"`, `"\xzz"`, `"\u12"`, `"\UFFFFFFFF"`} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("%s lexed without error", bad)
		}
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]string{
		`42`:     "42",
		`-7`:     "-7",
		`3.25`:   "3.25",
		`1e3`:    "1e3",
		`2.5e-2`: "2.5e-2",
		`-0.125`: "-0.125",
	}
	for src, want := range cases {
		toks, err := Tokenize(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(toks) != 1 || toks[0].Kind != Number || toks[0].Text != want {
			t.Errorf("%q -> %v, want Number %q", src, toks, want)
		}
	}
}

func TestHexBlob(t *testing.T) {
	toks, err := Tokenize(`0xCAFE`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Kind != Hex || toks[0].Text != "CAFE" {
		t.Fatalf("toks = %v", toks)
	}
}

// TestPositionAfterLongHex: the hex scanner moves the column by the length
// of the digit run, so the tokens after a long literal, on its line and the
// next, keep their positions.
func TestPositionAfterLongHex(t *testing.T) {
	digits := strings.Repeat("0123456789abcdefABCDEF", 100)
	toks, err := Tokenize("f(0x" + digits + ", $y)\n  0xff $z")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind      Kind
		line, col int
	}{
		{Ident, 1, 1}, {LParen, 1, 2}, {Hex, 1, 3},
		{Comma, 1, 5 + len(digits)}, {Variable, 1, 7 + len(digits)}, {RParen, 1, 9 + len(digits)},
		{Hex, 2, 3}, {Variable, 2, 8},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, w := range want {
		if tk := toks[i]; tk.Kind != w.kind || tk.Line != w.line || tk.Col != w.col {
			t.Errorf("token %d = %v at %d:%d, want %v at %d:%d", i, tk, tk.Line, tk.Col, w.kind, w.line, w.col)
		}
	}
	if toks[2].Text != digits {
		t.Errorf("hex text has %d digits, want %d", len(toks[2].Text), len(digits))
	}
}

func TestComments(t *testing.T) {
	src := `
		// line comment
		a@b(); # hash comment
		/* block
		   comment */ c@d();
	`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	idents := 0
	for _, tok := range toks {
		if tok.Kind == Ident {
			idents++
		}
	}
	if idents != 4 {
		t.Errorf("identifiers = %d, want 4 (comments must be skipped)", idents)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("a@b\n  $x")
	if err != nil {
		t.Fatal(err)
	}
	last := toks[len(toks)-1]
	if last.Line != 2 || last.Col != 3 {
		t.Errorf("variable at %d:%d, want 2:3", last.Line, last.Col)
	}
}

func TestDotNotPartOfIdent(t *testing.T) {
	// `1.x` is number then error; `f(1)` works; a dot without digits after
	// the number stays un-consumed and errors.
	if _, err := Tokenize("1.5"); err != nil {
		t.Errorf("1.5: %v", err)
	}
	if _, err := Tokenize("1."); err == nil {
		t.Error("trailing dot accepted")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		`"newline
		 inside"`,
		`$`,
		`$1x`,
		`0x`,
		`:`,
		`%`,
		`"bad \q escape"`,
		`/* unterminated`,
	}
	for _, src := range cases {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("%q lexed without error", src)
		} else if !strings.Contains(err.Error(), "lex error") {
			t.Errorf("%q: error lacks position info: %v", src, err)
		}
	}
}

func TestUnicodeIdentifiers(t *testing.T) {
	// The paper writes peers like Émilien; unicode letters are identifiers.
	toks, err := Tokenize(`pictures@Émilien($x)`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != Ident || toks[2].Text != "Émilien" {
		t.Errorf("peer token = %v", toks[2])
	}
}

func TestMinusVsNegativeNumber(t *testing.T) {
	toks, err := Tokenize(`-a@b(-5)`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != Minus {
		t.Errorf("leading '-' = %v, want Minus", toks[0])
	}
	var sawNeg bool
	for _, tok := range toks {
		if tok.Kind == Number && tok.Text == "-5" {
			sawNeg = true
		}
	}
	if !sawNeg {
		t.Errorf("no -5 number token in %v", toks)
	}
}
