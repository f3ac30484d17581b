package rex

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/budget"
)

func TestParseShapes(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"a", "a"},
		{"ab", "(cat a b)"},
		{"a|b", "(alt a b)"},
		{"a|b|c", "(alt a b c)"},
		{"ab|cd", "(alt (cat a b) (cat c d))"},
		{"a*", "(rep{0,∞} a)"},
		{"a+", "(rep{1,∞} a)"},
		{"a?", "(rep{0,1} a)"},
		{"a{2,4}", "(rep{2,4} a)"},
		{"a{3}", "(rep{3,3} a)"},
		{"a{2,}", "(rep{2,∞} a)"},
		{"(ab)+", "(rep{1,∞} (cat a b))"},
		{"(a|b)c", "(cat (alt a b) c)"},
		{".", `[\x00-\t\x0b-\xff]`},
		{"[abc]", "[a-c]"},
		{"a**", "(rep{0,∞} (rep{0,∞} a))"},
		{"a+?", "(rep{1,∞} a)"}, // non-greedy suffix swallowed
		{"()", "ε"},
		{"(|a)", "(alt ε a)"},
		{"^ab$", "(cat ^ a b $)"},
		{"a(bc(d|e))f", "(cat a b c (alt d e) f)"},
	}
	for _, c := range cases {
		n, err := Parse(c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if got := n.String(); got != c.want {
			t.Errorf("%s: AST %s, want %s", c.in, got, c.want)
		}
	}
}

// TestParseZeroLedBounds pins POSIX interval syntax: the bounds of a
// counted repetition are decimal, so leading zeros do not change them —
// `a{01}` is `a{1}` and `a{02,010}` is `a{2,10}` — where stdlib regexp reads
// a zero-led bound as literal text.
func TestParseZeroLedBounds(t *testing.T) {
	for in, want := range map[string]string{
		"a{01}":     "a{1}",
		"a{00}b":    "a{0}b",
		"a{02,010}": "a{2,10}",
		"a{001,}":   "a{1,}",
		"([0]){01}": "([0]){1}",
	} {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if g, w := got.String(), MustParse(want).String(); g != w {
			t.Errorf("%s: AST %s, want %s (%s)", in, g, w, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"(", ")", "(a", "a)", "*", "+a", "?", "a(b", "{2}", "a{2,1}",
		"(^)*", "[", `a\`,
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("%q: expected syntax error", in)
		}
	}
}

// TestParseUnknownEscape checks that escapes of ASCII letters and digits
// the dialect does not define are rejected with a SyntaxError classified
// ErrUnknownEscape, naming the escape at the backslash's offset — inside
// brackets too — while escapes of punctuation and other bytes stay
// literal.
func TestParseUnknownEscape(t *testing.T) {
	for in, pos := range map[string]int{
		`\b`: 0, `a\B`: 1, `\k<n>`: 0, `x\ey`: 1, `\cA`: 0, `\p{L}`: 0,
		`(a)\1`: 3, `\9`: 0, `[\b]`: 1, `[a\k]`: 2, `ab|\z`: 3, `\X`: 0,
	} {
		_, err := Parse(in)
		var se *SyntaxError
		if !errors.As(err, &se) || !errors.Is(err, ErrUnknownEscape) {
			t.Fatalf("%q: error %v, want an unknown-escape SyntaxError", in, err)
		}
		if esc := in[pos : pos+2]; se.Pos != pos || se.Msg != "unknown escape "+esc {
			t.Fatalf("%q: %q at offset %d, want %q at %d", in, se.Msg, se.Pos, "unknown escape "+esc, pos)
		}
	}
	for _, in := range []string{`\.`, `\-`, `\/`, `\ `, `\~`, `\"`, "\\\x80", `[\]]`, `\n\t\x41\d\0`} {
		if _, err := Parse(in); err != nil {
			t.Fatalf("%q: %v", in, err)
		}
	}
}

func TestParseEmptyPattern(t *testing.T) {
	n, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if n.Op != OpEmpty {
		t.Fatalf("op=%v, want OpEmpty", n.Op)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("(")
}

func TestMinMatchLen(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"abc", 3},
		{"a|bc", 1},
		{"a*", 0},
		{"a+", 1},
		{"a{3,7}", 3},
		{"(ab){2}c", 5},
		{"^a$", 1},
		{"", 0},
	}
	for _, c := range cases {
		n := MustParse(c.in)
		if got := n.MinMatchLen(); got != c.want {
			t.Errorf("%s: MinMatchLen=%d, want %d", c.in, got, c.want)
		}
	}
}

func TestCountLits(t *testing.T) {
	if got := MustParse("ab(c|d)e{2,3}").CountLits(); got != 5 {
		t.Fatalf("CountLits=%d, want 5", got)
	}
}

func TestWalkVisitsAll(t *testing.T) {
	n := MustParse("a(b|c)*d")
	count := 0
	n.Walk(func(*Node) { count++ })
	// cat(a, rep(alt(b,c)), d): 1 cat + 3 lits + 1 rep + 1 alt = 7 nodes.
	if count != 7 {
		t.Fatalf("Walk visited %d nodes, want 7", count)
	}
}

// randPattern produces a random valid ERE using a small grammar, for the
// parse-never-crashes property test.
func randPattern(r *rand.Rand, depth int) string {
	if depth <= 0 {
		atoms := []string{"a", "b", "c", "x", `\n`, `\x41`, "[a-f]", "[^xyz]", ".", `\d`}
		return atoms[r.Intn(len(atoms))]
	}
	switch r.Intn(6) {
	case 0:
		return randPattern(r, depth-1) + randPattern(r, depth-1)
	case 1:
		return "(" + randPattern(r, depth-1) + "|" + randPattern(r, depth-1) + ")"
	case 2:
		return "(" + randPattern(r, depth-1) + ")*"
	case 3:
		return "(" + randPattern(r, depth-1) + ")+"
	case 4:
		return "(" + randPattern(r, depth-1) + ")?"
	default:
		return "(" + randPattern(r, depth-1) + "){1,3}"
	}
}

func TestQuickParseValidPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		p := randPattern(r, 4)
		n, err := Parse(p)
		if err != nil {
			t.Logf("pattern %q: %v", p, err)
			return false
		}
		return n != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	alphabet := `ab|(){}[]*+?.\^$-,0123xdn`
	f := func() bool {
		var sb strings.Builder
		n := r.Intn(20)
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		// Either outcome is fine; the property is "no panic".
		_, _ = Parse(sb.String())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse(b *testing.B) {
	pat := `^GET\s+/[a-z0-9_/]{1,32}\.(php|html?|aspx?)\s+HTTP/1\.[01]$`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(pat); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseDepthBudget(t *testing.T) {
	deep := strings.Repeat("(", 5000) + "a" + strings.Repeat(")", 5000)
	_, err := Parse(deep)
	if err == nil {
		t.Fatal("expected depth-budget error for 5000-deep nesting")
	}
	if !errors.Is(err, budget.Err) {
		t.Fatalf("depth error should wrap budget.Err, got %v", err)
	}
	// Within an explicit larger budget the same pattern parses.
	if _, err := ParseOpts(deep, ParseOptions{MaxDepth: 6000}); err != nil {
		t.Fatalf("deep pattern within budget: %v", err)
	}
	// A negative budget disables the check.
	if _, err := ParseOpts(deep, ParseOptions{MaxDepth: -1}); err != nil {
		t.Fatalf("deep pattern with disabled budget: %v", err)
	}
	// Just inside the default budget is fine.
	ok := strings.Repeat("(", DefaultMaxDepth) + "a" + strings.Repeat(")", DefaultMaxDepth)
	if _, err := Parse(ok); err != nil {
		t.Fatalf("pattern at default depth budget: %v", err)
	}
}

func TestParseLengthBudget(t *testing.T) {
	long := strings.Repeat("a", DefaultMaxLen+1)
	_, err := Parse(long)
	if !errors.Is(err, budget.Err) {
		t.Fatalf("expected budget.Err for over-long pattern, got %v", err)
	}
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("length error should be a *SyntaxError, got %T", err)
	}
	if len(serr.Pattern) > 300 {
		t.Fatalf("diagnostic pattern not truncated: %d bytes", len(serr.Pattern))
	}
	if _, err := ParseOpts(long, ParseOptions{MaxLen: -1}); err != nil {
		t.Fatalf("over-long pattern with disabled budget: %v", err)
	}
	if _, err := ParseOpts("abc", ParseOptions{MaxLen: 2}); !errors.Is(err, budget.Err) {
		t.Fatalf("explicit small MaxLen: want budget.Err, got %v", err)
	}
}

func TestRepeatBoundBudgetClassified(t *testing.T) {
	_, err := Parse("a{1,100000}")
	if err == nil {
		t.Fatal("expected error for huge repetition bound")
	}
	if !errors.Is(err, budget.Err) {
		t.Fatalf("repetition-bound error should wrap budget.Err, got %v", err)
	}
}
