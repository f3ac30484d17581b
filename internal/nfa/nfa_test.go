package nfa

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/charset"
	"repro/internal/rex"
)

func mustBuild(t *testing.T, pattern string) *NFA {
	t.Helper()
	ast, err := rex.Parse(pattern)
	if err != nil {
		t.Fatalf("parse %q: %v", pattern, err)
	}
	n, err := Build(ast)
	if err != nil {
		t.Fatalf("build %q: %v", pattern, err)
	}
	n.Pattern = pattern
	return n
}

func mustCompile(t *testing.T, pattern string) *NFA {
	t.Helper()
	n, err := Compile(pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", pattern, err)
	}
	return n
}

func TestBuildLiteral(t *testing.T) {
	n := mustBuild(t, "a")
	if n.NumStates != 2 || len(n.Trans) != 1 || len(n.Eps) != 0 {
		t.Fatalf("unexpected shape: %v", n)
	}
	tr := n.Trans[0]
	if tr.From != n.Start || !n.IsFinal(tr.To) {
		t.Fatal("transition does not link start to final")
	}
	if b, ok := tr.Label.IsSingle(); !ok || b != 'a' {
		t.Fatalf("label %v", tr.Label)
	}
}

func TestBuildCountedRepeatDeferred(t *testing.T) {
	n := mustBuild(t, "a{2,4}")
	if len(n.Loops) != 1 {
		t.Fatalf("loops=%d, want 1", len(n.Loops))
	}
	lp := n.Loops[0]
	if lp.Min != 2 || lp.Max != 4 {
		t.Fatalf("bounds %d,%d", lp.Min, lp.Max)
	}
	if err := ExpandLoops(n); err != nil {
		t.Fatal(err)
	}
	if len(n.Loops) != 0 {
		t.Fatal("loops not consumed")
	}
}

func TestAnchorFlags(t *testing.T) {
	n := mustBuild(t, "^abc$")
	if !n.AnchorStart || !n.AnchorEnd {
		t.Fatalf("anchors: start=%v end=%v", n.AnchorStart, n.AnchorEnd)
	}
	n = mustBuild(t, "abc")
	if n.AnchorStart || n.AnchorEnd {
		t.Fatal("spurious anchors")
	}
	ast := rex.MustParse("a^b")
	if _, err := Build(ast); err == nil {
		t.Fatal("interior anchor accepted")
	}
}

func TestAcceptsBasics(t *testing.T) {
	cases := []struct {
		pattern string
		yes, no []string
	}{
		{"abc", []string{"abc"}, []string{"", "ab", "abcd", "abd"}},
		{"a|b", []string{"a", "b"}, []string{"", "c", "ab"}},
		{"a*", []string{"", "a", "aaaa"}, []string{"b", "ab"}},
		{"a+", []string{"a", "aa"}, []string{"", "b"}},
		{"a?b", []string{"b", "ab"}, []string{"", "aab"}},
		{"(ab)+", []string{"ab", "abab"}, []string{"", "a", "aba"}},
		{"a{2,3}", []string{"aa", "aaa"}, []string{"", "a", "aaaa"}},
		{"a{2,}", []string{"aa", "aaa", "aaaaaa"}, []string{"a", ""}},
		{"a{3}", []string{"aaa"}, []string{"aa", "aaaa"}},
		{"[a-c]x", []string{"ax", "bx", "cx"}, []string{"dx", "x"}},
		{"[^a]", []string{"b", "z", "\n"}, []string{"a", ""}},
		{".", []string{"a", "z", " "}, []string{"", "\n", "ab"}},
		{"a.c", []string{"abc", "axc"}, []string{"ac", "a\nc"}},
		{"(a|bc)d(e|f){1,2}", []string{"ade", "bcdf", "adef", "bcdee"}, []string{"ad", "adx", "adeee"}},
		{"", []string{""}, []string{"a"}},
		{"()|a", []string{"", "a"}, []string{"b"}},
	}
	for _, c := range cases {
		raw := mustBuild(t, c.pattern)
		if err := ExpandLoops(raw); err != nil {
			t.Fatalf("%s: %v", c.pattern, err)
		}
		opt := mustCompile(t, c.pattern)
		for _, s := range c.yes {
			if !mustAccepts(t, raw, []byte(s)) {
				t.Errorf("%s: raw rejects %q", c.pattern, s)
			}
			if !mustAccepts(t, opt, []byte(s)) {
				t.Errorf("%s: optimized rejects %q", c.pattern, s)
			}
		}
		for _, s := range c.no {
			if mustAccepts(t, raw, []byte(s)) {
				t.Errorf("%s: raw accepts %q", c.pattern, s)
			}
			if mustAccepts(t, opt, []byte(s)) {
				t.Errorf("%s: optimized accepts %q", c.pattern, s)
			}
		}
	}
}

func TestOptimizeRemovesEpsilon(t *testing.T) {
	n := mustCompile(t, "(a|b)*c{2,3}(d|ef)+")
	if len(n.Eps) != 0 {
		t.Fatalf("eps remain: %d", len(n.Eps))
	}
	if len(n.Loops) != 0 {
		t.Fatal("loops remain")
	}
}

func TestMergeParallel(t *testing.T) {
	// a|b|c between the same states: after optimization there must be no
	// two transitions sharing (from, to).
	n := mustCompile(t, "(a|b|c)x")
	type pair struct{ f, to StateID }
	seen := map[pair]bool{}
	for _, tr := range n.Trans {
		p := pair{tr.From, tr.To}
		if seen[p] {
			t.Fatalf("parallel arcs remain between %d and %d", tr.From, tr.To)
		}
		seen[p] = true
	}
	// The union class must cover a, b, c.
	found := false
	for _, tr := range n.Trans {
		if tr.Label.Contains('a') && tr.Label.Contains('b') && tr.Label.Contains('c') {
			found = true
		}
	}
	if !found {
		t.Fatal("no merged [abc] class transition")
	}
}

func TestMergeParallelDirect(t *testing.T) {
	n := &NFA{NumStates: 2, Start: 0, Finals: []StateID{1}}
	n.Trans = []Transition{
		{0, 1, charset.Single('a')},
		{0, 1, charset.Single('b')},
		{0, 1, charset.Single('k')},
	}
	MergeParallel(n)
	if len(n.Trans) != 1 {
		t.Fatalf("trans=%d, want 1", len(n.Trans))
	}
	if n.Trans[0].Label.Len() != 3 {
		t.Fatalf("label %v", n.Trans[0].Label)
	}
}

func TestTrimUnreachable(t *testing.T) {
	n := &NFA{NumStates: 4, Start: 0, Finals: []StateID{1}}
	n.Trans = []Transition{
		{0, 1, charset.Single('a')},
		{2, 3, charset.Single('b')}, // unreachable island
		{1, 2, charset.Single('c')}, // 2 reachable but dead (cannot reach final 1? 2->3 dead)
	}
	n.trim()
	if n.NumStates != 2 {
		t.Fatalf("states=%d, want 2", n.NumStates)
	}
	if len(n.Trans) != 1 {
		t.Fatalf("trans=%d, want 1", len(n.Trans))
	}
}

func TestTrimKeepsEmptyLanguageStart(t *testing.T) {
	n := &NFA{NumStates: 2, Start: 0}
	n.Trans = []Transition{{0, 1, charset.Single('a')}}
	n.trim()
	if n.NumStates != 1 || n.Start != 0 {
		t.Fatalf("states=%d start=%d", n.NumStates, n.Start)
	}
}

func TestExpansionCounts(t *testing.T) {
	// a{3} must produce a 3-transition chain after optimization.
	n := mustCompile(t, "a{3}")
	if len(n.Trans) != 3 || n.NumStates != 4 {
		t.Fatalf("a{3}: states=%d trans=%d", n.NumStates, len(n.Trans))
	}
	// a{2,4}: chain of 4 with early exits; 4 transitions, finals at depth 2,3,4.
	n = mustCompile(t, "a{2,4}")
	if len(n.Trans) != 4 {
		t.Fatalf("a{2,4}: trans=%d, want 4", len(n.Trans))
	}
	if len(n.Finals) != 3 {
		t.Fatalf("a{2,4}: finals=%v, want 3 accepting depths", n.Finals)
	}
}

func TestNestedCountedRepeat(t *testing.T) {
	n := mustCompile(t, "(a{2}){2,3}")
	for _, s := range []string{"aaaa", "aaaaaa"} {
		if !mustAccepts(t, n, []byte(s)) {
			t.Errorf("rejects %q", s)
		}
	}
	for _, s := range []string{"", "aa", "aaa", "aaaaa", "aaaaaaa"} {
		if mustAccepts(t, n, []byte(s)) {
			t.Errorf("accepts %q", s)
		}
	}
}

func TestCCLen(t *testing.T) {
	n := mustCompile(t, "[abc]x[de]")
	if got := n.CCLen(); got != 5 {
		t.Fatalf("CCLen=%d, want 5", got)
	}
	n = mustCompile(t, "abc")
	if got := n.CCLen(); got != 0 {
		t.Fatalf("CCLen=%d, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := mustCompile(t, "ab[cd]")
	c := n.Clone()
	c.Trans[0].Label = charset.Single('z')
	c.Finals[0] = 99
	if n.Trans[0].Label.Contains('z') {
		t.Fatal("clone shares Trans")
	}
	if n.Finals[0] == 99 {
		t.Fatal("clone shares Finals")
	}
}

func TestEmptyClassRejected(t *testing.T) {
	// [^\x00-\xff] would be an empty class; construct via AST directly.
	ast := rex.Literal(charset.Set{})
	if _, err := Build(ast); err == nil {
		t.Fatal("empty class accepted")
	}
}

// --- randomized equivalence against the stdlib regexp engine ---

func randPattern(r *rand.Rand, depth int) string {
	if depth <= 0 {
		atoms := []string{"a", "b", "c", "ab", "[a-c]", "[bc]", "[^ab]", "."}
		return atoms[r.Intn(len(atoms))]
	}
	switch r.Intn(4) {
	case 0, 1:
		return randPattern(r, depth-1) + randPattern(r, depth-1)
	case 2:
		return "(" + randPattern(r, depth-1) + "|" + randPattern(r, depth-1) + ")"
	default:
		quants := []string{"*", "+", "?", "{0,1}", "{0,2}", "{1,3}", "{2,}", "{3}"}
		return "(" + randPattern(r, depth-1) + ")" + quants[r.Intn(len(quants))]
	}
}

func randInput(r *rand.Rand, n int) []byte {
	alpha := []byte("abcd")
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return b
}

func TestQuickAcceptsMatchesStdlib(t *testing.T) {
	agree := func(pat string, in []byte) bool {
		re, err := regexp.Compile("\\A(?:" + pat + ")\\z")
		if err != nil {
			return true // not an RE2 pattern; skip
		}
		n, err := Compile(pat)
		if err != nil {
			t.Logf("compile %q: %v", pat, err)
			return false
		}
		if got, want := mustAccepts(t, n, in), re.Match(in); got != want {
			t.Logf("pattern %q input %q: nfa=%v stdlib=%v", pat, in, got, want)
			return false
		}
		return true
	}
	// An optional whose body starts or ends in a + loop: the bypass edge
	// must not reach the loop's back edge.
	for _, c := range []struct{ pat, in string }{
		{"(xc+)?", "c"}, {"(xc+)?y", "cy"}, {"((c)+[^ab]c){0,1}", "c"},
	} {
		if !agree(c.pat, []byte(c.in)) {
			t.Fatalf("%q on %q disagrees with stdlib", c.pat, c.in)
		}
	}
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		pat := randPattern(r, 3)
		for k := 0; k < 12; k++ {
			if !agree(pat, randInput(r, r.Intn(8))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOptimizationPreservesLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		pat := randPattern(r, 3)
		raw, err := Compile(pat) // fully optimized
		if err != nil {
			t.Logf("compile %q: %v", pat, err)
			return false
		}
		ast := rex.MustParse(pat)
		eps, err := Build(ast)
		if err != nil {
			return false
		}
		if err := ExpandLoops(eps); err != nil {
			return false
		}
		for k := 0; k < 12; k++ {
			in := randInput(r, r.Intn(8))
			if mustAccepts(t, eps, in) != mustAccepts(t, raw, in) {
				t.Logf("pattern %q input %q disagree", pat, in)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNoParallelArcsAfterOptimize(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		pat := randPattern(r, 3)
		n, err := Compile(pat)
		if err != nil {
			return false
		}
		type pair struct{ f, t StateID }
		seen := map[pair]bool{}
		for _, tr := range n.Trans {
			p := pair{tr.From, tr.To}
			if seen[p] {
				t.Logf("pattern %q has parallel arcs", pat)
				return false
			}
			seen[p] = true
		}
		return len(n.Eps) == 0 && len(n.Loops) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOutDegree(t *testing.T) {
	n := mustCompile(t, "a(b|c)")
	deg := n.OutDegree()
	total := 0
	for _, d := range deg {
		total += d
	}
	if total != len(n.Trans) {
		t.Fatalf("degree sum %d != trans %d", total, len(n.Trans))
	}
}

func TestRealisticRulesCompile(t *testing.T) {
	rules := []string{
		`^GET /[a-z0-9_]{1,16}\.php`,
		`User-Agent: [Mm]ozilla`,
		`\x90{8,}`,
		`(GET|POST|HEAD) /admin`,
		`cmd\.exe(\?|/c)`,
		`[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}`,
		`SELECT.{1,64}FROM`,
		`[ACGT]{10,20}TATA`,
	}
	for _, rule := range rules {
		n, err := Compile(rule)
		if err != nil {
			t.Errorf("%s: %v", rule, err)
			continue
		}
		if n.NumStates == 0 || len(n.Trans) == 0 {
			t.Errorf("%s: degenerate automaton %v", rule, n)
		}
	}
}

func TestAcceptsLongChain(t *testing.T) {
	pat := strings.Repeat("ab", 50)
	n := mustCompile(t, pat)
	if !mustAccepts(t, n, []byte(pat)) {
		t.Fatal("rejects own literal")
	}
	if n.NumStates != 101 {
		t.Fatalf("states=%d, want 101", n.NumStates)
	}
}

func BenchmarkCompile(b *testing.B) {
	pat := `(GET|POST) /[a-z0-9/_-]{1,24}\.(php|html) HTTP/1\.[01]`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(pat); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccepts(b *testing.B) {
	n, err := Compile("(a|b)*abb")
	if err != nil {
		b.Fatal(err)
	}
	in := []byte(strings.Repeat("ab", 100) + "abb")
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		mustAccepts(b, n, in)
	}
}

// mustAccepts is Accepts for automata known to be fully expanded; it fails
// the test on error.
func mustAccepts(tb testing.TB, n *NFA, input []byte) bool {
	tb.Helper()
	ok, err := Accepts(n, input)
	if err != nil {
		tb.Fatalf("Accepts: %v", err)
	}
	return ok
}
