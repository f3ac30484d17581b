package factor

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/rex"
)

// The soundness invariant under test: whenever Extract returns a factor,
// that string occurs in EVERY match of the expression — equivalently, an
// input not containing the factor cannot contain a match. A violation here
// would make the production prefilter drop real matches, so this property
// is checked three ways: against strings sampled from the pattern's own
// language, against the full engine as oracle, and via a fuzz target.

// genExpr generates a random POSIX ERE over a small alphabet, exercising
// every AST op Extract handles: literals, classes, concatenation,
// alternation, all repeat shapes, and (at the top level only) anchors.
func genExpr(rng *rand.Rand, depth int) string {
	var b strings.Builder
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(genConcat(rng, depth))
	}
	return b.String()
}

func genConcat(rng *rand.Rand, depth int) string {
	var b strings.Builder
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		b.WriteString(genUnit(rng, depth))
	}
	return b.String()
}

func genUnit(rng *rand.Rand, depth int) string {
	atom := genAtom(rng, depth)
	switch rng.Intn(8) {
	case 0:
		return atom + "?"
	case 1:
		return atom + "*"
	case 2:
		return atom + "+"
	case 3:
		m := 1 + rng.Intn(3)
		return atom + "{" + strconv.Itoa(m) + "}"
	case 4:
		m := 1 + rng.Intn(3)
		return atom + "{" + strconv.Itoa(m) + "," + strconv.Itoa(m+rng.Intn(3)) + "}"
	default:
		return atom
	}
}

func genAtom(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(4) == 0 {
		return "(" + genExpr(rng, depth-1) + ")"
	}
	switch rng.Intn(4) {
	case 0:
		return "[abc]"
	case 1:
		return "[a-d]"
	default:
		runLen := 1 + rng.Intn(4)
		var b strings.Builder
		for i := 0; i < runLen; i++ {
			b.WriteByte(byte('a' + rng.Intn(5)))
		}
		return b.String()
	}
}

// genPattern wraps genExpr with optional anchors at the pattern ends (the
// only placement the generator uses, mirroring real rulesets).
func genPattern(rng *rand.Rand) string {
	p := genExpr(rng, 2)
	if rng.Intn(5) == 0 {
		p = "^" + p
	}
	if rng.Intn(5) == 0 {
		p = p + "$"
	}
	return p
}

// sampleMatch appends one string of the expression's language to out.
// Anchors contribute nothing positionally: the sampled string is a whole
// match, so ^/$ at the pattern ends are satisfied by construction.
func sampleMatch(n *rex.Node, rng *rand.Rand, out []byte) []byte {
	switch n.Op {
	case rex.OpLit:
		members := make([]byte, 0, 8)
		for c := 0; c < 256; c++ {
			if n.Set.Contains(byte(c)) {
				members = append(members, byte(c))
			}
		}
		if len(members) > 0 {
			out = append(out, members[rng.Intn(len(members))])
		}
	case rex.OpConcat:
		for _, s := range n.Subs {
			out = sampleMatch(s, rng, out)
		}
	case rex.OpAlt:
		out = sampleMatch(n.Subs[rng.Intn(len(n.Subs))], rng, out)
	case rex.OpRepeat:
		k := n.Min
		if n.Max == rex.Inf {
			k += rng.Intn(3)
		} else if n.Max > n.Min {
			k += rng.Intn(n.Max - n.Min + 1)
		}
		for i := 0; i < k; i++ {
			out = sampleMatch(n.Subs[0], rng, out)
		}
	}
	return out // OpEmpty, OpAnchor: nothing
}

// compileOne lowers a single pattern to an executable program, bypassing
// every prefilter layer so unsoundness cannot hide behind the gating it
// would corrupt.
func compileOne(pattern string) (*engine.Program, error) {
	ast, err := rex.Parse(pattern)
	if err != nil {
		return nil, err
	}
	a, err := nfa.Build(ast)
	if err != nil {
		return nil, err
	}
	a.Pattern = pattern
	if err := nfa.Optimize(a); err != nil {
		return nil, err
	}
	z, err := mfsa.Merge([]*nfa.NFA{a})
	if err != nil {
		return nil, err
	}
	return engine.NewProgram(z), nil
}

// TestFactorSampledMatchesContainFactor samples strings from random
// patterns' own languages and checks each contains the extracted factor.
func TestFactorSampledMatchesContainFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		pattern := genPattern(rng)
		ast, err := rex.Parse(pattern)
		if err != nil {
			t.Fatalf("generated unparseable pattern %q: %v", pattern, err)
		}
		minLen := 1 + rng.Intn(3)
		f, ok := Extract(ast, minLen)
		if !ok {
			continue
		}
		if len(f) < minLen {
			t.Fatalf("pattern %q: factor %q shorter than minLen %d", pattern, f, minLen)
		}
		for s := 0; s < 5; s++ {
			match := string(sampleMatch(ast, rng, nil))
			if !strings.Contains(match, f) {
				t.Fatalf("pattern %q: sampled match %q does not contain factor %q",
					pattern, match, f)
			}
		}
	}
}

// TestFactorOracleSoundness checks the production-facing direction against
// the full engine: an input without the factor must yield zero matches.
// Inputs mix pure junk with sampled matches embedded in junk (so both
// directions of the gate see traffic).
func TestFactorOracleSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	junk := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(6))
		}
		return b
	}
	for iter := 0; iter < 400; iter++ {
		pattern := genPattern(rng)
		ast, err := rex.Parse(pattern)
		if err != nil {
			t.Fatalf("generated unparseable pattern %q: %v", pattern, err)
		}
		f, ok := Extract(ast, 1+rng.Intn(3))
		if !ok {
			continue
		}
		p, err := compileOne(pattern)
		if err != nil {
			continue // loop-expansion budget; irrelevant to the property
		}
		inputs := [][]byte{
			junk(64),
			append(append(junk(20), sampleMatch(ast, rng, nil)...), junk(20)...),
		}
		for _, in := range inputs {
			res := engine.Run(p, in, engine.Config{})
			if res.Matches > 0 && !bytes.Contains(in, []byte(f)) {
				t.Fatalf("pattern %q factor %q: %d matches in input %q lacking the factor",
					pattern, f, res.Matches, in)
			}
		}
	}
}

// TestFactorEdgeCases pins Extract's output on the shapes that historically
// trip factor extraction: counted repeats, branching, optionals, anchors.
func TestFactorEdgeCases(t *testing.T) {
	cases := []struct {
		pattern string
		minLen  int
		want    string // "" = no factor
	}{
		{"a{2,5}", 2, "aa"},      // counted repeat: only the mandatory floor
		{"a{2,5}", 3, ""},        // ...and no more than that
		{"a{3}b", 3, "aaab"},     // exact repeat extends the run
		{"(ab|ac)", 1, ""},       // alternation guarantees no single literal
		{"(ab|ac)d{2}", 2, "dd"}, // ...but the mandatory tail still factors
		{"x(y)?z", 1, "x"},       // optional breaks the run on both sides
		{"x(y)?z", 2, ""},        //
		{"xy+z", 2, "xy"},        // plus keeps the first mandatory copy
		{"^abc$", 3, "abc"},      // anchors pass factors through
		{"^abc", 3, "abc"},       //
		{"abc$", 3, "abc"},       //
		{"ab[0-9]cd", 2, "ab"},   // class splits runs; longest side wins ties by order
		{"ab[0-9]cde", 3, "cde"}, //
		{"(ab){2}", 3, "abab"},   // literal group repeat
		{"(ab){2,3}", 4, "abab"}, // mandatory floor of a bounded group repeat
		{"a*bc", 2, "bc"},        // star contributes nothing
		{"", 1, ""},              // empty pattern
	}
	for _, c := range cases {
		ast, err := rex.Parse(c.pattern)
		if err != nil {
			t.Fatalf("parse %q: %v", c.pattern, err)
		}
		got, ok := Extract(ast, c.minLen)
		if c.want == "" {
			if ok {
				t.Errorf("Extract(%q, %d) = %q, want no factor", c.pattern, c.minLen, got)
			}
			continue
		}
		if !ok || got != c.want {
			t.Errorf("Extract(%q, %d) = %q, %v; want %q", c.pattern, c.minLen, got, ok, c.want)
		}
	}
}

// FuzzFactorSoundness fuzzes the oracle property with arbitrary patterns
// and inputs: a reported match in an input lacking the extracted factor is
// a prefilter-corrupting bug.
func FuzzFactorSoundness(f *testing.F) {
	f.Add("a{2,5}", []byte("aaaa"))
	f.Add("(ab|ac)", []byte("acab"))
	f.Add("x(y)?z", []byte("xzxyz"))
	f.Add("^abc$", []byte("abc"))
	f.Add("needle[a-z]+", []byte("haystack needlex"))
	f.Add("ab\\xca{1,3}cd", []byte("ab\xcacd"))
	f.Fuzz(func(t *testing.T, pattern string, input []byte) {
		if len(pattern) > 64 || len(input) > 4096 {
			t.Skip()
		}
		ast, err := rex.Parse(pattern)
		if err != nil {
			t.Skip()
		}
		fac, ok := Extract(ast, 1)
		if !ok {
			t.Skip()
		}
		p, err := compileOne(pattern)
		if err != nil {
			t.Skip()
		}
		res := engine.Run(p, input, engine.Config{})
		if res.Matches > 0 && !bytes.Contains(input, []byte(fac)) {
			t.Fatalf("pattern %q factor %q: %d matches in input %q lacking the factor",
				pattern, fac, res.Matches, input)
		}
	})
}
