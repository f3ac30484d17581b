package mfsa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nfa"
	"repro/internal/rex"
)

func compileAll(t testing.TB, patterns ...string) []*nfa.NFA {
	t.Helper()
	out := make([]*nfa.NFA, len(patterns))
	for i, p := range patterns {
		n, err := nfa.Compile(p)
		if err != nil {
			t.Fatalf("compile %q: %v", p, err)
		}
		n.ID = i
		out[i] = n
	}
	return out
}

func mustMerge(t testing.TB, patterns ...string) (*MFSA, []*nfa.NFA) {
	t.Helper()
	fsas := compileAll(t, patterns...)
	z, err := Merge(fsas)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := Validate(z, fsas); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return z, fsas
}

func totalStates(fsas []*nfa.NFA) int {
	t := 0
	for _, a := range fsas {
		t += a.NumStates
	}
	return t
}

func totalTrans(fsas []*nfa.NFA) int {
	t := 0
	for _, a := range fsas {
		t += len(a.Trans)
	}
	return t
}

func TestMergeSingle(t *testing.T) {
	z, fsas := mustMerge(t, "abc")
	if z.NumFSAs() != 1 {
		t.Fatalf("R=%d", z.NumFSAs())
	}
	if z.NumStates != fsas[0].NumStates || z.NumTrans() != len(fsas[0].Trans) {
		t.Fatalf("single merge changed shape: %v vs %v", z, fsas[0])
	}
	for i := range z.Trans {
		if !z.Bel[i].Has(0) || z.Bel[i].Count() != 1 {
			t.Fatalf("bel[%d]=%v", i, z.Bel[i])
		}
	}
}

func TestMergeIdentical(t *testing.T) {
	// Outcome (c) of §III-A: identical FSAs fully overlap; the MFSA keeps
	// one copy with both belongings.
	z, fsas := mustMerge(t, "abcd", "abcd")
	if z.NumStates != fsas[0].NumStates {
		t.Fatalf("states=%d, want %d", z.NumStates, fsas[0].NumStates)
	}
	if z.NumTrans() != len(fsas[0].Trans) {
		t.Fatalf("trans=%d, want %d", z.NumTrans(), len(fsas[0].Trans))
	}
	for i := range z.Trans {
		if z.Bel[i].Count() != 2 {
			t.Fatalf("bel[%d]=%v, want both FSAs", i, z.Bel[i])
		}
	}
}

func TestMergeDisjoint(t *testing.T) {
	// Outcome (a): no common sub-REs; the incoming FSA is copied entirely
	// with disjoint state labels.
	z, fsas := mustMerge(t, "abc", "xyz")
	if z.NumStates != totalStates(fsas) {
		t.Fatalf("states=%d, want %d", z.NumStates, totalStates(fsas))
	}
	if z.NumTrans() != totalTrans(fsas) {
		t.Fatalf("trans=%d, want %d", z.NumTrans(), totalTrans(fsas))
	}
}

func TestMergeSharedPrefix(t *testing.T) {
	// Outcome (b): "abcx" and "abcy" share the 3-transition prefix.
	z, fsas := mustMerge(t, "abcx", "abcy")
	// 5 + 5 states standalone; shared a,b,c path saves 4 states.
	wantStates := totalStates(fsas) - 4
	if z.NumStates != wantStates {
		t.Fatalf("states=%d, want %d", z.NumStates, wantStates)
	}
	wantTrans := totalTrans(fsas) - 3
	if z.NumTrans() != wantTrans {
		t.Fatalf("trans=%d, want %d", z.NumTrans(), wantTrans)
	}
	shared := 0
	for i := range z.Trans {
		if z.Bel[i].Count() == 2 {
			shared++
		}
	}
	if shared != 3 {
		t.Fatalf("shared transitions=%d, want 3", shared)
	}
}

func TestMergePaperFigure2(t *testing.T) {
	// Fig. 2 merges a1 = a[gj](lm|cd) with a2 = kja[gj]cd: the common
	// sub-path a·[gj]·(c·d) must be shared.
	z, _ := mustMerge(t, "a[gj](lm|cd)", "kja[gj]cd")
	shared := 0
	for i := range z.Trans {
		if z.Bel[i].Count() == 2 {
			shared++
		}
	}
	// a, [gj], c, d are shareable: 4 transitions.
	if shared < 4 {
		t.Fatalf("shared=%d, want ≥ 4", shared)
	}
}

func TestMergeCharClassExactEquality(t *testing.T) {
	// CCs merge only when identical (set Y, Eq. 1): [kh] and k must not
	// merge (Fig. 5b), while [kh] and [hk] must.
	z, _ := mustMerge(t, "[kh]bc", "kfd")
	for i := range z.Trans {
		if z.Bel[i].Count() == 2 {
			t.Fatalf("transition %d shared between [kh]bc and kfd", i)
		}
	}
	z2, _ := mustMerge(t, "[kh]b", "[hk]b")
	shared := 0
	for i := range z2.Trans {
		if z2.Bel[i].Count() == 2 {
			shared++
		}
	}
	if shared != 2 {
		t.Fatalf("[kh]b/[hk]b shared=%d, want 2", shared)
	}
}

func TestMergeFigure5bNoFalseLanguage(t *testing.T) {
	// After the multiplicity pre-transformation, merging (k|h)bc with kfd
	// must not create an MFSA accepting hfd for FSA 2.
	z, fsas := mustMerge(t, "(k|h)bc", "kfd")
	if err := Validate(z, fsas); err != nil {
		t.Fatal(err)
	}
	ex, err := ExtractFSA(z, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mustAccepts(t, ex, []byte("hfd")) {
		t.Fatal("belonging-2 sub-automaton accepts hfd")
	}
	if !mustAccepts(t, ex, []byte("kfd")) {
		t.Fatal("belonging-2 sub-automaton rejects kfd")
	}
}

func TestMergeThreeWay(t *testing.T) {
	z, fsas := mustMerge(t, "GET /index", "GET /image", "GET /admin")
	if z.NumStates >= totalStates(fsas) {
		t.Fatalf("no compression: %d vs %d", z.NumStates, totalStates(fsas))
	}
	// The "GET /" prefix (5 transitions + i/a continuations) is shared by
	// all three.
	all3 := 0
	for i := range z.Trans {
		if z.Bel[i].Count() == 3 {
			all3++
		}
	}
	if all3 < 5 {
		t.Fatalf("triple-shared transitions=%d, want ≥ 5", all3)
	}
}

func TestExtractRoundTrip(t *testing.T) {
	patterns := []string{"ab(c|d)e", "abce", "xy[cd]z", "ab", "(ab){2,3}"}
	z, fsas := mustMerge(t, patterns...)
	inputs := []string{"", "ab", "abce", "abde", "xycz", "xydz", "abab", "ababab", "abc", "e"}
	for j, a := range fsas {
		ex, err := ExtractFSA(z, j)
		if err != nil {
			t.Fatalf("extract %d: %v", j, err)
		}
		for _, in := range inputs {
			if got, want := mustAccepts(t, ex, []byte(in)), mustAccepts(t, a, []byte(in)); got != want {
				t.Errorf("FSA %d (%s) input %q: extracted=%v original=%v", j, patterns[j], in, got, want)
			}
		}
	}
}

func TestMergeGroups(t *testing.T) {
	patterns := []string{"aa", "ab", "ac", "ad", "ae", "af", "ag"}
	fsas := compileAll(t, patterns...)
	zs, err := MergeGroups(fsas, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 3 { // ⌈7/3⌉
		t.Fatalf("groups=%d, want 3", len(zs))
	}
	if zs[0].NumFSAs() != 3 || zs[1].NumFSAs() != 3 || zs[2].NumFSAs() != 1 {
		t.Fatalf("group sizes: %d %d %d", zs[0].NumFSAs(), zs[1].NumFSAs(), zs[2].NumFSAs())
	}
	// Rule ids must index into the original ruleset.
	if zs[1].FSAs[0].RuleID != 3 || zs[2].FSAs[0].RuleID != 6 {
		t.Fatalf("rule ids: %d %d", zs[1].FSAs[0].RuleID, zs[2].FSAs[0].RuleID)
	}
	// M = all.
	zall, err := MergeGroups(fsas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zall) != 1 || zall[0].NumFSAs() != 7 {
		t.Fatalf("M=all groups=%d R=%d", len(zall), zall[0].NumFSAs())
	}
}

// TestUnion checks the disjoint union of merged groups against the
// structural invariants, with the parts' FSAs renumbered in order: every
// FSA keeps exactly its own paths, states and transitions add up, and
// belonging sets widen past one word when the union exceeds 64 FSAs.
func TestUnion(t *testing.T) {
	var patterns []string
	for i := 0; i < 70; i++ {
		patterns = append(patterns, string(rune('a'+i%7))+"(b|c)*"+string(rune('d'+i%5)))
	}
	fsas := compileAll(t, patterns...)
	zs, err := MergeGroups(fsas, 9)
	if err != nil {
		t.Fatal(err)
	}
	z := Union(zs)
	if err := Validate(z, fsas); err != nil {
		t.Fatal(err)
	}
	states, trans := 0, 0
	for _, p := range zs {
		states += p.NumStates
		trans += p.NumTrans()
	}
	if z.NumStates != states || z.NumTrans() != trans || z.NumFSAs() != len(fsas) || len(z.Bel[0]) != 2 {
		t.Fatalf("union %v of %d states, %d transitions; belonging sets of %d words", z, states, trans, len(z.Bel[0]))
	}
	for j, info := range z.FSAs {
		if info.ID != j || info.RuleID != j {
			t.Fatalf("FSA %d: id %d, rule %d", j, info.ID, info.RuleID)
		}
	}
}

func TestMergeRejectsUnoptimized(t *testing.T) {
	ast := rex.MustParse("a|bb")
	raw, err := nfa.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]*nfa.NFA{raw}); err == nil {
		t.Fatal("merge accepted an ε-NFA")
	}
	ast2 := rex.MustParse("a{2,5}")
	raw2, err := nfa.Build(ast2)
	if err != nil {
		t.Fatal(err)
	}
	raw2.Eps = nil
	if _, err := Merge([]*nfa.NFA{raw2}); err == nil {
		t.Fatal("merge accepted pending loops")
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("merge accepted empty group")
	}
}

func TestMergeCompressionMonotonicSimilarRules(t *testing.T) {
	// Rules drawn from a shared template must compress substantially.
	patterns := []string{
		"GET /cgi-bin/test",
		"GET /cgi-bin/tool",
		"GET /cgi-bin/temp",
		"GET /cgi-bin/go",
	}
	z, fsas := mustMerge(t, patterns...)
	tot := totalStates(fsas)
	if float64(z.NumStates) > 0.7*float64(tot) {
		t.Fatalf("weak compression: %d of %d states", z.NumStates, tot)
	}
}

func TestActivationMasksDistinct(t *testing.T) {
	z, _ := mustMerge(t, "ab", "ab", "cd")
	initsSeen := NewBelongSet(3)
	for q := 0; q < z.NumStates; q++ {
		z.InitMask[q].OrInto(initsSeen)
	}
	if initsSeen.Count() != 3 {
		t.Fatalf("init marks for %d FSAs, want 3", initsSeen.Count())
	}
	// "ab" and "ab" share states, so their init must be the same state.
	if z.FSAs[0].Init != z.FSAs[1].Init {
		t.Fatal("identical FSAs have different init states")
	}
	if z.FSAs[0].Init == z.FSAs[2].Init {
		t.Fatal("disjoint FSAs share an init state")
	}
}

// randEREPattern builds random patterns biased toward shared fragments so
// that merges exercise both overlap and fresh-copy paths.
func randEREPattern(r *rand.Rand) string {
	frags := []string{"ab", "bc", "cd", "a[xy]", "(p|qq)", "k{2,3}", "z*", "w+"}
	n := 1 + r.Intn(4)
	s := ""
	for i := 0; i < n; i++ {
		s += frags[r.Intn(len(frags))]
	}
	return s
}

func TestQuickMergePreservesEveryLanguage(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		m := 2 + r.Intn(4)
		patterns := make([]string, m)
		for i := range patterns {
			patterns[i] = randEREPattern(r)
		}
		fsas := compileAll(t, patterns...)
		z, err := Merge(fsas)
		if err != nil {
			t.Logf("merge %v: %v", patterns, err)
			return false
		}
		if err := Validate(z, fsas); err != nil {
			t.Logf("validate %v: %v", patterns, err)
			return false
		}
		// Language check per FSA on random strings over the pattern
		// alphabet.
		alpha := []byte("abcdpqkzwxy")
		for j, a := range fsas {
			ex, err := ExtractFSA(z, j)
			if err != nil {
				t.Logf("extract: %v", err)
				return false
			}
			for k := 0; k < 10; k++ {
				in := make([]byte, r.Intn(7))
				for i := range in {
					in[i] = alpha[r.Intn(len(alpha))]
				}
				if mustAccepts(t, ex, in) != mustAccepts(t, a, in) {
					t.Logf("patterns %v FSA %d input %q disagree", patterns, j, in)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeNeverInflates(t *testing.T) {
	// The MFSA can never have more states or transitions than the sum of
	// its parts.
	r := rand.New(rand.NewSource(12))
	f := func() bool {
		m := 2 + r.Intn(5)
		patterns := make([]string, m)
		for i := range patterns {
			patterns[i] = randEREPattern(r)
		}
		fsas := compileAll(t, patterns...)
		z, err := Merge(fsas)
		if err != nil {
			return false
		}
		return z.NumStates <= totalStates(fsas) && z.NumTrans() <= totalTrans(fsas)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBelongSetOps(t *testing.T) {
	s := NewBelongSet(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if s.Count() != 3 || !s.Has(64) || s.Has(63) {
		t.Fatalf("set state: %v", s.IDs())
	}
	s.Unset(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("unset failed")
	}
	u := SingleBelong(130, 5)
	u.OrInto(s)
	if !s.Has(5) {
		t.Fatal("or failed")
	}
	mask := NewBelongSet(130)
	mask.Set(5)
	mask.AndInto(s)
	if s.Count() != 1 || !s.Has(5) {
		t.Fatalf("and failed: %v", s.IDs())
	}
	if !s.IntersectsWith(mask) {
		t.Fatal("intersects failed")
	}
	empty := NewBelongSet(130)
	if s.IntersectsWith(empty) || empty.Any() {
		t.Fatal("empty set misbehaves")
	}
	if got := SingleBelong(8, 2).String(); got != "{3}" {
		t.Fatalf("String=%q", got)
	}
	c := s.Clone()
	c.Set(100)
	if s.Has(100) {
		t.Fatal("clone shares storage")
	}
	if !s.Equal(s.Clone()) || s.Equal(empty) {
		t.Fatal("Equal misbehaves")
	}
	s.Clear()
	if s.Any() {
		t.Fatal("clear failed")
	}
}

func BenchmarkMerge50SharedPrefix(b *testing.B) {
	patterns := make([]string, 50)
	for i := range patterns {
		patterns[i] = "GET /cgi-bin/app" + string(rune('a'+i%26)) + "/run"
	}
	fsas := compileAll(b, patterns...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(fsas); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMergeWithMinSubPath(t *testing.T) {
	// "axc" and "ayc" share only isolated arcs ('a' and 'c' between
	// different contexts): MinSubPath 1 merges them, the default doesn't.
	fsas := compileAll(t, "axc", "ayc")
	loose, err := MergeWith(fsas, MergeOptions{MinSubPath: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := MergeWith(fsas, MergeOptions{MinSubPath: 2})
	if err != nil {
		t.Fatal(err)
	}
	if loose.NumStates >= strict.NumStates {
		t.Fatalf("MinSubPath=1 states %d should be < MinSubPath=2 states %d",
			loose.NumStates, strict.NumStates)
	}
	if err := Validate(loose, fsas); err != nil {
		t.Fatalf("loose merge invalid: %v", err)
	}
	if err := Validate(strict, fsas); err != nil {
		t.Fatalf("strict merge invalid: %v", err)
	}
}

func TestMergeWithMinSubPathMonotone(t *testing.T) {
	patterns := []string{"GET /abc", "GET /abd", "POST /xy", "qqrstu", "qqrsvw"}
	fsas := compileAll(t, patterns...)
	prev := -1
	for _, minLen := range []int{1, 2, 3, 4, 8} {
		z, err := MergeWith(fsas, MergeOptions{MinSubPath: minLen})
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(z, fsas); err != nil {
			t.Fatalf("minLen=%d: %v", minLen, err)
		}
		if z.NumStates < prev {
			t.Fatalf("minLen=%d: states %d decreased below %d — larger thresholds must merge less",
				minLen, z.NumStates, prev)
		}
		prev = z.NumStates
	}
}

func TestMergeGrouped(t *testing.T) {
	patterns := []string{"aa", "bb", "ab", "ba"}
	fsas := compileAll(t, patterns...)
	zs, err := MergeGrouped(fsas, [][]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 2 {
		t.Fatalf("groups=%d", len(zs))
	}
	if zs[0].FSAs[0].RuleID != 0 || zs[0].FSAs[1].RuleID != 2 {
		t.Fatalf("rule ids: %+v", zs[0].FSAs)
	}
	if zs[1].FSAs[1].RuleID != 3 {
		t.Fatalf("rule ids: %+v", zs[1].FSAs)
	}
	if _, err := MergeGrouped(fsas, [][]int{{0, 9}}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// mustAccepts is nfa.Accepts for automata known to be fully expanded; it
// fails the test on error.
func mustAccepts(tb testing.TB, n *nfa.NFA, input []byte) bool {
	tb.Helper()
	ok, err := nfa.Accepts(n, input)
	if err != nil {
		tb.Fatalf("Accepts: %v", err)
	}
	return ok
}
