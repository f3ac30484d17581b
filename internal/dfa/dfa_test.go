package dfa

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mfsa"
	"repro/internal/nfa"
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

func dfaEnds(d interface {
	Match([]byte, func(int, int)) int64
}, input []byte, numRules int) [][]int {
	sets := make([]map[int]struct{}, numRules)
	for i := range sets {
		sets[i] = map[int]struct{}{}
	}
	d.Match(input, func(r, end int) { sets[r][end] = struct{}{} })
	out := make([][]int, numRules)
	for i, s := range sets {
		ends := make([]int, 0, len(s))
		for e := range s {
			ends = append(ends, e)
		}
		sort.Ints(ends)
		out[i] = ends
	}
	return out
}

func TestDFAMatchesLiteral(t *testing.T) {
	fsas := compileAll(t, "abc")
	d, err := FromNFAs(fsas, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := dfaEnds(d, []byte("xxabcabcx"), 1)
	want := [][]int{{4, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ends %v, want %v", got, want)
	}
}

func TestDFAOverlappingRules(t *testing.T) {
	fsas := compileAll(t, "ab", "b")
	d, err := FromNFAs(fsas, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := dfaEnds(d, []byte("abab"), 2)
	want := [][]int{{1, 3}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ends %v, want %v", got, want)
	}
}

func TestDFARejectsAnchoredAndRaw(t *testing.T) {
	fsas := compileAll(t, "^ab")
	if _, err := FromNFAs(fsas, 0); err == nil {
		t.Fatal("anchored rule accepted")
	}
	if _, err := FromNFAs(nil, 0); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestDFAStateExplosion(t *testing.T) {
	// The §II motivation: dotstar patterns explode under determinization.
	patterns := []string{
		"aa.*bb", "cc.*dd", "ee.*ff", "gg.*hh", "ii.*jj",
		"kk.*ll", "mm.*nn", "oo.*pp", "qq.*rr", "ss.*tt",
	}
	fsas := compileAll(t, patterns...)
	if _, err := FromNFAs(fsas, 200); err == nil {
		t.Fatal("expected state explosion under a tight budget")
	} else if _, ok := err.(*ErrStateExplosion); !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	// The equivalent NFA/MFSA representation stays small.
	z, err := mfsa.Merge(fsas)
	if err != nil {
		t.Fatal(err)
	}
	if z.NumStates > 100 {
		t.Fatalf("MFSA states=%d, expected compact", z.NumStates)
	}
}

// TestQuickDFAMatchesIMFAnt checks the deterministic baseline against the
// iMFAnt engine in KeepOnMatch mode (the DFA reports every accepting entry,
// with no pop).
func TestQuickDFAMatchesIMFAnt(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	frags := []string{"a", "b", "ab", "bc", "a[bc]", "c?", "(ab|ba)", "b+"}
	f := func() bool {
		m := 1 + r.Intn(4)
		patterns := make([]string, m)
		for i := range patterns {
			patterns[i] = frags[r.Intn(len(frags))] + frags[r.Intn(len(frags))]
		}
		fsas := compileAll(t, patterns...)
		d, err := FromNFAs(fsas, 1<<14)
		if err != nil {
			t.Logf("dfa %v: %v", patterns, err)
			return false
		}
		z, err := mfsa.Merge(fsas)
		if err != nil {
			return false
		}
		p := engine.NewProgram(z)
		in := make([]byte, r.Intn(40))
		for i := range in {
			in[i] = byte('a' + r.Intn(3))
		}
		got := dfaEnds(d, in, m)
		want := engine.DistinctEnds(engine.Matches(p, in, engine.Config{KeepOnMatch: true}), m)
		for j := range want {
			w := want[j]
			if w == nil {
				w = []int{}
			}
			if !reflect.DeepEqual(got[j], w) {
				t.Logf("patterns=%v input=%q rule %d: dfa %v imfant %v", patterns, in, j, got[j], w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestD2FAEquivalentToDFA(t *testing.T) {
	fsas := compileAll(t, "GET /a", "GET /b", "cmd", "x[yz]+w")
	d, err := FromNFAs(fsas, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := Compress(d)
	r := rand.New(rand.NewSource(17))
	in := make([]byte, 4096)
	alpha := []byte("GET /abcmdxyzw ")
	for i := range in {
		in[i] = alpha[r.Intn(len(alpha))]
	}
	if !reflect.DeepEqual(dfaEnds(d, in, 4), dfaEnds(c, in, 4)) {
		t.Fatal("D2FA and DFA disagree")
	}
}

func TestD2FACompresses(t *testing.T) {
	s, err := dataset.ByAbbr("BRO")
	if err != nil {
		t.Fatal(err)
	}
	fsas := compileAll(t, s.Patterns()[:40]...)
	d, err := FromNFAs(fsas, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	c := Compress(d)
	dense := d.TableEntries()
	stored := c.StoredTransitions()
	if stored >= dense/2 {
		t.Fatalf("weak compression: %d of %d dense entries", stored, dense)
	}
	if depth := c.MaxChainDepth(); depth > 2 {
		t.Fatalf("default chain depth %d, want ≤ 2", depth)
	}
	t.Logf("dense %d entries → %d stored (%.1f%%), chain depth %d",
		dense, stored, 100*float64(stored)/float64(dense), c.MaxChainDepth())
}

func TestQuickD2FAEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	frags := []string{"ab", "bc", "ca", "a+", "[ab]c"}
	f := func() bool {
		m := 1 + r.Intn(3)
		patterns := make([]string, m)
		for i := range patterns {
			patterns[i] = frags[r.Intn(len(frags))] + frags[r.Intn(len(frags))]
		}
		fsas := compileAll(t, patterns...)
		d, err := FromNFAs(fsas, 1<<14)
		if err != nil {
			return false
		}
		c := Compress(d)
		in := make([]byte, r.Intn(64))
		for i := range in {
			in[i] = byte('a' + r.Intn(3))
		}
		return reflect.DeepEqual(dfaEnds(d, in, m), dfaEnds(c, in, m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDFAMatch(b *testing.B) {
	s, _ := dataset.ByAbbr("BRO")
	fsas := compileAll(b, s.Patterns()[:40]...)
	d, err := FromNFAs(fsas, 1<<15)
	if err != nil {
		b.Fatal(err)
	}
	in := s.Stream(64<<10, 0)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Match(in, nil)
	}
}

func BenchmarkD2FAMatch(b *testing.B) {
	s, _ := dataset.ByAbbr("BRO")
	fsas := compileAll(b, s.Patterns()[:40]...)
	d, err := FromNFAs(fsas, 1<<15)
	if err != nil {
		b.Fatal(err)
	}
	c := Compress(d)
	in := s.Stream(64<<10, 0)
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Match(in, nil)
	}
}

// refFromNFAs is the reference subset construction FromNFAs must agree
// with: byte by byte, with a hash set per byte and a sorted-state string
// key per subset. The key carries the subset length, so a (states,
// acceptance) pair can never encode the same bytes as a longer accept-free
// subset.
func refFromNFAs(fsas []*nfa.NFA, maxStates int) (*DFA, error) {
	if len(fsas) == 0 {
		return nil, fmt.Errorf("dfa: empty rule group")
	}
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	type gtrans struct {
		to    int32
		label [4]uint64
	}
	var offset []int32
	total := int32(0)
	for _, a := range fsas {
		if a.AnchorStart || a.AnchorEnd || len(a.Eps) > 0 || len(a.Loops) > 0 {
			return nil, fmt.Errorf("dfa: rule %q not supported", a.Pattern)
		}
		offset = append(offset, total)
		total += int32(a.NumStates)
	}
	adj := make([][]int32, total)
	var trans []gtrans
	acceptRule := make([]int, total)
	for i := range acceptRule {
		acceptRule[i] = -1
	}
	starts := make([]int32, len(fsas))
	for r, a := range fsas {
		for _, t := range a.Trans {
			gt := gtrans{to: offset[r] + t.To}
			for c := 0; c < 256; c++ {
				if t.Label.Contains(byte(c)) {
					gt.label[c>>6] |= 1 << (uint(c) & 63)
				}
			}
			adj[offset[r]+t.From] = append(adj[offset[r]+t.From], int32(len(trans)))
			trans = append(trans, gt)
		}
		for _, f := range a.Finals {
			acceptRule[offset[r]+f] = r
		}
		starts[r] = offset[r] + a.Start
	}
	canon := func(set map[int32]struct{}) []int32 {
		out := make([]int32, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	accept := func(states []int32) mfsa.BelongSet {
		var set mfsa.BelongSet
		for _, q := range states {
			if r := acceptRule[q]; r >= 0 {
				if set == nil {
					set = mfsa.NewBelongSet(len(fsas))
				}
				set.Set(r)
			}
		}
		return set
	}
	fullKey := func(states []int32, acc mfsa.BelongSet) string {
		b := []byte{byte(len(states)), byte(len(states) >> 8), byte(len(states) >> 16), byte(len(states) >> 24)}
		for _, s := range states {
			b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
		}
		for _, w := range acc {
			for i := 0; i < 8; i++ {
				b = append(b, byte(w>>(8*i)))
			}
		}
		return string(b)
	}
	startSet := make(map[int32]struct{}, len(starts))
	for _, s := range starts {
		startSet[s] = struct{}{}
	}
	startStates := canon(startSet)

	index := map[string]int32{fullKey(startStates, nil): 0}
	subsets := [][]int32{startStates}
	d := &DFA{Start: 0, NumRules: len(fsas)}
	d.Accept = append(d.Accept, nil)
	for head := 0; head < len(subsets); head++ {
		var succ [256]map[int32]struct{}
		for _, q := range subsets[head] {
			for _, ti := range adj[q] {
				t := &trans[ti]
				for w := 0; w < 4; w++ {
					for word := t.label[w]; word != 0; word &= word - 1 {
						c := w*64 + bits.TrailingZeros64(word)
						if succ[c] == nil {
							succ[c] = make(map[int32]struct{}, 4)
						}
						succ[c][t.to] = struct{}{}
					}
				}
			}
		}
		row := make([]int32, 256)
		for c := 0; c < 256; c++ {
			states := startStates // scan restart only, no arrival
			var acc mfsa.BelongSet
			if succ[c] != nil {
				acc = accept(canon(succ[c]))
				for _, s := range starts {
					succ[c][s] = struct{}{}
				}
				states = canon(succ[c])
			}
			k := fullKey(states, acc)
			id, ok := index[k]
			if !ok {
				id = int32(len(subsets))
				if int(id) >= maxStates {
					return nil, &ErrStateExplosion{Limit: maxStates}
				}
				index[k] = id
				subsets = append(subsets, states)
				d.Accept = append(d.Accept, acc)
			}
			row[c] = id
		}
		d.Next = append(d.Next, row...)
	}
	d.NumStates = len(subsets)
	return d, nil
}

// checkAgainstReference requires FromNFAs and refFromNFAs to build the
// same table under maxStates, and to explode at exactly the same budget:
// a group of n states builds under a budget of n and explodes under n-1.
func checkAgainstReference(t *testing.T, fsas []*nfa.NFA, maxStates int) (states int) {
	t.Helper()
	want, werr := refFromNFAs(fsas, maxStates)
	got, gerr := FromNFAs(fsas, maxStates)
	var wx, gx *ErrStateExplosion
	if wexp, gexp := errors.As(werr, &wx), errors.As(gerr, &gx); wexp || gexp {
		if wx == nil || gx == nil || *wx != *gx {
			t.Fatalf("budget %d: reference error %v, FromNFAs error %v", maxStates, werr, gerr)
		}
		return -1
	}
	if werr != nil || gerr != nil {
		t.Fatalf("reference error %v, FromNFAs error %v", werr, gerr)
	}
	if got.NumStates != want.NumStates || got.Start != want.Start || got.NumRules != want.NumRules {
		t.Fatalf("shape: got %d states start %d rules %d, want %d/%d/%d",
			got.NumStates, got.Start, got.NumRules, want.NumStates, want.Start, want.NumRules)
	}
	if !reflect.DeepEqual(got.Next, want.Next) {
		t.Fatalf("Next tables differ (%d states)", got.NumStates)
	}
	if !reflect.DeepEqual(got.Accept, want.Accept) {
		t.Fatalf("Accept sets differ (%d states)", got.NumStates)
	}
	n := got.NumStates
	if _, err := FromNFAs(fsas, n); err != nil {
		t.Fatalf("budget %d (%d states): %v", n, n, err)
	}
	if n > 1 {
		_, werr := refFromNFAs(fsas, n-1)
		_, gerr := FromNFAs(fsas, n-1)
		if !errors.As(werr, &wx) || !errors.As(gerr, &gx) {
			t.Fatalf("budget %d (%d states): reference error %v, FromNFAs error %v", n-1, n, werr, gerr)
		}
	}
	return n
}

// TestQuickFromNFAsMatchesReference compares the class-based construction
// with the byte-by-byte reference on random small groups, including
// classes, dot-stars, NUL and high bytes.
func TestQuickFromNFAsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	frags := []string{"a", "b", "ab", "[a-c]", "[^b]", ".*", "c?", "(ab|ba)", "b+",
		"\\x00", "\\xff", "[\\x80-\\xfe]", "a{2,3}", "[0-9]+", "."}
	f := func() bool {
		m := 1 + r.Intn(5)
		patterns := make([]string, m)
		for i := range patterns {
			patterns[i] = frags[r.Intn(len(frags))] + frags[r.Intn(len(frags))] + frags[r.Intn(len(frags))]
		}
		fsas := compileAll(t, patterns...)
		budget := 1 << 12
		if r.Intn(4) == 0 {
			budget = 1 + r.Intn(16)
		}
		checkAgainstReference(t, fsas, budget)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFromNFAsMatchesReferenceDatasets compares the two constructions on
// the first and last 40 rules of the BRO, PEN and TCP rulesets, both where the group
// determinizes and at its explosion point.
func TestFromNFAsMatchesReferenceDatasets(t *testing.T) {
	for _, abbr := range []string{"BRO", "PEN", "TCP"} {
		t.Run(abbr, func(t *testing.T) {
			s, err := dataset.ByAbbr(abbr)
			if err != nil {
				t.Fatal(err)
			}
			var fsas []*nfa.NFA
			for _, p := range s.Patterns() {
				n, err := nfa.Compile(p)
				if err != nil || n.AnchorStart || n.AnchorEnd {
					continue
				}
				n.ID = len(fsas)
				fsas = append(fsas, n)
			}
			if len(fsas) < 80 {
				t.Fatalf("%d unanchored rules, want ≥ 80", len(fsas))
			}
			for _, lo := range []int{0, len(fsas) - 40} {
				n := checkAgainstReference(t, fsas[lo:lo+40], 1<<11)
				t.Logf("rules %d-%d: %d states", lo, lo+39, n)
				checkAgainstReference(t, fsas[lo:lo+40], 64)
			}
		})
	}
}
