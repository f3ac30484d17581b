package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mfsa"
	"repro/internal/nfa"
)

// TestStatsWideRuleset is the regression test for the Stats accounting with
// more than 512 merged FSAs (W > 8): the stack-array fast path used to be
// sliced to W words before the W > 8 guard, panicking with
// slice-bounds-out-of-range on any Stats run of such a program.
func TestStatsWideRuleset(t *testing.T) {
	var patterns []string
	for i := 0; len(patterns) < 520; i++ {
		patterns = append(patterns, fmt.Sprintf("%c%c%c",
			'a'+i%26, 'a'+(i/26)%26, 'a'+(i/676)%26))
	}
	fsas := make([]*nfa.NFA, len(patterns))
	for i, pat := range patterns {
		n, err := nfa.Compile(pat)
		if err != nil {
			t.Fatal(err)
		}
		n.ID = i
		fsas[i] = n
	}
	z, err := mfsa.Merge(fsas)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgram(z)
	if p.words <= 8 {
		t.Fatalf("words=%d, want > 8 to exercise the heap-allocated union", p.words)
	}
	res := Run(p, []byte("abcqrsxyzaaa"), Config{Stats: true})
	if res.Matches == 0 || res.ActivePairsTotal == 0 || res.MaxActiveFSAs == 0 {
		t.Fatalf("stats run reported nothing: %+v", res)
	}
}

// stepAll drives a whole input through the Stepper, one symbol at a time,
// and collects the distinct (FSA, end) match sets — the lazy-determinization
// view of a scan, which must agree with the Runner under the same semantics.
// In pop mode each pre-pop successor is popped before the next step.
func stepAll(p *Program, in []byte, keep bool) [][]int {
	s := NewStepper(p)
	var acts []uint64
	var events []MatchEvent
	last := len(in) - 1
	for pos, c := range in {
		next, accept, acceptEnd := s.Step(nil, acts, c, pos == 0)
		for w, m := range accept {
			for ; m != 0; m &= m - 1 {
				events = append(events, MatchEvent{FSA: w*64 + trailingZeros(m&(-m)), End: pos})
			}
		}
		if pos == last {
			for w, m := range acceptEnd {
				for ; m != 0; m &= m - 1 {
					events = append(events, MatchEvent{FSA: w*64 + trailingZeros(m&(-m)), End: pos})
				}
			}
		}
		acts = next
		if popped, ok := s.Pop(nil, next); ok && !keep {
			acts = popped
		}
	}
	return DistinctEnds(events, p.NumFSAs())
}

func TestStepperMatchesRunner(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		m := 1 + r.Intn(5)
		patterns := make([]string, m)
		for i := range patterns {
			patterns[i] = randPattern(r)
		}
		if trial%3 == 0 { // exercise the anchor paths too
			patterns[0] = "^" + patterns[0]
			patterns[m-1] = patterns[m-1] + "$"
		}
		fsas := make([]*nfa.NFA, m)
		ok := true
		for i, pat := range patterns {
			n, err := nfa.Compile(pat)
			if err != nil {
				ok = false
				break
			}
			fsas[i] = n
		}
		if !ok {
			continue
		}
		z, err := mfsa.Merge(fsas)
		if err != nil {
			t.Fatal(err)
		}
		p := NewProgram(z)
		in := randInput(r, r.Intn(32))
		for _, keep := range []bool{true, false} {
			got := stepAll(p, in, keep)
			want := DistinctEnds(Matches(p, in, Config{KeepOnMatch: keep}), m)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("keep=%v patterns=%v input=%q: stepper %v runner %v", keep, patterns, in, got, want)
			}
		}
	}
}

func TestResumeContinuesMidStream(t *testing.T) {
	_, _, p := compileGroup(t, "abc", "bcd", "^ab", "cd$")
	in := []byte("xabcdxabcd")
	want := DistinctEnds(Matches(p, in, Config{KeepOnMatch: true}), 4)

	// Drive the first half through the Stepper, then Resume a Runner from
	// the mid-stream vector for the rest.
	split := 5
	s := NewStepper(p)
	var acts []uint64
	var events []MatchEvent
	for pos := 0; pos < split; pos++ {
		next, accept, _ := s.Step(nil, acts, in[pos], pos == 0)
		for w, m := range accept {
			for ; m != 0; m &= m - 1 {
				events = append(events, MatchEvent{FSA: w*64 + trailingZeros(m&(-m)), End: pos})
			}
		}
		acts = next
	}
	r := NewRunner(p)
	r.Resume(Config{
		KeepOnMatch: true,
		OnMatch:     func(fsa, end int) { events = append(events, MatchEvent{FSA: fsa, End: end}) },
	}, Unpack(acts, p.Words()), split)
	r.Feed(in[split:], true)
	r.End()

	if got := DistinctEnds(events, 4); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed scan %v, want %v", got, want)
	}
}
