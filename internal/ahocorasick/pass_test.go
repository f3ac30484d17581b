package ahocorasick

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPassSplitPatterns verifies that a pattern split across chunk
// boundaries — including 1-byte chunks — still registers and, when
// delivered, reports at its absolute end: the pass carries automaton
// state, not a byte tail.
func TestPassSplitPatterns(t *testing.T) {
	p := pats("needle", "abcabd", "zz", "eedle")
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("xxabcabdyyneedlezneedle")
	want := m.Hits(input)
	// Deliver "needle" and "zz" only; "abcabd" and "eedle" are only seen.
	deliver := []bool{true, false, true, false}
	var wantHits []hit
	for _, h := range naive(p, input) {
		if deliver[h.pattern] {
			wantHits = append(wantHits, h)
		}
	}

	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := m.NewPass(deliver)
		var got []hit
		for off := 0; off < len(input); {
			n := 1 + rng.Intn(4)
			if off+n > len(input) {
				n = len(input) - off
			}
			base := off
			s.Scan(input[off:off+n], func(pi, end int) { got = append(got, hit{pi, base + end}) })
			off += n
		}
		for i := range want {
			if s.Seen(i) != want[i] {
				t.Fatalf("trial %d: pattern %d: chunked hit %v, whole-input hit %v",
					trial, i, s.Seen(i), want[i])
			}
		}
		if !reflect.DeepEqual(got, wantHits) {
			t.Fatalf("trial %d: delivered %v, want %v", trial, got, wantHits)
		}
		if f := s.Firsts(); !reflect.DeepEqual(f, []int32{1, 0, 3}) || s.Done() {
			t.Fatalf("trial %d: Firsts = %v, Done = %v; want [1 0 3], false", trial, f, s.Done())
		}
	}
}

// TestPassReset verifies Reset rewinds both the seen set and the automaton
// state (no carry-over between streams), and that a pass delivering
// nothing ends early once every pattern has been seen.
func TestPassReset(t *testing.T) {
	m, err := New(pats("ab", "b"))
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewPass(nil)
	s.Scan([]byte("a"), nil)
	s.Reset()
	s.Scan([]byte("b"), nil) // would complete "ab" if state leaked across Reset
	if s.Seen(0) || !s.Seen(1) {
		t.Fatal("Reset leaked automaton state across streams")
	}
	s.Scan([]byte("ab"), nil)
	if !s.Seen(0) || !s.Done() {
		t.Fatal("pass missed the pattern after Reset")
	}
	s.Reset()
	if s.Seen(0) || s.Seen(1) || len(s.Firsts()) != 0 || s.Done() {
		t.Fatal("Reset kept seen patterns")
	}
	// A delivering pass never ends early: every occurrence is reported.
	d := m.NewPass([]bool{false, true})
	n := 0
	d.Scan([]byte("abbb"), func(int, int) { n++ })
	if n != 3 || d.Done() {
		t.Fatalf("delivering pass reported %d of 3 occurrences, Done = %v", n, d.Done())
	}
}
