package segment

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ahocorasick"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/lazydfa"
	"repro/internal/mfsa"
	"repro/internal/nfa"
)

func compile(t testing.TB, patterns ...string) *engine.Program {
	t.Helper()
	fsas := make([]*nfa.NFA, len(patterns))
	for i, pat := range patterns {
		n, err := nfa.Compile(pat)
		if err != nil {
			t.Fatalf("compile %q: %v", pat, err)
		}
		n.ID = i
		fsas[i] = n
	}
	z, err := mfsa.Merge(fsas)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return engine.NewProgram(z)
}

func serialEvents(p *engine.Program, input []byte, cfg engine.Config) []Event {
	var out []Event
	cfg.OnMatch = func(fsa, end int) { out = append(out, Event{FSA: fsa, End: end}) }
	engine.Run(p, input, cfg)
	SortEvents(out)
	return out
}

func scanEvents(t *testing.T, g Group, input []byte, parts int) ([]Event, Result) {
	t.Helper()
	var out []Event
	res, err := Scan(g, input, Boundaries(len(input), parts), func(fsa, end int) {
		out = append(out, Event{FSA: fsa, End: end})
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	SortEvents(out)
	return out, res
}

func TestBoundaries(t *testing.T) {
	for _, tc := range []struct{ n, parts, wantSegs int }{
		{100, 4, 4}, {7, 3, 3}, {3, 8, 3}, {1, 1, 1}, {0, 4, 1}, {10, 0, 1},
	} {
		b := Boundaries(tc.n, tc.parts)
		if len(b)-1 != tc.wantSegs {
			t.Fatalf("Boundaries(%d,%d)=%v: %d segments, want %d",
				tc.n, tc.parts, b, len(b)-1, tc.wantSegs)
		}
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("Boundaries(%d,%d)=%v does not cover input", tc.n, tc.parts, b)
		}
		for i := 1; i < len(b); i++ {
			if tc.n > 0 && b[i] <= b[i-1] {
				t.Fatalf("Boundaries(%d,%d)=%v has an empty segment", tc.n, tc.parts, b)
			}
		}
	}
}

// TestScanEquivalence is the core exactness check: segment-parallel scans
// report the byte-identical event set of a serial scan, across engines,
// match semantics, acceleration, and segment counts.
func TestScanEquivalence(t *testing.T) {
	patterns := [][]string{
		{"abc", "bcd"},
		{"a[bc]*d", "xyz"},
		{"^start", "end$", "mid"},
		{"ab", "abab", "b+c"},
		{"[a-d]x[a-d]", "dd"},
	}
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte("abcdxyz ")
	inputs := [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("startabcdmidabababcdend"),
		randomInput(rng, alphabet, 257),
		randomInput(rng, alphabet, 4096),
	}
	for pi, pats := range patterns {
		p := compile(t, pats...)
		lz := map[bool]*lazydfa.Matcher{ // keep-semantics tables by accel
			false: lazydfa.New(p, lazydfa.Options{KeepOnMatch: true}),
			true:  lazydfa.New(p, lazydfa.Options{KeepOnMatch: true, Accel: true}),
		}
		for ii, input := range inputs {
			for _, keep := range []bool{false, true} {
				for _, accel := range []bool{false, true} {
					want := serialEvents(p, input, engine.Config{KeepOnMatch: keep, Accel: accel})
					for _, parts := range []int{1, 2, 3, 7, 16} {
						g := Group{Program: p, Cfg: engine.Config{KeepOnMatch: keep, Accel: accel}}
						got, res := scanEvents(t, g, input, parts)
						if !sameEvents(got, want) {
							t.Fatalf("pats=%v input#%d keep=%v accel=%v parts=%d (engine):\ngot  %v\nwant %v",
								pats, ii, keep, accel, parts, got, want)
						}
						if res.Matches != int64(len(want)) {
							t.Fatalf("Matches=%d, want %d", res.Matches, len(want))
						}
						if res.ParallelBytes != int64(len(input)) {
							t.Fatalf("ParallelBytes=%d, want %d", res.ParallelBytes, len(input))
						}
						if keep {
							// Lazy-DFA workers (cached determinization needs keep).
							gl := Group{Program: p, Lazy: lz[accel]}
							got, _ := scanEvents(t, gl, input, parts)
							if !sameEvents(got, want) {
								t.Fatalf("pats=%v input#%d accel=%v parts=%d (lazy):\ngot  %v\nwant %v",
									pats, ii, accel, parts, got, want)
							}
						}
					}
				}
			}
		}
		_ = pi
	}
}

// TestStitchCarriesBoundaryMatch pins the stitch path itself: a match
// spanning a segment boundary is invisible to both adjacent workers and must
// arrive via the carry runner.
func TestStitchCarriesBoundaryMatch(t *testing.T) {
	p := compile(t, "abcdef")
	input := []byte("xxxabcdefxxx")
	bounds := []int{0, 6, len(input)} // cuts "abcdef" at "abc|def"
	var got []Event
	res, err := Scan(Group{Program: p, Cfg: engine.Config{}}, input, bounds,
		func(fsa, end int) { got = append(got, Event{FSA: fsa, End: end}) })
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	want := []Event{{FSA: 0, End: 8}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	if res.StitchBytes == 0 {
		t.Fatal("StitchBytes = 0; the boundary match must have been stitched")
	}
	if res.MaxFrontier == 0 {
		t.Fatal("MaxFrontier = 0; the partial match must survive the boundary")
	}
}

// TestStitchBytesSparse pins the match-sparse fast path: when no activation
// survives a boundary, stitching costs nothing.
func TestStitchBytesSparse(t *testing.T) {
	p := compile(t, "needle")
	input := make([]byte, 1<<14)
	for i := range input {
		input[i] = 'x'
	}
	_, res := scanEvents(t, Group{Program: p, Cfg: engine.Config{}}, input, 8)
	if res.StitchBytes != 0 {
		t.Fatalf("StitchBytes=%d on a dead-carry input, want 0", res.StitchBytes)
	}
	if res.Matches != 0 {
		t.Fatalf("Matches=%d, want 0", res.Matches)
	}
}

// TestFrontierBudget: an always-live carry (a .* rule keeps its activation
// alive at every boundary) exceeds a tiny budget and flags FellBack, while
// the results stay exact.
func TestFrontierBudget(t *testing.T) {
	p := compile(t, "a.*b", "ab")
	input := []byte("a xxxx xxxx xxxx b xxxx ab xxxx")
	want := serialEvents(p, input, engine.Config{})
	g := Group{Program: p, Cfg: engine.Config{}, MaxFrontier: 0}
	got, res := scanEvents(t, g, input, 4)
	if !sameEvents(got, want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	if res.FellBack {
		t.Fatal("FellBack with no budget set")
	}
	if res.MaxFrontier == 0 {
		t.Fatal("MaxFrontier = 0 for an always-live carry")
	}
	gTight := g
	gTight.MaxFrontier = res.MaxFrontier - 1
	if gTight.MaxFrontier < 1 {
		t.Skipf("frontier too small to tighten (%d)", res.MaxFrontier)
	}
	got, res = scanEvents(t, gTight, input, 4)
	if !sameEvents(got, want) {
		t.Fatalf("FellBack scan inexact: %v, want %v", got, want)
	}
	if !res.FellBack {
		t.Fatalf("budget %d not flagged with MaxFrontier %d", gTight.MaxFrontier, res.MaxFrontier)
	}
}

// TestCarryOutlived: a carry that stays alive across a whole segment (the
// .* rule of TestFrontierBudget never lets go) flags CarryOutlived on both
// worker engines, independently of the frontier budget, while a carry that
// dies mid-segment, or no carry at all, does not. Results stay exact.
func TestCarryOutlived(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns []string
		input    string
		parts    int
		stitched bool // some carry crossed a boundary
		want     bool
	}{
		{"dotstar", []string{"a.*b", "ab"}, "a xxxx xxxx xxxx b xxxx ab xxxx", 4, true, true},
		{"dying", []string{"abcdef"}, "xxxxxxxxabcdefxxxxxxxxxxxxxxxxxx", 3, true, false},
		{"sparse", []string{"needle"}, string(bytes.Repeat([]byte("x"), 1<<14)), 8, false, false},
	} {
		p := compile(t, tc.patterns...)
		input := []byte(tc.input)
		want := serialEvents(p, input, engine.Config{})
		for name, g := range map[string]Group{
			"imfant":  {Program: p},
			"lazydfa": {Program: p, Lazy: lazydfa.New(p)},
		} {
			got, res := scanEvents(t, g, input, tc.parts)
			if !sameEvents(got, want) {
				t.Fatalf("%s/%s: events %v, want %v", tc.name, name, got, want)
			}
			if (res.StitchBytes > 0) != tc.stitched {
				t.Fatalf("%s/%s: StitchBytes=%d, want stitched=%v", tc.name, name, res.StitchBytes, tc.stitched)
			}
			if res.CarryOutlived != tc.want {
				t.Fatalf("%s/%s: CarryOutlived=%v, want %v (StitchBytes=%d)",
					tc.name, name, res.CarryOutlived, tc.want, res.StitchBytes)
			}
			if res.FellBack {
				t.Fatalf("%s/%s: FellBack with no frontier budget", tc.name, name)
			}
		}
	}
}

// TestScanWorkerPanic: an injected worker panic is contained and surfaces as
// *engine.WorkerPanicError carrying the group's automaton index.
func TestScanWorkerPanic(t *testing.T) {
	p := compile(t, "abc")
	inj := faultpoint.New(faultpoint.OnHit(faultpoint.WorkerPanic, 1))
	g := Group{Automaton: 3, Program: p, Cfg: engine.Config{Faults: inj}}
	_, err := Scan(g, []byte("xxabcxx"), Boundaries(7, 2), nil)
	var wp *engine.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("err = %v, want *engine.WorkerPanicError", err)
	}
	if wp.Automaton != 3 {
		t.Fatalf("Automaton = %d, want 3", wp.Automaton)
	}
}

// TestScanCheckpointCancel: a failing checkpoint cancels the scan and
// surfaces its error.
func TestScanCheckpointCancel(t *testing.T) {
	p := compile(t, "abc")
	boom := errors.New("deadline")
	g := Group{Program: p, Cfg: engine.Config{
		Checkpoint:      func() error { return boom },
		CheckpointEvery: 16,
	}}
	input := make([]byte, 4096)
	_, err := Scan(g, input, Boundaries(len(input), 4), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestScanACEquivalence(t *testing.T) {
	pats := [][]byte{[]byte("abc"), []byte("bca"), []byte("aa"), []byte("cabcab")}
	m, err := ahocorasick.New(pats)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 1024} {
		input := randomInput(rng, []byte("abc"), n)
		var want []Event
		m.Scan(input, func(pat, end int) { want = append(want, Event{FSA: pat, End: end}) })
		SortEvents(want)
		for _, parts := range []int{1, 2, 5} {
			for _, accel := range []bool{false, true} {
				var got []Event
				res, err := ScanAC(m, input, Boundaries(len(input), parts), accel, nil, 0,
					func(pat, end int) { got = append(got, Event{FSA: pat, End: end}) })
				if err != nil {
					t.Fatalf("ScanAC: %v", err)
				}
				SortEvents(got)
				if !sameEvents(got, want) {
					t.Fatalf("n=%d parts=%d accel=%v:\ngot  %v\nwant %v", n, parts, accel, got, want)
				}
				if res.Matches != int64(len(want)) {
					t.Fatalf("Matches=%d, want %d", res.Matches, len(want))
				}
				if res.ScannedBytes < int64(len(input)) && len(input) > 0 {
					t.Fatalf("ScannedBytes=%d < input %d", res.ScannedBytes, len(input))
				}
			}
		}
	}
}

func randomInput(rng *rand.Rand, alphabet []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
