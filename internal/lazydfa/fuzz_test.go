package lazydfa

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mfsa"
	"repro/internal/nfa"
)

// FuzzCacheLimits drives the lazy engine over arbitrary inputs with
// fuzzer-chosen cache caps, flush budgets and match semantics (keep or the
// Eq. 5 pop) — exercising the flush and fallback paths at every possible
// trigger point under both — and demands the exact event stream of the
// unconstrained run and the distinct (FSA, end) sets of the iMFAnt engine
// under the same semantics.
func FuzzCacheLimits(f *testing.F) {
	patterns := []string{"a+b", "b+a", "ab+a", "aa", "bb", "^ab", "ba$", "a[ab]b"}
	fsas := make([]*nfa.NFA, len(patterns))
	for i, pat := range patterns {
		n, err := nfa.Compile(pat)
		if err != nil {
			f.Fatal(err)
		}
		n.ID = i
		fsas[i] = n
	}
	z, err := mfsa.Merge(fsas)
	if err != nil {
		f.Fatal(err)
	}
	p := engine.NewProgram(z)

	for _, keep := range []bool{true, false} {
		f.Add([]byte("abbaabab"), uint8(0), uint8(0), uint8(4), keep)
		f.Add([]byte("aabbaabbaabb"), uint8(3), uint8(1), uint8(1), keep)
		f.Add([]byte("abababababab"), uint8(4), uint8(0), uint8(7), keep)
		f.Add([]byte(""), uint8(5), uint8(2), uint8(3), keep)
	}

	f.Fuzz(func(t *testing.T, in []byte, maxStates, maxFlushes, chunk uint8, keep bool) {
		if len(in) > 1<<12 {
			return
		}
		// MaxStates 0 → default; small values force flushes.
		opts := Options{KeepOnMatch: keep, MaxStates: int(maxStates)}
		cfg := Config{MaxFlushes: int(maxFlushes)}
		want := Matches(New(p, Options{KeepOnMatch: keep}), in, Config{})

		var got []engine.MatchEvent
		c := cfg
		c.OnMatch = func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }
		r := NewRunner(New(p, opts))
		r.Begin(c)
		step := int(chunk)%8 + 1
		for i := 0; i < len(in); i += step {
			end := i + step
			if end > len(in) {
				end = len(in)
			}
			r.Feed(in[i:end], end == len(in))
		}
		if len(in) == 0 {
			r.Feed(nil, true)
		}
		res := r.End()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts=%+v cfg=%+v chunk=%d: %d events, want %d (res=%+v)",
				opts, cfg, step, len(got), len(want), res)
		}
		wantSets := engine.DistinctEnds(engine.Matches(p, in, engine.Config{KeepOnMatch: keep}), len(patterns))
		gotSets := engine.DistinctEnds(got, len(patterns))
		if !reflect.DeepEqual(gotSets, wantSets) {
			t.Fatalf("distinct sets diverged from iMFAnt: %v vs %v", gotSets, wantSets)
		}
	})
}
