package lazydfa

import (
	"bytes"
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
	m := New(p)

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
		cfg := Config{
			KeepOnMatch: keep,
			MaxStates:   int(maxStates), // 0 → default; small values force flushes
			MaxFlushes:  int(maxFlushes),
		}
		want := Matches(m, in, Config{KeepOnMatch: keep})

		var got []engine.MatchEvent
		c := cfg
		c.OnMatch = func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }
		r := NewRunner(m)
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
			t.Fatalf("cfg=%+v chunk=%d: %d events, want %d (res=%+v)",
				cfg, step, len(got), len(want), res)
		}
		wantSets := engine.DistinctEnds(engine.Matches(p, in, engine.Config{KeepOnMatch: keep}), len(patterns))
		gotSets := engine.DistinctEnds(got, len(patterns))
		if !reflect.DeepEqual(gotSets, wantSets) {
			t.Fatalf("distinct sets diverged from iMFAnt: %v vs %v", gotSets, wantSets)
		}
	})
}

// FuzzPooledReuse checks that pooling is invisible: a fuzzed sequence of
// scans, each under fuzzer-chosen semantics (keep or the Eq. 5 pop), cache
// cap and chunking, runs on runners checked out of one Matcher's pool and
// put back after every scan — so a scan usually inherits the cache, the
// semantics and the flush history of the previous one — and every scan
// must report exactly the events of a fresh runner.
func FuzzPooledReuse(f *testing.F) {
	_, m := compile(f, "a+b", "b+a", "ab+a", "aa", "bb", "^ab", "ba$", "a[ab]b")
	f.Add([]byte("abbaab|abab|bbaa"), uint8(0), uint8(0b101), uint8(3))
	f.Add([]byte("aabbaabb||abababab|ba"), uint8(3), uint8(0b010), uint8(1))
	f.Add([]byte("abababababab|aaaa|bbbb|abba"), uint8(4), uint8(0b1111), uint8(7))

	f.Fuzz(func(t *testing.T, in []byte, maxStates, keepBits, chunk uint8) {
		if len(in) > 1<<12 {
			return
		}
		pool := New(m.p) // a fresh pool per input keeps runs independent
		step := int(chunk)%8 + 1
		for k, scan := range bytes.Split(in, []byte("|")) {
			keep := keepBits>>(k%8)&1 == 1
			cfg := Config{KeepOnMatch: keep, MaxStates: int(maxStates) % 8}
			want := Matches(pool, scan, Config{KeepOnMatch: keep, MaxStates: cfg.MaxStates})

			var got []engine.MatchEvent
			c := cfg
			c.OnMatch = func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }
			r := pool.Get()
			r.Begin(c)
			for i := 0; i < len(scan); i += step {
				end := min(i+step, len(scan))
				r.Feed(scan[i:end], end == len(scan))
			}
			res := r.End()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scan %d %q cfg=%+v chunk=%d: %v, fresh runner %v (res=%+v)",
					k, scan, cfg, step, got, want, res)
			}
			if tot := r.Totals(); tot.Scans != 1 || tot.Symbols != int64(len(scan)) {
				t.Fatalf("scan %d: totals %+v count more than this checkout", k, tot)
			}
			pool.Put(r)
		}
	})
}
