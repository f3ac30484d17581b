package lazydfa

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultpoint"
)

// thrashy returns a pop-semantics matcher and an input that thrash a
// MaxStates-4 table (reused from TestFlushAndFallback's setup).
func thrashy(t testing.TB) (*Matcher, []byte) {
	t.Helper()
	_, m := compile(t, "a+b", "b+a", "ab+a", "ba+b", "aa", "bb")
	r := rand.New(rand.NewSource(11))
	in := make([]byte, 4096)
	for i := range in {
		in[i] = byte('a' + r.Intn(2))
	}
	return m, in
}

// TestThrashRetryLadder walks the full degradation ladder: thrash → one-shot
// grow → thrash at the grown cap → permanent pin to the iMFAnt engine. Events
// stay byte-identical on every rung.
func TestThrashRetryLadder(t *testing.T) {
	m, in := thrashy(t)
	want := Matches(with(m, keepOpts), in, Config{})
	collect := func(sink *[]engine.MatchEvent) func(int, int) {
		*sink = nil
		return func(fsa, end int) { *sink = append(*sink, engine.MatchEvent{FSA: fsa, End: end}) }
	}
	// This ruleset reaches 7 distinct lazy states on this input; cap 3 and
	// its grown double 6 both overflow, and the negative flush budget turns
	// the first full cache into a thrash.
	lm := with(m, Options{KeepOnMatch: true, MaxStates: 3})
	cfg := Config{MaxFlushes: -1}
	r := NewRunner(lm)

	var got []engine.MatchEvent
	cfg.OnMatch = collect(&got)
	res := r.Run(in, cfg)
	if !res.Thrashed || res.Grew || res.Pinned {
		t.Fatalf("scan 1: Thrashed=%v Grew=%v Pinned=%v, want thrash only", res.Thrashed, res.Grew, res.Pinned)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scan 1 diverged")
	}

	cfg.OnMatch = collect(&got)
	res = r.Run(in, cfg)
	if !res.Grew || res.Pinned {
		t.Fatalf("scan 2: Grew=%v Pinned=%v, want grown retry", res.Grew, res.Pinned)
	}
	if c := lm.Stats().MaxStates; c != 6 {
		t.Fatalf("scan 2 ran with cap %d, want doubled 6", c)
	}
	if !res.Thrashed {
		t.Fatal("scan 2: cap 6 should still thrash this input")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scan 2 diverged")
	}

	cfg.OnMatch = collect(&got)
	res = r.Run(in, cfg)
	if !res.Pinned || !res.FellBack {
		t.Fatalf("scan 3: Pinned=%v FellBack=%v, want permanent pin", res.Pinned, res.FellBack)
	}
	if res.Thrashed || res.Flushes != 0 || res.CacheMisses != 0 {
		t.Fatalf("scan 3 touched the cache: Thrashed=%v Flushes=%d Misses=%d",
			res.Thrashed, res.Flushes, res.CacheMisses)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scan 3 diverged")
	}

	// Pin is permanent: scan 4 delegates again.
	if res = r.Run(in, cfg); !res.Pinned {
		t.Fatal("scan 4 not pinned")
	}
	tot := r.Totals()
	if tot.Grows != 1 || tot.Pins != 2 || tot.Fallbacks != 2 {
		t.Fatalf("totals Grows=%d Pins=%d Fallbacks=%d, want 1/2/2", tot.Grows, tot.Pins, tot.Fallbacks)
	}
}

// TestThrashRetrySucceedsAtGrownCap checks the recovery rung: when the grown
// cache holds the traffic, the runner stays on the cached path and never pins.
func TestThrashRetrySucceedsAtGrownCap(t *testing.T) {
	m, in := thrashy(t)
	// Cap 4 overflows this ruleset's 7 lazy states and the negative budget
	// turns that into a thrash; the doubled cap 8 holds the full state set.
	lm := with(m, Options{KeepOnMatch: true, MaxStates: 4})
	r := NewRunner(lm)
	cfg := Config{MaxFlushes: -1}
	res := r.Run(in, cfg)
	if !res.Thrashed {
		t.Fatalf("cap 4 did not thrash (cached %d states)", res.CachedStates)
	}
	res = r.Run(in, cfg)
	if !res.Grew {
		t.Fatal("scan 2 did not grow")
	}
	if res.Thrashed || res.FellBack {
		t.Fatalf("grown cap %d still fell back (%d states)", lm.Stats().MaxStates, res.CachedStates)
	}
	for i := 0; i < 2; i++ {
		if res = r.Run(in, cfg); res.Pinned || res.FellBack {
			t.Fatalf("healthy grown runner degraded on scan %d", i+3)
		}
	}
	if tot := r.Totals(); tot.Grows != 1 || tot.Pins != 0 {
		t.Fatalf("totals Grows=%d Pins=%d, want 1/0", tot.Grows, tot.Pins)
	}
}

// TestInjectedFaultsPreserveEvents drives every cache fault point through the
// cached path and asserts the oracle invariant: the event stream is
// byte-identical to the fault-free run.
func TestInjectedFaultsPreserveEvents(t *testing.T) {
	m, in := thrashy(t)
	want := Matches(with(m, keepOpts), in, Config{})
	scheds := map[string]faultpoint.Schedule{
		"thrash-first-chunk": faultpoint.OnHit(faultpoint.LazyThrash, 1),
		"thrash-mid":         faultpoint.OnHit(faultpoint.LazyThrash, 3),
		"flush-storm":        faultpoint.Every(faultpoint.LazyFlush, 1),
		"alloc-cap":          faultpoint.Every(faultpoint.AllocCap, 2),
		"random-mix": faultpoint.Random(42, map[faultpoint.Point]float64{
			faultpoint.LazyFlush:  0.3,
			faultpoint.LazyThrash: 0.05,
			faultpoint.AllocCap:   0.3,
		}),
	}
	for name, sched := range scheds {
		t.Run(name, func(t *testing.T) {
			in2 := faultpoint.New(sched)
			var got []engine.MatchEvent
			r := NewRunner(with(m, keepOpts))
			r.Begin(Config{Faults: in2,
				Checkpoint: func() error { return nil }, CheckpointEvery: 256,
				OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }})
			for off := 0; off < len(in); off += 777 {
				end := off + 777
				if end > len(in) {
					end = len(in)
				}
				r.Feed(in[off:end], end == len(in))
			}
			res := r.End()
			if in2.TotalFired() == 0 {
				t.Fatal("schedule never fired")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("events diverged under %s: %d vs %d", name, len(got), len(want))
			}
			if res.Symbols != len(in) {
				t.Fatalf("Symbols=%d, want %d", res.Symbols, len(in))
			}
		})
	}
}

// TestInjectedThrashAtStreamStart pins the offset-0 soundness argument:
// a forced fallback before any byte ran resumes the empty vector at offset 0,
// which must behave exactly like a fresh engine run (^-anchored inits fire).
func TestInjectedThrashAtStreamStart(t *testing.T) {
	_, m := compile(t, "^ab", "ab", "b$")
	m = with(m, keepOpts)
	in := []byte("abab")
	want := Matches(m, in, Config{})
	var got []engine.MatchEvent
	res := NewRunner(m).Run(in, Config{
		Faults:  faultpoint.New(faultpoint.OnHit(faultpoint.LazyThrash, 1)),
		OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }})
	if !res.Thrashed {
		t.Fatal("injected thrash did not fire")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("offset-0 fallback diverged: got %v want %v", got, want)
	}
}
