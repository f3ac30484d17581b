package lazydfa

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestProfileInvarianceLazy pins the profiler's zero-interference contract
// on the cached path: profiled and unprofiled runs report identical events,
// the sample count follows the stride arithmetic, and visits land on
// genuine MFSA states.
func TestProfileInvarianceLazy(t *testing.T) {
	_, m := compile(t, "abc", "abd", "xy+z", "hello")
	rng := rand.New(rand.NewSource(5))
	frags := []string{"abc", "abd", "xyz", "xyyyz", "hello", "noise "}
	var in []byte
	for len(in) < 8192 {
		in = append(in, frags[rng.Intn(len(frags))]...)
	}
	in = in[:8192]

	m = with(m, keepOpts)
	want := Matches(m, in, Config{})
	pr := engine.NewProfile(m.Program(), 64)
	var got []engine.MatchEvent
	res := NewRunner(m).Run(in, Config{
		Profile: pr,
		OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) },
	})
	if res.FellBack {
		t.Fatal("unexpected fallback on a cache-friendly input")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profiled run diverged: %d events vs %d", len(got), len(want))
	}
	if wantS := int64(len(in) / 64); pr.Samples() != wantS {
		t.Fatalf("samples = %d, want %d", pr.Samples(), wantS)
	}
	var visits int64
	for q, v := range pr.Visits() {
		if v < 0 {
			t.Fatalf("negative visits at state %d", q)
		}
		visits += v
	}
	if visits == 0 {
		t.Fatal("no state visits recorded")
	}
}

// TestProfileAcrossFallback checks that a scan that thrashes the cache and
// falls back to the iMFAnt engine keeps profiling end to end: events stay
// byte-identical and the sample count covers the whole stream.
func TestProfileAcrossFallback(t *testing.T) {
	_, m := compile(t, "a+b", "b+a", "ab+a", "ba+b", "aa", "bb")
	rng := rand.New(rand.NewSource(11))
	in := make([]byte, 4096)
	for i := range in {
		in[i] = byte('a' + rng.Intn(2))
	}
	want := Matches(with(m, keepOpts), in, Config{})

	pr := engine.NewProfile(m.Program(), 32)
	var got []engine.MatchEvent
	res := NewRunner(with(m, Options{KeepOnMatch: true, MaxStates: 4})).Run(in, Config{
		MaxFlushes: 2, Profile: pr,
		OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) },
	})
	if !res.Thrashed {
		t.Fatal("input did not thrash the tiny cache")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profiled fallback run diverged: %d events vs %d", len(got), len(want))
	}
	// The cached prefix and the engine tail sample on the same stride, so
	// the total is within one stride's rounding of the whole stream.
	minSamples := int64(len(in)/32) - 2
	if pr.Samples() < minSamples {
		t.Fatalf("samples = %d, want ≥ %d (whole stream covered)", pr.Samples(), minSamples)
	}
}

// TestProfilePopCached checks profiling under the Eq. 5 pop: the scan
// stays on the cached path, events are unchanged by profiling, and the
// heat — sample count, per-state visits and per-FSA activity — is exactly
// what the iMFAnt engine records in pop mode, because the cached path
// samples the post-pop vector the engine holds.
func TestProfilePopCached(t *testing.T) {
	_, m := compile(t, "ab*", "abc", "a+", "b(ab)*c")
	rng := rand.New(rand.NewSource(7))
	in := make([]byte, 4096)
	for i := range in {
		in[i] = "abcz"[rng.Intn(4)]
	}
	want := Matches(m, in, Config{})

	pr := engine.NewProfile(m.Program(), 16)
	var got []engine.MatchEvent
	res := NewRunner(New(m.p)).Run(in, Config{Profile: pr,
		OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }})
	if res.FellBack {
		t.Fatal("pop scan left the cached path")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profiled pop run diverged: %d events vs %d", len(got), len(want))
	}

	epr := engine.NewProfile(m.Program(), 16)
	engine.Run(m.Program(), in, engine.Config{Profile: epr})
	if pr.Samples() != epr.Samples() || pr.Samples() != int64(len(in)/16) {
		t.Fatalf("samples = %d, engine %d, want %d", pr.Samples(), epr.Samples(), len(in)/16)
	}
	if !reflect.DeepEqual(pr.Visits(), epr.Visits()) {
		t.Fatalf("visits %v, engine %v", pr.Visits(), epr.Visits())
	}
	if !reflect.DeepEqual(pr.FSAActive(), epr.FSAActive()) {
		t.Fatalf("FSA activity %v, engine %v", pr.FSAActive(), epr.FSAActive())
	}
}
