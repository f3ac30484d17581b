package imfant

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// quickcheckPatterns stresses boundary-sensitive features: anchors on both
// ends, counted repetition, alternation, and overlapping literals.
var quickcheckPatterns = []string{
	"ab", "a[bc]d", "b+c", "^ab", "cd$", "a{2,3}", "(bc|cb)d", "d?c", "^a.*d$",
}

// TestQuickStreamCancelThenClose quickchecks the cancellation path: after
// random healthy writes the context is cancelled and the stream is closed
// immediately. Every consumed byte must have been matched against — the
// reported events must equal the matches of the consumed prefix scanned
// WITHOUT a stream end (computed by appending a byte no rule matches and
// keeping events inside the prefix) — and Close must return the context
// error. Inputs stay under one checkpoint so each Write consumes fully.
func TestQuickStreamCancelThenClose(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	// iMFAnt, lazy-DFA, and a lazy-DFA cache small enough to flush and fall
	// back mid-stream.
	for _, opts := range []Options{
		{},
		{KeepOnMatch: true},
		{Engine: EngineLazyDFA, KeepOnMatch: true},
		{Engine: EngineLazyDFA, KeepOnMatch: true, LazyDFAMaxStates: 3},
	} {
		rs := MustCompile(quickcheckPatterns, opts)
		for trial := 0; trial < 40; trial++ {
			in := make([]byte, 1+rng.Intn(80))
			for i := range in {
				in[i] = byte('a' + rng.Intn(5))
			}
			// Reference: matches of `in` as a non-final prefix. No rule
			// matches 'z', so events inside the prefix are unaffected,
			// and the true stream end is never at the prefix boundary.
			var want []Match
			for _, m := range rs.FindAll(append(append([]byte{}, in...), 'z')) {
				if m.End < len(in) {
					want = append(want, m)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			var got []Match
			sm := rs.NewStreamMatcherContext(ctx, func(m Match) { got = append(got, m) })
			writeChunks(t, sm, in, randomChunks(rng))
			cancel()
			if err := sm.Close(); !errors.Is(err, context.Canceled) {
				t.Fatalf("opts %+v: Close after cancel = %v", opts, err)
			}
			sortByEnd(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v input %q: cancelled stream %v, want %v", opts, in, got, want)
			}
		}
	}
}
