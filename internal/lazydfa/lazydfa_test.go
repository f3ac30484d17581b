package lazydfa

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mfsa"
	"repro/internal/nfa"
)

func compile(t testing.TB, patterns ...string) ([]*nfa.NFA, *Matcher) {
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
	return fsas, New(engine.NewProgram(z))
}

// keepOpts is the table of keep-semantics scans.
var keepOpts = Options{KeepOnMatch: true}

// with returns a fresh Matcher over m's program, its table fixed by o.
func with(m *Matcher, o Options) *Matcher { return New(m.p, o) }

func lazyEnds(m *Matcher, in []byte, cfg Config) [][]int {
	return engine.DistinctEnds(Matches(m, in, cfg), m.p.NumFSAs())
}

func engineEnds(m *Matcher, in []byte) [][]int {
	return engine.DistinctEnds(engine.Matches(m.p, in, engine.Config{KeepOnMatch: true}), m.p.NumFSAs())
}

// TestRowWidthEqualsClasses validates the byte-class compression: every
// cached row is exactly NumClasses successor entries plus the state's
// column wide, and the class count is the true number of alphabet
// equivalence classes of the ruleset.
func TestRowWidthEqualsClasses(t *testing.T) {
	_, m := compile(t, "[a-c]x", "yz")
	// Labels: [a-c], x, y, z → classes {a-c}, {x}, {y}, {z}, rest.
	if m.NumClasses() != 5 {
		t.Fatalf("NumClasses=%d, want 5", m.NumClasses())
	}
	NewRunner(m).Run([]byte("abxyzyzcx"), Config{})
	s := m.pub.Load()
	if len(s.meta) == 0 {
		t.Fatal("no states cached")
	}
	if got, want := len(s.rows), len(s.meta)*(m.NumClasses()+1); got != want {
		t.Fatalf("row table %d entries for %d states, want %d (= states × (classes+1))",
			got, len(s.meta), want)
	}
	for id := range s.meta {
		if c := s.col(int32(id)); c>>colShift != int32(id) {
			t.Fatalf("state %d's column names state %d", id, c>>colShift)
		}
	}
	if len(s.gen.startRow) != m.NumClasses() {
		t.Fatalf("start row %d entries, want %d", len(s.gen.startRow), m.NumClasses())
	}
}

// TestFlushAndFallback forces both cache-exhaustion paths with a tiny cap
// and checks the event stream stays byte-identical to the unconstrained run.
func TestFlushAndFallback(t *testing.T) {
	_, m := compile(t, "a+b", "b+a", "ab+a", "ba+b", "aa", "bb")
	r := rand.New(rand.NewSource(11))
	in := make([]byte, 4096)
	for i := range in {
		in[i] = byte('a' + r.Intn(2))
	}
	want := Matches(with(m, keepOpts), in, Config{})
	cap4 := Options{KeepOnMatch: true, MaxStates: 4}

	// Small cap, generous flush budget: flushes must occur, and events
	// must not change.
	flushM := with(m, cap4)
	var gotFlush []engine.MatchEvent
	res := NewRunner(flushM).Run(in, Config{
		MaxFlushes: 1 << 30,
		OnMatch:    func(fsa, end int) { gotFlush = append(gotFlush, engine.MatchEvent{FSA: fsa, End: end}) },
	})
	if res.Flushes == 0 {
		t.Fatal("cap 4 run never flushed")
	}
	if res.FellBack {
		t.Fatal("unlimited flush budget fell back")
	}
	if n := flushM.Stats().States; n > 4 {
		t.Fatalf("cache overran its cap: %d states", n)
	}
	if !reflect.DeepEqual(gotFlush, want) {
		t.Fatalf("flush run diverged: %d events vs %d", len(gotFlush), len(want))
	}

	// Small cap, tiny flush budget: fallback must occur, events must not
	// change.
	var gotFB []engine.MatchEvent
	res = NewRunner(with(m, cap4)).Run(in, Config{
		MaxFlushes: 2,
		OnMatch:    func(fsa, end int) { gotFB = append(gotFB, engine.MatchEvent{FSA: fsa, End: end}) },
	})
	if !res.FellBack {
		t.Fatal("flush budget 2 with cap 4 never fell back")
	}
	if res.Flushes != 2 {
		t.Fatalf("Flushes=%d, want 2", res.Flushes)
	}
	if !reflect.DeepEqual(gotFB, want) {
		t.Fatalf("fallback run diverged: %d events vs %d", len(gotFB), len(want))
	}

	// Negative flush budget: fall back on the first full cache.
	res = NewRunner(with(m, cap4)).Run(in, Config{MaxFlushes: -1})
	if !res.FellBack || res.Flushes != 0 {
		t.Fatalf("MaxFlushes<0: FellBack=%v Flushes=%d", res.FellBack, res.Flushes)
	}
}

// TestChunkedFeed checks that splitting a stream into chunks of any size —
// across flushes and fallback — never changes the reported events.
func TestChunkedFeed(t *testing.T) {
	_, m := compile(t, "abc", "c+a", "^ab", "bc$", "abca")
	r := rand.New(rand.NewSource(3))
	in := make([]byte, 512)
	for i := range in {
		in[i] = byte('a' + r.Intn(3))
	}
	want := Matches(with(m, keepOpts), in, Config{})
	for _, tc := range []struct {
		opts Options
		cfg  Config
	}{
		{keepOpts, Config{}},
		{Options{KeepOnMatch: true, MaxStates: 4}, Config{MaxFlushes: 1 << 30}},
		{Options{KeepOnMatch: true, MaxStates: 4}, Config{MaxFlushes: 1}},
	} {
		// One table per configuration, warm across the chunkings.
		tm, cfg := with(m, tc.opts), tc.cfg
		for _, chunk := range []int{1, 3, 7, 100} {
			var got []engine.MatchEvent
			c := cfg
			c.OnMatch = func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }
			runner := NewRunner(tm)
			runner.Begin(c)
			for i := 0; i < len(in); i += chunk {
				end := i + chunk
				if end > len(in) {
					end = len(in)
				}
				runner.Feed(in[i:end], end == len(in))
			}
			runner.End()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("opts=%+v cfg=%+v chunk=%d diverged: %d events vs %d", tc.opts, cfg, chunk, len(got), len(want))
			}
		}
	}
}

// popPatterns accept on states with outgoing transitions, so the Eq. 5 pop
// changes the event sets; "ab$" and "^ab" cover both anchors, and "ab+$"
// reaches its final state before the stream end, where it must not pop.
var popPatterns = []string{"ab*", "a+", "ab$", "^ab", "b(ab)*c", "a[ab]*b", "ab+$"}

// TestPopSemanticsCached checks the paper's default Eq. 5 pop on the cached
// path: pop scans stay cached and report exactly the distinct (FSA, end)
// sets of the iMFAnt engine in pop mode — including $-anchored accepts on
// the last byte and stream ends announced after the fact — and those sets
// differ from keep mode, so the pop is really exercised.
func TestPopSemanticsCached(t *testing.T) {
	_, m := compile(t, popPatterns...)
	n := m.p.NumFSAs()
	differs := false
	for _, s := range []string{"abbaab", "ab", "abbabcabab", "aaab", "babababc", "xxab", "aabbab", "xabbb"} {
		in := []byte(s)
		engPop := engine.Matches(m.p, in, engine.Config{})
		want := engine.DistinctEnds(engPop, n)
		differs = differs || !reflect.DeepEqual(want, engineEnds(m, in))

		var got []engine.MatchEvent
		res := NewRunner(New(m.p)).Run(in, Config{
			OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) },
		})
		if res.FellBack || res.CacheMisses == 0 {
			t.Fatalf("%q: pop scan left the cached path (FellBack=%v, misses=%d)", s, res.FellBack, res.CacheMisses)
		}
		if g := engine.DistinctEnds(got, n); !reflect.DeepEqual(g, want) {
			t.Fatalf("%q: pop sets %v, want %v", s, g, want)
		}
		if res.Matches != int64(len(engPop)) {
			t.Fatalf("%q: Matches=%d, want %d", s, res.Matches, len(engPop))
		}

		// Stream end announced after the fact: the held-back last byte
		// still carries the $-anchored accepts.
		var late []engine.MatchEvent
		r := NewRunner(m)
		r.Begin(Config{OnMatch: func(fsa, end int) { late = append(late, engine.MatchEvent{FSA: fsa, End: end}) }})
		r.Feed(in, false)
		r.Feed(nil, true)
		r.End()
		if !reflect.DeepEqual(late, got) {
			t.Fatalf("%q: end announced late: %v, want %v", s, late, got)
		}
	}
	if !differs {
		t.Fatal("no input distinguishes pop from keep semantics")
	}
}

// TestPopFrontierMatchesEngine pins the pre-pop cache key: at every prefix
// of random inputs, the pop-mode Frontier — the post-pop vector of the
// current cached state — equals the iMFAnt runner's vector after the same
// bytes. The tiny-cache configuration forces the thrash hand-off mid-input,
// after which the frontier comes from the resumed engine.
func TestPopFrontierMatchesEngine(t *testing.T) {
	_, m := compile(t, popPatterns...)
	rng := rand.New(rand.NewSource(31))
	for _, maxStates := range []int{0, 3} {
		cfg := Config{}
		if maxStates != 0 {
			cfg.MaxFlushes = -1
		}
		thrashed := false
		for trial := 0; trial < 8; trial++ {
			in := make([]byte, 300)
			for i := range in {
				in[i] = "abcx"[rng.Intn(4)]
			}
			lr := NewRunner(with(m, Options{MaxStates: maxStates}))
			lr.Begin(cfg)
			er := engine.NewRunner(m.p)
			er.Begin(engine.Config{})
			for i := range in {
				lr.Feed(in[i:i+1], false)
				lr.FlushHeld()
				er.Feed(in[i:i+1], false)
				er.FlushHeld()
				if got, want := lr.Frontier(), er.Frontier(); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d trial %d after %d bytes: frontier %v, want %v", maxStates, trial, i+1, got, want)
				}
			}
			thrashed = thrashed || lr.End().Thrashed
		}
		if maxStates != 0 && !thrashed {
			t.Fatalf("cap %d never handed off to the engine", maxStates)
		}
	}
}

// TestRunnerReuseWarmCache checks that the table persists across scans and
// runners: a reused runner reports identical results, and a new runner on
// the same Matcher starts warm.
func TestRunnerReuseWarmCache(t *testing.T) {
	_, m := compile(t, "abc", "bca", "ca+b")
	m = with(m, keepOpts)
	in := []byte("abcabcaabcbcacab")
	r := NewRunner(m)
	first := r.Run(in, Config{})
	if first.CachedStates == 0 {
		t.Fatal("no states cached")
	}
	second := r.Run(in, Config{})
	if second.CachedStates != first.CachedStates {
		t.Fatalf("cache not warm: %d then %d states", first.CachedStates, second.CachedStates)
	}
	if first.Matches != second.Matches {
		t.Fatalf("reuse changed matches: %d vs %d", first.Matches, second.Matches)
	}
	// State from one scan must not leak into the next.
	third := r.Run([]byte("zzzz"), Config{})
	if third.Matches != 0 {
		t.Fatalf("state leaked: %d matches", third.Matches)
	}
	// A new runner shares the warm table: no misses, same matches, and
	// its Totals count only its own scan.
	r2 := NewRunner(m)
	fourth := r2.Run(in, Config{})
	if fourth.CacheMisses != 0 || fourth.Matches != first.Matches {
		t.Fatalf("second runner: %d misses, %d matches; want 0 misses, %d matches",
			fourth.CacheMisses, fourth.Matches, first.Matches)
	}
	if tot := r2.Totals(); tot.Scans != 1 || tot.Symbols != int64(len(in)) {
		t.Fatalf("second runner's totals %+v, want exactly its one scan", tot)
	}
}

// TestAnchors covers ^ and $ through the cached path, including the
// dedicated stream-start row.
func TestAnchors(t *testing.T) {
	_, m := compile(t, "^ab", "ab$", "ab")
	got := lazyEnds(with(m, keepOpts), []byte("abxab"), Config{})
	want := [][]int{{1}, {4}, {1, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("anchors: %v, want %v", got, want)
	}
}

func TestPerFSACounts(t *testing.T) {
	_, m := compile(t, "ab", "b")
	res := NewRunner(with(m, keepOpts)).Run([]byte("abab"), Config{})
	if res.PerFSA[0] != 2 || res.PerFSA[1] != 2 || res.Matches != 4 {
		t.Fatalf("counts %+v", res)
	}
	if res.Symbols != 4 {
		t.Fatalf("Symbols=%d", res.Symbols)
	}
}

// TestEndAnnouncedAfterFactLazy is the lazy-engine half of the held-byte
// regression: a stream end announced only after the last data byte — via
// Feed(nil, true) or a bare End — must report the same events as the
// single-shot scan, on the cached path, across a fallback, and in pop mode.
func TestEndAnnouncedAfterFactLazy(t *testing.T) {
	_, m := compile(t, "^ab", "bc$", "abc", "c+a")
	in := []byte("abcabcca abc")
	for _, tc := range []struct {
		opts Options
		cfg  Config
	}{
		{keepOpts, Config{}},
		{Options{KeepOnMatch: true, MaxStates: 4}, Config{MaxFlushes: 1}},
		{Options{}, Config{}}, // pop mode
	} {
		cfg := tc.cfg
		var want []engine.MatchEvent
		ref := cfg
		ref.OnMatch = func(fsa, end int) { want = append(want, engine.MatchEvent{FSA: fsa, End: end}) }
		NewRunner(with(m, tc.opts)).Run(in, ref)

		for name, drive := range map[string]func(r *Runner){
			"Feed(nil,true)": func(r *Runner) { r.Feed(in, false); r.Feed(nil, true) },
			"bare End":       func(r *Runner) { r.Feed(in, false) },
			"split + empty":  func(r *Runner) { r.Feed(in[:5], false); r.Feed(nil, false); r.Feed(in[5:], false); r.Feed(nil, true) },
		} {
			var got []engine.MatchEvent
			c := cfg
			c.OnMatch = func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }
			r := NewRunner(with(m, tc.opts))
			r.Begin(c)
			drive(r)
			r.End()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("opts=%+v cfg=%+v %s: %v, want %v", tc.opts, cfg, name, got, want)
			}
		}
	}
}

// TestWarmCacheConfigInvariance is the regression test for the stale-cache
// fix: reusing a runner across scans — including immediately after a scan
// that thrashed the table and fell back, and across MaxFlushes changes —
// must never change the (FSA, end) event set versus a fresh runner on a
// fresh table. The thrash on the first scan spends the ladder's grow rung,
// so the warm table holds the doubled cap from then on while each fresh
// reference table starts at the configured one.
func TestWarmCacheConfigInvariance(t *testing.T) {
	_, m := compile(t, "a+b", "b+a", "ab+a", "ba+b", "aa", "bb")
	rng := rand.New(rand.NewSource(17))
	in := make([]byte, 2048)
	for i := range in {
		in[i] = byte('a' + rng.Intn(2))
	}
	cap4 := Options{KeepOnMatch: true, MaxStates: 4}
	configs := []Config{
		{MaxFlushes: 2},       // thrash → fallback
		{MaxFlushes: 1 << 30}, // grown retry
		{},                    // default budget
		{MaxFlushes: -1},      // no flush budget
		{},                    // and back
	}
	r := NewRunner(with(m, cap4))
	for step, cfg := range configs {
		var want []engine.MatchEvent
		ref := cfg
		ref.OnMatch = func(fsa, end int) { want = append(want, engine.MatchEvent{FSA: fsa, End: end}) }
		NewRunner(with(m, cap4)).Run(in, ref)

		var got []engine.MatchEvent
		c := cfg
		c.OnMatch = func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }
		res := r.Run(in, c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d cfg=%+v: warm runner diverged (%d events vs %d)",
				step, cfg, len(got), len(want))
		}
		if step == 1 && (res.FellBack || !res.Grew) {
			t.Fatalf("scan after a thrash: FellBack=%v Grew=%v, want a grown cached retry", res.FellBack, res.Grew)
		}
	}
	if tot := r.Totals(); tot.Fallbacks != 1 || tot.Grows != 1 || tot.Pins != 0 {
		t.Fatalf("ladder totals Fallbacks=%d Grows=%d Pins=%d, want 1/1/0", tot.Fallbacks, tot.Grows, tot.Pins)
	}
}

// TestCacheCounters checks the hit/miss accounting and the cumulative
// runner totals: hits + misses cover exactly the cached portion of the
// scan, a warm re-scan is all hits, and totals fold once per End.
func TestCacheCounters(t *testing.T) {
	_, m := compile(t, "abc", "bca")
	in := []byte("abcabcabcbcabca")
	r := NewRunner(with(m, keepOpts))

	first := r.Run(in, Config{})
	if first.CacheMisses == 0 {
		t.Fatal("cold scan reported no misses")
	}
	if first.CacheHits+first.CacheMisses != int64(first.Symbols) {
		t.Fatalf("hits %d + misses %d != symbols %d", first.CacheHits, first.CacheMisses, first.Symbols)
	}

	second := r.Run(in, Config{})
	if second.CacheMisses != 0 {
		t.Fatalf("warm scan missed %d times", second.CacheMisses)
	}
	if second.CacheHits != int64(second.Symbols) {
		t.Fatalf("warm scan: hits %d, symbols %d", second.CacheHits, second.Symbols)
	}

	tot := r.Totals()
	if tot.Scans != 2 ||
		tot.Symbols != int64(first.Symbols+second.Symbols) ||
		tot.CacheHits != first.CacheHits+second.CacheHits ||
		tot.CacheMisses != first.CacheMisses+second.CacheMisses {
		t.Fatalf("totals %+v after %+v and %+v", tot, first, second)
	}
	r.End() // double End must not double-fold
	if tot2 := r.Totals(); tot2 != tot {
		t.Fatalf("double End changed totals: %+v vs %+v", tot2, tot)
	}

	// A thrashing scan counts one fallback; the pre-thrash bytes stay in
	// the hit/miss accounting, the delegated remainder counts in neither.
	_, m2 := compile(t, "a+b", "b+a", "ab+a", "ba+b", "aa", "bb")
	rng := rand.New(rand.NewSource(23))
	big := make([]byte, 2048)
	for i := range big {
		big[i] = byte('a' + rng.Intn(2))
	}
	r2 := NewRunner(with(m2, Options{KeepOnMatch: true, MaxStates: 4}))
	res := r2.Run(big, Config{MaxFlushes: 1})
	if !res.Thrashed {
		t.Fatal("expected a thrashing run")
	}
	if res.CacheHits+res.CacheMisses >= int64(res.Symbols) {
		t.Fatalf("delegated bytes leaked into cache counters: hits %d misses %d symbols %d",
			res.CacheHits, res.CacheMisses, res.Symbols)
	}
	if tot := r2.Totals(); tot.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", tot.Fallbacks)
	}

	// Pop semantics run on the cached path with the same accounting.
	r3 := NewRunner(m)
	res = r3.Run(in, Config{})
	if res.FellBack || res.CacheMisses == 0 {
		t.Fatalf("pop mode: FellBack=%v misses=%d, want a cached scan", res.FellBack, res.CacheMisses)
	}
	if res.CacheHits+res.CacheMisses != int64(res.Symbols) {
		t.Fatalf("pop mode: hits %d + misses %d != symbols %d", res.CacheHits, res.CacheMisses, res.Symbols)
	}
	if tot := r3.Totals(); tot.Fallbacks != 0 {
		t.Fatalf("pop scan counted as fallback: %+v", tot)
	}
}
