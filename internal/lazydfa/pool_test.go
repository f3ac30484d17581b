package lazydfa

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestPoolReusesWarmRunner checks the pool contract: a healthy runner put
// back is the next one checked out, its cache still warm, and its Totals
// restart from zero with the new checkout.
func TestPoolReusesWarmRunner(t *testing.T) {
	_, m := compile(t, "abc", "bca", "ca+b")
	in := []byte("abcabcaabcbcacab")
	r := m.Get()
	first := r.Run(in, Config{KeepOnMatch: true})
	if first.CacheMisses == 0 {
		t.Fatal("a fresh runner reported no misses")
	}
	m.Put(r)
	r2 := m.Get()
	if r2 != r {
		t.Fatal("Get after Put returned a different runner")
	}
	if tot := r2.Totals(); tot != (Totals{}) {
		t.Fatalf("checked-out runner kept the previous checkout's totals: %+v", tot)
	}
	second := r2.Run(in, Config{KeepOnMatch: true})
	if second.CacheMisses != 0 || second.Matches != first.Matches {
		t.Fatalf("pooled rerun: %d misses, %d matches; want 0 misses, %d matches",
			second.CacheMisses, second.Matches, first.Matches)
	}
	if tot := r2.Totals(); tot.Scans != 1 || tot.Symbols != int64(len(in)) {
		t.Fatalf("totals %+v, want exactly the one scan of this checkout", tot)
	}
}

// TestPoolDropsDegradedRunners checks that a runner the degradation ladder
// touched never returns to the pool, so the ladder restarts per checkout.
func TestPoolDropsDegradedRunners(t *testing.T) {
	m, in := thrashy(t)
	cfg := Config{KeepOnMatch: true, MaxStates: 4, MaxFlushes: 1}
	r := m.Get()
	if res := r.Run(in, cfg); !res.Thrashed {
		t.Fatalf("setup: scan did not thrash: %+v", res)
	}
	m.Put(r) // thrashed: dropped
	r2 := m.Get()
	if r2 == r {
		t.Fatal("a thrashed runner was pooled")
	}
	if res := r2.Run(in, cfg); res.Grew || res.Pinned {
		t.Fatalf("a fresh checkout started mid-ladder: %+v", res)
	}
	// A grown runner is dropped even when its last scan was clean.
	r2.Run([]byte("ab"), cfg)
	if !r2.grown {
		t.Fatal("setup: the second scan did not spend the grow rung")
	}
	m.Put(r2)
	if r3 := m.Get(); r3 == r2 {
		t.Fatal("a grown runner was pooled")
	}
}

// TestPoolBound checks the pool keeps at most GOMAXPROCS idle runners.
func TestPoolBound(t *testing.T) {
	_, m := compile(t, "ab")
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n+3; i++ {
		m.Put(NewRunner(m))
	}
	if got := len(m.pool); got != n {
		t.Fatalf("pool holds %d idle runners, want GOMAXPROCS = %d", got, n)
	}
}

// TestPutDropsScanReferences checks a pooled runner retains nothing of its
// last scan's configuration (callbacks capture their caller's state).
func TestPutDropsScanReferences(t *testing.T) {
	_, m := compile(t, "ab")
	r := m.Get()
	r.Run([]byte("abab"), Config{OnMatch: func(int, int) {}, Checkpoint: func() error { return nil }})
	m.Put(r)
	if r.cfg.OnMatch != nil || r.cfg.Checkpoint != nil || r.fb != nil || r.res.PerFSA != nil {
		t.Fatal("a pooled runner still references its last scan")
	}
}

// warmMissRunner returns a runner whose cache holds every state that
// feeding chunk again reaches, and the chunk: the same chunk is fed until
// a pass adds no state.
func warmMissRunner(t testing.TB, keep bool) (*Runner, []byte) {
	_, m := compile(t, "a+b", "b+a", "ab+a", "ba[ab]b", "^ab", "ba$")
	chunk := bytes.Repeat([]byte("abbaabababbbaaab"), 4)
	r := NewRunner(m)
	r.Begin(Config{KeepOnMatch: keep})
	for n := -1; n != len(r.meta); {
		n = len(r.meta)
		r.Feed(chunk, false)
	}
	return r, chunk
}

// forgetRows marks every cached transition as not computed, keeping the
// states: the next Feed misses on every new edge but lands on cached
// states.
func forgetRows(r *Runner) {
	for i := range r.rows {
		r.rows[i] = -1
	}
}

// TestMissAllocFree pins the allocation-free miss path: on a warm runner
// whose states are all cached but whose rows are not yet computed, Feed
// computes every successor with a Step into scratch and an index probe,
// and allocates nothing.
func TestMissAllocFree(t *testing.T) {
	for _, keep := range []bool{true, false} {
		r, chunk := warmMissRunner(t, keep)
		states := len(r.meta)
		misses := r.res.CacheMisses
		allocs := testing.AllocsPerRun(20, func() {
			forgetRows(r)
			r.Feed(chunk, false)
		})
		if r.res.CacheMisses == misses {
			t.Fatalf("keep=%v: no misses taken; the test exercises nothing", keep)
		}
		if len(r.meta) != states {
			t.Fatalf("keep=%v: cache grew from %d to %d states; the runner was not warm", keep, states, len(r.meta))
		}
		if allocs != 0 {
			t.Fatalf("keep=%v: %.1f allocations per Feed on the miss path, want 0", keep, allocs)
		}
	}
}

// TestPoolConcurrentCheckouts shares one Matcher's pool between goroutines
// that check runners out, scan under alternating semantics and put them
// back: every scan reports the events of a fresh runner.
func TestPoolConcurrentCheckouts(t *testing.T) {
	m, in := thrashy(t)
	want := map[bool][]engine.MatchEvent{}
	for _, keep := range []bool{false, true} {
		want[keep] = Matches(m, in, Config{KeepOnMatch: keep})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				keep := (g+i)%3 == 0
				var got []engine.MatchEvent
				r := m.Get()
				r.Run(in, Config{KeepOnMatch: keep, MaxStates: 4 + 64*(i%2),
					OnMatch: func(fsa, end int) { got = append(got, engine.MatchEvent{FSA: fsa, End: end}) }})
				m.Put(r)
				if !reflect.DeepEqual(got, want[keep]) {
					t.Errorf("goroutine %d scan %d keep=%v: %d events, want %d", g, i, keep, len(got), len(want[keep]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
