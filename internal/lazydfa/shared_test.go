package lazydfa

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
)

// collectInto returns an OnMatch that appends to *sink.
func collectInto(sink *[]engine.MatchEvent) func(fsa, end int) {
	return func(fsa, end int) { *sink = append(*sink, engine.MatchEvent{FSA: fsa, End: end}) }
}

// feedChunked runs in through r in chunks of step bytes as one scan.
func feedChunked(r *Runner, in []byte, step int, cfg Config) Result {
	r.Begin(cfg)
	for i := 0; i < len(in); i += step {
		end := min(i+step, len(in))
		r.Feed(in[i:end], end == len(in))
	}
	if len(in) == 0 {
		r.Feed(nil, true)
	}
	return r.End()
}

// TestLadderIsPerRunner checks the degradation ladder's scope: a runner
// that thrashed doubles the shared table's cap, once per Matcher, and a new
// runner on the same Matcher starts at the bottom of its own ladder — it
// neither grows nor pins for what another runner went through.
func TestLadderIsPerRunner(t *testing.T) {
	m, in := thrashy(t)
	lm := with(m, Options{KeepOnMatch: true, MaxStates: 3})
	cfg := Config{MaxFlushes: -1}
	a := NewRunner(lm)
	if res := a.Run(in, cfg); !res.Thrashed {
		t.Fatalf("setup: scan did not thrash: %+v", res)
	}
	if res := a.Run(in, cfg); !res.Grew || !res.Thrashed {
		t.Fatalf("second scan: Grew=%v Thrashed=%v, want a grown retry that still thrashes", res.Grew, res.Thrashed)
	}
	b := NewRunner(lm)
	if res := b.Run(in, cfg); res.Grew || res.Pinned {
		t.Fatalf("a new runner started mid-ladder: %+v", res)
	}
	if res := b.Run(in, cfg); !res.Grew || res.Pinned {
		t.Fatalf("the new runner's own retry: Grew=%v Pinned=%v, want its grow rung", res.Grew, res.Pinned)
	}
	if c := lm.Stats().MaxStates; c != 6 {
		t.Fatalf("cap %d after two grow rungs, want 6: it doubles once per Matcher", c)
	}
}

// TestFlushUnderIdleRunner checks a flush by one runner while another is
// between chunks: the idle runner holds no snapshot, re-inserts its saved
// state into the new generation at its next chunk, and reports exactly the
// events of a scan on a table of its own.
func TestFlushUnderIdleRunner(t *testing.T) {
	m, in := thrashy(t)
	for _, keep := range []bool{false, true} {
		lm := with(m, Options{KeepOnMatch: keep, MaxStates: 4})
		want := Matches(with(m, Options{KeepOnMatch: keep}), in, Config{})
		var got []engine.MatchEvent
		a, b := NewRunner(lm), NewRunner(lm)
		a.Begin(Config{MaxFlushes: 1 << 30, OnMatch: collectInto(&got)})
		for off := 0; off < len(in); off += 100 {
			end := min(off+100, len(in))
			a.Feed(in[off:end], end == len(in))
			if a.snap != nil {
				t.Fatal("a runner between chunks holds a table snapshot")
			}
			b.Run(in[off:end], Config{MaxFlushes: 1 << 30})
		}
		res := a.End()
		if res.FellBack {
			t.Fatalf("keep=%v: unlimited flush budget fell back", keep)
		}
		if b.Totals().Flushes == 0 {
			t.Fatalf("keep=%v: the other runner never flushed the table", keep)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("keep=%v: %d events, want %d", keep, len(got), len(want))
		}
	}
}

// TestConcurrentRunners shares one Matcher between goroutines whose runners
// scan in different chunkings at once, on a tiny table they keep flushing
// under each other and on a default one: every scan reports the events of
// a runner on a table of its own.
func TestConcurrentRunners(t *testing.T) {
	m, in := thrashy(t)
	for _, keep := range []bool{false, true} {
		want := Matches(with(m, Options{KeepOnMatch: keep}), in, Config{})
		for _, maxStates := range []int{4, 0} {
			sm := with(m, Options{KeepOnMatch: keep, MaxStates: maxStates})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						var got []engine.MatchEvent
						feedChunked(NewRunner(sm), in, 37*(g+1)+i,
							Config{MaxFlushes: 1 << 30, OnMatch: collectInto(&got)})
						if !reflect.DeepEqual(got, want) {
							t.Errorf("keep=%v cap %d goroutine %d scan %d: %d events, want %d",
								keep, maxStates, g, i, len(got), len(want))
							return
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

// FuzzSharedTable runs goroutines of runners on one Matcher with a fuzzed
// tiny cap, semantics and chunking: each goroutine scans every '|'-separated
// piece of the input in its own order and chunking, with one runner, while
// the others fill and flush the table under it, and every scan must report
// exactly the reference scanner's distinct (FSA, end) sets.
func FuzzSharedTable(f *testing.F) {
	fsas, m := compile(f, "a+b", "b+a", "ab+a", "aa", "bb", "^ab", "ba$", "a[ab]b")
	f.Add([]byte("abbaab|abab|bbaa"), uint8(0), uint8(3), false)
	f.Add([]byte("aabbaabb||abababab|ba"), uint8(3), uint8(1), true)
	f.Add([]byte("abababababab|aaaa|bbbb|abba"), uint8(4), uint8(7), false)

	f.Fuzz(func(t *testing.T, in []byte, maxStates, chunk uint8, keep bool) {
		if len(in) > 1<<12 {
			return
		}
		sm := with(m, Options{KeepOnMatch: keep, MaxStates: int(maxStates) % 8})
		scans := bytes.Split(in, []byte("|"))
		want := make([][][]int, len(scans))
		for k, s := range scans {
			want[k] = engine.ReferenceScanAll(fsas, s, keep)
			for j, ends := range want[k] {
				if ends == nil {
					want[k][j] = []int{}
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := NewRunner(sm)
				step := (int(chunk)+g)%8 + 1
				for k := range scans {
					k = (k + g) % len(scans)
					var got []engine.MatchEvent
					res := feedChunked(r, scans[k], step, Config{OnMatch: collectInto(&got)})
					if sets := engine.DistinctEnds(got, len(fsas)); !reflect.DeepEqual(sets, want[k]) {
						t.Errorf("goroutine %d scan %q keep=%v cap %d chunk %d: %v, reference %v (res=%+v)",
							g, scans[k], keep, maxStates%8, step, sets, want[k], res)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// warmMissRunner returns a runner whose table holds every state that
// feeding chunk again reaches, and the chunk: the same chunk is fed until a
// pass adds no state.
func warmMissRunner(t testing.TB, keep bool) (*Runner, []byte) {
	_, m := compile(t, "a+b", "b+a", "ab+a", "ba[ab]b", "^ab", "ba$")
	m = with(m, Options{KeepOnMatch: keep})
	chunk := bytes.Repeat([]byte("abbaabababbbaaab"), 4)
	r := NewRunner(m)
	r.Begin(Config{})
	for n := -1; n != m.Stats().States; {
		n = m.Stats().States
		r.Feed(chunk, false)
	}
	return r, chunk
}

// forgetRows marks every cached transition of m's table as not computed,
// keeping the states: the next Feed misses on every new edge but lands on
// cached states.
func forgetRows(m *Matcher) {
	for _, rows := range [][]int32{m.tip.rows, m.pub.Load().rows} {
		for i := range rows {
			if i%m.stride != m.nc {
				rows[i] = -1
			}
		}
	}
}

// TestMissAllocFree pins the allocation-free miss path: on a warm table
// whose states are all cached but whose rows are not yet computed, Feed
// computes every successor with a Step into scratch and an index probe
// under the table lock, and allocates nothing.
func TestMissAllocFree(t *testing.T) {
	for _, keep := range []bool{true, false} {
		r, chunk := warmMissRunner(t, keep)
		states := r.m.Stats().States
		misses := r.res.CacheMisses
		allocs := testing.AllocsPerRun(20, func() {
			forgetRows(r.m)
			r.Feed(chunk, false)
		})
		if r.res.CacheMisses == misses {
			t.Fatalf("keep=%v: no misses taken; the test exercises nothing", keep)
		}
		if n := r.m.Stats().States; n != states {
			t.Fatalf("keep=%v: table grew from %d to %d states; it was not warm", keep, states, n)
		}
		if allocs != 0 {
			t.Fatalf("keep=%v: %.1f allocations per Feed on the miss path, want 0", keep, allocs)
		}
	}
}
