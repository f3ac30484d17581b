package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestSnapshotBasics(t *testing.T) {
	c := NewCollector(3)
	c.AddScans(2)
	c.AddBytes(1000)
	c.AddMatch(0)
	c.AddMatch(2)
	c.AddMatch(2)
	c.AddMatch(99) // out of range: counts toward the total only
	c.AddMatches(5)
	c.AddRuleHits(1, 4)
	c.AddRuleHits(-1, 7) // ignored

	s := c.Snapshot()
	if s.Scans != 2 || s.BytesScanned != 1000 || s.Matches != 9 {
		t.Fatalf("snapshot %+v", s)
	}
	if want := []int64{1, 4, 2}; len(s.RuleHits) != 3 ||
		s.RuleHits[0] != want[0] || s.RuleHits[1] != want[1] || s.RuleHits[2] != want[2] {
		t.Fatalf("rule hits %v, want %v", s.RuleHits, want)
	}
	if s.Lazy != nil {
		t.Fatal("lazy section present without EnableLazy")
	}
}

func TestLazySection(t *testing.T) {
	c := NewCollector(1)
	c.EnableLazy(2, 2, 4096, 17)
	c.AddLazyScan(90, 10, 1, 0)
	c.AddLazyScan(50, 50, 0, 1)
	c.SetCachedStates(0, 30)
	c.SetCachedStates(1, 12)
	c.SetCachedStates(5, 99) // out of range: ignored

	l := c.Snapshot().Lazy
	if l == nil {
		t.Fatal("lazy section missing")
	}
	if l.Automata != 2 || l.MaxStates != 4096 || l.ByteClasses != 17 {
		t.Fatalf("static config %+v", l)
	}
	if l.Hits != 140 || l.Misses != 60 || l.Flushes != 1 || l.Fallbacks != 1 {
		t.Fatalf("counters %+v", l)
	}
	if l.CachedStates != 42 {
		t.Fatalf("CachedStates = %d, want 42", l.CachedStates)
	}
	if got := l.HitRate(); got < 0.69 || got > 0.71 {
		t.Fatalf("HitRate = %v, want 0.7", got)
	}
	if (&LazyStats{}).HitRate() != 0 {
		t.Fatal("empty HitRate not 0")
	}
}

// TestExpvarString checks the expvar.Var contract: String renders valid
// JSON that round-trips into a Stats.
func TestExpvarString(t *testing.T) {
	c := NewCollector(2)
	c.EnableLazy(1, 1, 8, 3)
	c.AddScans(1)
	c.AddBytes(64)
	c.AddMatch(1)
	c.AddLazyScan(60, 4, 0, 0)
	c.SetCachedStates(0, 5)

	var s Stats
	if err := json.Unmarshal([]byte(c.String()), &s); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	if s.Scans != 1 || s.BytesScanned != 64 || s.Matches != 1 ||
		s.RuleHits[1] != 1 || s.Lazy == nil || s.Lazy.Hits != 60 || s.Lazy.CachedStates != 5 {
		t.Fatalf("round-trip %+v (lazy %+v)", s, s.Lazy)
	}
}

// TestConcurrentFold checks that concurrent writers land every count —
// scanners fold whole-scan totals from many goroutines.
func TestConcurrentFold(t *testing.T) {
	c := NewCollector(4)
	c.EnableLazy(4, 4, 16, 8)
	var wg sync.WaitGroup
	const workers, reps = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				c.AddScans(1)
				c.AddBytes(10)
				c.AddMatch(w % 4)
				c.AddLazyScan(9, 1, 0, 0)
				c.SetCachedStates(w%4, int64(w))
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	const n = workers * reps
	if s.Scans != n || s.BytesScanned != 10*n || s.Matches != n {
		t.Fatalf("snapshot %+v", s)
	}
	var hits int64
	for _, h := range s.RuleHits {
		hits += h
	}
	if hits != n {
		t.Fatalf("rule hits sum %d, want %d", hits, n)
	}
	if s.Lazy.Hits != 9*n || s.Lazy.Misses != n {
		t.Fatalf("lazy %+v", s.Lazy)
	}
}
