package imfant

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faultpoint"
)

// TestStreamStatsFrozenAtClose checks that a closed stream's Stats stay put
// while another stream fills the lazy-DFA tables the first one shared, and
// that the second stream does start warm.
func TestStreamStatsFrozenAtClose(t *testing.T) {
	rs := MustCompile(chaosPatterns, Options{Engine: EngineLazyDFA, Prefilter: PrefilterOff})
	input := chaosInput()
	a := rs.NewStreamMatcher(nil)
	if _, err := a.Write(input); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	want := a.Stats()
	if want.Lazy == nil || want.Lazy.Misses == 0 {
		t.Fatalf("setup: stream A took no cache misses: %+v", want.Lazy)
	}

	b := rs.NewStreamMatcher(nil)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for off := 0; off < len(input); off += 512 {
			if _, err := b.Write(input[off:min(off+512, len(input))]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reads := 0; ; reads++ {
		if got := a.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("closed stream's Stats changed on read %d:\n got %+v\nwant %+v", reads, got, want)
		}
		select {
		case <-done:
			wg.Wait()
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if got := b.Stats(); got.Matches != want.Matches || got.Lazy.Misses >= want.Lazy.Misses {
				t.Fatalf("stream B: %d matches, %d misses; want %d matches on a warm cache (A: %d misses)",
					got.Matches, got.Lazy.Misses, want.Matches, want.Lazy.Misses)
			}
			return
		default:
		}
	}
}

// TestCountParallelPanicNotPooled storms CountParallel with worker panics
// on lazy-DFA runners of shared tables. A panicked task folds only its own
// runner's partial work, so the ruleset's byte partitions stay exact; its
// runner is dropped (no runner outlives its task), and the shared tables
// stay sound, so later calls still match the reference.
func TestCountParallelPanicNotPooled(t *testing.T) {
	input := chaosInput()
	for _, keep := range []bool{false, true} {
		rs := MustCompile(chaosPatterns, Options{Engine: EngineLazyDFA, KeepOnMatch: keep, MergeFactor: 2,
			Prefilter: PrefilterOff, Segment: SegmentOff, Accel: AccelOff})
		want := rs.NewScanner().Count(input)
		if got, err := rs.CountParallel(input, 2); err != nil || got != want {
			t.Fatalf("keep=%v: warm-up count %d (%v), reference %d", keep, got, err, want)
		}
		rs.setFaultInjector(faultpoint.New(faultpoint.Random(7, map[faultpoint.Point]float64{faultpoint.WorkerPanic: 0.05})))
		const calls = 20
		var failures int
		for i := 0; i < calls; i++ {
			got, err := rs.CountParallel(input, 2)
			if err != nil {
				var wp *engine.WorkerPanicError
				if !errors.As(err, &wp) {
					t.Fatalf("keep=%v call %d: untyped error %v", keep, i, err)
				}
				failures++
				continue
			}
			if got != want {
				t.Fatalf("keep=%v call %d: count %d, reference %d", keep, i, got, want)
			}
		}
		rs.setFaultInjector(nil)
		if failures == 0 || failures == calls {
			t.Fatalf("keep=%v: %d of %d calls panicked; the storm must mix failures and successes",
				keep, failures, calls)
		}
		st := rs.Stats()
		// Every (call, automaton) task either completed one scan or
		// panicked, before its scan or mid-scan, folding no completed scan
		// and at most the whole input. A panicked runner whose totals still
		// carried an earlier task would fold that task's scans too.
		// The reference Scanner's scan counts as one more task.
		tasks := int64(calls+2) * int64(rs.NumAutomata())
		panics := st.Degraded.WorkerPanics
		if st.Scans != tasks-panics || st.BytesScanned > tasks*int64(len(input)) {
			t.Fatalf("keep=%v: %d scans, %d bytes folded; want %d scans (%d tasks, %d panicked) of at most %d bytes",
				keep, st.Scans, st.BytesScanned, tasks-panics, tasks, panics, len(input))
		}
		var stratBytes int64
		for _, g := range st.Strategy.Groups {
			stratBytes += g.Bytes
		}
		if stratBytes != st.BytesScanned {
			t.Fatalf("keep=%v: strategy bytes %d, BytesScanned %d", keep, stratBytes, st.BytesScanned)
		}
		if l := st.Lazy; l.Hits+l.Misses != st.BytesScanned {
			t.Fatalf("keep=%v: hits %d + misses %d != BytesScanned %d", keep, l.Hits, l.Misses, st.BytesScanned)
		}
		for i := 0; i < 4; i++ {
			if got, err := rs.CountParallel(input, 2); err != nil || got != want {
				t.Fatalf("keep=%v after the storm: count %d (%v), reference %d", keep, got, err, want)
			}
		}
	}
}

// TestCacheBytesFlatAcrossStreams pins what one shared table per execution
// unit buys: lazy-DFA memory does not grow with the number of open streams.
// The same 64 flows, fed one open stream at a time and then all 64 open at
// once with their chunks interleaved, leave the ruleset's
// Stats().Lazy.CacheBytes — the summed bytes of its units' tables —
// within 1.1× of each other.
func TestCacheBytesFlatAcrossStreams(t *testing.T) {
	ds, err := dataset.ByAbbr("BRO")
	if err != nil {
		t.Fatal(err)
	}
	const flows, chunk = 64, 512
	traffic := ds.Stream(flows*4<<10, 64)
	sessions := make([][]byte, flows)
	for i := range sessions {
		sessions[i] = traffic[i*len(traffic)/flows : (i+1)*len(traffic)/flows]
	}
	cacheBytes := func(open int) int64 {
		rs := MustCompile(ds.Patterns(), Options{Engine: EngineLazyDFA, Prefilter: PrefilterOff})
		for first := 0; first < flows; first += open {
			batch := sessions[first : first+open]
			sms := make([]*StreamMatcher, open)
			for i := range sms {
				sms[i] = rs.NewStreamMatcher(nil)
			}
			for off := 0; off < len(batch[0]); off += chunk {
				for i, sm := range sms {
					if _, err := sm.Write(batch[i][off:min(off+chunk, len(batch[i]))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, sm := range sms {
				if err := sm.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return rs.Stats().Lazy.CacheBytes
	}
	one, many := cacheBytes(1), cacheBytes(flows)
	t.Logf("CacheBytes: %d with one open stream, %d with %d", one, many, flows)
	if one == 0 {
		t.Fatal("setup: the traffic built no lazy-DFA table")
	}
	if float64(many) > 1.1*float64(one) {
		t.Fatalf("CacheBytes %d with %d open streams, %d with one: memory grows with concurrency",
			many, flows, one)
	}
}
