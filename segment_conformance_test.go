package imfant

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/engine"
)

// segConfPatterns mixes every planner strategy: pure literals (AC group),
// anchored literals, an eager-DFA shape, and general engine patterns.
var segConfPatterns = []string{
	"needle",
	"haystack",
	"^HDR:",
	"suffix$",
	"a[bc]+d",
	"(foo|bar)baz",
	"x.{2,5}y",
	"b+c",
}

// TestSegmentAutoThreshold pins the SegmentAuto gate: an input one byte
// under 1 MiB stays serial (Segment section all-serial), a 1 MiB one
// segments its literal pass, which the AC groups of M = 1 give it.
func TestSegmentAutoThreshold(t *testing.T) {
	rs := MustCompile(segConfPatterns, Options{MergeFactor: 1})
	small := []byte(strings.Repeat("ab", 1<<19)[1:]) // 1 MiB − 1: under the threshold
	if _, err := rs.CountParallel(small, 4); err != nil {
		t.Fatal(err)
	}
	st := rs.Stats()
	if st.Segment == nil {
		t.Fatal("Segment section missing with SegmentAuto")
	}
	if st.Segment.SegmentedScans != 0 || st.Segment.ParallelBytes != 0 {
		t.Fatalf("sub-threshold scan segmented: %+v", st.Segment)
	}
	if st.Segment.SerialBytes != st.BytesScanned {
		t.Fatalf("sub-threshold serial bytes %d, want all %d", st.Segment.SerialBytes, st.BytesScanned)
	}
	large := []byte(strings.Repeat("ab", 1<<19)) // 1 MiB: at it
	if _, err := rs.CountParallel(large, 4); err != nil {
		t.Fatal(err)
	}
	if st = rs.Stats(); st.Segment.SegmentedScans == 0 {
		t.Fatalf("above-threshold scan did not segment: %+v", st.Segment)
	}
}

// TestSegmentedScanTrace pins that the parallel scan paths record the same
// trace events as a serial Scanner: scan_begin, one match event per match,
// and scan_end. The (kind, rule, offset) multisets of a segmented FindAll
// and of a pooled CountParallel must equal the serial FindAll's.
func TestSegmentedScanTrace(t *testing.T) {
	patterns := []string{"ab", "x[0-9]+y"}
	in := []byte(strings.Repeat("xxabxx", 200))
	type key struct {
		kind   string
		rule   int
		offset int64
	}
	traced := func(seg SegmentMode, scan func(rs *Ruleset) error) map[key]int {
		t.Helper()
		rs := MustCompile(patterns, Options{Engine: EngineIMFAnt, TraceCapacity: 4096, Segment: seg})
		if err := scan(rs); err != nil {
			t.Fatal(err)
		}
		out := make(map[key]int)
		for _, ev := range rs.TraceEvents() {
			out[key{ev.Kind, ev.Rule, ev.Offset}]++
		}
		return out
	}
	want := traced(SegmentOff, func(rs *Ruleset) error {
		_, err := rs.FindAllContext(t.Context(), in)
		return err
	})
	if n := len(want); n != 202 || want[key{"scan_begin", -1, -1}] != 1 || want[key{"scan_end", -1, -1}] != 1 {
		t.Fatalf("serial trace has %d distinct events %v, want 200 matches plus scan_begin and scan_end", n, want)
	}
	segmented := traced(SegmentOn, func(rs *Ruleset) error {
		_, err := rs.findAllSegmented(t.Context(), in, 4)
		return err
	})
	if !reflect.DeepEqual(segmented, want) {
		t.Fatalf("segmented FindAll trace %v, serial %v", segmented, want)
	}
	pooled := traced(SegmentOff, func(rs *Ruleset) error {
		_, err := rs.CountParallel(in, 2)
		return err
	})
	if !reflect.DeepEqual(pooled, want) {
		t.Fatalf("CountParallel trace %v, serial %v", pooled, want)
	}
}

// TestSegmentedPassOnly pins what segmenting means: only the literal pass
// runs over segments, and every other execution unit runs whole in the
// worker pool. A 1 MiB scan of a ruleset with an AC literal, a chain rule
// and two lazy-DFA units (one always run, one gated by its factors), under
// SegmentOn and under SegmentAuto, at two and four threads: each segmented
// call counts one segmented scan per pass group, stitches nothing and pins
// nothing, the pass's bytes (its overlap windows included) are parallel,
// the lazy units' bytes are serial, and CountParallel, findAllSegmented and
// FindAll report what a reused Scanner reports.
func TestSegmentedPassOnly(t *testing.T) {
	patterns := []string{"needle", "foo.*bar", "x[0-9]+", "zz[0-9]+", "abc[0-9]+", "def[a-f]+"}
	plants := []string{"needle", "foo-bar", "x42", "zz9", "abc12", "defab"}
	rng := rand.New(rand.NewSource(7))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 -"
	in := make([]byte, segmentMinBytes)
	for i := range in {
		in[i] = alphabet[rng.Intn(len(alphabet))]
	}
	for i, off := 0, 0; off+16 < len(in); i, off = i+1, off+4093 {
		copy(in[off:], plants[i%len(plants)])
	}
	for _, mode := range []SegmentMode{SegmentOn, SegmentAuto} {
		rs := MustCompile(patterns, Options{MergeFactor: 1, Segment: mode})
		var passGroups, lazyUnits, serialGroups int64
		for u, x := range rs.plan.units {
			switch {
			case rs.plan.inLit(u):
				passGroups += int64(len(x.groups))
			case x.strat == StrategyLazyDFA:
				lazyUnits++
				serialGroups += int64(len(x.groups))
			default:
				t.Fatalf("mode %d: unit %d plans %v, want the pass or the lazy DFA", mode, u, x.strat)
			}
		}
		if passGroups != 2 || lazyUnits < 2 || rs.pf == nil {
			t.Fatalf("mode %d: %d pass groups and %d lazy units (%v, gated %v), want 2, at least 2 and gated",
				mode, passGroups, lazyUnits, rs.Strategies(), rs.pf != nil)
		}
		sc := rs.NewScanner()
		want, err := sc.FindAllContext(t.Context(), in)
		wantN := sc.Count(in)
		if err != nil || len(want) == 0 || int64(len(want)) != wantN {
			t.Fatalf("mode %d: Scanner found %d matches, counted %d", mode, len(want), wantN)
		}
		overlap := int64(rs.plan.lit.m.MaxPatternLen() - 1)
		for _, threads := range []int{2, 4} {
			for _, entry := range []string{"CountParallel", "findAllSegmented"} {
				before := *rs.Stats().Segment
				if entry == "CountParallel" {
					if n, err := rs.CountParallel(in, threads); err != nil || n != wantN {
						t.Fatalf("mode %d threads %d: CountParallel %d (err %v), Scanner %d", mode, threads, n, err, wantN)
					}
				} else if got, err := rs.findAllSegmented(t.Context(), in, threads); err != nil || !slices.Equal(got, want) {
					t.Fatalf("mode %d threads %d: findAllSegmented %d matches (err %v), Scanner %d",
						mode, threads, len(got), err, len(want))
				}
				s := *rs.Stats().Segment
				d := SegmentStats{
					SegmentedScans: s.SegmentedScans - before.SegmentedScans,
					Segments:       s.Segments - before.Segments,
					Fallbacks:      s.Fallbacks - before.Fallbacks,
					ParallelBytes:  s.ParallelBytes - before.ParallelBytes,
					StitchBytes:    s.StitchBytes - before.StitchBytes,
					SerialBytes:    s.SerialBytes - before.SerialBytes,
				}
				n, parts := int64(len(in)), int64(threads)
				wantD := SegmentStats{
					SegmentedScans: passGroups,
					Segments:       passGroups * parts,
					ParallelBytes:  passGroups * (n + (parts-1)*overlap),
					SerialBytes:    serialGroups * n,
				}
				if d != wantD {
					t.Fatalf("mode %d threads %d %s: segment stats %+v, want %+v", mode, threads, entry, d, wantD)
				}
			}
		}
		if got := rs.FindAll(in); !slices.Equal(got, want) {
			t.Fatalf("mode %d: FindAll %d matches, Scanner %d", mode, len(got), len(want))
		}
	}
}

// TestSegmentedPassWorkerPanic pins the panic containment of the segmented
// pass: a panic inside one scanAC worker surfaces, through scanLiterals, as
// a *WorkerPanicError once every worker has joined; no goroutine outlives
// the call, and the fold counts the bytes the workers scanned.
func TestSegmentedPassWorkerPanic(t *testing.T) {
	// One-byte literals: the pass has no overlap window, so every block a
	// worker scans is a whole checkpoint block.
	rs := MustCompile([]string{"a", "b"}, Options{})
	lp := rs.plan.lit
	if lp == nil || !lp.delivers() || lp.m.MaxPatternLen() != 1 {
		t.Fatal("ruleset does not plan a one-byte delivering literal pass")
	}
	const parts, blocks, every = 4, 4, engine.DefaultCheckpointEvery
	in := bytes.Repeat([]byte("ab-c"), parts*blocks*every/4)
	var calls, passed atomic.Int64
	check := func() error {
		if calls.Add(1) == 6 {
			panic("injected check panic")
		}
		passed.Add(1)
		return nil
	}
	g0 := runtime.NumGoroutine()
	var f scanFold
	seen, n, err := rs.scanLiterals(in, boundaries(len(in), parts), check, nil, &f)
	var wp *engine.WorkerPanicError
	if !errors.As(err, &wp) || wp.Automaton != -1 {
		t.Fatalf("err %v, want a *WorkerPanicError of the pass (automaton -1)", err)
	}
	if seen != nil || n != 0 {
		t.Fatalf("a failed pass reported seen %v and %d matches", seen, n)
	}
	// The other three workers finished their segments; the panicking one
	// scanned the blocks before its panic.
	ok := passed.Load()
	if ok < (parts-1)*blocks || ok >= parts*blocks {
		t.Fatalf("%d blocks passed their checkpoint, want [%d, %d)", ok, (parts-1)*blocks, parts*blocks)
	}
	g := int64(len(lp.units))
	scanned := g * ok * every
	if f.bytes != scanned || f.parallel != scanned || f.segScans != g || f.segments != g*parts {
		t.Fatalf("fold bytes %d, parallel %d, segmented scans %d, segments %d; want %d, %d, %d, %d",
			f.bytes, f.parallel, f.segScans, f.segments, scanned, scanned, g, g*parts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pass, %d before", runtime.NumGoroutine(), g0)
		}
		time.Sleep(time.Millisecond)
	}
	if passed.Load() != ok {
		t.Fatal("a worker polled its checkpoint after the pass returned")
	}
}

func TestBoundaries(t *testing.T) {
	for _, tc := range []struct{ n, parts, wantSegs int }{
		{100, 4, 4}, {7, 3, 3}, {3, 8, 3}, {1, 1, 1}, {0, 4, 1}, {10, 0, 1},
	} {
		b := boundaries(tc.n, tc.parts)
		if len(b)-1 != tc.wantSegs {
			t.Fatalf("boundaries(%d,%d)=%v: %d segments, want %d",
				tc.n, tc.parts, b, len(b)-1, tc.wantSegs)
		}
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("boundaries(%d,%d)=%v does not cover input", tc.n, tc.parts, b)
		}
		for i := 1; i < len(b); i++ {
			if tc.n > 0 && b[i] <= b[i-1] {
				t.Fatalf("boundaries(%d,%d)=%v has an empty segment", tc.n, tc.parts, b)
			}
		}
	}
}

// TestScanACEquivalence checks the segmented Aho–Corasick scan against a
// serial Matcher.Scan: the same hits, replayed in end order, and a seen
// list naming each pattern that occurs exactly once, across segment counts
// and acceleration. Only delivered patterns are replayed; the others still
// count as seen.
func TestScanACEquivalence(t *testing.T) {
	pats := [][]byte{[]byte("abc"), []byte("bca"), []byte("aa"), []byte("cabcab")}
	m, err := ahocorasick.New(pats)
	if err != nil {
		t.Fatal(err)
	}
	deliver := []bool{true, true, false, true}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 1024} {
		input := make([]byte, n)
		for i := range input {
			input[i] = "abc"[rng.Intn(3)]
		}
		var want []acHit
		var wantSeen []int32
		m.Scan(input, func(pat, end int) {
			if !slices.Contains(wantSeen, int32(pat)) {
				wantSeen = append(wantSeen, int32(pat))
			}
			if deliver[pat] {
				want = append(want, acHit{pat, end})
			}
		})
		slices.Sort(wantSeen)
		for _, parts := range []int{1, 2, 5} {
			for _, accel := range []bool{false, true} {
				var got []acHit
				res, err := scanAC(m, deliver, input, boundaries(len(input), parts), accel, nil,
					func(pat, end int) { got = append(got, acHit{pat, end}) })
				if err != nil {
					t.Fatalf("scanAC: %v", err)
				}
				// The replay is in end order; the patterns of one end may
				// come in any order.
				if !slices.IsSortedFunc(got, func(a, b acHit) int { return a.end - b.end }) ||
					!slices.Equal(sortHits(got), sortHits(want)) {
					t.Fatalf("n=%d parts=%d accel=%v:\ngot  %v\nwant %v", n, parts, accel, got, want)
				}
				seen := slices.Clone(res.seen)
				slices.Sort(seen)
				if !slices.Equal(seen, wantSeen) {
					t.Fatalf("n=%d parts=%d accel=%v: seen %v, want %v", n, parts, accel, res.seen, wantSeen)
				}
				if res.scanned < int64(n) {
					t.Fatalf("scanned %d < input %d", res.scanned, n)
				}
			}
		}
	}
}

// sortHits returns hits ordered by (end, pattern).
func sortHits(hits []acHit) []acHit {
	out := slices.Clone(hits)
	slices.SortFunc(out, func(a, b acHit) int {
		if a.end != b.end {
			return a.end - b.end
		}
		return a.pat - b.pat
	})
	return out
}
