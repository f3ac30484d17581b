package imfant

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// segConfPatterns mixes every planner strategy: pure literals (AC group),
// anchored literals, an eager-DFA shape, and general engine patterns whose
// boundary carries exercise the stitch.
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

// segConfInputs builds inputs whose matches straddle segment boundaries at
// 2, 3 and 8 segments, so segmented scans of them stitch.
func segConfInputs(t testing.TB) [][]byte {
	t.Helper()
	rnd := rand.New(rand.NewSource(77))
	big := make([]byte, 8192)
	alpha := []byte("abcdfoxy ")
	for i := range big {
		big[i] = alpha[rnd.Intn(len(alpha))]
	}
	copy(big[4094:], "needle") // straddles the 2-way boundary
	copy(big[2729:], "foobaz") // straddles a 3-way boundary
	copy(big[1020:], "xqqy")   // straddles an 8-way boundary
	copy(big[len(big)-7:], "suffix\n")
	return [][]byte{
		nil,
		[]byte("n"),
		[]byte("needle"),
		[]byte("HDR: foobazsuffix"),
		[]byte(strings.Repeat("abdacd", 300) + "suffix"),
		big,
	}
}

// segRuleset compiles segConfPatterns under opts.
func segRuleset(t testing.TB, opts Options) *Ruleset {
	t.Helper()
	rs, err := Compile(segConfPatterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestSegmentAutoThreshold pins the SegmentAuto gate: an input one byte
// under 1 MiB stays serial (Segment section all-serial), a 1 MiB one
// segments.
func TestSegmentAutoThreshold(t *testing.T) {
	rs := segRuleset(t, Options{})
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

// TestSegmentStatsPartition pins the accounting contract: ParallelBytes +
// StitchBytes + SerialBytes == BytesScanned, exactly, on a workload mixing
// segmented parallel scans with serial Scanner scans.
func TestSegmentStatsPartition(t *testing.T) {
	rs := segRuleset(t, Options{Segment: SegmentOn})
	inputs := segConfInputs(t)
	for _, in := range inputs {
		if _, err := rs.CountParallel(in, 4); err != nil {
			t.Fatal(err)
		}
	}
	rs.Count(inputs[len(inputs)-1]) // a serial Scanner scan in the mix
	st := rs.Stats()
	if st.Segment == nil {
		t.Fatal("Segment section missing with SegmentOn")
	}
	s := st.Segment
	if s.SegmentedScans == 0 || s.Segments <= s.SegmentedScans {
		t.Fatalf("implausible segmentation counters: %+v", s)
	}
	if got := s.ParallelBytes + s.StitchBytes + s.SerialBytes; got != st.BytesScanned {
		t.Fatalf("partition broken: parallel %d + stitch %d + serial %d = %d, BytesScanned %d",
			s.ParallelBytes, s.StitchBytes, s.SerialBytes, got, st.BytesScanned)
	}
	if s.SerialBytes == 0 {
		t.Fatal("serial Scanner scan not reflected in SerialBytes")
	}

	// Scanner scope: every byte serial, and the snapshot matches the
	// ruleset's shape contract.
	sc := rs.NewScanner()
	sc.Count(inputs[len(inputs)-1])
	scs := sc.Stats()
	if scs.Segment == nil || scs.Segment.SerialBytes != scs.BytesScanned {
		t.Fatalf("scanner-scope segment section = %+v, want all-serial of %d", scs.Segment, scs.BytesScanned)
	}
}

// TestSegmentFrontierFallbackSticky pins the degradation contract: a group
// whose boundary carry exceeds the segmentMaxFrontier budget still reports
// exact results, records a fallback, and runs serially on subsequent
// segmented scans.
func TestSegmentFrontierFallbackSticky(t *testing.T) {
	// On a run of 'a's every position opens a new "a[ax]{0,100}b" window,
	// so every boundary carry holds 101 live states, over the budget of
	// segmentMaxFrontier. Each window dies within 102 bytes, far short of a
	// 1 KiB segment, so the carry never outlives a segment: the pin comes
	// from the frontier budget alone.
	// Engine forced so the planner cannot route the group to the eager-DFA
	// strategy, which runs serially and never carries a frontier.
	patterns := []string{"a[ax]{0,100}b"}
	serial, err := Compile(patterns, Options{Engine: EngineIMFAnt})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Compile(patterns, Options{Engine: EngineIMFAnt, Segment: SegmentOn})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte(strings.Repeat("a", 4096) + "b" + strings.Repeat("q", 64) + "axb")
	want := serial.FindAll(in)
	for round := 0; round < 2; round++ {
		got, err := rs.findAllSegmented(t.Context(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: exactness lost under frontier fallback:\ngot  %v\nwant %v", round, got, want)
		}
	}
	st := rs.Stats()
	if st.Segment.Fallbacks == 0 {
		t.Fatalf("no fallback recorded: %+v", st.Segment)
	}
	// Sticky: the pinned groups stopped segmenting, so a third scan adds
	// serial bytes but no fallback growth.
	fallbacks := st.Segment.Fallbacks
	serialBytes := st.Segment.SerialBytes
	if _, err := rs.findAllSegmented(t.Context(), in, 4); err != nil {
		t.Fatal(err)
	}
	st = rs.Stats()
	if st.Segment.Fallbacks != fallbacks {
		t.Fatalf("fallbacks grew after pinning: %d -> %d", fallbacks, st.Segment.Fallbacks)
	}
	if st.Segment.SerialBytes <= serialBytes {
		t.Fatalf("pinned group did not run serially: serial bytes %d -> %d",
			serialBytes, st.Segment.SerialBytes)
	}
}

// TestSegmentCarryOutlivedPins pins the stitch-cost rule: in a ruleset
// whose .* carries never die, every group's first segmented CountParallel
// re-stitches whole segments, so it records exactly one segment fallback
// and pins the group serial; a second call then stitches nothing and adds
// no fallback, and both calls count exactly what SegmentOff counts. Engines
// are forced so the planner cannot route these small groups to the serial
// eager-DFA strategy.
func TestSegmentCarryOutlivedPins(t *testing.T) {
	patterns := []string{"a.*b", "c.*d", "e.*f"}
	rng := rand.New(rand.NewSource(5))
	in := make([]byte, 8192)
	for i := range in {
		in[i] = "abcdefx "[rng.Intn(8)]
	}
	for _, eng := range []EngineMode{EngineLazyDFA, EngineIMFAnt} {
		off := MustCompile(patterns, Options{MergeFactor: 1, Engine: eng, Segment: SegmentOff})
		want, err := off.CountParallel(in, 4)
		if err != nil {
			t.Fatal(err)
		}
		rs := MustCompile(patterns, Options{MergeFactor: 1, Engine: eng, Segment: SegmentOn})
		var stitch int64
		for call := 0; call < 2; call++ {
			got, err := rs.CountParallel(in, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("engine %d call %d: %d matches, SegmentOff %d", eng, call, got, want)
			}
			s := rs.Stats().Segment
			if s.Fallbacks != int64(rs.NumAutomata()) {
				t.Fatalf("engine %d call %d: %d fallbacks, want one per group (%d)",
					eng, call, s.Fallbacks, rs.NumAutomata())
			}
			if call == 0 {
				if stitch = s.StitchBytes; stitch == 0 {
					t.Fatalf("engine %d: first call stitched nothing", eng)
				}
			} else if s.StitchBytes != stitch {
				t.Fatalf("engine %d: pinned call stitched %d more bytes", eng, s.StitchBytes-stitch)
			}
		}
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
