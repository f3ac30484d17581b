package imfant

import (
	"bytes"
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

// TestSegmentAutoThreshold pins the SegmentAuto gate: an input one byte
// under 1 MiB stays serial (Segment section all-serial), a 1 MiB one
// segments.
func TestSegmentAutoThreshold(t *testing.T) {
	rs := MustCompile(segConfPatterns, Options{})
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

// segPinInput builds a 1 MiB input, the size at which a segmented scan may
// pin a group: dead filler, which acceleration skips, with run centred on
// the last cut of n equal segments.
func segPinInput(n int, filler byte, run string) []byte {
	in := bytes.Repeat([]byte{filler}, segmentMinBytes)
	copy(in[(n-1)*len(in)/n-len(run)/2:], run)
	return in
}

// TestSegmentFrontierFallbackSticky pins the degradation contract: a group
// whose boundary carry exceeds the segmentMaxFrontier budget still reports
// exact results, records a fallback, and runs serially on subsequent
// segmented scans.
func TestSegmentFrontierFallbackSticky(t *testing.T) {
	// Across the last cut of 4 segments lies a run of 'a's, where every
	// position opens a new "a[ax]{0,100}b" window, so the boundary carry
	// holds 101 live states, over the budget of segmentMaxFrontier. Each
	// window dies within 102 bytes, far short of a segment, so the carry
	// never outlives one: the pin comes from the frontier budget alone.
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
	in := segPinInput(4, 'q', strings.Repeat("a", 300)+"b"+strings.Repeat("q", 64)+"axb")
	want := serial.FindAll(in)
	for round := 0; round < 2; round++ {
		got, err := rs.findAllSegmented(t.Context(), in, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: exactness lost under frontier fallback: %d matches, want %d", round, len(got), len(want))
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
// of 1 MiB re-stitches a whole segment, so it records exactly one segment
// fallback and pins the group serial; a second call then stitches nothing
// and adds no fallback, and both calls count exactly what SegmentOff
// counts. A segmented scan of a small input, whose carries outlive its
// few-byte segments just the same, pins nothing and records no fallback.
// Engines are forced so the planner cannot route these small groups to the
// serial eager-DFA strategy.
func TestSegmentCarryOutlivedPins(t *testing.T) {
	patterns := []string{"a.*b", "c.*d", "e.*f"}
	small := []byte("axcxexbxdxfxaxcxex") // 18 bytes: 8 segments of 2 or 3
	// Every carry opens just before the last cut, so only the last of 8
	// segments runs live.
	in := segPinInput(8, '-', "axcxexbxdxf")
	for _, eng := range []EngineMode{EngineLazyDFA, EngineIMFAnt} {
		off := MustCompile(patterns, Options{MergeFactor: 1, Engine: eng, Segment: SegmentOff})
		rs := MustCompile(patterns, Options{MergeFactor: 1, Engine: eng, Segment: SegmentOn})
		if got, err := rs.CountParallel(small, 8); err != nil || got != off.Count(small) {
			t.Fatalf("engine %d small input: %d matches (err %v), SegmentOff %d", eng, got, err, off.Count(small))
		}
		if s := rs.Stats().Segment; s.SegmentedScans == 0 || s.Fallbacks != 0 {
			t.Fatalf("engine %d small input: %+v, want segmented scans and no fallback", eng, s)
		}
		want := off.Count(in)
		var stitch int64
		for call := 0; call < 2; call++ {
			got, err := rs.CountParallel(in, 8)
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
