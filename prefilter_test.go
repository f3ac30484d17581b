package imfant

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// pfPatterns is a ruleset whose rules all carry a literal factor, split in
// two MFSA groups by MergeFactor, with factors disjoint enough that inputs
// can wake one group and not the other.
var pfPatterns = []string{
	"GET /admin[a-z]*",    // factor "GET /admin" (or a substring ≥ 3)
	"cmd\\.exe",           // factor "cmd.exe"
	"needle(x|y)+z",       // factor "needle"
	"(foo|bar)quux[0-9]?", // factor "quux"
}

// TestPrefilterSkipsAndStats verifies that a factor-free input skips every
// fully filterable group and that the skip is visible in Stats().Prefilter
// at ruleset and scanner scope, plus the prefilter_skip trace event.
func TestPrefilterSkipsAndStats(t *testing.T) {
	rs := MustCompile(pfPatterns, Options{MergeFactor: 2, TraceCapacity: 64})
	if !rs.PrefilterActive() {
		t.Fatal("prefilter inactive")
	}
	input := bytes.Repeat([]byte("irrelevant traffic "), 50)
	s := rs.NewScanner()
	if got := s.Count(input); got != 0 {
		t.Fatalf("Count = %d on factor-free input", got)
	}

	pf := rs.Stats().Prefilter
	if pf == nil {
		t.Fatal("Stats().Prefilter is nil on a gated ruleset")
	}
	if pf.Sweeps != 1 || pf.FactorHits != 0 {
		t.Fatalf("Sweeps = %d, FactorHits = %d; want 1, 0", pf.Sweeps, pf.FactorHits)
	}
	if pf.GroupsSkipped != int64(rs.NumAutomata()) {
		t.Fatalf("GroupsSkipped = %d, want all %d groups", pf.GroupsSkipped, rs.NumAutomata())
	}
	if want := int64(rs.NumAutomata()) * int64(len(input)); pf.BytesSaved != want {
		t.Fatalf("BytesSaved = %d, want %d", pf.BytesSaved, want)
	}
	if pf.FilterableRules != len(pfPatterns) || pf.Factors == 0 {
		t.Fatalf("FilterableRules = %d, Factors = %d", pf.FilterableRules, pf.Factors)
	}

	spf := s.Stats().Prefilter
	if spf == nil || spf.GroupsSkipped != pf.GroupsSkipped {
		t.Fatalf("scanner-scope prefilter stats %+v, ruleset-scope %+v", spf, pf)
	}

	skips := 0
	for _, ev := range rs.TraceEvents() {
		if ev.Kind == "prefilter_skip" {
			skips++
			if ev.Value != int64(len(input)) {
				t.Fatalf("prefilter_skip Value = %d, want input length %d", ev.Value, len(input))
			}
		}
	}
	if skips != rs.NumAutomata() {
		t.Fatalf("recorded %d prefilter_skip events, want %d", skips, rs.NumAutomata())
	}

	// The skipped executions must not inflate the scan counters.
	if st := rs.Stats(); st.BytesScanned != 0 || st.Scans != 0 {
		t.Fatalf("skipped groups still counted work: Scans = %d, BytesScanned = %d",
			st.Scans, st.BytesScanned)
	}
}

// TestPrefilterPartialWake verifies execution-unit granularity: gated
// groups fused into one unit wake together, and an input containing only
// one unit's factors runs that unit and skips the other.
func TestPrefilterPartialWake(t *testing.T) {
	rs := MustCompile(pfPatterns, Options{MergeFactor: 2})
	input := []byte("a needlexz sails through") // factor of rule 2 only
	got := rs.FindAll(input)
	if len(got) != 1 || got[0].Rule != 2 {
		t.Fatalf("matches = %v, want exactly rule 2", got)
	}
	if len(rs.plan.units) != 1 {
		t.Fatalf("%d units, want the two gated lazy-DFA groups fused", len(rs.plan.units))
	}
	pf := rs.Stats().Prefilter
	if pf.GroupsSkipped != 0 || pf.FactorHits == 0 {
		t.Fatalf("fused unit: GroupsSkipped = %d, FactorHits = %d; want its groups woken together", pf.GroupsSkipped, pf.FactorHits)
	}

	// 35 + 35 FSAs exceed one unit's word: two units.
	var pats []string
	for _, p := range []string{"alpha", "bravo"} {
		for i := range 35 {
			pats = append(pats, fmt.Sprintf("%s%02d[a-z]*", p, i))
		}
	}
	rs = MustCompile(pats, Options{MergeFactor: 35})
	if len(rs.plan.units) != 2 || !rs.PrefilterActive() {
		t.Fatalf("%d units, prefilter active %v; want two gated units", len(rs.plan.units), rs.PrefilterActive())
	}
	if got := rs.FindAll([]byte("an alpha07q sails through")); len(got) != 1 || got[0].Rule != 7 {
		t.Fatalf("matches = %v, want exactly rule 7", got)
	}
	if pf := rs.Stats().Prefilter; pf.GroupsSkipped != 1 {
		t.Fatalf("GroupsSkipped = %d of %d groups; want the other unit's group skipped", pf.GroupsSkipped, rs.NumAutomata())
	}
}

// TestPrefilterAutoRequiresFilterableGroup verifies the auto rule: when no
// automaton is fully filterable the sweep cannot skip anything, so auto
// stays off while PrefilterOn (with grouping bias) still engages.
func TestPrefilterAutoRequiresFilterableGroup(t *testing.T) {
	mixed := []string{"needleone[a-z]*", "[ab]+", "needletwo[a-z]*", "[cd]+"}
	auto := MustCompile(mixed, Options{MergeFactor: 2})
	if auto.PrefilterActive() {
		t.Fatal("auto mode engaged although every group contains an unfilterable rule")
	}
	on := MustCompile(mixed, Options{MergeFactor: 2, Prefilter: PrefilterOn})
	if !on.PrefilterActive() {
		t.Fatal("PrefilterOn did not engage")
	}
	// Factor-aware grouping must have packed the two filterable rules into
	// one group, making it skippable on factor-free input.
	if _ = on.FindAll([]byte("zzzz")); on.Stats().Prefilter.GroupsSkipped == 0 {
		t.Fatal("PrefilterOn grouping produced no skippable group")
	}
	// And results still match the ungated compilation on a busy input.
	in := []byte("needleonex cd ab needletwoy")
	off := MustCompile(mixed, Options{MergeFactor: 2, Prefilter: PrefilterOff})
	if want, got := off.FindAll(in), on.FindAll(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("PrefilterOn matches %v, PrefilterOff %v", got, want)
	}
}

// TestPrefilterCancellation verifies context cancellation is honored inside
// the prefilter sweep path as well as the engines.
func TestPrefilterCancellation(t *testing.T) {
	rs := MustCompile(pfPatterns, Options{MergeFactor: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	input := bytes.Repeat([]byte("GET /admin "), 4096)
	if _, err := rs.FindAllContext(ctx, input); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindAllContext error = %v, want context.Canceled", err)
	}
	if _, err := rs.CountParallelContext(ctx, input, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountParallelContext error = %v, want context.Canceled", err)
	}
}

// TestPrefilterANMLRoundTrip verifies a ruleset reloaded from ANML rebuilds
// its gating plan from the serialized pattern sources.
func TestPrefilterANMLRoundTrip(t *testing.T) {
	rs := MustCompile(pfPatterns, Options{MergeFactor: 2})
	var buf bytes.Buffer
	if err := rs.WriteANML(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadANML(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.PrefilterActive() {
		t.Fatal("prefilter inactive after ANML round trip")
	}
	in := []byte("cmd.exe and fooquux")
	if want, got := rs.FindAll(in), loaded.FindAll(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded matches %v, original %v", got, want)
	}
	if loaded.Count([]byte("factor-free")) != 0 || loaded.Stats().Prefilter.GroupsSkipped == 0 {
		t.Fatal("reloaded ruleset did not gate a factor-free input")
	}
}

// TestPrefilterStreamSingleWrite pins that streams do not gate: a
// one-Write stream of factor-free input runs every unit over every byte,
// skips nothing and reports what FindAll reports, while a Scanner block scan
// of the same input still skips every gated group.
func TestPrefilterStreamSingleWrite(t *testing.T) {
	rs := MustCompile(pfPatterns, Options{MergeFactor: 2})
	input := bytes.Repeat([]byte("benign payload "), 100)
	got, sm := streamAll(t, rs, input, fixedChunks(len(input)))
	if want := rs.FindAll(input); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream matches %v, FindAll %v", got, want)
	}
	st := sm.Stats()
	if pf := st.Prefilter; pf == nil || pf.GroupsSkipped != 0 || pf.BytesSaved != 0 {
		t.Fatalf("stream prefilter stats = %+v, want nothing skipped", pf)
	}
	n := int64(rs.NumAutomata())
	if st.Scans != n || st.BytesScanned != n*int64(len(input)) {
		t.Fatalf("stream Scans %d, BytesScanned %d; want %d and %d", st.Scans, st.BytesScanned, n, n*int64(len(input)))
	}
	sc := rs.NewScanner()
	sc.Count(input)
	if pf := sc.Stats().Prefilter; pf == nil || pf.GroupsSkipped != n {
		t.Fatalf("block scan prefilter stats = %+v, want all %d groups skipped", pf, n)
	}
}

// TestPrefilterHighByteRepeatFactor pins the factor of a counted repeat of
// a byte ≥ 0x80: it must hold the byte itself, not the byte's UTF-8
// encoding, or the prefilter skips the group on input that matches.
func TestPrefilterHighByteRepeatFactor(t *testing.T) {
	patterns := []string{`ab\xca{1,3}cd`}
	input := []byte("xxab\xcacd")
	want := MustCompile(patterns, Options{Prefilter: PrefilterOff}).FindAll(input)
	if len(want) != 1 {
		t.Fatalf("PrefilterOff matches %v, want one", want)
	}
	for _, mode := range []PrefilterMode{PrefilterAuto, PrefilterOn} {
		rs := MustCompile(patterns, Options{Prefilter: mode})
		if got := rs.FindAll(input); !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: FindAll matches %v, PrefilterOff %v", mode, got, want)
		}
		if got, _ := streamAll(t, rs, input, fixedChunks(len(input))); !reflect.DeepEqual(got, want) {
			t.Fatalf("mode %v: single-Write stream matches %v, PrefilterOff %v", mode, got, want)
		}
	}
}

// TestPrefilterStreamWakeReplay pins a factor that straddles a Write
// boundary: the match starts in the first chunk, before the factor is
// complete, and the stream must still find it.
func TestPrefilterStreamWakeReplay(t *testing.T) {
	rs := MustCompile(pfPatterns, Options{MergeFactor: 2})
	// "needle" is split across the two writes; the match starts in chunk 1.
	chunks := [][]byte{[]byte("xxneed"), []byte("lexz and more")}
	var got []Match
	sm := rs.NewStreamMatcher(func(m Match) { got = append(got, m) })
	for _, c := range chunks {
		if _, err := sm.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	want := MustCompile(pfPatterns, Options{MergeFactor: 2, Prefilter: PrefilterOff}).
		FindAll(bytes.Join(chunks, nil))
	sortByEnd(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-boundary stream %v, want %v", got, want)
	}
	// Nothing may be reported skipped: every automaton ran.
	if pf := sm.Stats().Prefilter; pf == nil || pf.GroupsSkipped != 0 {
		t.Fatalf("prefilter stats = %+v, want zero skips after wake", pf)
	}
}
