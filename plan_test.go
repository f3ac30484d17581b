package imfant

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// TestStrategyPlanClassification pins the compile-time classification: each
// homogeneous ruleset lands on its fast strategy, a forced engine disables
// the planner, and Stats().Strategy reports the outcome.
func TestStrategyPlanClassification(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns []string
		want     Strategy
	}{
		{"all-literal", []string{"alpha", "beta7", "gamma"}, StrategyAC},
		{"anchored", []string{"^HDR:", "trail$"}, StrategyAnchored},
		{"anchored-exact", []string{"^PING$"}, StrategyAnchored},
		{"small-sets", []string{"a[bc]d", "x[yz]w"}, StrategyDFA},
		// Small cyclic NFAs determinize eagerly too; only a group past the
		// state bound stays on the default engine.
		{"loops", []string{"ne+dle[0-9]*x"}, StrategyDFA},
		{"large", []string{"x[0-9]{200}y"}, StrategyLazyDFA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := MustCompile(tc.patterns, Options{MergeFactor: len(tc.patterns)})
			for i, got := range rs.Strategies() {
				if got != tc.want {
					t.Fatalf("group %d classified %v, want %v", i, got, tc.want)
				}
			}
			st := rs.Stats().Strategy
			if st == nil || !st.Planned {
				t.Fatalf("Stats().Strategy = %+v, want a planned section", st)
			}
			total := 0
			for _, g := range st.Groups {
				if g.Strategy != tc.want.String() {
					t.Fatalf("strategy row %+v, want only %q", g, tc.want)
				}
				total += g.Groups
			}
			if total != rs.NumAutomata() {
				t.Fatalf("strategy rows cover %d groups, want %d", total, rs.NumAutomata())
			}
		})
	}

	// A forced engine overrides the planner wholesale.
	for _, tc := range []struct {
		opts Options
		want Strategy
	}{
		{Options{Engine: EngineIMFAnt}, StrategyIMFAnt},
		{Options{Engine: EngineLazyDFA}, StrategyLazyDFA},
	} {
		rs := MustCompile([]string{"alpha", "^HDR:"}, tc.opts)
		for i := range rs.Strategies() {
			if got := rs.StrategyOf(i); got != tc.want {
				t.Fatalf("forced %v: group %d on %v", tc.opts.Engine, i, got)
			}
		}
		if st := rs.Stats().Strategy; st == nil || st.Planned {
			t.Fatalf("forced engine: Stats().Strategy = %+v, want unplanned section", st)
		}
	}
}

// TestACGroupSingleSweepAccounting is the double-scan regression test: an
// all-literal ruleset routes to pure AC, whose scan IS the literal sweep —
// the factor prefilter must not sweep those literals a second time. One scan
// therefore reports exactly one sweep's worth of FactorHits (each occurring
// literal counted once), and no separate factor automaton is built.
func TestACGroupSingleSweepAccounting(t *testing.T) {
	rs := MustCompile([]string{"alpha", "beta7", "gamma"},
		Options{MergeFactor: 3, Prefilter: PrefilterOn})
	if got := rs.StrategyOf(0); got != StrategyAC {
		t.Fatalf("group classified %v, want ac", got)
	}
	// No gatable group remains, so no factor sweep may exist — gating the AC
	// group would scan the same literals twice.
	if rs.PrefilterActive() {
		t.Fatal("factor sweep built over an all-AC ruleset (double literal scan)")
	}
	input := []byte("xx alpha yy beta7 zz alpha ww")
	sc := rs.NewScanner()
	if _, err := sc.FindAllContext(t.Context(), input); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.Prefilter == nil {
		t.Fatal("no prefilter section although AC literal gating is live")
	}
	// One sweep's worth: "alpha" and "beta7" occurred — 2 distinct hits, not
	// 4 (which a second factor sweep over the same literals would produce).
	if st.Prefilter.Sweeps != 1 || st.Prefilter.FactorHits != 2 {
		t.Fatalf("Sweeps = %d, FactorHits = %d, want 1 sweep with 2 hits",
			st.Prefilter.Sweeps, st.Prefilter.FactorHits)
	}
	if rst := rs.Stats().Prefilter; rst == nil || rst.FactorHits != 2 {
		t.Fatalf("ruleset-scope FactorHits = %+v, want 2", rst)
	}

	// Mixed ruleset: the AC group is not gated; the one literal pass gates
	// only the loop-carrying group.
	mixed := MustCompile([]string{"alpha", "beta7", "needleman[0-9]*x"},
		Options{MergeFactor: 2, Prefilter: PrefilterOn})
	if !mixed.PrefilterActive() {
		t.Fatal("factor sweep missing for the gatable group")
	}
	for _, f := range mixed.PrefilterFactors() {
		if f == "alpha" || f == "beta7" {
			t.Fatalf("AC-routed literal %q also registered as a sweep factor", f)
		}
	}
	sc2 := mixed.NewScanner()
	if _, err := sc2.FindAllContext(t.Context(), input); err != nil {
		t.Fatal(err)
	}
	st2 := sc2.Stats()
	// One literal pass, which both runs the AC group and gates the other,
	// and 2 distinct hits: the AC literals, "needleman" absent.
	if st2.Prefilter.Sweeps != 1 || st2.Prefilter.FactorHits != 2 {
		t.Fatalf("mixed: Sweeps = %d, FactorHits = %d, want 1 and 2",
			st2.Prefilter.Sweeps, st2.Prefilter.FactorHits)
	}
	if st2.Prefilter.GroupsSkipped != 1 {
		t.Fatalf("mixed: GroupsSkipped = %d, want the gated group skipped", st2.Prefilter.GroupsSkipped)
	}
}

// TestScanTimeoutChargesQueueWait pins the accounting fix in the degradation
// ladder: the ScanTimeout budget is anchored before the scan gate is
// entered, so time spent queued for a slot counts against the same deadline
// and a saturated gate cannot stretch total latency past the budget. The
// queued waiter must fail with ErrScanTimeout well before the slot holder
// releases.
func TestScanTimeoutChargesQueueWait(t *testing.T) {
	checkNoGoroutineLeak(t)
	const stall = 400 * time.Millisecond
	rs := MustCompile([]string{"ab", "cd"}, Options{
		MergeFactor: 1, Engine: EngineIMFAnt,
		MaxConcurrentScans: 1, MaxQueuedScans: 2,
		ScanTimeout: 50 * time.Millisecond,
	})
	rs.setFaultInjector(faultpoint.New(faultpoint.Every(faultpoint.ChunkStall, 1)).
		WithStall(stall))
	input := bytes.Repeat([]byte("abcd"), 4096)
	holder := make(chan error, 1)
	go func() {
		_, err := rs.CountParallel(input, 2)
		holder <- err
	}()
	for i := 0; len(rs.sched.slots) == 0 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(rs.sched.slots) == 0 {
		t.Fatal("slot holder never acquired its slot")
	}
	t0 := time.Now()
	_, err := rs.CountParallel(input, 2)
	waited := time.Since(t0)
	if !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("queued scan = %v, want ErrScanTimeout charged against the queue wait", err)
	}
	// The holder stalls for 400ms; a timeout observed well before that can
	// only have fired while still queued — the pre-fix behaviour armed the
	// budget after acquiring the slot, so the waiter would have sat the full
	// stall out.
	if waited >= stall {
		t.Fatalf("queued scan waited %v, at least the holder's full %v stall — queue wait was not charged", waited, stall)
	}
	if err := <-holder; err != nil && !errors.Is(err, ErrScanTimeout) {
		t.Fatalf("slot holder failed oddly: %v", err)
	}
	if got := rs.Stats().Degraded.ScanTimeouts; got < 1 {
		t.Fatalf("Degraded.ScanTimeouts = %d, want >= 1", got)
	}
}

// TestPrefilterTrackerDisablesIneffectiveSweep drives the runtime
// effectiveness tracker end to end through Stats().Strategy: a gated group
// whose factor occurs in every input wakes on every sweep, so the tracker
// disables its gate after a window; with every gated group disabled the
// sweep itself is elided; a probe sweep on factor-free traffic re-enables
// the gate and gating saves work again.
func TestPrefilterTrackerDisablesIneffectiveSweep(t *testing.T) {
	rs := MustCompile([]string{"needleman[0-9]*x"}, Options{Prefilter: PrefilterOn})
	if !rs.PrefilterActive() {
		t.Fatal("prefilter did not engage")
	}
	sc := rs.NewScanner()
	hot := bytes.Repeat([]byte("stuff needleman7x more "), 8)
	cold := bytes.Repeat([]byte("nothing of note here "), 8)

	// Phase 1: the factor occurs in every input — 100% wake rate. After one
	// tracker window the gate must be off.
	for i := 0; i < trackerWindow; i++ {
		if _, err := sc.FindAllContext(t.Context(), hot); err != nil {
			t.Fatal(err)
		}
	}
	st := rs.Stats().Strategy
	if st == nil || st.GroupsUngated != 1 {
		t.Fatalf("after %d all-wake sweeps: Strategy = %+v, want GroupsUngated 1",
			trackerWindow, st)
	}

	// Phase 2: every gated group is disabled, so the sweep is elided.
	for i := 0; i < 5; i++ {
		if _, err := sc.FindAllContext(t.Context(), hot); err != nil {
			t.Fatal(err)
		}
	}
	st = rs.Stats().Strategy
	if st.SweepsDisabled < 5 {
		t.Fatalf("SweepsDisabled = %d, want >= 5 elided sweeps", st.SweepsDisabled)
	}

	// Phase 3: keep scanning factor-free traffic until a probe sweep fires;
	// it observes the group would not wake and re-enables its gate.
	for i := 0; i < 2*trackerProbeEvery; i++ {
		if _, err := sc.FindAllContext(t.Context(), cold); err != nil {
			t.Fatal(err)
		}
	}
	st = rs.Stats().Strategy
	if st.SweepProbes < 1 {
		t.Fatalf("SweepProbes = %d, want at least one probe", st.SweepProbes)
	}
	if st.GroupsUngated != 0 {
		t.Fatalf("GroupsUngated = %d after factor-free probes, want re-enabled (0)", st.GroupsUngated)
	}

	// Phase 4: with the gate back on, factor-free traffic is skipped again.
	before := rs.Stats().Prefilter.GroupsSkipped
	if _, err := sc.FindAllContext(t.Context(), cold); err != nil {
		t.Fatal(err)
	}
	if after := rs.Stats().Prefilter.GroupsSkipped; after <= before {
		t.Fatalf("GroupsSkipped %d -> %d; re-enabled gate saved nothing", before, after)
	}

	// Throughout: matching stayed exact.
	if got := sc.Count(hot); got != 8 {
		t.Fatalf("Count(hot) = %d, want 8 regardless of tracker state", got)
	}
}

// TestDeliveringPassKeepsGates pins that a ruleset whose literal pass
// delivers AC literals has no effectiveness tracker: the pass runs every
// scan anyway, so a gated group whose factor occurs in every input keeps its
// gate however long it wakes, and factor-free input still skips it.
func TestDeliveringPassKeepsGates(t *testing.T) {
	rs := MustCompile([]string{"needleman[0-9]*x", "alpha"}, Options{MergeFactor: 1, Prefilter: PrefilterOn})
	if want := []Strategy{StrategyDFA, StrategyAC}; !slices.Equal(rs.Strategies(), want) || !rs.PrefilterActive() {
		t.Fatalf("strategies %v (prefilter %v), want %v with the DFA group gated", rs.Strategies(), rs.PrefilterActive(), want)
	}
	sc := rs.NewScanner()
	hot := bytes.Repeat([]byte("stuff needleman7x alpha "), 8)
	cold := bytes.Repeat([]byte("nothing of note here "), 8)
	for range 2 * trackerWindow {
		if n, err := sc.CountContext(t.Context(), hot); err != nil || n != 16 {
			t.Fatalf("Count(hot) = %d (err %v), want 16", n, err)
		}
	}
	st := rs.Stats()
	if s := st.Strategy; s.GroupsUngated != 0 || s.SweepsDisabled != 0 || s.SweepProbes != 0 {
		t.Fatalf("after %d all-wake scans: Strategy = %+v, want the gate kept", 2*trackerWindow, s)
	}
	before := st.Prefilter.GroupsSkipped
	if n := sc.Count(cold); n != 0 {
		t.Fatalf("Count(cold) = %d, want 0", n)
	}
	if after := rs.Stats().Prefilter.GroupsSkipped; after != before+1 {
		t.Fatalf("GroupsSkipped %d -> %d on factor-free input, want the gated group skipped", before, after)
	}
}

// TestLiteralPassAttribution pins the fused literal pass: three AC groups
// that share and overlap literals (a duplicate across groups, a suffix of
// another literal, a literal inside another) compile to one Aho–Corasick
// matcher, and every entry point attributes each hit to its owning group
// and rule — in the match events, the trace, the per-rule hits and the
// per-strategy bytes, which count every AC group's scan of the input.
func TestLiteralPassAttribution(t *testing.T) {
	patterns := []string{"needle", "cab", "eedle", "needle", "ab", "cab", "a[bc]+d", "x.{2,5}y"}
	rs := MustCompile(patterns, Options{MergeFactor: 2, TraceCapacity: 1 << 12})
	wantStrat := []Strategy{StrategyAC, StrategyAC, StrategyAC, StrategyDFA}
	if got := rs.Strategies(); !slices.Equal(got, wantStrat) {
		t.Fatalf("strategies %v, want %v", got, wantStrat)
	}
	lp := rs.plan.lit
	if lp == nil || !slices.Equal(lp.units, []int{0, 1, 2}) || lp.m.NumPatterns() != 4 {
		t.Fatalf("literal pass %+v, want one matcher over 4 distinct literals for groups 0-2", lp)
	}
	if rs.PrefilterActive() {
		t.Fatal("factor sweep built although no gatable group carries a factor")
	}
	owner := make(map[int]int) // rule id → automaton
	for i := range rs.NumAutomata() {
		for _, ri := range rs.programs[i].Rules() {
			owner[ri.RuleID] = i
		}
	}

	input := []byte("needle cab-abcab xneedlez abbd needle")
	want := MustCompile(patterns, Options{Engine: EngineIMFAnt, Prefilter: PrefilterOff,
		Accel: AccelOff, Segment: SegmentOff}).FindAll(input)
	perRule := make([]int64, len(patterns))
	for _, m := range want {
		perRule[m.Rule]++
	}
	if slices.Contains(perRule[:6], 0) {
		t.Fatalf("reference per-rule counts %v: the input misses a literal", perRule)
	}

	sc := rs.NewScanner()
	if got, err := sc.FindAllContext(t.Context(), input); err != nil || !slices.Equal(got, want) {
		t.Fatalf("Scanner.FindAllContext = %v (err %v), want %v", got, err, want)
	}
	if got := rs.CountPerRule(input); !slices.Equal(got, perRule) {
		t.Fatalf("CountPerRule = %v, want %v", got, perRule)
	}
	for _, threads := range []int{1, 2, 4} {
		if n, err := rs.CountParallel(input, threads); err != nil || n != int64(len(want)) {
			t.Fatalf("CountParallel(%d) = %d (err %v), want %d", threads, n, err, len(want))
		}
	}
	const blockScans = 5 // FindAllContext, CountPerRule, CountParallel × 3

	// Each match trace event names the automaton that owns its rule, and
	// the events are exactly the matches of every block scan.
	var traced []Match
	for _, ev := range rs.TraceEvents() {
		if ev.Kind != "match" {
			continue
		}
		if owner[ev.Rule] != ev.Automaton {
			t.Fatalf("match event %+v attributed to automaton %d, rule %d belongs to %d",
				ev, ev.Automaton, ev.Rule, owner[ev.Rule])
		}
		traced = append(traced, Match{Rule: ev.Rule, Pattern: patterns[ev.Rule], End: int(ev.Offset)})
	}
	sortByEnd(traced)
	var wantTraced []Match
	for _, m := range want {
		for range blockScans {
			wantTraced = append(wantTraced, m)
		}
	}
	if !slices.Equal(traced, wantTraced) {
		t.Fatalf("traced matches %v, want each of %v %d times", traced, want, blockScans)
	}

	// Every AC group scanned the whole input once per block scan, and the
	// per-rule hits count each group's rules.
	st := rs.Stats()
	for _, g := range st.Strategy.Groups {
		if g.Strategy == "ac" && (g.Groups != 3 || g.Bytes != int64(3*len(input)*blockScans)) {
			t.Fatalf("ac row %+v, want 3 groups and %d bytes", g, 3*len(input)*blockScans)
		}
	}
	for r, n := range st.RuleHits {
		if n != perRule[r]*blockScans {
			t.Fatalf("rule %d hits %d, want %d", r, n, perRule[r]*blockScans)
		}
	}
	// One literal pass per block scan is one sweep; its hits are the four
	// distinct literals, each seen.
	if pf := st.Prefilter; pf == nil || pf.Sweeps != blockScans || pf.FactorHits != 4*blockScans {
		t.Fatalf("prefilter section %+v, want %d sweeps with 4 hits each", st.Prefilter, blockScans)
	}

	for _, parts := range []int{2, 3, 8} {
		if got, err := rs.findAllSegmented(t.Context(), input, parts); err != nil || !slices.Equal(got, want) {
			t.Fatalf("findAllSegmented(%d) = %v (err %v), want %v", parts, got, err, want)
		}
	}
	for r, n := range rs.Stats().RuleHits {
		if n != perRule[r]*(blockScans+3) {
			t.Fatalf("after segmented scans: rule %d hits %d, want %d", r, n, perRule[r]*(blockScans+3))
		}
	}
	if got, _ := streamAll(t, rs, input, randomChunks(rand.New(rand.NewSource(1)))); !slices.Equal(got, want) {
		t.Fatalf("StreamMatcher = %v, want %v", got, want)
	}
}

// countMatchers collects the addresses of the Aho–Corasick matchers
// reachable from v.
func countMatchers(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type() == reflect.TypeFor[*ahocorasick.Matcher]() {
			seen[v.Pointer()] = true
			return
		}
		countMatchers(v.Elem(), seen)
	case reflect.Struct:
		for i := range v.NumField() {
			countMatchers(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Struct || k == reflect.Slice {
			for i := range v.Len() {
				countMatchers(v.Index(i), seen)
			}
		}
	}
}

// TestOneLiteralPass pins the one literal pass per scan: the AC groups'
// literals and the gating factors share one Aho–Corasick matcher whose
// patterns carry owner lists (AC members) and wake lists (gated groups).
// The ruleset has an AC literal that is also a gated group's factor
// ("needle"), a factor that is a suffix of an AC literal ("stack" of
// "haystack") and an AC literal that is a suffix of a factor ("cone" of
// "pinecone"). Every entry point gates and attributes exactly like a
// forced-iMFAnt, PrefilterOff reference, and every block scan runs one
// pass.
func TestOneLiteralPass(t *testing.T) {
	patterns := []string{"needle", "haystack", "cone", `needle[0-9]+x`, `stack[0-9]+y`, `pinecone[a-z]+z`}
	rs := MustCompile(patterns, Options{MergeFactor: 1})
	want := []Strategy{StrategyAC, StrategyAC, StrategyAC, StrategyDFA, StrategyDFA, StrategyDFA}
	if got := rs.Strategies(); !slices.Equal(got, want) {
		t.Fatalf("strategies %v, want %v", got, want)
	}
	if !rs.PrefilterActive() {
		t.Fatal("the DFA groups are not gated")
	}
	seen := make(map[uintptr]bool)
	countMatchers(reflect.ValueOf(rs.plan), seen)
	countMatchers(reflect.ValueOf(rs.pf), seen)
	lp := rs.plan.lit
	if len(seen) != 1 || lp == nil || !seen[reflect.ValueOf(lp.m).Pointer()] {
		t.Fatalf("%d Aho–Corasick matchers in the plan, want the literal pass's one", len(seen))
	}
	// Each string is one pattern, delivered iff it has owners, waking the
	// groups whose factor it is: the pattern a scan of the string reports at
	// its last byte that a scan of its tail does not.
	endingAt := func(s string) map[int]bool {
		ids := make(map[int]bool)
		lp.m.Scan([]byte(s), func(p, end int) { ids[p] = ids[p] || end == len(s)-1 })
		return ids
	}
	for s, want := range map[string][2]int{ // owners, wakes
		"needle": {1, 1}, "haystack": {1, 0}, "cone": {1, 0}, "stack": {0, 1}, "pinecone": {0, 1},
	} {
		k := -1
		tail := endingAt(s[1:])
		for p, last := range endingAt(s) {
			if last && !tail[p] {
				k = p
			}
		}
		if k < 0 || len(lp.owners[k]) != want[0] || len(lp.wakes[k]) != want[1] || lp.deliver[k] != (want[0] > 0) {
			t.Fatalf("%q: pattern %d, want %d owners and %d wakes, delivered iff owned", s, k, want[0], want[1])
		}
		if slices.Contains(rs.PrefilterFactors(), s) != (want[1] > 0) {
			t.Fatalf("%q: PrefilterFactors %q", s, rs.PrefilterFactors())
		}
	}
	if lp.m.NumPatterns() != 5 {
		t.Fatalf("%d patterns in the pass, want 5", lp.m.NumPatterns())
	}

	ref := MustCompile(patterns, Options{Engine: EngineIMFAnt, Prefilter: PrefilterOff,
		Accel: AccelOff, Segment: SegmentOff})
	// The waking inputs come last: a gate that wakes on every scan of a
	// tracker window is disabled (see prefTracker).
	inputs := []struct {
		in      string
		skipped int64 // gated groups the pass leaves asleep
	}{
		{"cone cone cone", 3},
		{"", 3},
		{"needle42x haystack7y pineconeabz needle", 0},
		{"a cone, a haystack and a needle", 1}, // wakes needle's and stack's groups
	}
	blockScans := int64(0)
	for _, c := range inputs {
		in := []byte(c.in)
		wantM := ref.FindAll(in)
		perRule := ref.CountPerRule(in)
		before := rs.Stats().Prefilter.GroupsSkipped
		sc := rs.NewScanner()
		if got, err := sc.FindAllContext(t.Context(), in); err != nil || !slices.Equal(got, wantM) {
			t.Fatalf("%q: Scanner.FindAllContext = %v (err %v), want %v", c.in, got, err, wantM)
		}
		if got := sc.Stats().RuleHits; !slices.Equal(got, perRule) {
			t.Fatalf("%q: Scanner rule hits %v, want %v", c.in, got, perRule)
		}
		if got := rs.Stats().Prefilter.GroupsSkipped - before; got != c.skipped {
			t.Fatalf("%q: the pass skipped %d gated groups, want %d", c.in, got, c.skipped)
		}
		if got := rs.Count(in); got != int64(len(wantM)) {
			t.Fatalf("%q: Count = %d, want %d", c.in, got, len(wantM))
		}
		if got := rs.CountPerRule(in); !slices.Equal(got, perRule) {
			t.Fatalf("%q: CountPerRule = %v, want %v", c.in, got, perRule)
		}
		for _, threads := range []int{1, 2, 4} {
			if n, err := rs.CountParallel(in, threads); err != nil || n != int64(len(wantM)) {
				t.Fatalf("%q: CountParallel(%d) = %d (err %v), want %d", c.in, threads, n, err, len(wantM))
			}
		}
		blockScans += 6
		if len(in) >= 8 {
			for _, parts := range []int{2, 3, 8} {
				if got, err := rs.findAllSegmented(t.Context(), in, parts); err != nil || !slices.Equal(got, wantM) {
					t.Fatalf("%q: findAllSegmented(%d) = %v (err %v), want %v", c.in, parts, got, err, wantM)
				}
			}
			blockScans += 3
		}
		if pf := rs.Stats().Prefilter; pf.Sweeps != blockScans {
			t.Fatalf("%q: Sweeps = %d after %d block scans, want one pass each", c.in, pf.Sweeps, blockScans)
		}
		if got, _ := streamAll(t, ref, in, fixedChunks(max(len(in), 1))); !slices.Equal(got, wantM) {
			t.Fatalf("%q: reference stream %v, want %v", c.in, got, wantM)
		}
		for _, chunk := range []int{max(len(in), 1), 3} {
			if got, _ := streamAll(t, rs, in, fixedChunks(chunk)); !slices.Equal(got, wantM) {
				t.Fatalf("%q: StreamMatcher in %d-byte writes = %v, want %v", c.in, chunk, got, wantM)
			}
		}
		blockScans += 2 // each stream is one pass too
	}

	// Without AC literals the pass only gates, and ends once every factor
	// has been seen.
	gates := MustCompile(patterns[3:], Options{MergeFactor: 1})
	if gates.plan.lit.delivers() {
		t.Fatal("a ruleset without AC groups delivers literals")
	}
	x := newLitRunner(gates.plan.lit, true)
	x.begin(nil, nil, nil)
	long := append([]byte("needle stack pinecone "), bytes.Repeat([]byte("-"), 3*engine.DefaultCheckpointEvery)...)
	x.feed(long)
	if x.bytes >= int64(len(long)) || !x.pass.Done() {
		t.Fatalf("the gating-only pass scanned %d of %d bytes after seeing every factor", x.bytes, len(long))
	}
}

// TestFusedLazyUnits pins the planner's execution units and their
// attribution back to the member groups. The ruleset interleaves gated and
// always-run lazy-DFA groups, more gated FSAs than one unit's word holds,
// and one always-run group with a dot-star state (`a.*b`): units fuse
// within a gating class up to 64 FSAs, and the dot-star group runs alone.
// Every entry point must then report what a forced-iMFAnt, unfiltered
// compilation reports, trace each match under the group owning its rule,
// and keep the strategy bytes summing to BytesScanned.
func TestFusedLazyUnits(t *testing.T) {
	var pats []string
	add := func(n int, format string) {
		for i := range n {
			pats = append(pats, fmt.Sprintf(format, i))
		}
	}
	add(72, "g%02d[a-e]+") // groups 0-8: gated on "gNN"
	add(8, "[xy]%d[0-9]+") // group 9: always-run
	pats = append(pats, "a.*b")
	add(7, "[pq]%d[a-c]+") // group 10: always-run, with a dot-star state
	add(8, "[mn]%d[0-9]+") // group 11: always-run
	add(8, "h%02d[a-e]+")  // group 12: gated on "hNN"
	opts := Options{MergeFactor: 8, TraceCapacity: 1 << 16}
	rs := MustCompile(pats, opts)
	for i, st := range rs.Strategies() {
		if st != StrategyLazyDFA {
			t.Fatalf("group %d planned %v, want every group on the lazy DFA", i, st)
		}
	}
	var units [][]int
	for _, x := range rs.plan.units {
		units = append(units, x.groups)
		if x.prog.NumFSAs() > maxUnitFSAs || x.prog.Words() != 1 {
			t.Fatalf("unit %v holds %d FSAs in %d words", x.groups, x.prog.NumFSAs(), x.prog.Words())
		}
	}
	wantUnits := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 12}, {9, 11}, {10}}
	if !reflect.DeepEqual(units, wantUnits) {
		t.Fatalf("units %v, want %v", units, wantUnits)
	}
	groupOf := make([]int, len(pats)) // rule id → automaton
	for i := range rs.NumAutomata() {
		for _, ri := range rs.programs[i].Rules() {
			groupOf[ri.RuleID] = i
		}
	}

	frags := []string{"g07abc", "g70e", "g33ddd", "h03dd", "h05a", "x3 99", "y512", "a..zb", "azzb",
		"p2cab", "q6a", "n09", "m7 0", "zz", " ", "b", "a"}
	r := rand.New(rand.NewSource(25))
	gen := func(keep func(string) bool) []byte {
		var b []byte
		for len(b) < 600 {
			if f := frags[r.Intn(len(frags))]; keep(f) {
				b = append(b, f...)
			}
		}
		return b
	}
	inputs := [][]byte{
		gen(func(string) bool { return true }),                                         // wakes both gated units
		gen(func(f string) bool { return f[0] != 'g' && f[0] != 'h' }),                 // wakes none
		gen(func(f string) bool { return f[0] != 'g' && f[0] != 'h' || f == "h03dd" }), // wakes {8, 12}
	}
	ref := MustCompile(pats, Options{MergeFactor: 8, Engine: EngineIMFAnt, Prefilter: PrefilterOff})
	sc := rs.NewScanner()
	scHits := make([]int64, len(pats))
	ctx := t.Context()
	for k, in := range inputs {
		want := ref.FindAll(in)
		perRule := make([]int64, len(pats))
		for _, m := range want {
			perRule[m.Rule]++
		}
		fail := func(what string, got any) {
			t.Helper()
			t.Fatalf("input %d: %s:\ngot  %v\nwant %v", k, what, got, want)
		}
		if got, err := sc.FindAllContext(ctx, in); err != nil || !slices.Equal(got, want) {
			fail(fmt.Sprintf("Scanner (err %v)", err), got)
		}
		for r, n := range perRule {
			scHits[r] += n
		}
		if got := sc.Stats().RuleHits; !slices.Equal(got, scHits) {
			fail("Scanner rule hits", got)
		}
		if n := rs.Count(in); n != int64(len(want)) {
			fail("Count", n)
		}
		if got := rs.CountPerRule(in); !slices.Equal(got, perRule) {
			fail("CountPerRule", got)
		}
		for _, threads := range []int{1, 2, 4} {
			if n, err := rs.CountParallel(in, threads); err != nil || n != int64(len(want)) {
				fail(fmt.Sprintf("CountParallel(%d) (err %v)", threads, err), n)
			}
		}
		for _, parts := range []int{2, 3, 8} {
			if got, err := rs.findAllSegmented(ctx, in, parts); err != nil || !slices.Equal(got, want) {
				fail(fmt.Sprintf("findAllSegmented(%d) (err %v)", parts, err), got)
			}
		}
		for _, n := range []int{1, 3} {
			if got, _ := streamAll(t, rs, in, fixedChunks(n)); !slices.Equal(got, want) {
				fail(fmt.Sprintf("%d-byte stream writes", n), got)
			}
		}
	}

	// Every match event names the group owning its rule, and fused
	// members other than a unit's first report their own events.
	byGroup := make(map[int]int)
	for _, ev := range rs.TraceEvents() {
		if ev.Kind != "match" {
			continue
		}
		if ev.Automaton != groupOf[ev.Rule] {
			t.Fatalf("match event %+v under automaton %d, rule %d belongs to %d",
				ev, ev.Automaton, ev.Rule, groupOf[ev.Rule])
		}
		byGroup[ev.Automaton]++
	}
	if byGroup[12] == 0 || byGroup[11] == 0 || byGroup[4] == 0 {
		t.Fatalf("match events per group %v: a fused member's events are missing", byGroup)
	}
	for _, st := range []Stats{rs.Stats(), sc.Stats()} {
		var strat int64
		for _, g := range st.Strategy.Groups {
			strat += g.Bytes
		}
		if strat != st.BytesScanned || st.BytesScanned == 0 {
			t.Fatalf("strategy bytes %d, BytesScanned %d", strat, st.BytesScanned)
		}
	}
}

// TestChainStrategy pins the chain strategy: dot-star literal chains over
// `.` and `[^\r\n]`, alone and beside plain literals, plan onto the one
// literal pass, whose pattern "needle" is at once a chain piece, an AC
// literal and a gating factor. Every entry point must report exactly the
// events of the forced iMFAnt reference under both semantics, on inputs
// with overlapping pieces (`ab.*ba` on "aba" and "abba"), repeated pieces
// (`ab.*ab`), kill bytes between phases, pieces and kill bytes split across
// stream Writes and across the pass's checkpoint blocks, and segment bounds
// that fall inside a piece and between phases.
func TestChainStrategy(t *testing.T) {
	patterns := []string{
		`ab.*ba`, `ab.*ab`, // overlapping and repeated pieces
		`cab.*needle.*xy`, "needle", // a 3-piece chain beside a literal that is also its piece
		`cab[^\r\n]*xy`, "xy", // two kill bytes
		`needle[0-9]*x`, // gated on "needle"
	}
	frags := []string{"ab", "ba", "aba", "abba", "cab", "needle", "needle42x", "xy", "\n", "\r", "\r\n", " ", "-", "x", "e"}
	r := rand.New(rand.NewSource(27))
	inputs := [][]byte{nil, []byte("aba"), []byte("abba"), []byte("ababab"), []byte("ab\nba abab"),
		[]byte("cab needle xy"), []byte("cab\nneedle xy cab needle\nxy"), []byte("cab\rxy cab\nxy cabxy")}
	for range 40 {
		var b []byte
		for n := r.Intn(48); len(b) < n; {
			b = append(b, frags[r.Intn(len(frags))]...)
		}
		inputs = append(inputs, b)
	}
	// Shifted copies move the segment bounds across pieces and gaps.
	line := "cab needle ab\nba xy abba cab\r\nxy needle7x cab ab needle xy"
	for shift := range 12 {
		inputs = append(inputs, []byte(strings.Repeat("-", shift)+line))
	}
	// Pieces, gaps and kill bytes across the pass's checkpoint blocks.
	const block = engine.DefaultCheckpointEvery
	big := []byte(strings.Repeat("-", 3*block))
	for at, s := range map[int]string{100: "cab", block - 3: "needle", 2*block - 1: "xy",
		block + 50: "ab", block + 60: "\n", 2*block + 100: "ba", 2*block + 200: "ab", 2*block + 300: "ba",
		3*block - 40: "cab", 3*block - 30: "\r", 3*block - 20: "cab", 3*block - 3: "xy"} {
		copy(big[at:], s)
	}
	inputs = append(inputs, big)

	for _, keep := range []bool{false, true} {
		opts := Options{MergeFactor: 2, KeepOnMatch: keep}
		rs := MustCompile(patterns, opts)
		wantStrat := []Strategy{StrategyChain, StrategyChain, StrategyChain, StrategyDFA}
		if got := rs.Strategies(); !slices.Equal(got, wantStrat) {
			t.Fatalf("strategies %v, want %v", got, wantStrat)
		}
		lp := rs.plan.lit
		shared := false
		for k := range lp.owners {
			shared = shared || len(lp.owners[k]) > 0 && len(lp.links[k]) > 0 && len(lp.wakes[k]) > 0
		}
		if !rs.PrefilterActive() || !shared {
			t.Fatal("no pattern of the literal pass is at once a piece, an AC literal and a gating factor")
		}
		ref := MustCompile(patterns, Options{MergeFactor: 2, KeepOnMatch: keep, Engine: EngineIMFAnt,
			Prefilter: PrefilterOff})
		sc := rs.NewScanner()
		hits := make([]int64, len(patterns))
		total := make([]int64, len(patterns))
		ctx := t.Context()
		for k, in := range inputs {
			want := ref.FindAll(in)
			perRule := make([]int64, len(patterns))
			for _, m := range want {
				perRule[m.Rule]++
			}
			fail := func(what string, got any) {
				t.Helper()
				t.Fatalf("keep=%v input %d %.60q: %s:\ngot  %v\nwant %v", keep, k, in, what, got, want)
			}
			if got, err := sc.FindAllContext(ctx, in); err != nil || !slices.Equal(got, want) {
				fail(fmt.Sprintf("Scanner (err %v)", err), got)
			}
			for r, n := range perRule {
				hits[r] += n
				total[r] += n
			}
			if got := sc.Stats().RuleHits; !slices.Equal(got, hits) {
				fail("Scanner rule hits", got)
			}
			if n := rs.Count(in); n != int64(len(want)) {
				fail("Count", n)
			}
			if got := rs.CountPerRule(in); !slices.Equal(got, perRule) {
				fail("CountPerRule", got)
			}
			for _, threads := range []int{1, 2, 4} {
				if n, err := rs.CountParallel(in, threads); err != nil || n != int64(len(want)) {
					fail(fmt.Sprintf("CountParallel(%d) (err %v)", threads, err), n)
				}
			}
			for _, parts := range []int{2, 3, 8} {
				if got, err := rs.findAllSegmented(ctx, in, parts); err != nil || !slices.Equal(got, want) {
					fail(fmt.Sprintf("findAllSegmented(%d) (err %v)", parts, err), got)
				}
			}
			for _, n := range []int{1, 3} {
				if got, _ := streamAll(t, rs, in, fixedChunks(n)); !slices.Equal(got, want) {
					fail(fmt.Sprintf("%d-byte stream writes", n), got)
				}
			}
		}
		if slices.Contains(total, 0) {
			t.Fatalf("keep=%v: reference events per rule %v: a rule never matched", keep, total)
		}
		st := rs.Stats()
		var strat int64
		for _, g := range st.Strategy.Groups {
			strat += g.Bytes
			if g.Strategy == "chain" && g.Groups != 3 {
				t.Fatalf("chain row %+v, want 3 groups", g)
			}
		}
		if strat != st.BytesScanned || st.Lazy != nil {
			t.Fatalf("strategy bytes %d, BytesScanned %d, Lazy section %+v", strat, st.BytesScanned, st.Lazy)
		}
	}

	// The Dotstar09 rules are all chains: at M=10 every group runs in the
	// literal pass, with no lazy-DFA table and no segment stitch; the stats
	// and metric families name the strategy, and the pass is timed as
	// strategy_ac.
	spec, _ := dataset.ByAbbr("DS9")
	pats := spec.Patterns()
	rs := MustCompile(pats, Options{MergeFactor: 10, Latency: true})
	for i, st := range rs.Strategies() {
		if st != StrategyChain {
			t.Fatalf("DS9 group %d planned %v, want chain", i, st)
		}
	}
	in := spec.Stream(64<<10, 0)
	want := MustCompile(pats, Options{MergeFactor: 10, Engine: EngineLazyDFA, Prefilter: PrefilterOff}).FindAll(in)
	if got := rs.FindAll(in); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("DS9: %d events, lazy-DFA reference %d", len(got), len(want))
	}
	if got, err := rs.findAllSegmented(t.Context(), in, 2); err != nil || !slices.Equal(got, want) {
		t.Fatalf("DS9 segmented: %d events (err %v), lazy-DFA reference %d", len(got), err, len(want))
	}
	st := rs.Stats()
	if st.Lazy != nil || st.Segment.Fallbacks != 0 {
		t.Fatalf("DS9: Lazy section %+v, segment fallbacks %d, want neither", st.Lazy, st.Segment.Fallbacks)
	}
	if g := st.Strategy.Groups; len(g) != 1 || g[0].Strategy != "chain" || g[0].Bytes != st.BytesScanned {
		t.Fatalf("DS9 strategy rows %+v, want one chain row of all %d bytes", g, st.BytesScanned)
	}
	if !slices.ContainsFunc(st.Latency.Stages, func(s StageLatency) bool { return s.Stage == "strategy_ac" }) {
		t.Fatalf("DS9 latency stages %+v, want strategy_ac for the pass", st.Latency.Stages)
	}
	var text strings.Builder
	if err := obs.Write(&text, obs.StatsFamilies(st, nil)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `imfant_strategy_groups{strategy="chain"} 30`) {
		t.Fatalf("metrics carry no chain strategy row:\n%s", text.String())
	}
}

// TestChainKillDenseLinear pins the cost of kill bytes on input dense with
// one kill byte and free of the other: a chain over [^\r\n] must scan 256
// KiB of \r followed by its pieces about as fast as a chain over [^\r],
// whose one kill byte is the same \r, on the block path and on the
// segmented one, whose replay runs from offset 0 to the first piece hit in
// one go. Each kill byte is a one-byte pattern of the literal pass, so a
// kill is one store whatever its set. A search that looked for both kill
// bytes at once and resumed after each \r would rescan the rest of the
// input for the absent \n every time, which is quadratic.
func TestChainKillDenseLinear(t *testing.T) {
	in := append(bytes.Repeat([]byte{'\r'}, 256<<10), "needle cab"...)
	both := MustCompile([]string{`needle[^\r\n]*cab`}, Options{})
	one := MustCompile([]string{`needle[^\r]*cab`}, Options{})
	for _, rs := range []*Ruleset{both, one} {
		if got := rs.Strategies(); !slices.Equal(got, []Strategy{StrategyChain}) {
			t.Fatalf("strategies %v, want one chain group", got)
		}
	}
	ctx := t.Context()
	for _, path := range []struct {
		name string
		run  func(rs *Ruleset) int
	}{
		{"block", func(rs *Ruleset) int { return int(rs.Count(in)) }},
		{"segmented", func(rs *Ruleset) int {
			ms, err := rs.findAllSegmented(ctx, in, 2)
			if err != nil {
				t.Fatal(err)
			}
			return len(ms)
		}},
	} {
		// The fastest of a few alternating runs each, so a stall of the
		// machine does not decide the ratio.
		best := [2]time.Duration{time.Hour, time.Hour}
		for range 5 {
			for k, rs := range []*Ruleset{both, one} {
				t0 := time.Now()
				if n := path.run(rs); n != 1 {
					t.Fatalf("%s: %d matches, want 1", path.name, n)
				}
				best[k] = min(best[k], time.Since(t0))
			}
		}
		t.Logf("%s: [^\\r\\n] %v, [^\\r] %v", path.name, best[0], best[1])
		if best[0] > 3*best[1]+time.Millisecond {
			t.Errorf("%s: the two-byte kill set took %v against %v for one kill byte over the same input",
				path.name, best[0], best[1])
		}
	}
}
