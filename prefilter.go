package imfant

import (
	"repro/internal/ahocorasick"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/faultpoint"
	"repro/internal/rex"
	"repro/internal/telemetry"
)

// wakeAll is the PrefilterWake fault: the sweeper desyncs and every gated
// automaton is spuriously woken (reported active without a sweep). Waking is
// always sound — the prefilter only ever elides provably dead work — so the
// fault adversarially exercises the ungated paths without changing results.
// Returns nil (no injector, or the point did not fire) or the all-active
// mask.
func wakeAll(in *faultpoint.Injector, n int) []bool {
	if !in.Hit(faultpoint.PrefilterWake) {
		return nil
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	return active
}

// PrefilterMode selects the literal-factor prefilter stage (Hyperscan-style
// decomposition, §II of the paper's related work): at compile time every
// rule is analysed for a required literal factor — a string that occurs in
// every match of the rule — and at scan time one Aho–Corasick sweep over
// the input decides which MFSA groups can be skipped outright. A group runs
// only if it contains a rule without a factor or one of its members'
// factors occurred in the input; otherwise no member rule can match and the
// whole automaton execution is elided. The prefilter never changes results,
// only the work done to produce them.
type PrefilterMode int

const (
	// PrefilterAuto (the default) enables the prefilter when it can pay
	// off: at least one automaton must be fully filterable — every member
	// rule carrying a factor — so whole groups become skippable. Grouping
	// is left untouched.
	PrefilterAuto PrefilterMode = iota
	// PrefilterOn forces the prefilter whenever any rule has a factor, and
	// additionally biases grouping so factor-bearing rules share MFSAs
	// (filterable rules are packed into MergeFactor groups first), turning
	// more groups fully skippable. Match results are unchanged; automaton
	// boundaries may differ from PrefilterOff compilation.
	PrefilterOn
	// PrefilterOff disables factor extraction and sweeping entirely.
	PrefilterOff
)

// prefilter is the compiled gating plan of a ruleset: the Aho–Corasick
// automaton over the deduplicated factor strings plus, per MFSA group, the
// factor set that can wake it.
type prefilter struct {
	ac           *ahocorasick.Matcher
	factors      []string  // deduplicated factor strings, AC pattern order
	filterable   int       // number of rules carrying a factor
	groupFactors [][]int32 // per automaton: AC pattern ids of member factors
	groupAlways  []bool    // automaton has a factor-less member: always runs
}

// buildPrefilter compiles the gating plan from per-rule factors (indexed by
// rule id, "" meaning unfilterable). Called after buildPlan — only groups
// the plan left gatable participate: AC-routed groups must not ALSO be swept
// (their strategy scan is itself a literal sweep; gating them would scan the
// same literals twice), and anchored groups are O(1) already. A nil factors
// slice, PrefilterOff, or a plan with no gatable factor-covered group leaves
// rs.pf nil and scans ungated.
func (rs *Ruleset) buildPrefilter(factors []string) {
	if rs.opts.Prefilter == PrefilterOff {
		return
	}
	defer func() {
		// The Prefilter stats section is live whenever literal gating
		// happens anywhere: the factor sweep, AC-routed groups (whose scans
		// report as sweeps), or both.
		acRules, acLits := rs.plan.literalCounts()
		if rs.pf != nil || acRules > 0 {
			rs.prefEnabled = true
			rs.prefRules += acRules
			rs.prefFactors += acLits
			rs.collector.EnablePrefilter(rs.prefRules, rs.prefFactors)
		}
	}()
	if factors == nil {
		return
	}
	pf := &prefilter{}
	index := make(map[string]int32)
	pf.groupFactors = make([][]int32, len(rs.programs))
	pf.groupAlways = make([]bool, len(rs.programs))
	anyGated := false
	for i, p := range rs.programs {
		if !rs.plan.gatable(i) {
			pf.groupAlways[i] = true
			continue
		}
		seen := make(map[int32]bool)
		for _, ri := range p.Rules() {
			f := ""
			if ri.RuleID >= 0 && ri.RuleID < len(factors) {
				f = factors[ri.RuleID]
			}
			if f == "" {
				pf.groupAlways[i] = true
				continue
			}
			pi, ok := index[f]
			if !ok {
				pi = int32(len(pf.factors))
				index[f] = pi
				pf.factors = append(pf.factors, f)
			}
			pf.filterable++
			if !seen[pi] {
				seen[pi] = true
				pf.groupFactors[i] = append(pf.groupFactors[i], pi)
			}
		}
		if !pf.groupAlways[i] {
			anyGated = true
		}
	}
	if !anyGated || len(pf.factors) == 0 {
		return
	}
	pats := make([][]byte, len(pf.factors))
	for i, f := range pf.factors {
		pats[i] = []byte(f)
	}
	ac, err := ahocorasick.New(pats)
	if err != nil {
		return
	}
	pf.ac = ac
	rs.pf = pf
	rs.prefRules = pf.filterable
	rs.prefFactors = len(pf.factors)
	rs.tracker = newPrefTracker(pf.groupAlways)
}

// factorsOf re-derives per-rule factors from pattern sources, for rulesets
// whose compilation pipeline did not run (LoadANML). Rules whose source is
// missing or no longer parses are treated as unfilterable, which is always
// sound. Returns nil when no rule yields a factor.
func factorsOf(patterns []string) []string {
	out := make([]string, len(patterns))
	any := false
	for i, p := range patterns {
		if p == "" {
			continue
		}
		ast, err := rex.Parse(p)
		if err != nil {
			continue
		}
		if f, ok := factor.Extract(ast, factor.MinLen); ok {
			out[i] = f
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// active reports whether automaton i must run given the sweep's hit set.
func (pf *prefilter) active(i int, sw *ahocorasick.Sweeper) bool {
	if pf.groupAlways[i] {
		return true
	}
	for _, pid := range pf.groupFactors[i] {
		if sw.Hit(int(pid)) {
			return true
		}
	}
	return false
}

// PrefilterActive reports whether the literal-factor prefilter gates this
// ruleset's scans (see PrefilterMode for when it engages).
func (rs *Ruleset) PrefilterActive() bool { return rs.pf != nil }

// PrefilterFactors returns the deduplicated literal factors the prefilter
// sweeps for; nil when the prefilter is not active.
func (rs *Ruleset) PrefilterFactors() []string {
	if rs.pf == nil {
		return nil
	}
	return append([]string(nil), rs.pf.factors...)
}

// prefCounters accumulates one owner's (Scanner or StreamMatcher) prefilter
// activity for its local Stats snapshot.
type prefCounters struct {
	sweeps, hits, skipped, saved int64
}

// stats converts the counters to the public shape; nil when no literal
// gating (factor sweep or AC-routed groups) is live on the ruleset.
func (p *prefCounters) stats(rs *Ruleset) *PrefilterStats {
	if !rs.prefEnabled {
		return nil
	}
	return &PrefilterStats{
		FilterableRules: rs.prefRules,
		Factors:         rs.prefFactors,
		Sweeps:          p.sweeps,
		FactorHits:      p.hits,
		GroupsSkipped:   p.skipped,
		BytesSaved:      p.saved,
	}
}

// sweepMask sweeps input through the factor automaton and returns the
// per-automaton activation mask, or nil when every automaton must run
// (prefilter inactive, or the effectiveness tracker elided the sweep). The
// sweep polls check between blocks so hostile inputs cannot wedge a
// cancellable scan inside the prefilter. sw and active, when non-nil, are
// the caller's reusable sweeper and mask; pref, when non-nil, receives the
// owner's local counts. Collector counters and prefilter_skip trace events
// are recorded here.
func (rs *Ruleset) sweepMask(input []byte, check func() error, faults *faultpoint.Injector,
	sw *ahocorasick.Sweeper, active []bool, pref *prefCounters) ([]bool, error) {
	pf := rs.pf
	if pf == nil {
		return nil, nil
	}
	if woke := wakeAll(faults, len(rs.programs)); woke != nil {
		return woke, nil
	}
	run, probe := rs.tracker.decide()
	if !run {
		// Every gated group's gate is disabled — the sweep could skip
		// nothing, so it is pure overhead: elide it and run everything.
		rs.collector.AddSweepsElided(1)
		return nil, nil
	}
	if probe {
		rs.collector.AddSweepProbes(1)
	}
	if sw == nil {
		sw = pf.ac.NewSweeper()
		sw.SetAccel(rs.opts.accelOn())
	} else {
		sw.Reset()
	}
	if active == nil {
		active = make([]bool, len(rs.programs))
	}
	st0 := rs.stageStart()
	const block = engine.DefaultCheckpointEvery
	for off := 0; off < len(input) && !sw.Done(); off += block {
		if check != nil {
			if err := check(); err != nil {
				rs.stageEnd(telemetry.StagePrefilter, st0)
				return nil, err
			}
		}
		sw.Sweep(input[off:min(off+block, len(input))])
	}
	rs.stageEnd(telemetry.StagePrefilter, st0)
	var skipped int64
	for i := range active {
		woke := pf.active(i, sw)
		act := woke
		if !pf.groupAlways[i] {
			// A gate the tracker disabled runs its group regardless of the
			// sweep outcome; the observation below may re-enable it.
			if rs.tracker.isDisabled(i) {
				act = true
			}
			rs.tracker.observe(i, woke)
		}
		active[i] = act
		if !act {
			skipped++
			if rs.trace != nil {
				rs.trace.Record(telemetry.Event{Kind: telemetry.EventPrefilterSkip,
					Automaton: int32(i), Rule: -1, Offset: -1, Value: int64(len(input))})
			}
		}
	}
	rs.collector.SetGroupsUngated(rs.tracker.disabledNow())
	hits, saved := int64(sw.Seen()), skipped*int64(len(input))
	rs.collector.AddPrefilterScan(1, hits, skipped, saved)
	if pref != nil {
		pref.sweeps++
		pref.hits += hits
		pref.skipped += skipped
		pref.saved += saved
	}
	return active, nil
}
