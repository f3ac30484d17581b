package imfant

import (
	"slices"

	"repro/internal/ahocorasick"
	"repro/internal/factor"
	"repro/internal/faultpoint"
	"repro/internal/rex"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// PrefilterMode selects the literal-factor prefilter stage (Hyperscan-style
// decomposition, §II of the paper's related work): at compile time every
// rule is analysed for a required literal factor — a string that occurs in
// every match of the rule — and at scan time the Ruleset's one literal
// Aho–Corasick pass over the input, the same pass that runs the AC and chain
// groups, decides which MFSA groups can be skipped outright. A group runs
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
	// PrefilterOff disables factor extraction and gating entirely; the
	// literal pass then carries the AC literals and chain pieces only.
	PrefilterOff
)

// prefilter is the compiled gating plan of a ruleset, over execution
// units: a unit is gated when its members' groups are, and wakes when any
// member's factor occurs. The factors themselves are patterns of the
// literal pass (rs.plan.lit), whose wake lists map each factor to the gated
// units it wakes.
type prefilter struct {
	factors    []string // the gating factors, literal-pass pattern order
	filterable int      // number of rules of gatable groups carrying a factor
	always     []bool   // per execution unit: not gated, always runs
	gated      []int    // the gated units, ascending
}

// buildPrefilter builds the Ruleset's one literal pass (see litPass) and
// its gating plan pf (nil when no group is gated), from the AC-routed
// groups' literals and the chain groups' pieces and kill sets (read from
// shapes) and per-rule factors (indexed by rule id, "" meaning
// unfilterable; nil under PrefilterOff). Each distinct factor of a gated
// unit's members gets a wake-list entry naming the unit. When pf is nil
// scans are ungated; with neither AC nor chain groups nor gated units no
// pass is built.
func (rs *Ruleset) buildPrefilter(shapes []strategy.Shape, factors []string, pf *prefilter) {
	lp := &litPass{}
	index := make(map[string]int32)
	var pats [][]byte
	patternOf := func(s []byte) int32 {
		k, ok := index[string(s)]
		if !ok {
			k = int32(len(pats))
			index[string(s)] = k
			pats = append(pats, s)
			lp.owners = append(lp.owners, nil)
			lp.links = append(lp.links, nil)
			lp.kills = append(lp.kills, nil)
			lp.wakes = append(lp.wakes, nil)
		}
		return k
	}
	killSets := make(map[string]int32)
	killSetOf := func(kill []byte) int32 {
		ks, ok := killSets[string(kill)]
		if !ok {
			// Each kill byte is a one-byte pattern naming the set; a set
			// without bytes (gaps over every byte) is never killed.
			ks = int32(lp.killSets)
			lp.killSets++
			killSets[string(kill)] = ks
			for _, b := range kill {
				p := patternOf([]byte{b})
				lp.kills[p] = append(lp.kills[p], ks)
			}
		}
		return ks
	}
	units := rs.plan.units
	for u, x := range units {
		if !rs.plan.inLit(u) {
			continue
		}
		lp.units = append(lp.units, u)
		lp.first = append(lp.first, len(lp.members))
		lp.perStrat[x.strat]++
		for fsa, ri := range x.rules {
			k := int32(len(lp.members))
			lp.members = append(lp.members, litMember{unit: int32(u), fsa: int32(fsa), rule: int32(ri.RuleID)})
			sh := &shapes[ri.RuleID]
			if sh.Kind == strategy.KindLiteral {
				p := patternOf(sh.Literal)
				lp.owners[p] = append(lp.owners[p], k)
				continue
			}
			// A chain: piece j's phase slot is base+j; the last piece,
			// which matches instead of recording, needs no slot of its own.
			ks, base, n := killSetOf(sh.MiddleExcluded), lp.slots, len(sh.Pieces)
			for j := n - 1; j >= 0; j-- {
				p := patternOf(sh.Pieces[j])
				lp.links[p] = append(lp.links[p], chainLink{member: k, slot: int32(base + j), kill: ks,
					len: int32(len(sh.Pieces[j])), first: j == 0, last: j == n-1})
			}
			lp.slots += n - 1
		}
	}
	lp.first = append(lp.first, len(lp.members))
	if pf != nil {
		for _, u := range pf.gated {
			var seen []int32
			for _, ri := range units[u].rules {
				k := patternOf([]byte(factors[ri.RuleID]))
				if !slices.Contains(seen, k) {
					seen = append(seen, k)
					lp.wakes[k] = append(lp.wakes[k], int32(u))
				}
			}
		}
		for k, w := range lp.wakes {
			if len(w) > 0 {
				pf.factors = append(pf.factors, string(pats[k]))
			}
		}
	}
	if len(pats) == 0 {
		return
	}
	// strategy.Classify yields no empty literal or piece and factors are
	// at least factor.MinLen bytes, so the matcher build cannot fail.
	m, err := ahocorasick.New(pats)
	if err != nil {
		panic(err)
	}
	lp.m = m
	lp.deliver = make([]bool, len(pats))
	for k := range pats {
		lp.deliver[k] = len(lp.owners[k])+len(lp.links[k])+len(lp.kills[k]) > 0
	}
	if lp.slots == 0 {
		// No chain member, so no pattern has links or kills: drop the
		// per-pattern slices, which deliverHit then skips.
		lp.links, lp.kills = nil, nil
	}
	rs.plan.lit = lp
	if rs.opts.Prefilter == PrefilterOff {
		return
	}
	// The Prefilter stats section is live whenever the literal pass runs:
	// it gates, runs AC and chain groups, or both.
	rs.prefEnabled = true
	rs.prefRules = len(lp.members)
	if pf != nil {
		rs.pf = pf
		rs.prefRules += pf.filterable
		if !lp.delivers() {
			// A delivering pass runs every scan, so only a gating-only one
			// can be elided; see prefTracker.
			rs.tracker = newPrefTracker(pf, units)
		}
	}
	rs.prefFactors = m.NumPatterns()
	rs.collector.EnablePrefilter(rs.prefRules, rs.prefFactors)
}

// gatingPlan picks the gated groups for per-rule factors: per automaton,
// whether the group always runs, and the number of factor-bearing rules of
// gatable groups. always is nil when no gatable group is fully filterable.
func (rs *Ruleset) gatingPlan(factors []string) (always []bool, filterable int) {
	if factors == nil {
		return nil, 0
	}
	always = make([]bool, len(rs.programs))
	gated := false
	for i, p := range rs.programs {
		if !rs.plan.gatable(i) {
			always[i] = true
			continue
		}
		for _, ri := range p.Rules() {
			if ri.RuleID >= 0 && ri.RuleID < len(factors) && factors[ri.RuleID] != "" {
				filterable++
			} else {
				always[i] = true
			}
		}
		gated = gated || !always[i]
	}
	if !gated {
		return nil, 0
	}
	return always, filterable
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

// PrefilterActive reports whether the literal-factor prefilter gates this
// ruleset's scans (see PrefilterMode for when it engages).
func (rs *Ruleset) PrefilterActive() bool { return rs.pf != nil }

// PrefilterFactors returns the deduplicated literal factors that gate
// groups, each a pattern of the literal pass; nil when the prefilter is not
// active.
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

// stats converts the counters to the public shape; nil when the ruleset
// runs no literal pass or the prefilter is off.
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

// passPlan decides how the next block scan runs the literal pass: whether
// it runs at all, and whether its outcome gates the other groups. The
// PrefilterWake fault — the pass desyncs and every gated automaton is
// spuriously woken, which is always sound since the prefilter only ever
// elides provably dead work — makes the scan ungated; the pass then still
// runs when it has literals or pieces to deliver. A pass that only gates is
// elided once the effectiveness tracker has disabled every gate.
func (rs *Ruleset) passPlan(faults *faultpoint.Injector) (run, gate bool) {
	lp := rs.plan.lit
	switch {
	case lp == nil:
		return false, false
	case rs.pf == nil || faults.Hit(faultpoint.PrefilterWake):
		return lp.delivers(), false
	case !lp.delivers():
		run, probe := rs.tracker.decide()
		if !run {
			// Every gated group's gate is disabled — the pass could skip
			// nothing, so it is pure overhead: elide it and run everything.
			rs.collector.AddSweepsElided(1)
			return false, false
		}
		if probe {
			rs.collector.AddSweepProbes(1)
		}
	}
	return true, true
}

// gate turns the patterns one pass saw over an n-byte input into the
// activation mask active (indexed by execution unit; allocated when nil):
// a gated unit runs when a pattern whose wake list names it was seen, or
// when the tracker (if the ruleset has one) has disabled its gate. It feeds
// the tracker, records a prefilter_skip trace event per member group of a
// skipped unit and adds the skipped groups and bytes to f.
func (rs *Ruleset) gate(seen []int32, active []bool, n int64, f *scanFold) []bool {
	pf, lp, t := rs.pf, rs.plan.lit, rs.tracker
	if active == nil {
		active = make([]bool, len(rs.plan.units))
	}
	copy(active, pf.always)
	for _, k := range seen {
		for _, u := range lp.wakes[k] {
			active[u] = true
		}
	}
	var skipped int64
	for _, u := range pf.gated {
		if t != nil {
			woke := active[u]
			// A gate the tracker disabled runs its unit regardless of the
			// pass outcome; the observation below may re-enable it.
			if !woke && t.isDisabled(u) {
				active[u] = true
			}
			t.observe(u, woke)
		}
		if !active[u] {
			skipped += rs.traceSkip(u, n)
		}
	}
	if t != nil {
		rs.collector.SetGroupsUngated(t.disabledNow())
	}
	f.pref.skipped += skipped
	f.pref.saved += skipped * n
	return active
}

// traceSkip records a prefilter_skip trace event, worth n bytes, for each
// member group of skipped unit u, and returns the number of members.
func (rs *Ruleset) traceSkip(u int, n int64) int64 {
	groups := rs.plan.units[u].groups
	if rs.trace != nil {
		for _, g := range groups {
			rs.trace.Record(telemetry.Event{Kind: telemetry.EventPrefilterSkip,
				Automaton: int32(g), Rule: -1, Offset: -1, Value: n})
		}
	}
	return int64(len(groups))
}
