package imfant

import (
	"expvar"

	"repro/internal/lazydfa"
	"repro/internal/telemetry"
)

// The stats snapshot schema is declared once, in internal/telemetry; these
// aliases re-export it. Field documentation and JSON keys live on the
// telemetry declarations.
type (
	// Stats is a point-in-time snapshot of runtime matching telemetry,
	// with the same shape at Ruleset, Scanner and StreamMatcher scope.
	Stats = telemetry.Stats
	// LazyStats is the lazy-DFA cache section of a stats snapshot.
	LazyStats = telemetry.LazyStats
	// PrefilterStats is the literal-factor prefilter section.
	PrefilterStats = telemetry.PrefilterStats
	// AccelStats is the byte-skipping acceleration section.
	AccelStats = telemetry.AccelStats
	// StrategyStats is the strategy-planner section.
	StrategyStats = telemetry.StrategyStats
	// StrategyGroupStats is one strategy's row in the planner section.
	StrategyGroupStats = telemetry.StrategyGroupStats
	// SegmentStats is the segmented literal pass section.
	SegmentStats = telemetry.SegmentStats
	// DegradedStats is the degradation-ladder section.
	DegradedStats = telemetry.DegradedStats
	// ProfileStats is the sampling profiler's section.
	ProfileStats = telemetry.ProfileStats
	// HistStats is the compact summary of one recorded distribution.
	HistStats = telemetry.HistStats
	// LatencyStats is the per-stage latency section.
	LatencyStats = telemetry.LatencyStats
	// StageLatency is one stage's latency summary, in nanoseconds.
	StageLatency = telemetry.StageLatency
	// HotState is one state of the profiler's heat report.
	HotState = telemetry.HotState
)

// Stats returns the ruleset-wide telemetry snapshot: the fold of every scan
// executed by Scanners, StreamMatchers, and CountParallel calls created
// from this ruleset. Safe for concurrent use.
func (rs *Ruleset) Stats() Stats {
	return rs.collector.Snapshot()
}

// StatsVar returns the ruleset's live counters as an expvar.Var whose
// String method renders the current Stats snapshot as JSON, for publishing
// on the standard debug endpoint:
//
//	expvar.Publish("imfant", rs.StatsVar())
func (rs *Ruleset) StatsVar() expvar.Var {
	return rs.collector
}

// Stats returns this scanner's own telemetry: totals over every scan it has
// executed, including a partial scan still in progress. Not safe for use
// concurrent with the scanner's scans (the Scanner itself is single-owner).
func (s *Scanner) Stats() Stats {
	return s.rs.localStats(runTotals(s.runs, s.lit), s.ruleHits, s.timeouts, &s.pref)
}

// Stats returns this stream's telemetry, including the in-progress state of
// a stream that has not been closed yet (Scans stays 0 until Close, since a
// stream counts as one completed scan per automaton). After Close the
// numbers are frozen, though the stream's lazy-DFA tables live on.
// Not safe for use concurrent with Write or Close on the same matcher.
func (sm *StreamMatcher) Stats() Stats {
	totals := sm.final
	if totals == nil {
		totals = runTotals(sm.runs, sm.lit)
	}
	return sm.rs.localStats(totals, sm.ruleHits, sm.timeouts, &sm.pref)
}

// lazyGauges refreshes the collector's lazy-DFA gauges from the lazy
// units' shared transition tables, one per unit; the collector calls it at
// Snapshot.
func (rs *Ruleset) lazyGauges() {
	c := rs.collector
	for u := range rs.plan.units {
		m := rs.plan.units[u].lazy
		if m == nil {
			continue
		}
		t := m.Stats()
		c.SetCachedStates(u, int64(t.States))
		c.SetCacheBytes(u, t.Bytes)
		c.SetAccelStates(u, int64(t.AccelStates))
	}
}

// runTotals reads every unit runner's totals, the AC and chain units' from
// the literal pass lit (nil when there is none).
func runTotals(runs []groupRunner, lit *litRunner) []groupRun {
	out := make([]groupRun, len(runs))
	for i, r := range runs {
		if r != nil {
			r.totals(&out[i])
		}
	}
	if lit != nil {
		lit.totals(out)
	}
	return out
}

// localStats builds a Scanner- or StreamMatcher-scope snapshot from the
// owner's per-unit runner totals, attributed to the member groups as
// foldRun does, its rule hits, timeouts and prefilter counters. The
// planner section takes its classification from the shared plan and the
// tracker's ungated gauge; the tracker's sweep-disable event counters are
// ruleset-scope and stay zero here.
func (rs *Ruleset) localStats(totals []groupRun, ruleHits []int64, timeouts int64, pref *prefCounters) Stats {
	st := Stats{RuleHits: append([]int64(nil), ruleHits...),
		Degraded: &DegradedStats{ScanTimeouts: timeouts}}
	var accel *AccelStats
	if rs.opts.accelOn() {
		accel = &AccelStats{Automata: len(rs.programs)}
	}
	var stratBytes [numStrategies]int64
	var l *LazyStats
	for u, t := range totals {
		x := &rs.plan.units[u]
		k := int64(len(x.groups))
		st.Scans += k * t.scans
		st.BytesScanned += k * t.bytes
		st.Matches += t.matches
		stratBytes[x.strat] += k * t.bytes
		if accel != nil {
			accel.BytesSkipped += t.accel
			accel.AccelStates += t.accelStates
		}
		if !t.lazy {
			continue
		}
		if l == nil {
			l = &LazyStats{}
		}
		l.Automata++
		l.Hits += t.hits
		l.Misses += t.misses
		l.Flushes += t.flushes
		l.Fallbacks += t.fallbacks
		st.Degraded.CacheGrows += t.grows
		st.Degraded.PinnedScans += t.pins
		l.CachedStates += t.cached
		l.CacheBytes += t.cacheBytes
		l.MaxStates = max(l.MaxStates, t.maxStates)
		l.ByteClasses += t.classes
	}
	if l != nil {
		if l.MaxStates == 0 {
			l.MaxStates = lazydfa.ResolveMaxStates(rs.opts.LazyDFAMaxStates)
		}
		st.Degraded.ThrashFallbacks = l.Fallbacks
		st.Lazy = l
	}
	ss := &StrategyStats{Planned: rs.plan.planned, GroupsUngated: rs.tracker.disabledNow()}
	for k, n := range rs.plan.counts {
		if n > 0 {
			ss.Groups = append(ss.Groups, StrategyGroupStats{
				Strategy: Strategy(k).String(), Groups: n, Bytes: stratBytes[k]})
		}
	}
	st.Strategy = ss
	st.Prefilter = pref.stats(rs)
	st.Accel = accel
	st.Segment = rs.localSegmentStats(st.BytesScanned)
	return st
}
