// Package telemetry provides cheap, allocation-free runtime counters for
// the matching engines. A Collector aggregates whole-scan totals pushed by
// scanners at scan (not per-byte) granularity, so the per-byte hot loops
// stay branch-free: engines accumulate plain local counters during a scan
// and fold them into the shared Collector exactly once, when the scan ends.
//
// Snapshot() returns an immutable Stats value suitable for JSON export;
// Collector itself implements expvar.Var via String(), so a Collector can
// be published directly with expvar.Publish.
package telemetry

import (
	"encoding/json"
	"sync/atomic"
)

// Collector accumulates counters. All methods are safe for concurrent
// use; writers fold whole-scan totals, so contention is proportional to
// scan count, not input size.
type Collector struct {
	scans   atomic.Int64
	bytes   atomic.Int64
	matches atomic.Int64

	ruleHits []atomic.Int64

	lazyEnabled  bool
	lazyAutomata int
	maxStates    int
	byteClasses  int
	hits         atomic.Int64
	misses       atomic.Int64
	flushes      atomic.Int64
	fallbacks    atomic.Int64
	cachedStates []atomic.Int64 // per-table gauge, one slot per execution unit
	cacheBytes   []atomic.Int64 // per-table gauge, one slot per execution unit

	prefEnabled bool
	prefRules   int
	prefFactors int
	prefSweeps  atomic.Int64
	prefHits    atomic.Int64
	prefSkipped atomic.Int64
	prefSaved   atomic.Int64

	accelEnabled  bool
	accelAutomata int
	accelBytes    atomic.Int64
	accelStates   []atomic.Int64 // per-table gauge (lazy engine only)

	stratEnabled  bool
	stratPlanned  bool
	stratNames    []string
	stratGroups   []int
	stratBytes    []atomic.Int64
	sweepsElided  atomic.Int64
	sweepProbes   atomic.Int64
	groupsUngated atomic.Int64

	segEnabled  bool
	segScans    atomic.Int64
	segSegments atomic.Int64
	segParallel atomic.Int64

	lat *Latency

	timeouts     atomic.Int64
	shed         atomic.Int64
	workerPanics atomic.Int64
	cacheGrows   atomic.Int64
	pinnedScans  atomic.Int64

	profileFn atomic.Value // func() *ProfileStats
	gaugeFn   func()       // refreshes the gauges at Snapshot; nil when none
}

// NewCollector returns a Collector tracking numRules per-rule hit
// counters. numRules ≤ 0 disables per-rule tracking.
func NewCollector(numRules int) *Collector {
	c := &Collector{}
	if numRules > 0 {
		c.ruleHits = make([]atomic.Int64, numRules)
	}
	return c
}

// EnableLazy turns on the lazy-DFA section of the snapshot and records
// the static cache configuration: the number of lazy-DFA tables (execution
// units of one or more fused automata), the per-table state capacity, and
// the total byte-class count. The cached-states gauge keeps one slot per
// execution unit of the ruleset (total), because SetCachedStates is indexed
// by unit, not by lazy rank.
func (c *Collector) EnableLazy(automata, total, maxStates, byteClasses int) {
	c.lazyEnabled = true
	c.lazyAutomata = automata
	c.maxStates = maxStates
	c.byteClasses = byteClasses
	c.cachedStates = make([]atomic.Int64, total)
	c.cacheBytes = make([]atomic.Int64, total)
}

// EnablePrefilter turns on the prefilter section of the snapshot and
// records its static configuration: the number of factor-bearing rules and
// of distinct factor strings.
func (c *Collector) EnablePrefilter(filterableRules, factors int) {
	c.prefEnabled = true
	c.prefRules = filterableRules
	c.prefFactors = factors
}

// EnableAccel turns on the acceleration section of the snapshot for the
// given number of automata.
func (c *Collector) EnableAccel(automata int) {
	c.accelEnabled = true
	c.accelAutomata = automata
	c.accelStates = make([]atomic.Int64, automata)
}

// EnableStrategy turns on the planner section of the snapshot and records
// the classification outcome: names[i] labels strategy i and groups[i] is
// the number of automaton groups routed to it. planned=false marks a forced
// single-engine override.
func (c *Collector) EnableStrategy(planned bool, names []string, groups []int) {
	c.stratEnabled = true
	c.stratPlanned = planned
	c.stratNames = names
	c.stratGroups = groups
	c.stratBytes = make([]atomic.Int64, len(names))
}

// EnableSegment turns on the segment section of the snapshot.
func (c *Collector) EnableSegment() { c.segEnabled = true }

// AddSegmentScans folds scans segmented group executions of the literal
// pass: the number of segments they ran and the bytes their workers
// scanned. parallelBytes must equal the bytes the same executions folded
// via AddBytes, so the segment partition of BytesScanned stays exact.
func (c *Collector) AddSegmentScans(scans, segments, parallelBytes int64) {
	c.segScans.Add(scans)
	c.segSegments.Add(segments)
	c.segParallel.Add(parallelBytes)
}

// EnableLatency turns on the latency section of the snapshot and returns
// the per-stage histogram set scan paths record into. Must be called
// before the collector is shared with scanners (build time), like the
// other Enable methods.
func (c *Collector) EnableLatency() *Latency {
	c.lat = &Latency{}
	return c.lat
}

// Latency returns the per-stage histogram set, nil when latency
// attribution is off. The exposition layer uses it to render full bucket
// distributions rather than the snapshot's percentile summary.
func (c *Collector) Latency() *Latency { return c.lat }

// AddStrategyBytes attributes n matched-against input bytes to strategy.
func (c *Collector) AddStrategyBytes(strategy int, n int64) {
	if strategy >= 0 && strategy < len(c.stratBytes) {
		c.stratBytes[strategy].Add(n)
	}
}

// AddSweepsElided adds n factor sweeps skipped entirely by the
// effectiveness tracker.
func (c *Collector) AddSweepsElided(n int64) { c.sweepsElided.Add(n) }

// AddSweepProbes adds n sweeps run as explicit re-enable probes.
func (c *Collector) AddSweepProbes(n int64) { c.sweepProbes.Add(n) }

// SetGroupsUngated records the current number of gated groups whose factor
// gate the tracker has disabled.
func (c *Collector) SetGroupsUngated(n int64) { c.groupsUngated.Store(n) }

// AddAccelScan folds one scan's accelerated-jump byte count.
func (c *Collector) AddAccelScan(bytesSkipped int64) {
	c.accelBytes.Add(bytesSkipped)
}

// SetAccelStates records the current number of accelerable cached states of
// one lazy-DFA table, by execution unit (lazy engine only).
func (c *Collector) SetAccelStates(automaton int, n int64) {
	if automaton >= 0 && automaton < len(c.accelStates) {
		c.accelStates[automaton].Store(n)
	}
}

// AddPrefilterScan folds one gated scan's prefilter counters.
func (c *Collector) AddPrefilterScan(sweeps, factorHits, groupsSkipped, bytesSaved int64) {
	c.prefSweeps.Add(sweeps)
	c.prefHits.Add(factorHits)
	c.prefSkipped.Add(groupsSkipped)
	c.prefSaved.Add(bytesSaved)
}

// AddScans adds n completed scans.
func (c *Collector) AddScans(n int64) { c.scans.Add(n) }

// AddBytes adds n matched-against input bytes.
func (c *Collector) AddBytes(n int64) { c.bytes.Add(n) }

// AddMatches adds n match events without per-rule attribution.
func (c *Collector) AddMatches(n int64) { c.matches.Add(n) }

// AddMatch records one match for rule. Out-of-range rule ids still count
// toward the total.
func (c *Collector) AddMatch(rule int) {
	c.matches.Add(1)
	if rule >= 0 && rule < len(c.ruleHits) {
		c.ruleHits[rule].Add(1)
	}
}

// AddRuleHits adds n matches for rule to the per-rule table only (the
// caller has already counted them via AddMatches).
func (c *Collector) AddRuleHits(rule int, n int64) {
	if rule >= 0 && rule < len(c.ruleHits) {
		c.ruleHits[rule].Add(n)
	}
}

// AddLazyScan folds one lazy-mode scan's cache counters.
func (c *Collector) AddLazyScan(hits, misses, flushes, fallbacks int64) {
	c.hits.Add(hits)
	c.misses.Add(misses)
	c.flushes.Add(flushes)
	c.fallbacks.Add(fallbacks)
}

// AddTimeouts adds n scans cancelled by the scan deadline.
func (c *Collector) AddTimeouts(n int64) { c.timeouts.Add(n) }

// AddShed adds n scans rejected by overload shedding.
func (c *Collector) AddShed(n int64) { c.shed.Add(n) }

// AddWorkerPanics adds n panics contained inside parallel scan workers.
func (c *Collector) AddWorkerPanics(n int64) { c.workerPanics.Add(n) }

// AddLazyDegraded folds one lazy-mode scan's degradation-ladder counters:
// cache-grow retries and pinned whole-scan delegations. (Thrash fallbacks
// arrive via AddLazyScan and are mirrored into the Degraded section.)
func (c *Collector) AddLazyDegraded(grows, pins int64) {
	c.cacheGrows.Add(grows)
	c.pinnedScans.Add(pins)
}

// SetCachedStates records the current cache population of one lazy-DFA
// table, by execution unit.
func (c *Collector) SetCachedStates(automaton int, n int64) {
	if automaton >= 0 && automaton < len(c.cachedStates) {
		c.cachedStates[automaton].Store(n)
	}
}

// SetCacheBytes records the transition-cache bytes of one lazy-DFA table,
// by execution unit.
func (c *Collector) SetCacheBytes(automaton int, n int64) {
	if automaton >= 0 && automaton < len(c.cacheBytes) {
		c.cacheBytes[automaton].Store(n)
	}
}

// SetProfileFunc installs fn as the producer of the snapshot's Profile
// section. Snapshot calls it on every invocation; fn returning nil leaves
// the section omitted. Safe for concurrent use with Snapshot.
func (c *Collector) SetProfileFunc(fn func() *ProfileStats) {
	c.profileFn.Store(fn)
}

// SetGaugeFunc installs fn, which Snapshot calls first so that the gauges
// it sets (SetCachedStates, SetCacheBytes, SetAccelStates) are current: a
// producer whose gauges live in shared structures — the lazy-DFA tables —
// reads them once per snapshot instead of storing them on every scan. Must
// be called before the collector is shared (build time).
func (c *Collector) SetGaugeFunc(fn func()) { c.gaugeFn = fn }

// Snapshot returns a point-in-time copy of every counter. Counters are
// read individually, so a snapshot taken during concurrent scans is
// internally consistent per counter but not across counters.
func (c *Collector) Snapshot() Stats {
	if c.gaugeFn != nil {
		c.gaugeFn()
	}
	s := Stats{
		Scans:        c.scans.Load(),
		BytesScanned: c.bytes.Load(),
		Matches:      c.matches.Load(),
	}
	if len(c.ruleHits) > 0 {
		s.RuleHits = make([]int64, len(c.ruleHits))
		for i := range c.ruleHits {
			s.RuleHits[i] = c.ruleHits[i].Load()
		}
	}
	if c.lazyEnabled {
		l := &LazyStats{
			Automata:    c.lazyAutomata,
			MaxStates:   c.maxStates,
			ByteClasses: c.byteClasses,
			Hits:        c.hits.Load(),
			Misses:      c.misses.Load(),
			Flushes:     c.flushes.Load(),
			Fallbacks:   c.fallbacks.Load(),
		}
		for i := range c.cachedStates {
			l.CachedStates += c.cachedStates[i].Load()
			l.CacheBytes += c.cacheBytes[i].Load()
		}
		s.Lazy = l
	}
	if c.prefEnabled {
		s.Prefilter = &PrefilterStats{
			FilterableRules: c.prefRules,
			Factors:         c.prefFactors,
			Sweeps:          c.prefSweeps.Load(),
			FactorHits:      c.prefHits.Load(),
			GroupsSkipped:   c.prefSkipped.Load(),
			BytesSaved:      c.prefSaved.Load(),
		}
	}
	if c.accelEnabled {
		a := &AccelStats{
			Automata:     c.accelAutomata,
			BytesSkipped: c.accelBytes.Load(),
		}
		for i := range c.accelStates {
			a.AccelStates += c.accelStates[i].Load()
		}
		s.Accel = a
	}
	if c.stratEnabled {
		st := &StrategyStats{
			Planned:        c.stratPlanned,
			SweepsDisabled: c.sweepsElided.Load(),
			SweepProbes:    c.sweepProbes.Load(),
			GroupsUngated:  c.groupsUngated.Load(),
		}
		for i, name := range c.stratNames {
			if c.stratGroups[i] == 0 {
				continue
			}
			st.Groups = append(st.Groups, StrategyGroupStats{
				Strategy: name,
				Groups:   c.stratGroups[i],
				Bytes:    c.stratBytes[i].Load(),
			})
		}
		s.Strategy = st
	}
	if c.segEnabled {
		par := c.segParallel.Load()
		s.Segment = &SegmentStats{
			SegmentedScans: c.segScans.Load(),
			Segments:       c.segSegments.Load(),
			ParallelBytes:  par,
			SerialBytes:    s.BytesScanned - par,
		}
	}
	if fn, ok := c.profileFn.Load().(func() *ProfileStats); ok && fn != nil {
		s.Profile = fn()
	}
	if c.lat != nil {
		s.Latency = c.lat.Stats()
	}
	s.Degraded = &DegradedStats{
		ScanTimeouts:    c.timeouts.Load(),
		Shed:            c.shed.Load(),
		WorkerPanics:    c.workerPanics.Load(),
		ThrashFallbacks: c.fallbacks.Load(),
		CacheGrows:      c.cacheGrows.Load(),
		PinnedScans:     c.pinnedScans.Load(),
	}
	return s
}

// String renders the current snapshot as JSON, making Collector an
// expvar.Var: expvar.Publish("imfant", collector).
func (c *Collector) String() string {
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}
