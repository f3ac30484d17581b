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

// Stats is an immutable snapshot of a Collector. All counters are
// cumulative since the Collector was created.
type Stats struct {
	// Scans counts completed scan operations (one per automaton execution
	// in parallel scans, one per stream for StreamMatcher).
	Scans int64 `json:"scans"`
	// BytesScanned counts input bytes actually matched against. For
	// parallel multi-automaton scans each automaton's pass counts
	// separately, mirroring the work performed.
	BytesScanned int64 `json:"bytes_scanned"`
	// Matches counts reported match events.
	Matches int64 `json:"matches"`
	// RuleHits holds per-rule match counts, indexed by rule id.
	RuleHits []int64 `json:"rule_hits,omitempty"`
	// Lazy holds lazy-DFA cache counters; nil when the lazy engine is
	// not in use.
	Lazy *LazyStats `json:"lazy,omitempty"`
	// Prefilter holds the literal-factor prefilter counters; nil when the
	// prefilter is not in use.
	Prefilter *PrefilterStats `json:"prefilter,omitempty"`
	// Accel holds the byte-skipping acceleration counters; nil when
	// acceleration is off.
	Accel *AccelStats `json:"accel,omitempty"`
	// Profile holds the sampling profiler's aggregates; nil when
	// profiling is off.
	Profile *ProfileStats `json:"profile,omitempty"`
	// Strategy holds the per-group strategy planner's section: how the
	// groups were classified, bytes scanned per strategy, and the
	// effectiveness tracker's sweep-disable counters. nil for rulesets
	// compiled before the planner existed (none, today).
	Strategy *StrategyStats `json:"strategy,omitempty"`
	// Segment holds the segment-parallel scanning counters; nil when
	// segmented scanning is disabled.
	Segment *SegmentStats `json:"segment,omitempty"`
	// Degraded accounts every rung of the degradation ladder the runtime
	// has taken: timeouts, shed scans, contained panics, thrash
	// fallbacks, cache-grow retries, and pinned delegations. Always
	// present — an all-zero section is the healthy steady state.
	Degraded *DegradedStats `json:"degraded"`
	// Latency holds per-stage wall-clock latency distributions; nil when
	// latency attribution is off or no stage has fired yet.
	Latency *LatencyStats `json:"latency,omitempty"`
}

// DegradedStats is the degradation-ladder section of a snapshot: one
// cumulative counter per way a scan can complete below full service. A scan
// counted here still returned either exact matches or a typed error — these
// counters measure lost headroom, not lost correctness.
type DegradedStats struct {
	// ScanTimeouts counts scans cancelled by Options.ScanTimeout
	// (ErrScanTimeout).
	ScanTimeouts int64 `json:"scan_timeouts"`
	// Shed counts scans rejected by overload shedding (ErrOverloaded)
	// before doing any work.
	Shed int64 `json:"shed"`
	// WorkerPanics counts panics contained inside parallel scan workers
	// (engine.WorkerPanicError): the automaton's results were lost, the
	// process and the sibling automata were not.
	WorkerPanics int64 `json:"worker_panics"`
	// ThrashFallbacks counts lazy-DFA scans that fell back to the iMFAnt
	// engine after thrashing the cache (mirrors Lazy.Fallbacks, surfaced
	// here because the fallback is the ladder's first rung).
	ThrashFallbacks int64 `json:"thrash_fallbacks"`
	// CacheGrows counts one-shot retry-with-larger-cache events: a scan
	// re-run on the cached path with the cap doubled after a thrash.
	CacheGrows int64 `json:"cache_grows"`
	// PinnedScans counts scans delegated whole to the iMFAnt engine
	// because the ladder bottomed out (thrash at the grown cap too).
	PinnedScans int64 `json:"pinned_scans"`
}

// StrategyStats is the strategy-planner section of a snapshot: the
// compile-time classification outcome plus the runtime effectiveness
// tracker's counters.
type StrategyStats struct {
	// Planned reports whether the planner chose strategies per group;
	// false means a forced Options.Engine override put every group on one
	// engine.
	Planned bool `json:"planned"`
	// Groups lists, per execution strategy in use, how many automaton
	// groups run it and how many input bytes it has scanned. Per-strategy
	// bytes partition BytesScanned exactly: every byte an automaton (or
	// its strategy replacement) matched against is attributed to exactly
	// one strategy.
	Groups []StrategyGroupStats `json:"groups,omitempty"`
	// SweepsDisabled counts factor sweeps elided entirely because the
	// effectiveness tracker had disabled gating for every gated group.
	SweepsDisabled int64 `json:"sweeps_disabled"`
	// SweepProbes counts sweeps re-run as explicit probes while disabled,
	// checking whether gating has become worthwhile again.
	SweepProbes int64 `json:"sweep_probes"`
	// GroupsUngated is the current number of gated groups whose factor
	// gate the tracker has disabled (a gauge; the groups scan every input
	// until a probe re-enables them).
	GroupsUngated int64 `json:"groups_ungated"`
}

// StrategyGroupStats is one strategy's row in the planner section.
type StrategyGroupStats struct {
	// Strategy names the execution strategy ("ac", "anchored", "dfa",
	// "imfant", "lazydfa").
	Strategy string `json:"strategy"`
	// Groups is the number of automaton groups the planner routed here.
	Groups int `json:"groups"`
	// Bytes counts input bytes this strategy matched against.
	Bytes int64 `json:"bytes"`
}

// SegmentStats is the segment-parallel scanning section of a snapshot. Its
// three byte counters partition BytesScanned exactly: every matched-against
// byte was scanned either inside a segment worker (ParallelBytes), by a
// boundary-stitch runner (StitchBytes), or serially (SerialBytes — derived
// at snapshot time as the remainder, so the partition holds by construction
// across mixed workloads).
type SegmentStats struct {
	// SegmentedScans counts automaton-group executions that ran
	// segment-parallel.
	SegmentedScans int64 `json:"segmented_scans"`
	// Segments counts segments executed across those scans.
	Segments int64 `json:"segments"`
	// Fallbacks counts scans whose boundary frontier exceeded the
	// speculative budget or whose boundary carry outlived a whole segment;
	// the scan still completed exactly and the group was pinned serial for
	// subsequent scans.
	Fallbacks int64 `json:"fallbacks"`
	// ParallelBytes counts input bytes scanned inside segment workers.
	ParallelBytes int64 `json:"parallel_bytes"`
	// StitchBytes counts bytes re-scanned by boundary stitching (carry
	// replay plus local recomputation windows).
	StitchBytes int64 `json:"stitch_bytes"`
	// SerialBytes counts bytes scanned outside the segment-parallel path:
	// BytesScanned − ParallelBytes − StitchBytes.
	SerialBytes int64 `json:"serial_bytes"`
}

// PrefilterStats aggregates literal-factor prefilter behaviour: how often
// the Aho–Corasick factor sweep let whole MFSA groups be skipped, and how
// many automaton-bytes that saved.
type PrefilterStats struct {
	// FilterableRules is the number of rules carrying a literal factor.
	FilterableRules int `json:"filterable_rules"`
	// Factors is the number of distinct factor strings swept for.
	Factors int `json:"factors"`
	// Sweeps counts prefilter sweeps (one per gated scan or stream).
	Sweeps int64 `json:"sweeps"`
	// FactorHits counts distinct factors that occurred, summed over sweeps
	// (the prefilter_factor_hits counter).
	FactorHits int64 `json:"prefilter_factor_hits"`
	// GroupsSkipped counts MFSA executions elided by the prefilter.
	GroupsSkipped int64 `json:"groups_skipped"`
	// BytesSaved is the total input volume those skipped executions would
	// have scanned.
	BytesSaved int64 `json:"bytes_saved"`
}

// AccelStats aggregates byte-skipping acceleration: bytes the engines jumped
// over with a skip kernel instead of stepping one at a time. Skipped bytes
// are still matched against (the jump is provably equivalent), so they also
// count in BytesScanned — BytesSkipped measures per-byte work avoided, not
// input elided, and is disjoint from the prefilter's BytesSaved, which
// counts automaton executions that never ran at all.
type AccelStats struct {
	// Automata is the number of MFSAs sharing these counters.
	Automata int `json:"automata"`
	// AccelStates is the current number of lazy-DFA cached states
	// classified as accelerable, summed across automata (a gauge, like
	// LazyStats.CachedStates); 0 when the iMFAnt engine runs the scans.
	AccelStates int64 `json:"accel_states"`
	// BytesSkipped counts input bytes consumed by accelerated jumps —
	// lazy-DFA state acceleration and the iMFAnt start-byte skip.
	BytesSkipped int64 `json:"bytes_skipped"`
}

// ProfileStats is the profiler section of a snapshot: sampled state heat
// attributed to rules, plus latency and active-set distributions.
type ProfileStats struct {
	// Stride is the symbol-sampling stride in effect (state heat is
	// sampled once every Stride input bytes).
	Stride int `json:"stride"`
	// Samples counts sampling points taken across all scans.
	Samples int64 `json:"samples"`
	// ScanLatencyNS is the per-scan wall-clock latency distribution in
	// nanoseconds; nil when no scan completed yet.
	ScanLatencyNS *HistStats `json:"scan_latency_ns,omitempty"`
	// ChunkLatencyNS is the per-stream-chunk (StreamMatcher.Write)
	// latency distribution in nanoseconds; nil without stream traffic.
	ChunkLatencyNS *HistStats `json:"chunk_latency_ns,omitempty"`
	// ActivePairs is the distribution of active (state, FSA) pairs seen
	// at sampling points — the live working-set size of the engine.
	ActivePairs *HistStats `json:"active_pairs,omitempty"`
	// HotStates lists the most-visited MFSA states with rule attribution,
	// hottest first.
	HotStates []HotStateStats `json:"hot_states,omitempty"`
}

// HistStats is the compact summary of one histogram.
type HistStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// HotStateStats is one entry of the hot-state report.
type HotStateStats struct {
	// Automaton is the MFSA index within the ruleset.
	Automaton int `json:"automaton"`
	// State is the state id within that MFSA.
	State int `json:"state"`
	// Visits is the number of sampling points at which the state was
	// active.
	Visits int64 `json:"visits"`
	// Share is Visits as a fraction of all state visits, in [0, 1].
	Share float64 `json:"share"`
	// Rules lists the rule ids whose compiled paths traverse the state.
	Rules []int `json:"rules,omitempty"`
}

// LazyStats aggregates DFA-cache behaviour across all automata of a
// ruleset running in lazy mode.
type LazyStats struct {
	// Automata is the number of MFSAs sharing these counters.
	Automata int `json:"automata"`
	// CachedStates is the current total number of cached DFA states
	// across all automata (a gauge, not a cumulative counter).
	CachedStates int64 `json:"cached_states"`
	// MaxStates is the per-automaton cache capacity in effect.
	MaxStates int `json:"max_states"`
	// ByteClasses is the total byte-class count across automata (the
	// width of the compressed transition rows).
	ByteClasses int `json:"byte_classes"`
	// Hits counts input symbols served by a cached transition.
	Hits int64 `json:"hits"`
	// Misses counts transitions computed on demand (one per uncached
	// (state, class) edge taken).
	Misses int64 `json:"misses"`
	// Flushes counts whole-cache resets due to the capacity limit.
	Flushes int64 `json:"flushes"`
	// Fallbacks counts scans that abandoned the DFA cache and fell back
	// to iMFAnt after thrashing (MaxFlushes exhausted).
	Fallbacks int64 `json:"fallbacks"`
}

// HitRate returns the fraction of symbols served from cache, in [0, 1].
// It returns 0 when no symbols have been processed.
func (l *LazyStats) HitRate() float64 {
	total := l.Hits + l.Misses
	if total == 0 {
		return 0
	}
	return float64(l.Hits) / float64(total)
}

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
	cachedStates []atomic.Int64 // per-automaton gauge

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
	accelStates   []atomic.Int64 // per-automaton gauge (lazy engine only)

	stratEnabled  bool
	stratPlanned  bool
	stratNames    []string
	stratGroups   []int
	stratBytes    []atomic.Int64
	sweepsElided  atomic.Int64
	sweepProbes   atomic.Int64
	groupsUngated atomic.Int64

	segEnabled   bool
	segScans     atomic.Int64
	segSegments  atomic.Int64
	segFallbacks atomic.Int64
	segParallel  atomic.Int64
	segStitch    atomic.Int64

	lat *Latency

	timeouts     atomic.Int64
	shed         atomic.Int64
	workerPanics atomic.Int64
	cacheGrows   atomic.Int64
	pinnedScans  atomic.Int64

	profileFn atomic.Value // func() *ProfileStats
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
// the static cache configuration: the number of automata, the
// per-automaton state capacity, and the total byte-class count.
func (c *Collector) EnableLazy(automata, maxStates, byteClasses int) {
	c.lazyEnabled = true
	c.lazyAutomata = automata
	c.maxStates = maxStates
	c.byteClasses = byteClasses
	c.cachedStates = make([]atomic.Int64, automata)
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

// EnableSegment turns on the segment-parallel section of the snapshot.
func (c *Collector) EnableSegment() { c.segEnabled = true }

// AddSegmentScan folds one segment-parallel group execution: the number of
// segments it ran, whether its frontier budget fell back, and its
// parallel/stitch byte split. parallelBytes + stitchBytes must equal the
// bytes the same execution folded via AddBytes, so the segment partition of
// BytesScanned stays exact.
func (c *Collector) AddSegmentScan(segments, fallbacks, parallelBytes, stitchBytes int64) {
	c.segScans.Add(1)
	c.segSegments.Add(segments)
	c.segFallbacks.Add(fallbacks)
	c.segParallel.Add(parallelBytes)
	c.segStitch.Add(stitchBytes)
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
// one automaton (lazy engine only).
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

// SetCachedStates records the current cache population of one automaton.
func (c *Collector) SetCachedStates(automaton int, n int64) {
	if automaton >= 0 && automaton < len(c.cachedStates) {
		c.cachedStates[automaton].Store(n)
	}
}

// SetProfileFunc installs fn as the producer of the snapshot's Profile
// section. Snapshot calls it on every invocation; fn returning nil leaves
// the section omitted. Safe for concurrent use with Snapshot.
func (c *Collector) SetProfileFunc(fn func() *ProfileStats) {
	c.profileFn.Store(fn)
}

// Snapshot returns a point-in-time copy of every counter. Counters are
// read individually, so a snapshot taken during concurrent scans is
// internally consistent per counter but not across counters.
func (c *Collector) Snapshot() Stats {
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
		par, st := c.segParallel.Load(), c.segStitch.Load()
		s.Segment = &SegmentStats{
			SegmentedScans: c.segScans.Load(),
			Segments:       c.segSegments.Load(),
			Fallbacks:      c.segFallbacks.Load(),
			ParallelBytes:  par,
			StitchBytes:    st,
			SerialBytes:    s.BytesScanned - par - st,
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
