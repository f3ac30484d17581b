package telemetry

import "repro/internal/hist"

// This file is the single declaration of the stats snapshot schema. The
// root package re-exports every type here under the same name by alias, so
// the JSON keys below are the public contract (see DESIGN.md) and a field
// is added or renamed in exactly one place.

// Stats is a point-in-time snapshot of runtime matching telemetry. Every
// counter is cumulative since the owning object was created. Snapshots are
// cheap — counters are folded at scan (never per-byte) granularity, so the
// matching hot loops pay nothing for them.
//
// Three scopes expose the same shape:
//
//   - Ruleset.Stats aggregates across every Scanner, StreamMatcher, and
//     CountParallel call derived from the ruleset.
//   - Scanner.Stats covers that scanner's own scans.
//   - StreamMatcher.Stats covers that stream.
type Stats struct {
	// Scans counts completed automaton executions: one per (scan,
	// automaton) pair for block scans, one per automaton for a closed
	// stream.
	Scans int64 `json:"scans"`
	// BytesScanned counts input bytes matched against, per automaton —
	// scanning 1 KiB through a ruleset of 3 MFSAs adds 3 KiB.
	BytesScanned int64 `json:"bytes_scanned"`
	// Matches counts reported match events.
	Matches int64 `json:"matches"`
	// RuleHits holds per-rule match counts indexed like the compiled
	// patterns. A persistently hot rule is a sharding candidate.
	RuleHits []int64 `json:"rule_hits,omitempty"`
	// Lazy holds the lazy-DFA cache counters; nil when no group runs on
	// the lazy-DFA engine.
	Lazy *LazyStats `json:"lazy,omitempty"`
	// Prefilter holds the literal-factor prefilter counters; nil when the
	// prefilter is not gating scans (see Options.Prefilter).
	Prefilter *PrefilterStats `json:"prefilter,omitempty"`
	// Accel holds the byte-skipping acceleration counters; nil when
	// acceleration is off (see Options.Accel).
	Accel *AccelStats `json:"accel,omitempty"`
	// Strategy holds the per-group strategy planner's section: which
	// execution strategies the compile-time classification chose, how much
	// input each has scanned, and the runtime prefilter-effectiveness
	// tracker's counters. Always present on rulesets compiled by this
	// version; the per-strategy Bytes partition BytesScanned exactly.
	Strategy *StrategyStats `json:"strategy,omitempty"`
	// Profile holds the sampling profiler's aggregates; nil when the
	// ruleset was compiled without Options.Profile. Ruleset scope only —
	// Scanner and StreamMatcher snapshots omit it (the profiler is shared
	// ruleset-wide).
	Profile *ProfileStats `json:"profile,omitempty"`
	// Segment holds the counters of the segmented literal pass; nil when
	// segmenting is disabled (Options.Segment == SegmentOff). Its byte
	// counters partition BytesScanned exactly. At Scanner and
	// StreamMatcher scope every byte is serial — those owners never
	// segment.
	Segment *SegmentStats `json:"segment,omitempty"`
	// Degraded accounts every rung of the degradation ladder taken:
	// timeouts, shed scans, contained worker panics, lazy-DFA thrash
	// fallbacks, cache-grow retries, and pinned delegations. Always
	// present — an all-zero section is the healthy steady state. A scan
	// counted here still returned either exact matches or a typed error;
	// the section measures lost headroom, never lost correctness.
	Degraded *DegradedStats `json:"degraded"`
	// Latency holds the per-stage wall-clock latency distributions
	// recorded under Options.Latency or Options.Profile; nil when
	// attribution is off or no stage has fired. Ruleset scope only — the
	// histogram set is shared ruleset-wide, like the profiler.
	Latency *LatencyStats `json:"latency,omitempty"`
}

// DegradedStats is the degradation-ladder section of a stats snapshot. The
// rungs, in escalation order: a scan can time out (ErrScanTimeout), be shed
// under overload (ErrOverloaded), lose one automaton to a contained worker
// panic (engine.WorkerPanicError), or — on the lazy-DFA engine — thrash its
// cache and fall back to iMFAnt, retry once with a doubled cache, and
// finally pin to iMFAnt for good. Scanner and StreamMatcher scopes report
// their own events; Shed and WorkerPanics are parallel-scan phenomena and
// stay zero there.
type DegradedStats struct {
	// ScanTimeouts counts scans cancelled by Options.ScanTimeout.
	ScanTimeouts int64 `json:"scan_timeouts"`
	// Shed counts scans rejected by the bounded work queue
	// (Options.MaxConcurrentScans) before doing any work.
	Shed int64 `json:"shed"`
	// WorkerPanics counts panics contained inside CountParallel workers:
	// the panicking automaton's results were lost (and reported as a
	// typed error), the process and sibling automata were not.
	WorkerPanics int64 `json:"worker_panics"`
	// ThrashFallbacks counts lazy-DFA scans that fell back to the iMFAnt
	// engine after thrashing the cache — the ladder's first rung,
	// mirroring Lazy.Fallbacks.
	ThrashFallbacks int64 `json:"thrash_fallbacks"`
	// CacheGrows counts one-shot retry-with-larger-cache events: a
	// matching context re-entering the cached path with its cap doubled
	// after a thrash.
	CacheGrows int64 `json:"cache_grows"`
	// PinnedScans counts scans delegated whole to the iMFAnt engine
	// because the ladder bottomed out (thrash at the grown cap too).
	PinnedScans int64 `json:"pinned_scans"`
}

// SegmentStats is the segment section of a stats snapshot
// (Options.Segment): the literal pass of a large CountParallel or FindAll
// runs over per-worker segments, and every other execution unit runs whole
// in the worker pool. ParallelBytes + StitchBytes + SerialBytes ==
// BytesScanned always holds: every matched-against byte was scanned by a
// worker of the segmented pass or outside it (SerialBytes is derived at
// snapshot time as the remainder, so the partition holds by construction
// across mixed workloads). No boundary is ever stitched, so StitchBytes and
// Fallbacks are always 0; they stay in the schema for its readers.
type SegmentStats struct {
	// SegmentedScans counts the group executions of the AC and chain
	// groups that ran in a segmented literal pass: one per group per pass.
	SegmentedScans int64 `json:"segmented_scans"`
	// Segments counts segments executed across those scans.
	Segments int64 `json:"segments"`
	// Fallbacks is always 0: no group is ever pinned serial.
	Fallbacks int64 `json:"fallbacks"`
	// ParallelBytes counts input bytes scanned by the workers of segmented
	// passes, overlap windows included, once per AC and chain group.
	ParallelBytes int64 `json:"parallel_bytes"`
	// StitchBytes is always 0: the pass needs no boundary stitch.
	StitchBytes int64 `json:"stitch_bytes"`
	// SerialBytes counts bytes scanned outside a segmented pass: every
	// other execution unit's, and every byte of unsegmented scans.
	SerialBytes int64 `json:"serial_bytes"`
}

// PrefilterStats is the literal-factor prefilter section of a stats
// snapshot. GroupsSkipped versus Scans is the skip rate; BytesSaved is the
// input volume the skipped automaton executions never had to touch.
type PrefilterStats struct {
	// FilterableRules is the number of rules carrying a literal factor or
	// running as an AC literal.
	FilterableRules int `json:"filterable_rules"`
	// Factors is the number of distinct strings of the one literal pass:
	// gating factors and AC literals, a string that is both counted once.
	Factors int `json:"factors"`
	// Sweeps counts literal passes run: one Aho–Corasick pass per block
	// scan or stream, which both runs the AC-routed groups and decides the
	// factor gates.
	Sweeps int64 `json:"sweeps"`
	// FactorHits counts the distinct patterns — factors and AC literals —
	// each pass saw, summed over passes (the prefilter_factor_hits
	// counter).
	FactorHits int64 `json:"prefilter_factor_hits"`
	// GroupsSkipped counts whole MFSA executions elided by the prefilter.
	// Gating acts on execution units, so a group is skipped only with
	// every member of its unit: when no member's factor occurred.
	GroupsSkipped int64 `json:"groups_skipped"`
	// BytesSaved totals the input bytes those executions would have
	// scanned.
	BytesSaved int64 `json:"bytes_saved"`
}

// StrategyStats is the strategy-planner section of a stats snapshot: the
// compile-time classification outcome (see DESIGN.md for the rules) plus
// the runtime prefilter-effectiveness tracker's counters. The tracker
// exists only on rulesets whose literal pass gates without delivering
// anything (no AC or chain group): elsewhere the pass runs every scan and
// the three tracker counters stay zero. At Scanner and StreamMatcher scope
// the sweep-disable counters stay zero — the tracker is shared
// ruleset-wide and its event counters are reported there — while
// GroupsUngated reflects the shared gauge.
type StrategyStats struct {
	// Planned reports whether the planner classified groups individually;
	// false means a forced Options.Engine override put every group on one
	// engine.
	Planned bool `json:"planned"`
	// Groups lists, per execution strategy in use, how many automaton
	// groups run it and how many input bytes it has matched against.
	Groups []StrategyGroupStats `json:"groups,omitempty"`
	// SweepsDisabled counts literal passes elided entirely because the
	// effectiveness tracker had disabled gating for every gated group (the
	// pass then has no AC literals or chain pieces to deliver).
	SweepsDisabled int64 `json:"sweeps_disabled"`
	// SweepProbes counts sweeps re-run as explicit probes while disabled,
	// checking whether gating has become worthwhile again.
	SweepProbes int64 `json:"sweep_probes"`
	// GroupsUngated is the current number of gated groups whose factor
	// gate the tracker has disabled (a gauge; those groups scan every
	// input until a probe re-enables them).
	GroupsUngated int64 `json:"groups_ungated"`
}

// StrategyGroupStats is one strategy's row in the planner section.
type StrategyGroupStats struct {
	// Strategy names the execution strategy: "ac", "anchored", "chain",
	// "dfa", "imfant", or "lazydfa".
	Strategy string `json:"strategy"`
	// Groups is the number of automaton groups the planner routed here.
	Groups int `json:"groups"`
	// Bytes counts input bytes this strategy matched against.
	Bytes int64 `json:"bytes"`
}

// AccelStats is the byte-skipping acceleration section of a stats snapshot.
// BytesSkipped counts input bytes the engines jumped over with a skip kernel
// instead of stepping per byte; those bytes were still matched against (the
// jump is provably equivalent) and so also count in BytesScanned —
// BytesSkipped ≤ BytesScanned always holds, and the counter is disjoint from
// the prefilter's BytesSaved, which counts automaton executions that never
// ran at all.
type AccelStats struct {
	// Automata is the number of MFSAs contributing to these counters.
	Automata int `json:"automata"`
	// AccelStates is the current number of lazy-DFA cached states
	// classified as accelerable, summed across automata (a gauge, like
	// LazyStats.CachedStates); 0 on the iMFAnt engine.
	AccelStates int64 `json:"accel_states"`
	// BytesSkipped counts input bytes consumed by accelerated jumps —
	// lazy-DFA state acceleration and the iMFAnt start-byte skip.
	BytesSkipped int64 `json:"bytes_skipped"`
}

// ProfileStats is the profiler section of a stats snapshot: sampled state
// heat attributed to rules, plus the active-set distribution. For the full
// heat map use Ruleset.Profile; scan and stream-chunk latency live in the
// Latency section's "scan" and "stream_write" stages.
type ProfileStats struct {
	// Stride is the symbol-sampling stride in effect (state heat is
	// sampled once every Stride input bytes).
	Stride int `json:"stride"`
	// Samples counts sampling points taken across all scans: one per
	// execution unit per Stride bytes it scans.
	Samples int64 `json:"samples"`
	// ActivePairs summarizes the active (state, FSA) pair count at
	// sampling points — an execution unit's live working-set size.
	ActivePairs *HistStats `json:"active_pairs,omitempty"`
	// HotStates lists the ten most-visited states with rule attribution,
	// hottest first.
	HotStates []HotState `json:"hot_states,omitempty"`
}

// HotState is one state of the profiler's heat report: a single MFSA
// state, how often sampling found it active, its share of all sampled
// visits, and the rules whose compiled paths traverse it. A state shared
// by many rules that absorbs a large share is the signature of effective
// merging — or, with one dominant rule, of a pathological pattern.
type HotState struct {
	// Automaton is the MFSA index within the ruleset.
	Automaton int `json:"automaton"`
	// State is the state id within that MFSA.
	State int `json:"state"`
	// Visits counts sampling points at which the state was active.
	Visits int64 `json:"visits"`
	// Share is Visits over all states' visits, in [0, 1].
	Share float64 `json:"share"`
	// Rules lists the owning rule ids, ascending.
	Rules []int `json:"rules,omitempty"`
}

// HistStats is the compact summary of one recorded distribution.
// Percentiles come from log2 buckets and are within 2× of exact.
type HistStats struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Summarize reduces a histogram snapshot to its HistStats summary.
func Summarize(s hist.Snapshot) HistStats {
	return HistStats{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Percentile(0.50),
		P90:   s.Percentile(0.90),
		P99:   s.Percentile(0.99),
		Max:   s.Max,
	}
}

// LatencyStats is the per-stage latency section of a stats snapshot
// (Options.Latency, or Options.Profile): one summarized wall-clock
// distribution, in nanoseconds, per pipeline stage that has recorded at
// least one observation. The stages, in pipeline order:
//
//   - "scan": one whole block scan or parallel count, end to end.
//   - "prefilter": one literal pass that only gates (no AC literals or
//     chain pieces).
//   - "strategy_imfant", "strategy_lazydfa", "strategy_ac",
//     "strategy_anchored", "strategy_dfa": one automaton's dispatch under
//     that execution strategy — where a scan's time went, by strategy;
//     "strategy_ac" times the one literal pass when it delivers AC
//     literals or chain pieces, its gating included.
//   - "parallel": the worker-pool fan-out of a CountParallel
//     call (wall clock over all admitted automata together).
//   - "stream_write": one StreamMatcher.Write chunk.
//   - "stream_flush": the end-of-stream flush inside Close.
//   - "segment": one segmented literal pass, its ordered replay included.
//
// Percentiles come from log2 buckets and are within 2× of exact.
type LatencyStats struct {
	// Stages lists the active stages in pipeline order.
	Stages []StageLatency `json:"stages"`
}

// StageLatency is one stage's latency summary, in nanoseconds.
type StageLatency struct {
	// Stage is the stable stage name (see LatencyStats).
	Stage string `json:"stage"`
	HistStats
}

// LazyStats aggregates transition-cache behaviour across the lazy-DFA
// execution units of a ruleset: one table each, of one automaton or of
// several fused ones. The hit rate is the primary
// signal for sizing Options.LazyDFAMaxStates: a low rate on steady traffic
// means the cap is too small for the ruleset; a rising Fallbacks count
// means the input mix is defeating determinization outright.
type LazyStats struct {
	// Automata is the number of lazy-DFA execution units — tables —
	// contributing to these counters; fused automata count once.
	Automata int `json:"automata"`
	// CachedStates is the most recently observed total number of cached
	// DFA states across units (a gauge, not a cumulative counter).
	CachedStates int64 `json:"cached_states"`
	// CacheBytes is the memory held by the transition caches behind
	// CachedStates — row, state, index and word-arena tables, by capacity
	// (a gauge). At Ruleset scope it is the sum, over automata, of the most
	// recently finished runner's cache; at Scanner and StreamMatcher scope,
	// of the scope's own runners.
	CacheBytes int64 `json:"cache_bytes"`
	// MaxStates is the per-automaton cache capacity in effect.
	MaxStates int `json:"max_states"`
	// ByteClasses is the total byte-class count across automata — the
	// width of each automaton's compressed transition rows.
	ByteClasses int `json:"byte_classes"`
	// Hits counts input bytes served by a cached transition. A fused
	// unit's bytes count once, so Hits + Misses is the lazy units' bytes,
	// not the lazy groups' share of BytesScanned.
	Hits int64 `json:"hits"`
	// Misses counts transitions computed on demand (one per uncached
	// (state, class) edge taken).
	Misses int64 `json:"misses"`
	// Flushes counts whole-cache resets forced by the capacity limit.
	Flushes int64 `json:"flushes"`
	// Fallbacks counts scans that abandoned the cache for iMFAnt after
	// thrashing. Ladder pins count in Degraded.PinnedScans instead.
	Fallbacks int64 `json:"fallbacks"`
}

// HitRate returns the fraction of cache lookups served from the cache, in
// [0, 1]; 0 when no lookups have happened.
func (l *LazyStats) HitRate() float64 {
	total := l.Hits + l.Misses
	if total == 0 {
		return 0
	}
	return float64(l.Hits) / float64(total)
}
