// Package imfant is a multi-regular-expression matching library built on
// the Multi-RE Finite State Automaton (MFSA) model of "One Automaton to
// Rule Them All: Beyond Multiple Regular Expressions Execution" (CGO 2024).
//
// A Ruleset compiles a set of POSIX ERE patterns through the paper's
// multi-level framework — lexical/syntactic analysis, Thompson construction,
// single-FSA optimization (ε-removal, loop expansion, multiplicity
// simplification), and merging of morphologically identical sub-paths into
// MFSAs — and executes them with the iMFAnt engine, which tracks the
// activation function so each merged RE's matches stay exact.
//
// Quick start:
//
//	rs, err := imfant.Compile([]string{"GET /admin", "cmd\\.exe"}, imfant.Options{})
//	if err != nil { ... }
//	for _, m := range rs.FindAll(payload) {
//		fmt.Printf("rule %d (%s) matched ending at %d\n", m.Rule, m.Pattern, m.End)
//	}
package imfant

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ahocorasick"
	"repro/internal/anml"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/hist"
	"repro/internal/lazydfa"
	"repro/internal/metrics"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// EngineMode selects the execution engine used by scans.
type EngineMode int

const (
	// EngineAuto picks the lazy-DFA engine whenever its semantics apply
	// (KeepOnMatch, whose keep semantics make the traversal cacheable)
	// and the iMFAnt engine otherwise.
	EngineAuto EngineMode = iota
	// EngineIMFAnt forces the paper's NFA-style iMFAnt engine.
	EngineIMFAnt
	// EngineLazyDFA forces the lazy-DFA engine: on-the-fly
	// determinization of the iMFAnt state vector with a bounded,
	// byte-class-compressed transition cache. Configurations it cannot
	// cache (KeepOnMatch == false, the paper's Eq. 5 pop) and inputs
	// that thrash the cache fall back transparently to iMFAnt.
	EngineLazyDFA
)

// AccelMode selects byte-skipping acceleration: memchr-class skip kernels
// that let the engines jump over provably irrelevant input bytes instead of
// stepping the automaton once per byte. The lazy-DFA engine classifies every
// cached state at construction and jumps while parked in states with at most
// four live outgoing bytes; the iMFAnt engine skips to the next possible
// start byte while its activation vector is empty; the prefilter's
// Aho–Corasick sweep skips while parked at its root. All three are exact:
// match results are byte-identical in every mode.
type AccelMode int

const (
	// AccelAuto (the zero value) enables acceleration. It is the default
	// because the skips are exact and profitable whenever they engage;
	// states and programs that do not qualify run the ordinary per-byte
	// loops unchanged.
	AccelAuto AccelMode = iota
	// AccelOn forces acceleration (currently identical to AccelAuto).
	AccelOn
	// AccelOff disables every byte-skipping path — the measurement
	// baseline, and an escape hatch.
	AccelOff
)

// Options configures compilation and matching.
type Options struct {
	// MergeFactor is the paper's M: how many REs are merged into each
	// MFSA. The ruleset is split into ⌈N/M⌉ sequential groups. Zero (or
	// a value ≥ the ruleset size) merges everything into one MFSA
	// ("M = all"), which maximizes compression; 1 disables merging and
	// degenerates to plain iNFAnt over per-RE NFAs.
	MergeFactor int
	// KeepOnMatch disables the paper's Eq. 5 pop: a rule stays active
	// after matching, so every longer match of the same path is also
	// reported. Off by default (paper semantics).
	KeepOnMatch bool
	// Engine selects the execution engine. The zero value (EngineAuto)
	// uses the lazy-DFA engine when KeepOnMatch is set and iMFAnt
	// otherwise. Both engines report each (rule, end offset) pair exactly
	// once, so their match-event streams are identical.
	Engine EngineMode
	// Prefilter selects the literal-factor prefilter: a compile-time
	// Hyperscan-style decomposition that extracts a required literal factor
	// from each rule where one exists, and a scan-time Aho–Corasick sweep
	// that skips whole MFSA groups whose rules cannot match the input. The
	// zero value (PrefilterAuto) engages it only when at least one group is
	// fully filterable; PrefilterOn additionally biases grouping so
	// filterable rules share MFSAs. Results are identical in every mode.
	Prefilter PrefilterMode
	// MinFactorLen is the shortest literal factor worth prefiltering on;
	// 0 selects the default (3). Shorter factors hit more often and gate
	// less; raising the threshold trades filterable-rule coverage for
	// sweep selectivity.
	MinFactorLen int
	// Accel selects byte-skipping acceleration (lazy-DFA state
	// acceleration, the iMFAnt start-byte skip, and the prefilter sweep's
	// root skip). The zero value (AccelAuto) enables it; results are
	// byte-identical in every mode. See AccelMode.
	Accel AccelMode
	// LazyDFAMaxStates caps the lazy-DFA transition cache per automaton
	// and matching context; 0 selects lazydfa.DefaultMaxStates. Smaller
	// caps bound memory at the cost of more cache flushes.
	LazyDFAMaxStates int
	// Limits is the compile-side resource budget: pattern length, nesting
	// depth, per-rule NFA states under loop expansion, and the total MFSA
	// state count. The zero value selects the documented defaults, which
	// keep compilation of hostile rulesets bounded; set a field negative
	// to disable that check.
	Limits Limits
	// Profile enables the sampling execution profiler: per-state visit
	// counts attributed to rules through the belonging sets, scan and
	// stream-chunk latency histograms, and active-set size distributions,
	// all readable via Ruleset.Profile and the Stats().Profile section.
	// Sampling happens once every ProfileStride input bytes outside the
	// per-byte hot loops; with Profile off the engines pay a single nil
	// check per chunk and Profile() returns nil.
	Profile bool
	// ProfileStride is the symbol-sampling stride of the profiler; 0
	// selects the default (64). Smaller strides sharpen the heat map at a
	// proportional sampling cost. Ignored when Profile is false.
	ProfileStride int
	// Latency enables per-stage wall-clock latency attribution: monotonic
	// timers bracket the prefilter sweep, each automaton's strategy
	// dispatch, the parallel fan-out, and stream chunk/flush work, folded
	// into allocation-free log2 histograms and surfaced as the
	// Stats().Latency section (p50/p90/p99 per stage, nanoseconds).
	// Independent of Profile; with Latency off the scan paths pay a single
	// nil check per chunk and the section is omitted.
	Latency bool
	// TraceCapacity, when positive, enables the structured trace ring:
	// the most recent TraceCapacity events (scan begin/end, matches, lazy
	// flush/fallback, stream end) are retained and readable via
	// Ruleset.TraceEvents; SetTraceSink observes every event live.
	// Tracing is independent of Profile.
	TraceCapacity int
	// ScanTimeout bounds each scan's wall-clock time; zero disables the
	// bound. The deadline is observed at the engines' ordinary
	// checkpoints (about every 4 KiB per automaton) and surfaces as the
	// typed ErrScanTimeout, which wraps context.DeadlineExceeded. For
	// StreamMatchers the budget applies per Write (and to Close's final
	// flush) rather than to the unbounded stream as a whole; an expired
	// stream fails sticky, like a context cancellation. Timed-out scans
	// count in Stats().Degraded.ScanTimeouts.
	ScanTimeout time.Duration
	// MaxConcurrentScans bounds how many CountParallel calls may execute
	// at once across the ruleset; 0 (the default) does not bound them.
	// With the bound in place, excess calls wait in a queue of at most
	// MaxQueuedScans; beyond that they are shed with the typed
	// ErrOverloaded instead of queueing unboundedly. Shed scans count in
	// Stats().Degraded.Shed.
	MaxConcurrentScans int
	// MaxQueuedScans is the bounded work queue's capacity — how many
	// CountParallel calls may block waiting for a slot when
	// MaxConcurrentScans is set. The default 0 sheds immediately
	// whenever every slot is busy (fail-fast). Ignored without
	// MaxConcurrentScans.
	MaxQueuedScans int
	// ThrashRetry selects the lazy-DFA degradation ladder: after a
	// matching context's cache thrashes, its next scan retries once with
	// the cache cap doubled, and a thrash at the grown cap pins the
	// context to the iMFAnt engine permanently — bounded backoff in
	// place of rebuild-thrash-rebuild churn. The zero value (RetryAuto)
	// enables the ladder; results are byte-identical on every rung. The
	// rungs taken are recorded in Stats().Degraded (CacheGrows,
	// PinnedScans).
	ThrashRetry RetryMode
	// Segment selects segment-parallel scanning for whole-buffer ruleset
	// scans (CountParallel, FindAll): the input is cut into contiguous
	// segments scanned concurrently, with exact boundary stitching — the
	// reported events are byte-identical to a serial scan. SegmentAuto (the
	// zero value) segments inputs of at least SegmentMinBytes; SegmentOn
	// segments every input large enough to cut; SegmentOff disables the
	// path. Scanner and StreamMatcher scans are never segmented — their
	// value is warm per-goroutine state, not intra-input parallelism.
	Segment SegmentMode
	// SegmentMinBytes is the minimum input size SegmentAuto segments; 0
	// selects DefaultSegmentMinBytes. Below it the fan-out overhead
	// (per-worker runners plus boundary stitching) outweighs the
	// parallelism.
	SegmentMinBytes int
	// SegmentWorkers is the segment count per scan; 0 selects GOMAXPROCS.
	// CountParallel's explicit threads argument, when positive, takes
	// precedence.
	SegmentWorkers int
	// SegmentMaxFrontier bounds the speculative boundary frontier, in
	// active MFSA states; 0 selects DefaultSegmentMaxFrontier. A group
	// whose boundary carry exceeds the budget still finishes the current
	// scan exactly, but is pinned to the serial path for subsequent scans
	// (counted in Stats().Segment.Fallbacks) — a group that is almost
	// always mid-match gains nothing from segmentation.
	SegmentMaxFrontier int
}

// Match is one reported match.
type Match struct {
	// Rule is the index of the pattern within the compiled ruleset.
	Rule int
	// Pattern is the rule's source text.
	Pattern string
	// End is the offset of the last byte of the match (inclusive).
	End int
}

// StageTimes reports the cost of each compilation stage (§IV, Fig. 8).
type StageTimes struct {
	FrontEnd, ASTToFSA, SingleFSAOpt, Merging, ANMLGen time.Duration
}

// Total returns the end-to-end compilation time.
func (st StageTimes) Total() time.Duration {
	return st.FrontEnd + st.ASTToFSA + st.SingleFSAOpt + st.Merging + st.ANMLGen
}

// Ruleset is a compiled, immutable set of regular expressions ready for
// matching. Create one with Compile or LoadANML. A Ruleset is safe for
// concurrent use; per-goroutine scratch state lives in Matchers.
type Ruleset struct {
	patterns  []string
	mfsas     []*mfsa.MFSA
	programs  []*engine.Program
	lazy      []*lazydfa.Matcher
	times     StageTimes
	comp      metrics.Compression
	opts      Options
	collector *telemetry.Collector
	plan      *scanPlan    // per-group execution strategies (see plan.go)
	pf        *prefilter   // literal-factor gating plan; nil when inactive
	tracker   *prefTracker // runtime sweep-effectiveness tracker; nil when ungated
	sched     *scanGate    // overload shedding for parallel scans; nil when unbounded
	// prefEnabled (with the rule/factor config counts) drives the Prefilter
	// stats section: it is on whenever literal gating is happening — via the
	// factor sweep (rs.pf) or via AC-routed groups, whose strategy scan IS
	// their factor sweep.
	prefEnabled bool
	prefRules   int
	prefFactors int
	// faults, when non-nil, arms the fault-injection sites of every scan
	// and stream created from this ruleset — the chaos-testing substrate
	// (see internal/faultpoint). Always nil in production use; set by
	// in-package tests via setFaultInjector.
	faults *faultpoint.Injector
	// segSerial[i], once set, pins group i to the serial path in segmented
	// scans: its speculative boundary frontier exceeded SegmentMaxFrontier,
	// so the group is almost always mid-match and segmentation buys nothing
	// (see segment.go). Sticky for the ruleset's lifetime.
	segSerial []atomic.Bool

	// Profiling state; all nil/absent when Options.Profile is false.
	profiles []*engine.Profile // per-program sampled state heat
	scanLat  *hist.Histogram   // per-scan wall-clock latency, ns
	chunkLat *hist.Histogram   // per-StreamMatcher.Write latency, ns
	trace    *telemetry.TraceRing
	// lat is the per-stage latency histogram set; nil when Options.Latency
	// is false — the single nil check instrumentation-off scans pay.
	lat *telemetry.Latency
}

// accelOn resolves the Accel knob: every mode but AccelOff accelerates.
func (o Options) accelOn() bool { return o.Accel != AccelOff }

// useLazy reports whether scans run on the lazy-DFA engine.
func (rs *Ruleset) useLazy() bool {
	switch rs.opts.Engine {
	case EngineIMFAnt:
		return false
	case EngineLazyDFA:
		return true
	default:
		return rs.opts.KeepOnMatch
	}
}

// buildEngines lowers the compiled MFSAs into executable programs and their
// lazy-DFA matchers, and sets up the ruleset-wide telemetry collector.
func (rs *Ruleset) buildEngines() {
	rs.lazy = make([]*lazydfa.Matcher, len(rs.programs))
	for i, p := range rs.programs {
		rs.lazy[i] = lazydfa.New(p)
	}
	rs.collector = telemetry.NewCollector(len(rs.patterns))
	// The Lazy section is enabled by buildPlan, which knows how many groups
	// actually run on the lazy-DFA engine.
	if rs.opts.accelOn() {
		rs.collector.EnableAccel(len(rs.programs))
	}
	if rs.opts.Segment != SegmentOff {
		rs.collector.EnableSegment()
	}
	rs.segSerial = make([]atomic.Bool, len(rs.programs))
	if rs.opts.Profile {
		rs.profiles = make([]*engine.Profile, len(rs.programs))
		for i, p := range rs.programs {
			rs.profiles[i] = engine.NewProfile(p, rs.opts.ProfileStride)
		}
		rs.scanLat = new(hist.Histogram)
		rs.chunkLat = new(hist.Histogram)
		rs.collector.SetProfileFunc(rs.profileStats)
	}
	if rs.opts.TraceCapacity > 0 {
		rs.trace = telemetry.NewTraceRing(rs.opts.TraceCapacity)
	}
	if rs.opts.Latency {
		rs.lat = rs.collector.EnableLatency()
	}
	rs.sched = newScanGate(rs.opts.MaxConcurrentScans, rs.opts.MaxQueuedScans)
}

// setFaultInjector arms in on every scan and stream subsequently created
// from the ruleset (already-created Scanners and StreamMatchers keep their
// configuration). Test-only: the chaos conformance suite schedules fault
// storms through it; nil disarms.
func (rs *Ruleset) setFaultInjector(in *faultpoint.Injector) { rs.faults = in }

// profileOf returns automaton i's profile, nil when profiling is off.
func (rs *Ruleset) profileOf(i int) *engine.Profile {
	if rs.profiles == nil {
		return nil
	}
	return rs.profiles[i]
}

// Compile builds a Ruleset from POSIX ERE patterns. Compilation runs under
// Options.Limits; any failure — syntax or budget — is returned as a
// *CompileError attributing the rule and pipeline stage, and the whole
// ruleset is rejected. Use CompileLax to isolate per-rule failures instead.
func Compile(patterns []string, opts Options) (*Ruleset, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("imfant: empty ruleset")
	}
	out, _, err := pipeline.Run(pipeline.Request{
		Patterns:     patterns,
		Merge:        opts.MergeFactor,
		Limits:       opts.Limits.pipeline(),
		FactorMinLen: factorMinLenFor(opts),
		FactorGroup:  opts.Prefilter == PrefilterOn,
		Shapes:       opts.Engine == EngineAuto,
	})
	if err != nil {
		return nil, wrapCompileError(err)
	}
	return newRuleset(patterns, out, opts), nil
}

// CompileLax compiles the ruleset with per-rule fault isolation: rules that
// fail lexing, parsing, construction, or single-FSA optimization are
// dropped and reported in ruleErrs while the surviving rules compile
// exactly as if the ruleset had never contained the bad ones — same
// automata, same matches, and Match.Rule still indexes the original
// patterns slice. err is non-nil only for ruleset-level failures (no rule
// survived, or the merge/ANML stages failed), in which case rs is nil.
func CompileLax(patterns []string, opts Options) (rs *Ruleset, ruleErrs []RuleError, err error) {
	if len(patterns) == 0 {
		return nil, nil, fmt.Errorf("imfant: empty ruleset")
	}
	out, perrs, err := pipeline.Run(pipeline.Request{
		Patterns:     patterns,
		Merge:        opts.MergeFactor,
		Limits:       opts.Limits.pipeline(),
		Lax:          true,
		FactorMinLen: factorMinLenFor(opts),
		FactorGroup:  opts.Prefilter == PrefilterOn,
		Shapes:       opts.Engine == EngineAuto,
	})
	for _, pe := range perrs {
		ruleErrs = append(ruleErrs, RuleError{
			Rule: pe.Rule, Pattern: pe.Pattern, Stage: pe.Stage, Err: pe.Err,
		})
	}
	if err != nil {
		return nil, ruleErrs, wrapCompileError(err)
	}
	return newRuleset(patterns, out, opts), ruleErrs, nil
}

// factorMinLenFor returns the factor-extraction threshold to pass to the
// pipeline: 0 (extraction off) when the prefilter is disabled, the resolved
// MinFactorLen otherwise.
func factorMinLenFor(opts Options) int {
	if opts.Prefilter == PrefilterOff {
		return 0
	}
	return opts.minFactorLen()
}

// wrapCompileError converts a pipeline failure into the public typed form.
func wrapCompileError(err error) error {
	var pe *pipeline.RuleError
	if errors.As(err, &pe) {
		return &CompileError{Rule: pe.Rule, Pattern: pe.Pattern, Stage: pe.Stage, Err: pe.Err}
	}
	return fmt.Errorf("imfant: %w", err)
}

// newRuleset lowers a pipeline output into an executable Ruleset. patterns
// is the full original ruleset — in lax mode the compiled automata may
// cover a subset, but rule ids keep indexing the original slice.
func newRuleset(patterns []string, out *pipeline.Output, opts Options) *Ruleset {
	rs := &Ruleset{
		patterns: append([]string(nil), patterns...),
		mfsas:    out.MFSAs,
		opts:     opts,
		times: StageTimes{
			FrontEnd:     out.Times.FrontEnd,
			ASTToFSA:     out.Times.ASTToFSA,
			SingleFSAOpt: out.Times.SingleME,
			Merging:      out.Times.MergeME,
			ANMLGen:      out.Times.BackEnd,
		},
		comp: metrics.MeasureCompression(out.FSAs, out.MFSAs),
	}
	rs.programs = make([]*engine.Program, len(out.MFSAs))
	for i, z := range out.MFSAs {
		rs.programs[i] = engine.NewProgram(z)
	}
	rs.buildEngines()
	nfasByID := make(map[int]*nfa.NFA, len(out.FSAs))
	for _, a := range out.FSAs {
		nfasByID[a.ID] = a
	}
	rs.buildPlan(out.Shapes, nfasByID)
	rs.buildPrefilter(out.Factors)
	return rs
}

// MustCompile is Compile for rulesets known to be valid; it panics on error.
func MustCompile(patterns []string, opts Options) *Ruleset {
	rs, err := Compile(patterns, opts)
	if err != nil {
		panic(err)
	}
	return rs
}

// NumRules returns the number of compiled patterns.
func (rs *Ruleset) NumRules() int { return len(rs.patterns) }

// NumAutomata returns the number of MFSAs (⌈N/M⌉).
func (rs *Ruleset) NumAutomata() int { return len(rs.programs) }

// Patterns returns the rule sources in compilation order.
func (rs *Ruleset) Patterns() []string {
	return append([]string(nil), rs.patterns...)
}

// States returns the total number of MFSA states.
func (rs *Ruleset) States() int {
	t := 0
	for _, z := range rs.mfsas {
		t += z.NumStates
	}
	return t
}

// Transitions returns the total number of MFSA transitions.
func (rs *Ruleset) Transitions() int {
	t := 0
	for _, z := range rs.mfsas {
		t += z.NumTrans()
	}
	return t
}

// Compression returns the state and transition compression percentages of
// merging versus the standalone optimized FSAs (§VI-A). Rulesets loaded
// from ANML report the same numbers via the serialized per-FSA metadata.
func (rs *Ruleset) Compression() (statesPct, transPct float64) {
	return rs.comp.StatesPct(), rs.comp.TransPct()
}

// CompileTimes returns the per-stage compilation cost. Zero for rulesets
// loaded from ANML.
func (rs *Ruleset) CompileTimes() StageTimes { return rs.times }

// WriteANML serializes every MFSA of the ruleset as concatenated
// extended-ANML documents (§IV-E).
func (rs *Ruleset) WriteANML(w io.Writer) error {
	for _, z := range rs.mfsas {
		if err := anml.Write(w, z); err != nil {
			return err
		}
	}
	return nil
}

// LoadANML reads one or more concatenated extended-ANML documents into an
// executable Ruleset.
func LoadANML(r io.Reader, opts Options) (*Ruleset, error) {
	zs, err := anml.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("imfant: %w", err)
	}
	rs := &Ruleset{opts: opts}
	ruleMax := -1
	for _, z := range zs {
		rs.mfsas = append(rs.mfsas, z)
		rs.programs = append(rs.programs, engine.NewProgram(z))
		for _, info := range z.FSAs {
			if info.RuleID > ruleMax {
				ruleMax = info.RuleID
			}
			rs.comp.StatesBefore += info.NumStates
			rs.comp.TransBefore += info.NumTrans
		}
		rs.comp.StatesAfter += z.NumStates
		rs.comp.TransAfter += z.NumTrans()
	}
	if len(rs.mfsas) == 0 {
		return nil, fmt.Errorf("imfant: no ANML documents found")
	}
	rs.patterns = make([]string, ruleMax+1)
	for _, z := range rs.mfsas {
		for _, info := range z.FSAs {
			rs.patterns[info.RuleID] = info.Pattern
		}
	}
	rs.buildEngines()
	// Re-derive the per-rule shapes from the serialized pattern sources; the
	// eager-DFA strategy needs the optimized per-rule NFAs, which ANML does
	// not carry, so it stays off for loaded rulesets.
	var shapes []strategy.Shape
	if opts.Engine == EngineAuto {
		shapes = shapesOf(rs.patterns)
	}
	rs.buildPlan(shapes, nil)
	if opts.Prefilter != PrefilterOff {
		rs.buildPrefilter(factorsOf(rs.patterns, opts.minFactorLen()))
	}
	return rs, nil
}

// FindAll scans input and returns every match of every rule, ordered by end
// offset and then rule index. For large inputs with many matches prefer
// Scan or Count.
func (rs *Ruleset) FindAll(input []byte) []Match {
	out, _ := rs.FindAllContext(context.Background(), input)
	return out
}

// FindAllContext is FindAll under a context: cancellation or deadline
// expiry stops the scan at the next engine checkpoint (about every 4 KiB of
// input per automaton) and returns the context's error with nil matches.
func (rs *Ruleset) FindAllContext(ctx context.Context, input []byte) ([]Match, error) {
	// Large buffers take the segment-parallel path: the input is cut into
	// per-worker segments with exact boundary stitching, so the result is
	// byte-identical to the serial scan (see segment.go).
	if parts := rs.segmentParts(len(input), 0); parts > 1 {
		return rs.findAllSegmented(ctx, input, parts)
	}
	return rs.NewScanner().FindAllContext(ctx, input)
}

// Scan streams every match to fn, automaton by automaton, on the engine
// selected by Options.Engine. Hot paths scanning many inputs should reuse a
// Scanner instead, which keeps per-goroutine buffers — and, in lazy-DFA
// mode, the transition cache — warm across calls.
func (rs *Ruleset) Scan(input []byte, fn func(Match)) {
	rs.NewScanner().Scan(input, fn)
}

// ScanContext is Scan under a context: cancellation stops the scan at the
// next checkpoint; matches already streamed to fn before that point were
// delivered, and the context's error is returned.
func (rs *Ruleset) ScanContext(ctx context.Context, input []byte, fn func(Match)) error {
	return rs.NewScanner().ScanContext(ctx, input, fn)
}

// Count returns the total number of match events in input.
func (rs *Ruleset) Count(input []byte) int64 {
	return rs.NewScanner().Count(input)
}

// CountContext is Count under a context; on cancellation it returns the
// partial count together with the context's error.
func (rs *Ruleset) CountContext(ctx context.Context, input []byte) (int64, error) {
	return rs.NewScanner().CountContext(ctx, input)
}

// CountPerRule returns the number of match events per rule, indexed like
// the compiled patterns.
func (rs *Ruleset) CountPerRule(input []byte) []int64 {
	return rs.NewScanner().CountPerRule(input)
}

// Scanner is a reusable matching context over one Ruleset: the scratch
// state of every automaton's engine, plus — in lazy-DFA mode — the lazily
// built transition caches, which stay warm across scans of similar traffic.
// A Scanner is not safe for concurrent use; create one per goroutine (the
// shared Ruleset remains concurrency-safe).
type Scanner struct {
	rs       *Ruleset
	runs     []groupRunner // per automaton, indexed like rs.programs
	ruleHits []int64       // per-rule match counts, scanner lifetime
	timeouts int64         // scans cut short by Options.ScanTimeout
	faults   *faultpoint.Injector

	// Prefilter scratch; nil/zero while the ruleset is ungated.
	sweep  *ahocorasick.Sweeper
	active []bool
	pref   prefCounters
}

// NewScanner returns a matching context for the ruleset.
func (rs *Ruleset) NewScanner() *Scanner {
	s := &Scanner{
		rs:       rs,
		runs:     make([]groupRunner, len(rs.programs)),
		ruleHits: make([]int64, len(rs.patterns)),
		faults:   rs.faults,
	}
	for i, x := range rs.plan.exec {
		s.runs[i] = x.newRunner()
	}
	if rs.pf != nil {
		s.sweep = rs.pf.ac.NewSweeper()
		s.sweep.SetAccel(rs.opts.accelOn())
		s.active = make([]bool, len(rs.programs))
	}
	return s
}

// Scan streams every match in input to fn, automaton by automaton.
func (s *Scanner) Scan(input []byte, fn func(Match)) {
	s.run(context.Background(), input, fn, nil)
}

// ScanContext is Scan under a context: cancellation stops the scan at the
// next checkpoint; matches already streamed to fn before that point were
// delivered, and the context's error is returned.
func (s *Scanner) ScanContext(ctx context.Context, input []byte, fn func(Match)) error {
	_, err := s.run(ctx, input, fn, nil)
	return err
}

// FindAllContext is FindAll under a context: on cancellation it returns
// nil matches and the context's error.
func (s *Scanner) FindAllContext(ctx context.Context, input []byte) ([]Match, error) {
	var out []Match
	if err := s.ScanContext(ctx, input, func(m Match) { out = append(out, m) }); err != nil {
		return nil, err
	}
	sortByEnd(out)
	return out, nil
}

// sortByEnd imposes the FindAll report order: end offset, then rule.
func sortByEnd(out []Match) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Rule < out[j].Rule
	})
}

// Count returns the total number of match events in input.
func (s *Scanner) Count(input []byte) int64 {
	total, _ := s.CountContext(context.Background(), input)
	return total
}

// CountContext is Count under a context; on cancellation it returns the
// partial count together with the context's error.
func (s *Scanner) CountContext(ctx context.Context, input []byte) (int64, error) {
	return s.run(ctx, input, nil, nil)
}

// CountPerRule returns the number of match events per rule, indexed like
// the compiled patterns.
func (s *Scanner) CountPerRule(input []byte) []int64 {
	out := make([]int64, len(s.rs.patterns))
	s.run(context.Background(), input, nil, out)
	return out
}

// run executes every automaton over input and returns the match count;
// perRule, when non-nil, accumulates per-rule counts. The context is
// polled at engine checkpoints (DefaultCheckpointEvery bytes); on
// cancellation the partial count gathered so far is returned with the
// context's error.
func (s *Scanner) run(ctx context.Context, input []byte, fn func(Match), perRule []int64) (total int64, err error) {
	rs := s.rs
	check := timeoutCheckpoint(checkpointOf(ctx), rs.opts.ScanTimeout)
	if rs.scanLat != nil {
		defer func(t0 time.Time) { rs.scanLat.Record(time.Since(t0).Nanoseconds()) }(time.Now())
	}
	if rs.lat != nil {
		defer func(t0 time.Time) {
			rs.lat.Record(telemetry.StageScan, time.Since(t0).Nanoseconds())
		}(time.Now())
	}
	if rs.trace != nil {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventScanBegin,
			Automaton: -1, Rule: -1, Offset: -1, Value: int64(len(input))})
		defer func() {
			rs.trace.Record(telemetry.Event{Kind: telemetry.EventScanEnd,
				Automaton: -1, Rule: -1, Offset: -1, Value: total})
		}()
	}
	gate, err := rs.sweepMask(input, check, s.faults, s.sweep, s.active, &s.pref)
	if err != nil {
		return 0, s.noteErr(err)
	}
	for i, r := range s.runs {
		if check != nil && i > 0 {
			// Poll between automata too, so a deadline that expired during
			// automaton i-1's final block (past its last in-chunk
			// checkpoint) still cuts the scan off deterministically.
			if err := check(); err != nil {
				return total, s.noteErr(err)
			}
		}
		if gate != nil && !gate[i] {
			// No member rule's factor occurred anywhere in input, so none
			// can match: skip the whole automaton execution.
			continue
		}
		rules := rs.programs[i].Rules()
		var onMatch func(fsa, end int)
		if fn != nil {
			onMatch = func(fsa, end int) {
				fn(Match{Rule: rules[fsa].RuleID, Pattern: rules[fsa].Pattern, End: end})
			}
		}
		if rs.trace != nil {
			inner := onMatch
			automaton := i
			onMatch = func(fsa, end int) {
				rs.trace.Record(telemetry.Event{Kind: telemetry.EventMatch,
					Automaton: int32(automaton), Rule: int32(rules[fsa].RuleID),
					Offset: int64(end), Value: 1})
				if inner != nil {
					inner(fsa, end)
				}
			}
		}
		// Stage timing brackets the whole dispatch, including the degraded
		// exits — a timed-out automaton's wall clock is exactly the sample
		// an operator wants attributed.
		st0 := rs.stageStart()
		run, stepErr := blockScan(r, input, runCfg{onMatch: onMatch, check: check, faults: s.faults})
		rs.stageEnd(telemetry.StrategyStage(int(rs.plan.strat[i])), st0)
		rs.fold(i, &run, s.ruleHits, &s.pref)
		total += run.matches
		if perRule != nil {
			for fsa, n := range run.perFSA {
				perRule[rules[fsa].RuleID] += n
			}
		}
		if stepErr != nil {
			return total, s.noteErr(stepErr)
		}
	}
	return total, nil
}

// noteErr folds a failed scan into the degradation telemetry (ruleset-wide
// and the scanner's own timeout counter), records the scan_error trace
// span, and returns err unchanged.
func (s *Scanner) noteErr(err error) error {
	if err != nil {
		noteDegraded(s.rs.collector, err)
		if errors.Is(err, ErrScanTimeout) {
			s.timeouts++
		}
		s.rs.traceScanError(err)
	}
	return err
}

// CountParallel scans input with the paper's multi-threaded scheme
// (§VI-C2): a pool of `threads` workers each executing whole MFSAs until
// none remain. It returns the total match count. A panic inside a worker is
// contained and returned as an error instead of crashing the process.
func (rs *Ruleset) CountParallel(input []byte, threads int) (int64, error) {
	return rs.CountParallelContext(context.Background(), input, threads)
}

// CountParallelContext is CountParallel under a context: cancellation or
// deadline expiry stops every worker at its next checkpoint and returns the
// context's error. When Options.MaxConcurrentScans bounds the ruleset, a
// call that finds every slot busy and the wait queue full is shed with
// ErrOverloaded before doing any work.
func (rs *Ruleset) CountParallelContext(ctx context.Context, input []byte, threads int) (int64, error) {
	return rs.scanParallel(ctx, input, threads, rs.segmentParts(len(input), threads), nil)
}

// scanParallel is the ruleset-level parallel scan behind CountParallel and
// FindAll on large buffers. With parts ≤ 1 the admitted groups are dealt to
// the §VI-C2 worker pool, one block scan each. With parts > 1 the
// parallelism is intra-input instead: every group in turn runs over parts
// segments with exact boundary stitching (see segment.go), and groups
// without a segment-parallel scan run serially. emit, when non-nil,
// receives every event of a segmented scan; events arrive grouped by
// automaton, unsorted.
func (rs *Ruleset) scanParallel(ctx context.Context, input []byte, threads, parts int,
	emit func(automaton, fsa, end int)) (int64, error) {
	// The ScanTimeout budget is anchored BEFORE the admission gate, so time
	// spent queueing for a slot is charged against the same deadline the
	// scan runs under.
	deadline := scanDeadline(rs.opts.ScanTimeout)
	if err := rs.sched.acquire(ctx, deadline); err != nil {
		return 0, rs.noteParallelErr(err)
	}
	defer rs.sched.release()
	check := deadlineCheckpoint(checkpointOf(ctx), deadline)
	if rs.scanLat != nil {
		defer func(t0 time.Time) { rs.scanLat.Record(time.Since(t0).Nanoseconds()) }(time.Now())
	}
	if rs.lat != nil {
		// The scan stage starts after admission, so queue wait under a
		// saturated gate is not misattributed to scanning.
		defer func(t0 time.Time) {
			rs.lat.Record(telemetry.StageScan, time.Since(t0).Nanoseconds())
		}(time.Now())
	}
	gate, err := rs.sweepMask(input, check, rs.faults, nil, nil, nil)
	if err != nil {
		return 0, rs.noteParallelErr(err)
	}
	var ids []int
	for i := range rs.programs {
		if gate == nil || gate[i] {
			ids = append(ids, i)
		}
	}
	var total int64
	if parts > 1 {
		err = rs.scanSegmented(input, parts, ids, check, emit, &total)
	} else {
		err = rs.scanPool(input, threads, ids, check, &total)
	}
	if err != nil {
		// err may join several workers' failures (panics, timeouts); each
		// is accounted individually in the Degraded section, and the
		// scan_error span's cause mask carries the union.
		return 0, rs.noteParallelErr(err)
	}
	return total, nil
}

// scanPool hands every admitted group to the worker pool as one block scan
// on a fresh runner, folding each outcome as it completes.
func (rs *Ruleset) scanPool(input []byte, threads int, ids []int, check func() error, total *int64) error {
	if rs.profiles != nil && len(ids) > 1 {
		// Heat-balanced feeding: hand the hottest automata (by sampled state
		// visits) to the pool first. Workers pull from an atomic queue, so
		// descending-cost order approximates LPT scheduling — the expensive
		// groups start immediately instead of landing last on an
		// otherwise-drained pool.
		heat := make([]int64, len(ids))
		for j, i := range ids {
			heat[j] = rs.groupHeat(i)
		}
		ordered := make([]int, len(ids))
		for j, o := range segment.OrderByHeat(heat) {
			ordered[j] = ids[o]
		}
		ids = ordered
	}
	var sum atomic.Int64
	pt0 := rs.stageStart()
	err := engine.ForEach(ids, threads, rs.faults, check, func(i int, check func() error) error {
		r := rs.plan.exec[i].newRunner()
		folded := false
		defer func() {
			if !folded {
				// A contained worker panic: fold the work done up to it, so
				// the byte partitions of the stats stay exact.
				run := r.totals()
				rs.fold(i, &run, nil, nil)
			}
		}()
		st0 := rs.stageStart()
		run, err := blockScan(r, input, runCfg{check: check, faults: rs.faults})
		rs.stageEnd(telemetry.StrategyStage(int(rs.plan.strat[i])), st0)
		folded = true
		rs.fold(i, &run, nil, nil)
		sum.Add(run.matches)
		return err
	})
	rs.stageEnd(telemetry.StageParallel, pt0)
	*total = sum.Load()
	return err
}

// noteParallelErr is noteErr's ruleset-level sibling for the parallel scan
// path: degradation counters plus the scan_error trace span.
func (rs *Ruleset) noteParallelErr(err error) error {
	if err != nil {
		noteDegraded(rs.collector, err)
		rs.traceScanError(err)
	}
	return err
}

// checkpointOf adapts a context to an engine checkpoint; contexts that can
// never be cancelled poll nothing.
func checkpointOf(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}

// Activity runs the Table II instrumentation: the average number of
// (active state, active FSA) pairs per input symbol and the maximum number
// of distinct simultaneously-active FSAs.
func (rs *Ruleset) Activity(input []byte) (avgActive float64, maxActive int) {
	var pairs int64
	var symbols int64
	for _, p := range rs.programs {
		res := engine.Run(p, input, engine.Config{Stats: true, KeepOnMatch: rs.opts.KeepOnMatch})
		pairs += res.ActivePairsTotal
		symbols = int64(res.Symbols)
		if res.MaxActiveFSAs > maxActive {
			maxActive = res.MaxActiveFSAs
		}
	}
	if symbols == 0 {
		return 0, maxActive
	}
	return float64(pairs) / float64(symbols), maxActive
}
