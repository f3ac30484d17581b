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
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anml"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/pipeline"
	"repro/internal/strategy"
	"repro/internal/telemetry"
)

// EngineMode selects the execution engine used by scans.
type EngineMode int

const (
	// EngineAuto runs every group on the lazy-DFA engine, under either
	// match semantics, unless the strategy planner routes it to a faster
	// special-purpose engine (Aho–Corasick, dot-star literal chains on the
	// same pass, anchored literals, eager DFA).
	EngineAuto EngineMode = iota
	// EngineIMFAnt forces the paper's NFA-style iMFAnt engine.
	EngineIMFAnt
	// EngineLazyDFA forces the lazy-DFA engine: on-the-fly
	// determinization of the iMFAnt state vector with a bounded,
	// byte-class-compressed transition cache, for every group. Both the
	// paper's Eq. 5 pop and KeepOnMatch are cached; inputs that thrash
	// the cache fall back transparently to iMFAnt.
	EngineLazyDFA
)

// AccelMode selects byte-skipping acceleration: memchr-class skip kernels
// that let the engines jump over provably irrelevant input bytes instead of
// stepping the automaton once per byte. The lazy-DFA engine classifies every
// cached state at construction and jumps while parked in states with at most
// four live outgoing bytes; the iMFAnt engine skips to the next possible
// start byte while its activation vector is empty; the Ruleset's
// Aho–Corasick literal pass skips while parked at its root. All three are
// exact: match results are byte-identical in every mode.
type AccelMode int

const (
	// AccelAuto (the zero value) enables acceleration. It is the default
	// because the skips are exact and profitable whenever they engage;
	// states and programs that do not qualify run the ordinary per-byte
	// loops unchanged.
	AccelAuto AccelMode = iota
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
	// plans each group's strategy and runs the rest on the lazy-DFA
	// engine; EngineIMFAnt forces the paper's engine. Every engine
	// reports each (rule, end offset) pair exactly once, so their
	// match-event sets are identical.
	Engine EngineMode
	// Prefilter selects the literal-factor prefilter: a compile-time
	// Hyperscan-style decomposition that extracts a required literal factor
	// from each rule where one exists, and scan-time gating in the one
	// Aho–Corasick literal pass that skips whole MFSA groups whose rules
	// cannot match the input. The zero value (PrefilterAuto) engages it
	// only when at least one group is fully filterable; PrefilterOn
	// additionally biases grouping so filterable rules share MFSAs.
	// Factors are literals of at least three bytes. Results are identical
	// in every mode.
	Prefilter PrefilterMode
	// Accel selects byte-skipping acceleration (lazy-DFA state
	// acceleration, the iMFAnt start-byte skip, and the literal pass's
	// root skip). The zero value (AccelAuto) enables it; results are
	// byte-identical in every mode. See AccelMode.
	Accel AccelMode
	// LazyDFAMaxStates caps the lazy-DFA transition table of each
	// execution unit — one lazy-DFA automaton group, or several fused into
	// one program of at most 64 FSAs — per compiled Ruleset, shared by
	// every matching context on it (Scanners, StreamMatchers,
	// CountParallel tasks and one-shot scans); 0 selects
	// lazydfa.DefaultMaxStates. Smaller caps bound memory at the cost of
	// more cache flushes.
	LazyDFAMaxStates int
	// Limits is the compile-side resource budget: pattern length, nesting
	// depth, per-rule NFA states under loop expansion, and the total MFSA
	// state count. The zero value selects the documented defaults, which
	// keep compilation of hostile rulesets bounded; set a field negative
	// to disable that check.
	Limits Limits
	// Profile enables the sampling execution profiler: per-state visit
	// counts attributed to rules through the belonging sets and active-set
	// size distributions, readable via Ruleset.Profile and the
	// Stats().Profile section. Profile implies Latency: the report's scan
	// and stream-chunk latency distributions are the "scan" and
	// "stream_write" stage histograms, also in Stats().Latency.
	// Sampling happens once every ProfileStride input bytes outside the
	// per-byte hot loops; with Profile off the engines pay a single nil
	// check per chunk and Profile() returns nil. Profiling does not change
	// the plan: each execution unit that runs on an engine samples its
	// whole program (the fused members' states side by side), and the
	// report maps the unit's states back to its member automata. Samples
	// and ActiveSet therefore count one sample per unit per stride, the
	// active pairs of all its members together.
	Profile bool
	// ProfileStride is the symbol-sampling stride of the profiler; 0
	// selects the default (64). Smaller strides sharpen the heat map at a
	// proportional sampling cost. Ignored when Profile is false.
	ProfileStride int
	// Latency enables per-stage wall-clock latency attribution: monotonic
	// timers bracket the literal pass, each execution unit's strategy
	// dispatch, the parallel fan-out, and stream chunk/flush work, folded
	// into allocation-free log2 histograms and surfaced as the
	// Stats().Latency section (p50/p90/p99 per stage, nanoseconds).
	// Profile turns it on too; with both off the scan paths pay a single
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
	// Segment selects segmenting the literal pass of whole-buffer ruleset
	// scans (CountParallel, FindAll): the input is cut into contiguous
	// segments, one per worker, and each worker runs the pass over its
	// segment plus the longest pass pattern's left context, so no boundary
	// needs stitching and the reported events are byte-identical to a
	// serial scan. Every other execution unit runs whole, as one task of
	// the §VI-C2 worker pool, whatever the mode. The segment count is
	// CountParallel's threads argument when positive, GOMAXPROCS otherwise.
	// SegmentAuto (the zero value) segments inputs of at least 1 MiB;
	// SegmentOn segments every input large enough to cut; SegmentOff runs
	// the pass as one pool task. Scanner and StreamMatcher scans are never
	// segmented — their value is warm per-goroutine state, not
	// intra-input parallelism.
	Segment SegmentMode
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
	times     StageTimes
	comp      metrics.Compression
	opts      Options
	collector *telemetry.Collector
	plan      *scanPlan    // per-group strategies and the execution units (see plan.go)
	pf        *prefilter   // literal-factor gating plan; nil when inactive
	tracker   *prefTracker // runtime gating-effectiveness tracker; nil when ungated
	sched     *scanGate    // overload shedding for parallel scans; nil when unbounded
	// prefEnabled (with the rule/factor config counts) drives the Prefilter
	// stats section: it is on whenever the literal pass runs with the
	// prefilter enabled — to gate (rs.pf), to run AC and chain groups, or
	// both.
	prefEnabled bool
	prefRules   int
	prefFactors int
	// faults, when non-nil, arms the fault-injection sites of every scan
	// and stream created from this ruleset — the chaos-testing substrate
	// (see internal/faultpoint). Always nil in production use; set by
	// in-package tests via setFaultInjector.
	faults *faultpoint.Injector
	// profiles holds per-execution-unit sampled state heat, over the unit's
	// program; nil when Options.Profile is false.
	profiles []*engine.Profile
	trace    *telemetry.TraceRing
	// traceEmit is the count-only match callback of each execution unit:
	// it records match trace events, and its entries are nil when tracing
	// is off.
	traceEmit []func(fsa, end int)
	// lat is the per-stage latency histogram set; nil unless
	// Options.Latency or Options.Profile is set — the single nil check
	// instrumentation-off scans pay.
	lat *telemetry.Latency
}

// accelOn resolves the Accel knob: every mode but AccelOff accelerates.
func (o Options) accelOn() bool { return o.Accel != AccelOff }

// buildEngines sets up the ruleset-wide telemetry collector and the
// per-group instrumentation over the compiled programs; buildPlan then
// builds the execution units and their lazy-DFA tables.
func (rs *Ruleset) buildEngines() {
	rs.collector = telemetry.NewCollector(len(rs.patterns))
	// The Lazy section is enabled by buildPlan, which knows how many units
	// actually run on the lazy-DFA engine.
	if rs.opts.accelOn() {
		rs.collector.EnableAccel(len(rs.programs))
	}
	if rs.opts.Segment != SegmentOff {
		rs.collector.EnableSegment()
	}
	if rs.opts.Profile {
		// The profiles themselves are the units', built by buildPlan.
		rs.collector.SetProfileFunc(rs.profileStats)
	}
	if rs.opts.TraceCapacity > 0 {
		rs.trace = telemetry.NewTraceRing(rs.opts.TraceCapacity)
	}
	if rs.opts.Latency || rs.opts.Profile {
		rs.lat = rs.collector.EnableLatency()
	}
	rs.sched = newScanGate(rs.opts.MaxConcurrentScans, rs.opts.MaxQueuedScans)
}

// setFaultInjector arms in on every scan and stream subsequently created
// from the ruleset (already-created Scanners and StreamMatchers keep their
// configuration). Test-only: the chaos conformance suite schedules fault
// storms through it; nil disarms.
func (rs *Ruleset) setFaultInjector(in *faultpoint.Injector) { rs.faults = in }

// profileOf returns execution unit u's profile, nil when profiling is off.
func (rs *Ruleset) profileOf(u int) *engine.Profile {
	if rs.profiles == nil {
		return nil
	}
	return rs.profiles[u]
}

// Compile builds a Ruleset from POSIX ERE patterns. Compilation runs under
// Options.Limits; any failure — syntax or budget — is returned as a
// *CompileError attributing the rule and pipeline stage, and the whole
// ruleset is rejected. Use CompileLax to isolate per-rule failures instead.
func Compile(patterns []string, opts Options) (*Ruleset, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("imfant: empty ruleset")
	}
	out, _, err := pipeline.Run(pipelineRequest(patterns, opts, false))
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
	out, perrs, err := pipeline.Run(pipelineRequest(patterns, opts, true))
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

// pipelineRequest is the compile request for patterns under opts. Literal
// factors of factor.MinLen bytes or more are extracted unless the
// prefilter is off.
func pipelineRequest(patterns []string, opts Options, lax bool) pipeline.Request {
	req := pipeline.Request{
		Patterns:    patterns,
		Merge:       opts.MergeFactor,
		Limits:      opts.Limits.pipeline(),
		Lax:         lax,
		FactorGroup: opts.Prefilter == PrefilterOn,
		Shapes:      opts.Engine == EngineAuto,
	}
	if opts.Prefilter != PrefilterOff {
		req.FactorMinLen = factor.MinLen
	}
	return req
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
	rs.buildPlan(out.Shapes, nfasByID, out.Factors)
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
	var factors []string
	if opts.Prefilter != PrefilterOff {
		factors = factorsOf(rs.patterns)
	}
	rs.buildPlan(shapes, nil, factors)
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
	// Large buffers take the parallel path: the literal pass runs over
	// per-worker segments and the other units in the worker pool, and the
	// events are sorted into the serial order (see segment.go).
	if parts := rs.segmentParts(len(input), 0); parts > 1 {
		return rs.findAllSegmented(ctx, input, parts)
	}
	return rs.NewScanner().FindAllContext(ctx, input)
}

// Scan streams every match to fn, on the engine selected by
// Options.Engine: first the events of every AC and chain group, which come
// from one literal pass in end order, then the other groups', execution
// unit by execution unit. Like every one-shot Ruleset scan it runs on a fresh
// Scanner, whose lazy-DFA runners read the ruleset's shared, already warm
// transition tables. Hot paths scanning many inputs should still reuse a
// Scanner, which also keeps its per-goroutine buffers.
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
	n, _ := rs.CountContext(context.Background(), input)
	return n
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
// state of every execution unit's engine — in lazy-DFA mode a cursor on the
// unit's transition table, which the Ruleset's every scan shares and which
// stays warm across scans of similar traffic.
// A Scanner is not safe for concurrent use; create one per goroutine (the
// shared Ruleset remains concurrency-safe).
type Scanner struct {
	rs       *Ruleset
	runs     []groupRunner // per execution unit; nil for the pass's units
	lit      *litRunner    // the one literal pass; nil when the ruleset has none
	ruleHits []int64       // per-rule match counts, scanner lifetime
	timeouts int64         // scans cut short by Options.ScanTimeout
	faults   *faultpoint.Injector
	cur      groupRun // the current group run
	fold     scanFold // the current scan's accounting
	active   []bool   // the current scan's activation mask; nil while ungated
	pref     prefCounters

	// Match wiring, built once: emit[u] reports unit u's events to fn, the
	// current scan's callback, and collect appends them to found, the
	// FindAll buffer.
	fn      func(Match)
	emit    []func(fsa, end int)
	collect func(Match)
	found   []Match
}

// NewScanner returns a matching context for the ruleset.
func (rs *Ruleset) NewScanner() *Scanner {
	units := rs.plan.units
	s := &Scanner{
		rs:       rs,
		runs:     make([]groupRunner, len(units)),
		ruleHits: make([]int64, len(rs.patterns)),
		faults:   rs.faults,
	}
	s.fold.ruleHits = s.ruleHits
	s.emit = make([]func(fsa, end int), len(units))
	for u := range units {
		x := &units[u]
		if x.newRunner != nil {
			s.runs[u] = x.newRunner()
		}
		rules := x.rules
		s.emit[u] = rs.traceMatches(u, func(fsa, end int) {
			s.fn(Match{Rule: rules[fsa].RuleID, Pattern: rules[fsa].Pattern, End: end})
		})
	}
	if rs.plan.lit != nil {
		s.lit = newLitRunner(rs.plan.lit, rs.opts.accelOn())
	}
	s.collect = func(m Match) { s.found = append(s.found, m) }
	if rs.pf != nil {
		s.active = make([]bool, len(units))
	}
	return s
}

// Scan streams every match in input to fn: first the events of every AC
// and chain group, which come from one literal pass in end order, then the
// other groups', execution unit by execution unit.
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
	s.found = s.found[:0]
	if err := s.ScanContext(ctx, input, s.collect); err != nil || len(s.found) == 0 {
		return nil, err
	}
	out := slices.Clone(s.found)
	sortByEnd(out)
	return out, nil
}

// sortByEnd imposes the FindAll report order: end offset, then rule.
func sortByEnd(out []Match) {
	slices.SortFunc(out, func(a, b Match) int {
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		return cmp.Compare(a.Rule, b.Rule)
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

// run executes the literal pass and every other unit over input and
// returns the match count; perRule, when non-nil, accumulates per-rule
// counts. The context is polled at engine checkpoints
// (DefaultCheckpointEvery bytes); on cancellation the partial count
// gathered so far is returned with the context's error. The scan's
// accounting reaches the collector in one batch, a failed scan's included.
func (s *Scanner) run(ctx context.Context, input []byte, fn func(Match), perRule []int64) (total int64, err error) {
	rs := s.rs
	check := timeoutCheckpoint(checkpointOf(ctx), rs.opts.ScanTimeout)
	if rs.lat != nil {
		defer func(t0 time.Time) {
			rs.lat.Record(telemetry.StageScan, time.Since(t0).Nanoseconds())
		}(time.Now())
	}
	if rs.trace != nil {
		rs.traceScan(telemetry.EventScanBegin, int64(len(input)))
		defer func() { rs.traceScan(telemetry.EventScanEnd, total) }()
	}
	emit := rs.traceEmit
	if fn != nil {
		s.fn, emit = fn, s.emit
		defer func() { s.fn = nil }()
	}
	s.fold.perRule = perRule
	total, err = s.scan(input, check, emit)
	rs.flush(&s.fold, &s.pref)
	s.fold.perRule = nil
	return total, s.noteErr(err)
}

// scan runs the literal pass, whose AC and chain groups are never gated
// and whose outcome gates the other units, then every admitted unit,
// gathering the runs into s.fold.
func (s *Scanner) scan(input []byte, check func() error, emit []func(fsa, end int)) (total int64, err error) {
	rs := s.rs
	gate, total, err := rs.blockPass(s.lit, input, check, s.faults, emit, s.active, &s.fold)
	if err != nil {
		return total, err
	}
	for u, r := range s.runs {
		if r == nil {
			continue
		}
		if check != nil && (u > 0 || s.lit != nil) {
			// Poll between units too, so a deadline that expired during the
			// previous unit's final block (past its last in-chunk
			// checkpoint) still cuts the scan off deterministically.
			if err := check(); err != nil {
				return total, err
			}
		}
		if gate != nil && !gate[u] {
			// No member rule's factor occurred anywhere in input, so none
			// can match: skip the whole unit execution.
			continue
		}
		// Stage timing brackets the whole dispatch, including the degraded
		// exits — a timed-out unit's wall clock is exactly the sample an
		// operator wants attributed.
		st0 := rs.stageStart()
		stepErr := blockScan(r, input, runCfg{onMatch: emit[u], check: check, faults: s.faults}, &s.cur)
		rs.stageEnd(telemetry.StrategyStage(int(rs.plan.units[u].strat)), st0)
		rs.foldRun(&s.fold, u, &s.cur)
		total += s.cur.matches
		if stepErr != nil {
			return total, stepErr
		}
	}
	return total, nil
}

// blockPass runs the literal pass x over input as one block scan, when
// passPlan says it runs, and folds it into f. It returns the AC and chain
// groups' match count and the activation mask of the execution units
// (active, filled; nil when every unit runs).
func (rs *Ruleset) blockPass(x *litRunner, input []byte, check func() error, faults *faultpoint.Injector,
	emit []func(fsa, end int), active []bool, f *scanFold) ([]bool, int64, error) {
	run, gate := rs.passPlan(faults)
	if !run {
		return nil, 0, nil
	}
	stage := telemetry.StagePrefilter
	if x.lp.delivers() {
		stage = telemetry.StrategyStage(int(StrategyAC))
	}
	st0 := rs.stageStart()
	x.begin(check, faults, emit)
	x.feed(input)
	rs.stageEnd(stage, st0)
	n := x.end(f, rs.collector, rs.prefEnabled)
	if err := x.err(); err != nil || !gate {
		return nil, n, err
	}
	return rs.gate(x.pass.Firsts(), active, int64(len(input)), f), n, nil
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
// (§VI-C2): a pool of `threads` workers each executing whole execution
// units (MFSAs, or fused lazy-DFA groups of them) until none remain. It returns the total match count. A panic inside a worker is
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
// FindAll on large buffers. The admitted units are dealt to the §VI-C2
// worker pool, one block scan each, at threads workers. The literal pass
// runs ahead of them when it gates them or when the scan is segmented
// (parts > 1): then a pass with AC literals or chain pieces to deliver runs
// over parts segments (see segmentedPass). Otherwise the pass is one more
// pool task. emit, when non-nil, receives every event, by unit and unit
// FSA, unsorted and from several goroutines at once.
func (rs *Ruleset) scanParallel(ctx context.Context, input []byte, threads, parts int,
	emit func(unit, fsa, end int)) (total int64, err error) {
	// The ScanTimeout budget is anchored BEFORE the admission gate, so time
	// spent queueing for a slot is charged against the same deadline the
	// scan runs under.
	deadline := scanDeadline(rs.opts.ScanTimeout)
	if err := rs.sched.acquire(ctx, deadline); err != nil {
		return 0, rs.noteParallelErr(err)
	}
	defer rs.sched.release()
	check := deadlineCheckpoint(checkpointOf(ctx), deadline)
	if rs.lat != nil {
		// The scan stage starts after admission, so queue wait under a
		// saturated gate is not misattributed to scanning.
		defer func(t0 time.Time) {
			rs.lat.Record(telemetry.StageScan, time.Since(t0).Nanoseconds())
		}(time.Now())
	}
	if rs.trace != nil {
		rs.traceScan(telemetry.EventScanBegin, int64(len(input)))
		defer func() { rs.traceScan(telemetry.EventScanEnd, total) }()
	}
	var f scanFold
	defer rs.flush(&f, nil)
	emits := rs.parallelEmit(emit)
	var gate []bool
	pass := rs.plan.lit != nil
	if pass && (rs.pf != nil || parts > 1) {
		var n int64
		gate, n, err = rs.upfrontPass(input, parts, check, emits, &f)
		if err != nil {
			return 0, rs.noteParallelErr(err)
		}
		total, pass = n, false
	}
	var ids []int
	for u := range rs.plan.units {
		if !rs.plan.inLit(u) && (gate == nil || gate[u]) {
			ids = append(ids, u)
		}
	}
	n, err := rs.scanPool(input, threads, ids, pass, check, emits, &f)
	if err != nil {
		// err may join several workers' failures (panics, timeouts); each
		// is accounted individually in the Degraded section, and the
		// scan_error span's cause mask carries the union.
		return 0, rs.noteParallelErr(err)
	}
	return total + n, nil
}

// upfrontPass runs the literal pass of a parallel scan before any other
// unit: segment-parallel when the scan is segmented and the pass has AC
// literals or chain pieces to deliver, serially otherwise (a pass that only
// gates ends once every factor has been seen). emit is indexed by unit.
// Returns the activation mask, nil when the pass does not gate, and the AC
// and chain groups' match count.
func (rs *Ruleset) upfrontPass(input []byte, parts int, check func() error,
	emit []func(fsa, end int), f *scanFold) ([]bool, int64, error) {
	if parts > 1 && rs.plan.lit.delivers() {
		// A delivering pass always runs; passPlan still says whether it
		// gates.
		_, gate := rs.passPlan(rs.faults)
		seen, n, err := rs.segmentedPass(input, parts, check, emit, f)
		if err != nil || !gate {
			return nil, n, err
		}
		return rs.gate(seen, nil, int64(len(input)), f), n, nil
	}
	return rs.blockPass(newLitRunner(rs.plan.lit, rs.opts.accelOn()), input, check, rs.faults, emit, nil, f)
}

// parallelEmit adapts a parallel scan's event sink to per-unit callbacks
// that also record match trace events; the trace callbacks alone when emit
// is nil.
func (rs *Ruleset) parallelEmit(emit func(unit, fsa, end int)) []func(fsa, end int) {
	if emit == nil {
		return rs.traceEmit
	}
	emits := make([]func(fsa, end int), len(rs.plan.units))
	for u := range emits {
		emits[u] = rs.traceMatches(u, func(fsa, end int) { emit(u, fsa, end) })
	}
	return emits
}

// scanPool hands every admitted unit (ids) to the worker pool as one block
// scan on a fresh runner; the literal pass, when pass is set, is one more
// task, that of the pass's first unit. emit, indexed by unit, receives the
// events (see parallelEmit). A task runs under its unit's first member's
// automaton id, which labels its pprof samples and a contained panic; under
// Options.Profile its runner samples the unit's one engine.Profile, which
// tasks of the same unit in other calls share. Every task gathers its run
// into f, a contained panic's partial work included.
func (rs *Ruleset) scanPool(input []byte, threads int, ids []int, pass bool, check func() error,
	emit []func(fsa, end int), f *scanFold) (int64, error) {
	var sum atomic.Int64
	var mu sync.Mutex
	units := rs.plan.units
	if pass {
		ids = append([]int{rs.plan.lit.units[0]}, ids...)
	}
	if len(ids) == 0 {
		// Nothing to fan out, e.g. a ruleset that runs only in a segmented
		// pass: no parallel stage to time.
		return 0, nil
	}
	groups := make([]int, len(ids))
	for j, u := range ids {
		groups[j] = units[u].groups[0]
	}
	pt0 := rs.stageStart()
	err := engine.ForEach(groups, threads, rs.faults, check, func(g int, check func() error) error {
		u := int(rs.plan.unitOf[g])
		if rs.plan.inLit(u) {
			x := newLitRunner(rs.plan.lit, rs.opts.accelOn())
			defer func() {
				mu.Lock()
				defer mu.Unlock()
				sum.Add(x.end(f, rs.collector, rs.prefEnabled))
			}()
			st0 := rs.stageStart()
			x.begin(check, rs.faults, emit)
			x.feed(input)
			rs.stageEnd(telemetry.StrategyStage(int(StrategyAC)), st0)
			return x.err()
		}
		r := units[u].newRunner()
		var run groupRun
		ended := false
		defer func() {
			if !ended {
				// A contained worker panic: fold the work done up to it (the
				// fresh runner's totals cover this task only), so the byte
				// partitions of the stats stay exact.
				r.totals(&run)
			}
			mu.Lock()
			defer mu.Unlock()
			rs.foldRun(f, u, &run)
			sum.Add(run.matches)
		}()
		st0 := rs.stageStart()
		err := blockScan(r, input, runCfg{onMatch: emit[u], check: check, faults: rs.faults}, &run)
		rs.stageEnd(telemetry.StrategyStage(int(units[u].strat)), st0)
		ended = true
		return err
	})
	rs.stageEnd(telemetry.StageParallel, pt0)
	return sum.Load(), err
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
