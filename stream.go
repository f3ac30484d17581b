package imfant

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/telemetry"
)

// StreamMatcher scans a stream incrementally: write chunks of any size and
// matches are reported with absolute stream offsets, exactly as if the
// whole stream had been scanned at once (active MFSA paths carry across
// chunk boundaries). It implements io.WriteCloser, so it can sit behind
// io.Copy or a TeeReader in a packet-processing pipeline.
//
// The matcher runs on the engine selected by Options.Engine: in lazy-DFA
// mode each execution unit's runner is a cursor on the unit's one bounded
// transition table, shared by every stream and scan of the Ruleset, so a
// new stream starts on the table earlier and concurrent streams warmed; in
// iMFAnt mode the classic chunked runner.
//
// Close marks the end of the stream; it is required for correctness of
// $-anchored rules, which may only match on the final byte. The runners
// hold back the most recent byte until the next Write or Close so that the
// stream end can be announced after the fact; every byte Write reports as
// consumed has been handed to the engines, and is matched against even if
// the stream is cancelled or closed after an error ($-anchored accepts do
// not fire in that case — the true stream end was never observed).
//
// Matchers created with NewStreamMatcherContext stop at the first
// checkpoint after the context is cancelled: Write reports how many bytes
// were consumed before the cancellation and the context's error, and every
// later Write and Close returns the same sticky error (Err).
//
// A stream runs every execution unit on every byte: the literal-factor
// prefilter (Options.Prefilter) gates block scans only, which see the whole
// input before any unit runs. A stream cannot know whether a factor occurs
// later on, so it never skips a unit; it feeds the Ruleset's one literal
// pass only when that pass executes AC or chain groups. A caller holding the
// whole buffer gets the gate from a Scanner.
//
// Write, Close, Err, and Matches serialize on an internal mutex, pinning
// the Close-during-concurrent-Write contract: a Write racing Close either
// completes in full — every one of its matches delivered before Close
// returns — or loses the race, consumes nothing, and fails with the sticky
// io.ErrClosedPipe. No partial-match loss, no torn chunks. Concurrent
// Writes are likewise serialized (their relative order is unspecified), and
// onMatch runs under the lock — it must not call back into the matcher.
// Stats remains single-owner: call it only with Writes quiesced.
type StreamMatcher struct {
	mu       sync.Mutex // serializes Write/Close/Err/Matches
	rs       *Ruleset
	runs     []groupRunner // per execution unit; nil for the pass's units
	lit      *litRunner    // the one literal pass; nil unless it runs AC or chain groups
	final    []groupRun    // the runners' totals frozen at Close, before their release
	check    func() error  // context poll; nil when not cancellable
	onMatch  func(Match)
	closed   bool
	err      error // sticky: first checkpoint failure
	matches  int64
	consumed int64 // bytes consumed across Writes
	ruleHits []int64
	budget   time.Duration // Options.ScanTimeout: per-Write/Close time budget
	deadline time.Time     // current call's cutoff; zero without a budget
	timeouts int64         // 1 once the stream failed with ErrScanTimeout
	faults   *faultpoint.Injector
	onClose  func()       // registry drain hook; runs once, after a Close completes
	pref     prefCounters // the literal pass's sweep counters, at Close
}

// RuleInfo identifies one rule inside a stream matcher.
type RuleInfo struct {
	Rule    int
	Pattern string
}

// NewStreamMatcher returns a matcher over the ruleset. onMatch may be nil
// when only the count is needed.
func (rs *Ruleset) NewStreamMatcher(onMatch func(Match)) *StreamMatcher {
	return rs.NewStreamMatcherContext(context.Background(), onMatch)
}

// NewStreamMatcherContext returns a matcher whose Writes observe ctx:
// once the context is cancelled or its deadline passes, the stream fails
// with the context's error at the next checkpoint (about every 4 KiB),
// consuming no further input.
func (rs *Ruleset) NewStreamMatcherContext(ctx context.Context, onMatch func(Match)) *StreamMatcher {
	sm := &StreamMatcher{
		rs:       rs,
		onMatch:  onMatch,
		check:    checkpointOf(ctx),
		ruleHits: make([]int64, len(rs.patterns)),
		budget:   rs.opts.ScanTimeout,
		faults:   rs.faults,
	}
	units := rs.plan.units
	sm.runs = make([]groupRunner, len(units))
	emits := make([]func(fsa, end int), len(units))
	for u := range units {
		x := &units[u]
		rules := x.rules
		emits[u] = func(fsa, end int) {
			sm.matches++
			ri := rules[fsa]
			if ri.RuleID >= 0 && ri.RuleID < len(sm.ruleHits) {
				sm.ruleHits[ri.RuleID]++
			}
			if sm.onMatch != nil {
				sm.onMatch(Match{Rule: ri.RuleID, Pattern: ri.Pattern, End: end})
			}
		}
		if x.newRunner != nil {
			sm.runs[u] = x.newRunner()
			sm.runs[u].begin(runCfg{onMatch: emits[u], faults: sm.faults})
		}
	}
	if lp := rs.plan.lit; lp != nil && lp.delivers() {
		sm.lit = newLitRunner(lp, rs.opts.accelOn())
		sm.lit.begin(nil, sm.faults, emits)
	}
	return sm
}

// feed hands one chunk to the literal pass and every other unit.
func (sm *StreamMatcher) feed(chunk []byte, final bool) {
	if sm.lit != nil {
		sm.lit.feed(chunk)
	}
	for _, r := range sm.runs {
		if r != nil {
			r.feed(chunk, final)
		}
	}
}

// flushHeld feeds each runner's held-back byte as ordinary data, so that
// every byte reported as consumed has been matched against even though the
// stream will never see a proper end.
func (sm *StreamMatcher) flushHeld() {
	for _, r := range sm.runs {
		if r != nil {
			r.flushHeld()
		}
	}
}

// armDeadline starts the current call's ScanTimeout budget; a no-op when
// Options.ScanTimeout is zero.
func (sm *StreamMatcher) armDeadline() {
	if sm.budget > 0 {
		sm.deadline = time.Now().Add(sm.budget)
	}
}

// splitChunks reports whether Writes must be fed in checkpoint-sized blocks:
// required whenever poll can fail mid-chunk — a cancellable context or an
// armed ScanTimeout budget — so the failure is observed promptly and the
// consumed-byte count stays exact.
func (sm *StreamMatcher) splitChunks() bool { return sm.check != nil || sm.budget > 0 }

// poll checks the matcher's context and the armed ScanTimeout deadline,
// recording the first failure (the context's error takes precedence). On
// that first failure the runners' held bytes are flushed: the consumed-byte
// count already includes them, so they must be matched against. A deadline
// failure is sticky like a cancellation — the stream is wedged slow, and
// retrying the next Write against the same backlog would just burn another
// budget.
func (sm *StreamMatcher) poll() error {
	if sm.err != nil {
		return sm.err
	}
	var err error
	if sm.check != nil {
		err = sm.check()
	}
	if err == nil && !sm.deadline.IsZero() && time.Now().After(sm.deadline) {
		err = ErrScanTimeout
	}
	if err != nil {
		sm.err = err
		if errors.Is(err, ErrScanTimeout) {
			sm.timeouts++
		}
		noteDegraded(sm.rs.collector, err)
		sm.rs.traceScanError(err)
		sm.flushHeld()
	}
	return sm.err
}

// Write feeds the next chunk of the stream, honoring the io.Writer
// contract: it returns the number of bytes consumed — every one of them
// handed to the engines — and a non-nil error whenever that is short of
// len(p). Write fails with io.ErrClosedPipe after Close, and with the
// sticky context error (see Err) after a cancellation; a failed matcher
// consumes nothing.
func (sm *StreamMatcher) Write(p []byte) (int, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.err != nil {
		return 0, sm.err
	}
	if sm.closed {
		return 0, io.ErrClosedPipe
	}
	if len(p) == 0 {
		return 0, nil
	}
	sm.armDeadline()
	if err := sm.poll(); err != nil {
		return 0, err
	}
	if sm.rs.lat != nil {
		defer func(t0 time.Time) {
			sm.rs.lat.Record(telemetry.StageStreamWrite, time.Since(t0).Nanoseconds())
		}(time.Now())
	}
	// The chunk is fed in checkpoint-sized blocks so a cancelled context
	// stops consuming input promptly and the consumed-byte count stays
	// exact. The runners themselves hold back the most recent byte until
	// the stream end is known; it still counts as consumed because a
	// cancellation flushes it (see poll).
	n := 0
	var err error
	for rest := p; len(rest) > 0; {
		blk := rest
		if sm.splitChunks() && len(blk) > engine.DefaultCheckpointEvery {
			blk = blk[:engine.DefaultCheckpointEvery]
		}
		sm.feed(blk, false)
		rest = rest[len(blk):]
		n += len(blk)
		sm.consumed += int64(len(blk))
		if len(rest) > 0 {
			if err = sm.poll(); err != nil {
				break
			}
		}
	}
	return n, err
}

// Close marks the stream end, flushing the runners' held bytes as final.
// Close is idempotent; a second Close returns the same result. Close is
// itself a checkpoint: on a matcher that failed — or whose context is found
// cancelled at Close — the final flush is skipped (the stream end was never
// observed, so $-anchored accepts must not fire), the held bytes are
// matched against as ordinary data, and the sticky error is returned.
func (sm *StreamMatcher) Close() error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.closed {
		return sm.err
	}
	sm.closed = true
	sm.armDeadline()
	ft0 := sm.rs.stageStart()
	if sm.poll() == nil {
		sm.feed(nil, true)
	}
	sm.rs.stageEnd(telemetry.StageStreamFlush, ft0)
	var f scanFold
	if sm.lit != nil {
		sm.lit.end(&f, sm.rs.collector, sm.rs.prefEnabled)
	}
	var run groupRun
	for u, r := range sm.runs {
		if r != nil {
			r.end(&run)
			sm.rs.foldRun(&f, u, &run)
		}
	}
	sm.rs.flush(&f, &sm.pref)
	// Freeze this stream's totals: the lazy-DFA gauges read tables other
	// streams keep filling, and the runners are dropped.
	sm.final = runTotals(sm.runs, sm.lit)
	sm.runs, sm.lit = nil, nil
	if sm.rs.trace != nil {
		sm.rs.trace.Record(telemetry.Event{Kind: telemetry.EventStreamEnd,
			Automaton: -1, Rule: -1, Offset: sm.consumed, Value: sm.matches})
	}
	if sm.onClose != nil {
		sm.onClose()
		sm.onClose = nil
	}
	return sm.err
}

// Err returns the sticky error that failed the stream, if any: the
// context's error once a cancellation was observed, or ErrScanTimeout once
// a Write overran Options.ScanTimeout. A closed, healthy matcher reports
// nil.
func (sm *StreamMatcher) Err() error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.err
}

// Matches returns the number of match events reported so far. After Close
// it is the total for the stream.
func (sm *StreamMatcher) Matches() int64 {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.matches
}
