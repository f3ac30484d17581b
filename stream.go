package imfant

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/ahocorasick"
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
// mode each automaton keeps a bounded transition cache that persists for
// the life of the matcher, in iMFAnt mode the classic chunked runner.
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
// On rulesets whose literal-factor prefilter is active (Options.Prefilter)
// the stream stays exact while still skipping work: fully filterable
// automata start gated. The first Write is swept for factors before any
// byte is fed, so a gated automaton whose factor occurs activates with zero
// bytes consumed — exactly as if it had never been gated. An automaton
// still gated when a second Write arrives cannot be activated lazily any
// more (a match could start before its factor's first occurrence), so it
// wakes by replaying the buffered first chunk and the prefilter retires for
// the rest of the stream; matches from that replay are reported during the
// later Write. An automaton still gated at Close is skipped outright, which
// is sound: its rules each require a factor that never occurred anywhere in
// the stream. The streamed match set is byte-identical to the unfiltered
// one in every case; the savings concentrate on single-Write streams.
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
	runs     []groupRunner // per automaton, indexed like rs.programs
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
	onClose  func() // registry drain hook; runs once, after a Close completes

	// Prefilter state; inert when the ruleset is ungated.
	sweep      *ahocorasick.Sweeper
	gated      []bool // per automaton: skipped until its factor occurs
	gatedCount int
	pending    []byte // first chunk, buffered while any automaton is gated
	wrote      bool   // a Write has consumed bytes
	pref       prefCounters
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
	sm.runs = make([]groupRunner, len(rs.programs))
	for i, x := range rs.plan.exec {
		rules := rs.programs[i].Rules()
		emit := func(fsa, end int) {
			sm.matches++
			ri := rules[fsa]
			if ri.RuleID >= 0 && ri.RuleID < len(sm.ruleHits) {
				sm.ruleHits[ri.RuleID]++
			}
			if sm.onMatch != nil {
				sm.onMatch(Match{Rule: ri.RuleID, Pattern: ri.Pattern, End: end})
			}
		}
		sm.runs[i] = x.newRunner()
		sm.runs[i].begin(runCfg{onMatch: emit, faults: sm.faults})
	}
	if pf := rs.pf; pf != nil {
		sm.gated = make([]bool, len(rs.programs))
		for i := range sm.gated {
			if !pf.groupAlways[i] {
				sm.gated[i] = true
				sm.gatedCount++
			}
		}
		if sm.gatedCount > 0 {
			sm.sweep = pf.ac.NewSweeper()
			sm.sweep.SetAccel(rs.opts.accelOn())
		}
	}
	return sm
}

// isGated reports whether automaton i is currently skipped by the
// prefilter.
func (sm *StreamMatcher) isGated(i int) bool {
	return sm.gated != nil && sm.gated[i]
}

// feed hands one chunk to every active automaton; gated ones stay idle.
func (sm *StreamMatcher) feed(chunk []byte, final bool) {
	for i, r := range sm.runs {
		if !sm.isGated(i) {
			r.feed(chunk, final)
		}
	}
}

// prefilterAdmit advances the gating state for an incoming chunk, before
// any of it is fed. A no-op once nothing is gated.
func (sm *StreamMatcher) prefilterAdmit(p []byte) error {
	if sm.gatedCount == 0 {
		return nil
	}
	if sm.faults.Hit(faultpoint.PrefilterWake) && !sm.wrote {
		// Injected sweeper desync: wake everything before the first byte is
		// fed. Waking before any byte is consumed is exactly the ungated
		// start path, so it is always sound.
		for i := range sm.gated {
			if sm.gated[i] {
				sm.gated[i] = false
				sm.gatedCount--
			}
		}
		return nil
	}
	pf := sm.rs.pf
	if !sm.wrote {
		// First chunk: sweep before feeding, so a factor-triggered
		// automaton activates with zero bytes consumed and runs the stream
		// from its first byte like an ungated one.
		for off := 0; off < len(p) && !sm.sweep.Done(); off += engine.DefaultCheckpointEvery {
			if err := sm.poll(); err != nil {
				return err
			}
			end := off + engine.DefaultCheckpointEvery
			if end > len(p) {
				end = len(p)
			}
			sm.sweep.Sweep(p[off:end])
		}
		sm.pref.sweeps = 1
		sm.pref.hits = int64(sm.sweep.Seen())
		for i := range sm.gated {
			if sm.gated[i] && pf.active(i, sm.sweep) {
				sm.gated[i] = false
				sm.gatedCount--
			}
		}
		if sm.gatedCount > 0 {
			sm.pending = append([]byte(nil), p...)
		}
		return nil
	}
	// A later chunk arrived with automata still gated. Activating one
	// mid-stream cannot be exact — a match may start before the factor's
	// first occurrence — so every gated automaton wakes by replaying the
	// buffered first chunk, and the prefilter retires for this stream.
	for i := range sm.gated {
		if !sm.gated[i] {
			continue
		}
		pending := sm.pending
		for len(pending) > 0 {
			if err := sm.poll(); err != nil {
				return err
			}
			blk := pending
			if sm.splitChunks() && len(blk) > engine.DefaultCheckpointEvery {
				blk = blk[:engine.DefaultCheckpointEvery]
			}
			sm.runs[i].feed(blk, false)
			pending = pending[len(blk):]
		}
		sm.gated[i] = false
		sm.gatedCount--
	}
	sm.pending = nil
	return nil
}

// flushHeld feeds each runner's held-back byte as ordinary data, so that
// every byte reported as consumed has been matched against even though the
// stream will never see a proper end.
func (sm *StreamMatcher) flushHeld() {
	for _, r := range sm.runs {
		r.flushHeld()
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
	if sm.rs.chunkLat != nil {
		defer func(t0 time.Time) { sm.rs.chunkLat.Record(time.Since(t0).Nanoseconds()) }(time.Now())
	}
	if sm.rs.lat != nil {
		defer func(t0 time.Time) {
			sm.rs.lat.Record(telemetry.StageStreamWrite, time.Since(t0).Nanoseconds())
		}(time.Now())
	}
	if err := sm.prefilterAdmit(p); err != nil {
		return 0, err
	}
	// The chunk is fed in checkpoint-sized blocks so a cancelled context
	// stops consuming input promptly and the consumed-byte count stays
	// exact. The runners themselves hold back the most recent byte until
	// the stream end is known; it still counts as consumed because a
	// cancellation flushes it (see poll).
	n := 0
	for len(p) > 0 {
		blk := p
		if sm.splitChunks() && len(blk) > engine.DefaultCheckpointEvery {
			blk = blk[:engine.DefaultCheckpointEvery]
		}
		sm.feed(blk, false)
		p = p[len(blk):]
		n += len(blk)
		sm.consumed += int64(len(blk))
		if len(p) > 0 {
			if err := sm.poll(); err != nil {
				sm.wrote = true
				return n, err
			}
		}
	}
	sm.wrote = true
	return n, nil
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
	// Automata still gated here are skipped for good: each of their rules
	// requires a factor that never occurred in the stream.
	if sm.gatedCount > 0 {
		sm.pref.skipped = int64(sm.gatedCount)
		sm.pref.saved = int64(sm.gatedCount) * sm.consumed
		if sm.rs.trace != nil {
			for i := range sm.gated {
				if sm.gated[i] {
					sm.rs.trace.Record(telemetry.Event{Kind: telemetry.EventPrefilterSkip,
						Automaton: int32(i), Rule: -1, Offset: -1, Value: sm.consumed})
				}
			}
		}
	}
	// The admission sweep folds before the runs: AC runs add their own
	// sweeps to sm.pref, which must not reach the collector twice.
	if sm.sweep != nil {
		sm.rs.collector.AddPrefilterScan(sm.pref.sweeps, sm.pref.hits, sm.pref.skipped, sm.pref.saved)
	}
	for i, r := range sm.runs {
		if !sm.isGated(i) {
			run := r.end()
			sm.rs.fold(i, &run, nil, &sm.pref)
		}
	}
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
