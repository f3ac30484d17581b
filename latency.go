package imfant

import (
	"context"
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// stageStart opens a stage timer: the monotonic origin when latency
// attribution is on, the zero time — which stageEnd treats as "off" —
// otherwise. The nil check here is the whole cost of the disabled path.
func (rs *Ruleset) stageStart() time.Time {
	if rs.lat == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageEnd closes a stage timer opened by stageStart, folding the elapsed
// wall clock into stage s's histogram; a zero origin records nothing.
func (rs *Ruleset) stageEnd(s telemetry.Stage, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	rs.lat.Record(s, time.Since(t0).Nanoseconds())
}

// Degradation-cause bits of a scan_error trace event's Value: the cause
// chain of a failed or degraded scan, OR-combined because a joined error
// from a parallel scan can carry several at once.
const (
	// causeTimeout marks ErrScanTimeout (Options.ScanTimeout expiry).
	causeTimeout int64 = 1 << iota
	// causeShed marks ErrOverloaded (bounded work queue rejection).
	causeShed
	// causeCanceled marks a caller context cancellation or deadline.
	causeCanceled
	// causeWorkerPanic marks a contained engine.WorkerPanicError.
	causeWorkerPanic
)

// causeMask folds err's degradation-cause chain into the scan_error bit
// encoding, walking joined errors like noteDegraded does. ErrScanTimeout
// is tested before the generic context deadline because it wraps
// context.DeadlineExceeded — the specific rung wins over the generic one.
func causeMask(err error) int64 {
	if err == nil {
		return 0
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var m int64
		for _, sub := range j.Unwrap() {
			m |= causeMask(sub)
		}
		return m
	}
	var wp *engine.WorkerPanicError
	switch {
	case errors.As(err, &wp):
		return causeWorkerPanic
	case errors.Is(err, ErrScanTimeout):
		return causeTimeout
	case errors.Is(err, ErrOverloaded):
		return causeShed
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return causeCanceled
	}
	return 0
}

// traceScanError records a scan_error span carrying err's degradation
// cause chain in Value; no-op when tracing is off.
func (rs *Ruleset) traceScanError(err error) {
	if err != nil {
		rs.traceScan(telemetry.EventScanError, causeMask(err))
	}
}

// traceScan records a ruleset-scan span: scan_begin carries the input
// length, scan_end the match count. No-op when tracing is off.
func (rs *Ruleset) traceScan(kind telemetry.EventKind, value int64) {
	if rs.trace != nil {
		rs.trace.Record(telemetry.Event{Kind: kind, Automaton: -1, Rule: -1, Offset: -1, Value: value})
	}
}

// traceMatches wraps execution unit u's match callback so every match is
// also recorded as a match event, under the automaton id of the member
// group that owns the FSA. onMatch may be nil; it is returned unchanged
// when tracing is off.
func (rs *Ruleset) traceMatches(u int, onMatch func(fsa, end int)) func(fsa, end int) {
	if rs.trace == nil {
		return onMatch
	}
	x := &rs.plan.units[u]
	rules, owner := x.rules, x.owner
	return func(fsa, end int) {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventMatch,
			Automaton: owner[fsa].group, Rule: int32(rules[fsa].RuleID), Offset: int64(end), Value: 1})
		if onMatch != nil {
			onMatch(fsa, end)
		}
	}
}
