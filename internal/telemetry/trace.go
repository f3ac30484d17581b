package telemetry

import (
	"sync"
	"time"
)

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EventScanBegin marks the start of a block scan; Value is the input
	// length in bytes.
	EventScanBegin EventKind = iota + 1
	// EventScanEnd marks the end of a block scan; Value is the number of
	// match events reported.
	EventScanEnd
	// EventMatch is one reported match; Rule is the rule id, Offset the
	// end offset of the match.
	EventMatch
	// EventLazyFlush reports whole-cache flushes during one automaton's
	// scan; Automaton identifies it, Value is the flush count.
	EventLazyFlush
	// EventLazyFallback reports a scan that abandoned the lazy-DFA cache
	// for the iMFAnt engine; Value is 1 for a thrash-forced fallback, 0
	// for a ladder pin.
	EventLazyFallback
	// EventStreamEnd marks a StreamMatcher Close; Value is the stream's
	// total match count, Offset the total bytes consumed per automaton.
	EventStreamEnd
	// EventPrefilterSkip reports one MFSA execution elided by the
	// literal-factor prefilter; Automaton identifies it, Value is the
	// number of input bytes it did not have to scan.
	EventPrefilterSkip
	// EventScanError marks a scan (or stream) that completed below full
	// service; Value is a bitmask of degradation causes (the root
	// package's causeMask encoding: timeout, shed, canceled, worker
	// panic), so the span carries the full cause chain of a joined error.
	EventScanError
	// EventLazyPin reports a scan delegated whole to the iMFAnt engine
	// because the degradation ladder bottomed out (thrash at the grown
	// cache cap); Automaton identifies the pinned group.
	EventLazyPin
	// EventRulesetSwap marks a Registry hot-swap; Value is the sequence
	// number of the version that became current. Recorded into both the
	// outgoing and the incoming ruleset's rings (when tracing is on), so
	// either side's tail shows the cutover.
	EventRulesetSwap
	// EventRulesetDrain marks a Registry.DrainOld completion; Value is the
	// number of superseded versions whose last pin was released.
	EventRulesetDrain
)

// String returns the snake_case name of the kind (also used in JSON).
func (k EventKind) String() string {
	switch k {
	case EventScanBegin:
		return "scan_begin"
	case EventScanEnd:
		return "scan_end"
	case EventMatch:
		return "match"
	case EventLazyFlush:
		return "lazy_flush"
	case EventLazyFallback:
		return "lazy_fallback"
	case EventStreamEnd:
		return "stream_end"
	case EventPrefilterSkip:
		return "prefilter_skip"
	case EventScanError:
		return "scan_error"
	case EventLazyPin:
		return "lazy_pin"
	case EventRulesetSwap:
		return "ruleset_swap"
	case EventRulesetDrain:
		return "ruleset_drain"
	}
	return "unknown"
}

// Event is one structured trace record. Fields not meaningful for a kind
// are -1 (Automaton, Rule, Offset) or 0 (Value).
type Event struct {
	// Seq is the global sequence number of the event, starting at 1.
	Seq int64 `json:"seq"`
	// Nanos is the wall-clock timestamp in Unix nanoseconds.
	Nanos int64 `json:"t_ns"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Automaton is the MFSA index within the ruleset, -1 when the event
	// spans all automata.
	Automaton int32 `json:"automaton"`
	// Rule is the rule id for match events, -1 otherwise.
	Rule int32 `json:"rule"`
	// Offset is the stream offset the event refers to, -1 when N/A.
	Offset int64 `json:"offset"`
	// Value is kind-specific (see the kind constants).
	Value int64 `json:"value"`
}

// TraceRing is a bounded ring buffer of trace events: the most recent
// capacity events are retained, older ones are overwritten. Record and
// Events are safe for concurrent use. An optional sink observes every
// event synchronously as it is recorded, regardless of ring overwrites.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Event
	seq  int64
	sink func(Event)
}

// NewTraceRing returns a ring retaining the most recent capacity events;
// capacity < 1 is raised to 1.
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]Event, 0, capacity)}
}

// SetSink installs fn as the event sink, called synchronously under the
// ring's lock for every recorded event (keep it fast; nil removes it).
func (t *TraceRing) SetSink(fn func(Event)) {
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// Record stamps ev with the next sequence number and the current time,
// stores it (overwriting the oldest event when full), and feeds the sink.
func (t *TraceRing) Record(ev Event) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	ev.Nanos = now
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[(t.seq-1)%int64(cap(t.buf))] = ev
	}
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(ev)
	}
}

// Events returns the retained events in chronological order.
func (t *TraceRing) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		return append(out, t.buf...)
	}
	head := t.seq % int64(cap(t.buf)) // index of the oldest event
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// Recorded returns the total number of events ever recorded, including
// those overwritten in the ring.
func (t *TraceRing) Recorded() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}
