package imfant

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/hist"
	"repro/internal/mfsa"
	"repro/internal/telemetry"
)

// Distribution is an immutable summary of one profiled quantity (scan
// latency, chunk latency, active-set size), backed by a log2-bucketed
// histogram: percentile estimates are within 2× of the exact order
// statistic.
type Distribution struct {
	s hist.Snapshot
}

// Count returns the number of observations.
func (d Distribution) Count() int64 { return d.s.Count }

// Sum returns the sum of the positive observations.
func (d Distribution) Sum() int64 { return d.s.Sum }

// Max returns the largest observation; 0 when empty.
func (d Distribution) Max() int64 { return d.s.Max }

// Mean returns the mean observation; 0 when empty.
func (d Distribution) Mean() float64 { return d.s.Mean() }

// Percentile estimates the q-quantile, q in [0, 1].
func (d Distribution) Percentile(q float64) int64 { return d.s.Percentile(q) }

// Bucket is one non-empty log2 bucket of a Distribution: Count
// observations fell in the closed value interval [Lo, Hi].
type Bucket struct {
	Lo, Hi, Count int64
}

// Buckets returns the distribution's non-empty buckets in ascending value
// order — the raw histogram behind the percentile estimates, ready for
// plotting.
func (d Distribution) Buckets() []Bucket {
	var out []Bucket
	for i, c := range d.s.Buckets {
		if c == 0 {
			continue
		}
		lo, hi := hist.BucketBounds(i)
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// ProfileReport is a point-in-time snapshot of the sampling profiler.
// Obtain one with Ruleset.Profile; it is immutable and safe to keep.
type ProfileReport struct {
	// Stride is the sampling stride in effect: state heat was sampled
	// once every Stride input bytes.
	Stride int
	// Samples counts sampling points across all scans so far: one per
	// execution unit that runs on an engine per Stride bytes it scans,
	// however many automata the unit fuses.
	Samples int64
	// ScanLatency is the wall-clock latency distribution of block scans
	// (one observation per Scan/FindAll/Count/CountParallel call), in
	// nanoseconds: the "scan" stage histogram of Stats().Latency.
	ScanLatency Distribution
	// ChunkLatency is the latency distribution of StreamMatcher.Write
	// calls, in nanoseconds: the "stream_write" stage histogram.
	ChunkLatency Distribution
	// ActiveSet is the distribution of active (state, FSA) pairs at
	// sampling points — an execution unit's live working-set size, over
	// all of its member automata.
	ActiveSet Distribution

	visits [][]int64 // per automaton, per state
	total  int64     // sum of all visits
	rs     *Ruleset
}

// TotalVisits returns the total sampled state-visit mass.
func (p *ProfileReport) TotalVisits() int64 { return p.total }

// Visits returns automaton a's per-state visit counts (the heat map the
// DOT rendering shades by). The slice is owned by the report; don't
// mutate it.
func (p *ProfileReport) Visits(a int) []int64 { return p.visits[a] }

// HotStates returns the k most-visited states across all automata,
// hottest first, with rule attribution. k ≤ 0 returns every visited
// state. Shares over the full (k ≤ 0) list sum to 1 up to rounding.
func (p *ProfileReport) HotStates(k int) []HotState {
	var out []HotState
	for a, vs := range p.visits {
		prog := p.rs.programs[a]
		for q, v := range vs {
			if v == 0 {
				continue
			}
			out = append(out, HotState{
				Automaton: a,
				State:     q,
				Visits:    v,
				Share:     float64(v) / float64(p.total),
				Rules:     prog.StateRules(q),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		if out[i].Automaton != out[j].Automaton {
			return out[i].Automaton < out[j].Automaton
		}
		return out[i].State < out[j].State
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// HotRules aggregates state heat up to rules: each state's visits are
// credited to every rule owning it, so shares measure how much automaton
// time each rule's paths absorb (shared states count for all sharers;
// shares can sum past 1 — that overlap is the merging win). The k
// heaviest rules are returned, heaviest first; k ≤ 0 returns all.
func (p *ProfileReport) HotRules(k int) []RuleHeat {
	acc := map[int]int64{}
	for a, vs := range p.visits {
		prog := p.rs.programs[a]
		for q, v := range vs {
			if v == 0 {
				continue
			}
			for _, id := range prog.StateRules(q) {
				acc[id] += v
			}
		}
	}
	out := make([]RuleHeat, 0, len(acc))
	for id, v := range acc {
		rh := RuleHeat{Rule: id, Visits: v, Share: float64(v) / float64(p.total)}
		if id >= 0 && id < len(p.rs.patterns) {
			rh.Pattern = p.rs.patterns[id]
		}
		out = append(out, rh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		return out[i].Rule < out[j].Rule
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// RuleHeat is one rule's aggregated share of sampled automaton time.
type RuleHeat struct {
	Rule    int     `json:"rule"`
	Pattern string  `json:"pattern"`
	Visits  int64   `json:"visits"`
	Share   float64 `json:"share"`
}

// Profile returns a snapshot of the sampling profiler, or nil when the
// ruleset was compiled without Options.Profile. Safe for concurrent use
// with ongoing scans; the snapshot is internally consistent per counter.
func (rs *Ruleset) Profile() *ProfileReport {
	if rs.profiles == nil {
		return nil
	}
	p := &ProfileReport{
		Stride:       rs.profiles[0].Stride(),
		ScanLatency:  Distribution{rs.lat.Snapshot(telemetry.StageScan)},
		ChunkLatency: Distribution{rs.lat.Snapshot(telemetry.StageStreamWrite)},
		rs:           rs,
	}
	var pairs hist.Snapshot
	p.visits = make([][]int64, len(rs.programs))
	for u, pr := range rs.profiles {
		p.Samples += pr.Samples()
		pairs.Merge(pr.ActivePairs())
		vs := pr.Visits()
		for _, v := range vs {
			p.total += v
		}
		// A unit program holds its members' states back to back, in
		// member order (mfsa.Union).
		for _, g := range rs.plan.units[u].groups {
			n := rs.programs[g].NumStates()
			p.visits[g], vs = vs[:n:n], vs[n:]
		}
	}
	p.ActiveSet = Distribution{pairs}
	return p
}

// WriteProfileDOT renders automaton a as a Graphviz digraph whose states
// are shaded white→red by their share of sampled visits — the heat map
// companion of Ruleset.WriteDOT. It fails when profiling is off or a is
// out of range.
func (rs *Ruleset) WriteProfileDOT(w io.Writer, a int) error {
	if rs.profiles == nil {
		return fmt.Errorf("imfant: profiling is off (Options.Profile)")
	}
	if a < 0 || a >= len(rs.mfsas) {
		return fmt.Errorf("imfant: automaton %d out of range [0, %d)", a, len(rs.mfsas))
	}
	return mfsa.WriteDOTHeat(w, rs.mfsas[a], rs.Profile().Visits(a))
}

// profileStats builds the Stats().Profile section from the live profiler
// state; installed on the collector by buildEngines.
func (rs *Ruleset) profileStats() *ProfileStats {
	p := rs.Profile()
	if p == nil {
		return nil
	}
	ps := &ProfileStats{Stride: p.Stride, Samples: p.Samples, HotStates: p.HotStates(10)}
	if p.ActiveSet.Count() > 0 {
		h := telemetry.Summarize(p.ActiveSet.s)
		ps.ActivePairs = &h
	}
	return ps
}

// TraceEvent is one structured runtime event from the trace ring (see
// Options.TraceCapacity). Kind is the snake_case event name: scan_begin,
// scan_end, match, lazy_flush, lazy_fallback, lazy_pin, stream_end,
// prefilter_skip, scan_error, ruleset_swap, ruleset_drain. Fields not
// meaningful for a kind are -1.
type TraceEvent struct {
	// Seq is the event's global sequence number, starting at 1.
	Seq int64 `json:"seq"`
	// Nanos is the wall-clock timestamp in Unix nanoseconds.
	Nanos int64 `json:"t_ns"`
	// Kind is the event name.
	Kind string `json:"kind"`
	// Automaton is the MFSA index, -1 when the event spans all automata.
	Automaton int `json:"automaton"`
	// Rule is the rule id for match events, -1 otherwise.
	Rule int `json:"rule"`
	// Offset is the stream offset the event refers to, -1 when N/A.
	Offset int64 `json:"offset"`
	// Value is kind-specific: input length for scan_begin, match count
	// for scan_end/stream_end, flush count for lazy_flush, 1 for a
	// thrash-forced lazy_fallback (0 for a ladder pin), the
	// degradation-cause bitmask for scan_error (bit 0 timeout, bit 1
	// shed, bit 2 canceled, bit 3 worker panic), the sequence number that
	// became current for ruleset_swap, and the number of versions drained
	// for ruleset_drain.
	Value int64 `json:"value"`
}

// TraceEvents returns the retained trace events in chronological order;
// nil when tracing is off. Safe for concurrent use.
func (rs *Ruleset) TraceEvents() []TraceEvent {
	if rs.trace == nil {
		return nil
	}
	evs := rs.trace.Events()
	out := make([]TraceEvent, len(evs))
	for i, ev := range evs {
		out[i] = publicEvent(ev)
	}
	return out
}

// SetTraceSink installs fn to observe every trace event synchronously as
// it is recorded (nil removes it). The sink runs on the scanning
// goroutine — keep it fast. A no-op when tracing is off.
func (rs *Ruleset) SetTraceSink(fn func(TraceEvent)) {
	if rs.trace == nil {
		return
	}
	if fn == nil {
		rs.trace.SetSink(nil)
		return
	}
	rs.trace.SetSink(func(ev telemetry.Event) { fn(publicEvent(ev)) })
}

// publicEvent converts the internal event shape to the public mirror.
func publicEvent(ev telemetry.Event) TraceEvent {
	return TraceEvent{
		Seq:       ev.Seq,
		Nanos:     ev.Nanos,
		Kind:      ev.Kind.String(),
		Automaton: int(ev.Automaton),
		Rule:      int(ev.Rule),
		Offset:    ev.Offset,
		Value:     ev.Value,
	}
}
