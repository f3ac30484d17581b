package telemetry

import "repro/internal/hist"

// Stage identifies one instrumented span of the scan pipeline for latency
// attribution. Stages are coarse on purpose: a timer brackets a whole
// sweep, a whole per-automaton dispatch, or a whole chunk — never a
// per-byte step — so the cost of attribution is two monotonic clock reads
// per stage invocation, folded into a log2 histogram.
type Stage uint8

const (
	// StageScan brackets one whole block scan (Scanner.run): prefilter
	// sweep, every per-automaton dispatch, and match delivery.
	StageScan Stage = iota
	// StagePrefilter brackets the literal pass of a scan when it only
	// gates (a pass that also runs AC-routed groups is StageStrategyAC).
	StagePrefilter
	// StageStrategyIMFAnt through StageStrategyDFA bracket one automaton's
	// dispatch under the named execution strategy. The five constants are
	// contiguous and ordered exactly like the root package's Strategy
	// values so StrategyStage is a direct offset.
	StageStrategyIMFAnt
	StageStrategyLazyDFA
	StageStrategyAC
	StageStrategyAnchored
	StageStrategyDFA
	// StageParallel brackets the multi-threaded engine fan-out of a
	// parallel count (all default-strategy automata together — wall clock,
	// not the sum of per-worker time).
	StageParallel
	// StageStreamWrite brackets one StreamMatcher.Write chunk.
	StageStreamWrite
	// StageStreamFlush brackets the end-of-stream flush inside
	// StreamMatcher.Close (held-chunk replay, final feed, engine End).
	StageStreamFlush
	// StageSegment brackets one segmented literal pass: worker fan-out
	// plus the ordered replay of the hits (wall clock, not the sum of
	// per-worker time).
	StageSegment
	// NumStages is the number of stages; not itself a stage.
	NumStages
)

// StrategyStage maps the root package's strategy index k (imfant=0,
// lazydfa=1, ac=2, anchored=3, dfa=4) to its dispatch stage. Chain groups
// (k=5) run in the literal pass, which is timed as StageStrategyAC, and
// have no dispatch stage of their own.
func StrategyStage(k int) Stage { return StageStrategyIMFAnt + Stage(k) }

// String returns the stable snake_case stage name used in JSON stats and
// as the OpenMetrics "stage" label value.
func (s Stage) String() string {
	switch s {
	case StageScan:
		return "scan"
	case StagePrefilter:
		return "prefilter"
	case StageStrategyIMFAnt:
		return "strategy_imfant"
	case StageStrategyLazyDFA:
		return "strategy_lazydfa"
	case StageStrategyAC:
		return "strategy_ac"
	case StageStrategyAnchored:
		return "strategy_anchored"
	case StageStrategyDFA:
		return "strategy_dfa"
	case StageParallel:
		return "parallel"
	case StageStreamWrite:
		return "stream_write"
	case StageStreamFlush:
		return "stream_flush"
	case StageSegment:
		return "segment"
	}
	return "unknown"
}

// Latency holds one allocation-free log2 histogram per pipeline stage.
// A nil *Latency is valid and records nothing, so call sites guard the
// whole instrumentation block with a single nil check.
type Latency struct {
	hists [NumStages]hist.Histogram
}

// Record folds one stage invocation of ns nanoseconds. Nil-safe.
func (l *Latency) Record(s Stage, ns int64) {
	if l == nil || s >= NumStages {
		return
	}
	l.hists[s].Record(ns)
}

// Snapshot returns the stage's histogram snapshot; zero-valued when l is
// nil or the stage never fired.
func (l *Latency) Snapshot(s Stage) hist.Snapshot {
	if l == nil || s >= NumStages {
		return hist.Snapshot{}
	}
	return l.hists[s].Snapshot()
}

// Stats summarizes every stage that has recorded at least one observation,
// in stage order; nil when nothing fired yet (so the JSON section is
// omitted while empty).
func (l *Latency) Stats() *LatencyStats {
	if l == nil {
		return nil
	}
	var out *LatencyStats
	for s := Stage(0); s < NumStages; s++ {
		snap := l.hists[s].Snapshot()
		if snap.Count == 0 {
			continue
		}
		if out == nil {
			out = &LatencyStats{}
		}
		out.Stages = append(out.Stages, StageLatency{Stage: s.String(), HistStats: Summarize(snap)})
	}
	return out
}
