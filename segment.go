package imfant

import (
	"context"
	"runtime"

	"repro/internal/segment"
	"repro/internal/telemetry"
)

// SegmentMode selects segment-parallel scanning for whole-buffer scans (see
// Options.Segment).
type SegmentMode int

const (
	// SegmentAuto segments inputs of at least Options.SegmentMinBytes when
	// more than one worker is available.
	SegmentAuto SegmentMode = iota
	// SegmentOn segments every input large enough to cut, regardless of
	// SegmentMinBytes.
	SegmentOn
	// SegmentOff disables segment-parallel scanning.
	SegmentOff
)

const (
	// DefaultSegmentMinBytes is the SegmentAuto threshold: below 1 MiB the
	// per-worker runner setup and boundary stitching outweigh the
	// parallelism.
	DefaultSegmentMinBytes = 1 << 20
	// DefaultSegmentMaxFrontier is the speculative boundary-frontier budget,
	// in active MFSA states.
	DefaultSegmentMaxFrontier = 64
)

// localSegmentStats builds the Segment stats section for a Scanner or
// StreamMatcher scope, whose scans are never segmented: the whole byte count
// is serial. Nil when segmentation is disabled, matching the ruleset scope.
func (rs *Ruleset) localSegmentStats(bytes int64) *SegmentStats {
	if rs.opts.Segment == SegmentOff {
		return nil
	}
	return &SegmentStats{SerialBytes: bytes}
}

// segmentParts resolves the segment count for an n-byte scan: 0 means "do
// not segment" (mode off, input below the auto threshold, or only one worker
// available). threads, when positive, is CountParallel's explicit worker
// count and takes precedence over Options.SegmentWorkers.
func (rs *Ruleset) segmentParts(n, threads int) int {
	if rs.opts.Segment == SegmentOff {
		return 0
	}
	if rs.opts.Segment == SegmentAuto {
		min := rs.opts.SegmentMinBytes
		if min <= 0 {
			min = DefaultSegmentMinBytes
		}
		if n < min {
			return 0
		}
	}
	p := threads
	if p <= 0 {
		p = rs.opts.SegmentWorkers
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 2 {
		return 0
	}
	return p
}

// maxFrontier resolves the speculative-frontier budget.
func (rs *Ruleset) maxFrontier() int {
	if rs.opts.SegmentMaxFrontier > 0 {
		return rs.opts.SegmentMaxFrontier
	}
	return DefaultSegmentMaxFrontier
}

// groupHeat is automaton i's total sampled state-visit count — the planner's
// work estimate for heat-balanced ordering. 0 when profiling is off.
func (rs *Ruleset) groupHeat(i int) int64 {
	p := rs.profileOf(i)
	if p == nil {
		return 0
	}
	var total int64
	for _, v := range p.Visits() {
		total += v
	}
	return total
}

// scanSegmented runs the admitted groups in turn, each over parts segments
// with exact boundary stitching (package segment) when its executor offers
// a segment-parallel scan and the group is not pinned serial; anchored and
// eager-DFA groups run serially — their scans are O(1) or a single
// cache-resident sweep, and segmenting them buys nothing.
func (rs *Ruleset) scanSegmented(input []byte, parts int, ids []int, check func() error,
	emit func(automaton, fsa, end int), total *int64) error {
	bounds := segment.Boundaries(len(input), parts)
	for _, i := range ids {
		var groupEmit func(fsa, end int)
		if emit != nil {
			automaton := i
			groupEmit = func(fsa, end int) { emit(automaton, fsa, end) }
		}
		x := rs.plan.exec[i]
		st0 := rs.stageStart()
		var run groupRun
		var err error
		if x.segment != nil && !rs.segSerial[i].Load() {
			run, err = x.segment(input, bounds, check, groupEmit)
			rs.stageEnd(telemetry.StageSegment, st0)
		} else {
			// Bytes of serial runs carry no segment fold, so they land in
			// the derived SerialBytes bucket of the Segment partition.
			run, err = blockScan(x.newRunner(), input, runCfg{onMatch: groupEmit, check: check, faults: rs.faults})
			rs.stageEnd(telemetry.StrategyStage(int(rs.plan.strat[i])), st0)
		}
		rs.fold(i, &run, nil, nil)
		if err != nil {
			return err
		}
		*total += run.matches
	}
	return nil
}

// findAllSegmented is FindAll's segment-parallel path: collect every event
// with rule attribution, then impose the serial report order.
func (rs *Ruleset) findAllSegmented(ctx context.Context, input []byte, parts int) ([]Match, error) {
	var out []Match
	_, err := rs.scanParallel(ctx, input, 0, parts, func(automaton, fsa, end int) {
		r := rs.programs[automaton].Rules()[fsa]
		out = append(out, Match{Rule: r.RuleID, Pattern: r.Pattern, End: end})
	})
	if err != nil {
		return nil, err
	}
	sortByEnd(out)
	return out, nil
}
