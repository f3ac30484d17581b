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
	// SegmentAuto segments inputs of at least 1 MiB when more than one
	// worker is available.
	SegmentAuto SegmentMode = iota
	// SegmentOn segments every input large enough to cut, whatever its
	// size.
	SegmentOn
	// SegmentOff disables segment-parallel scanning.
	SegmentOff
)

const (
	// segmentMinBytes is the SegmentAuto threshold: below 1 MiB the
	// per-worker runner setup and boundary stitching outweigh the
	// parallelism.
	segmentMinBytes = 1 << 20
	// segmentMaxFrontier is the speculative boundary-frontier budget, in
	// active MFSA states. A group whose carry exceeds it is pinned serial.
	segmentMaxFrontier = 64
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
// count; otherwise every available processor gets a segment.
func (rs *Ruleset) segmentParts(n, threads int) int {
	if rs.opts.Segment == SegmentOff ||
		rs.opts.Segment == SegmentAuto && n < segmentMinBytes {
		return 0
	}
	p := threads
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

// scanSegmented runs the literal pass, when pass is set, then the admitted
// units (ids) in turn, each over parts segments with exact boundary
// stitching (package segment) when its executor offers a segment-parallel
// scan and the unit is not pinned serial; anchored and eager-DFA units run
// serially — their scans are O(1) or a single cache-resident sweep, and
// segmenting them buys nothing. Every run is gathered into f. Returns the
// match count.
func (rs *Ruleset) scanSegmented(input []byte, parts int, ids []int, pass bool, check func() error,
	emit func(unit, fsa, end int), f *scanFold) (total int64, err error) {
	if pass {
		if _, total, err = rs.segmentedPass(input, parts, check, emit, f); err != nil {
			return total, err
		}
	}
	bounds := segment.Boundaries(len(input), parts)
	var run groupRun
	for _, u := range ids {
		var unitEmit func(fsa, end int)
		if emit != nil {
			unit := u
			unitEmit = func(fsa, end int) { emit(unit, fsa, end) }
		}
		unitEmit = rs.traceMatches(u, unitEmit)
		x := &rs.plan.units[u]
		st0 := rs.stageStart()
		if x.exec.segment != nil && !rs.segSerial[u].Load() {
			err = x.exec.segment(input, bounds, check, unitEmit, &run)
			rs.stageEnd(telemetry.StageSegment, st0)
		} else {
			// Bytes of serial runs carry no segment fold, so they land in
			// the derived SerialBytes bucket of the Segment partition.
			err = blockScan(x.exec.runner(), input, runCfg{onMatch: unitEmit, check: check, faults: rs.faults}, &run)
			rs.stageEnd(telemetry.StrategyStage(int(x.strat)), st0)
		}
		rs.foldRun(f, u, &run)
		if err != nil {
			return total, err
		}
		total += run.matches
	}
	return total, nil
}

// segmentedPass runs the literal pass over parts segments (see
// scanLiterals). Returns the patterns seen and the AC and chain groups'
// match count.
func (rs *Ruleset) segmentedPass(input []byte, parts int, check func() error,
	emit func(unit, fsa, end int), f *scanFold) ([]int32, int64, error) {
	st0 := rs.stageStart()
	seen, n, err := rs.scanLiterals(input, segment.Boundaries(len(input), parts), check, rs.parallelEmit(emit), f)
	rs.stageEnd(telemetry.StageSegment, st0)
	return seen, n, err
}

// findAllSegmented is FindAll's segment-parallel path: collect every event
// with rule attribution, then impose the serial report order.
func (rs *Ruleset) findAllSegmented(ctx context.Context, input []byte, parts int) ([]Match, error) {
	var out []Match
	_, err := rs.scanParallel(ctx, input, 0, parts, func(unit, fsa, end int) {
		r := rs.plan.units[unit].rules[fsa]
		out = append(out, Match{Rule: r.RuleID, Pattern: r.Pattern, End: end})
	})
	if err != nil {
		return nil, err
	}
	sortByEnd(out)
	return out, nil
}
