package imfant

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/ahocorasick"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// SegmentMode selects segmenting the literal pass of whole-buffer scans
// (see Options.Segment).
type SegmentMode int

const (
	// SegmentAuto segments the literal pass of inputs of at least 1 MiB
	// when more than one worker is available.
	SegmentAuto SegmentMode = iota
	// SegmentOn segments the literal pass of every input large enough to
	// cut, whatever its size.
	SegmentOn
	// SegmentOff runs the literal pass as one task of the worker pool.
	SegmentOff
)

// segmentMinBytes is the SegmentAuto threshold: below 1 MiB the per-worker
// pass setup and the ordered replay outweigh the parallelism.
const segmentMinBytes = 1 << 20

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

// segmentedPass runs the literal pass over parts segments (see
// scanLiterals); emit is indexed by unit. Returns the patterns seen and the
// AC and chain groups' match count.
func (rs *Ruleset) segmentedPass(input []byte, parts int, check func() error,
	emit []func(fsa, end int), f *scanFold) ([]int32, int64, error) {
	st0 := rs.stageStart()
	seen, n, err := rs.scanLiterals(input, boundaries(len(input), parts), check, emit, f)
	rs.stageEnd(telemetry.StageSegment, st0)
	return seen, n, err
}

// scanLiterals runs the literal pass over input segment-parallel (see
// scanAC) and folds it into f: the hits are replayed in end order, which is
// what the chain members need, and each AC and chain group counts as one
// segmented scan of the bytes the workers scanned. emit is indexed by unit.
// Returns the patterns seen and the AC and chain groups' match count.
func (rs *Ruleset) scanLiterals(input []byte, bounds []int, check func() error,
	emit []func(fsa, end int), f *scanFold) ([]int32, int64, error) {
	lp := rs.plan.lit
	st := lp.newState()
	res, err := scanAC(lp.m, lp.deliver, input, bounds, rs.opts.accelOn(), check, func(pat, end int) {
		lp.deliverHit(pat, end, &st, emit)
	})
	var matches int64
	for _, k := range st.touched {
		matches += st.counts[k]
		f.rule(rs.collector, int(lp.members[k].rule), st.counts[k])
	}
	g := int64(len(lp.units))
	lp.foldBytes(f, res.scanned)
	f.matches += matches
	f.accel += res.skipped
	f.segScans += g
	f.segments += g * int64(len(bounds)-1)
	f.parallel += g * res.scanned
	if rs.prefEnabled {
		f.pref.sweeps++
		f.pref.hits += int64(len(res.seen))
	}
	return res.seen, matches, err
}

// boundaries cuts n bytes into parts near-equal contiguous segments and
// returns the parts+1 cut offsets (first 0, last n). parts is clamped to
// [1, max(n, 1)] so every segment is non-empty.
func boundaries(n, parts int) []int {
	parts = max(min(parts, n), 1)
	bounds := make([]int, parts+1)
	base, rem := n/parts, n%parts
	off := 0
	for i := 0; i < parts; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[parts] = n
	return bounds
}

// acResult aggregates one segment-parallel Aho–Corasick scan.
type acResult struct {
	// scanned is the total bytes scanned across workers: the input plus
	// the overlap windows (at most (parts-1)·(MaxPatternLen-1) extra).
	scanned int64
	// skipped counts bytes jumped by root-state acceleration.
	skipped int64
	// seen lists the distinct patterns that occur in the input.
	seen []int32
}

// acHit is one buffered pattern occurrence: its pattern and the absolute
// offset of its last byte.
type acHit struct{ pat, end int }

// scanAC runs an Aho–Corasick matcher over input segment-parallel, one
// worker per segment (bounds as produced by boundaries). It needs no
// stitching: a match ending in segment k starts at most MaxPatternLen-1
// bytes earlier, so worker k scans its segment plus that much left context
// from a reset automaton and keeps only hits ending inside its own segment
// — exact by the suffix-closure of the AC state. Each worker buffers the
// hits of the delivered patterns (deliver, as for Matcher.NewPass); they
// are replayed to emit segment by segment, so emit sees them in end order,
// as a serial pass reports them. The seen list is the union of the workers'
// first occurrences, which include the overlap windows' hits: each ends
// inside the input, so the union is exactly the serial pass's seen set.
//
// check, when non-nil, is polled before every checkpoint-sized block on
// each worker and must be safe for concurrent use. A worker panic is
// contained and surfaces as *engine.WorkerPanicError; a check error
// surfaces as itself. On error nothing is replayed and seen is nil, but the
// byte counters still reflect the work done.
func scanAC(m *ahocorasick.Matcher, deliver []bool, input []byte, bounds []int, accel bool,
	check func() error, emit func(pattern, end int)) (acResult, error) {
	const every = engine.DefaultCheckpointEvery
	overlap := m.MaxPatternLen() - 1
	type acOut struct {
		pass    *ahocorasick.Pass
		hits    []acHit
		scanned int64
		err     error
	}
	parts := len(bounds) - 1
	outs := make([]acOut, parts)
	run := func(k int) {
		out := &outs[k]
		defer func() {
			if v := recover(); v != nil {
				out.err = &engine.WorkerPanicError{Automaton: -1, Value: v, Stack: debug.Stack()}
			}
		}()
		lo, hi := bounds[k], bounds[k+1]
		out.pass = m.NewPass(deliver)
		out.pass.SetAccel(accel)
		for off := max(lo-overlap, 0); off < hi; off += every {
			if check != nil {
				if out.err = check(); out.err != nil {
					return
				}
			}
			stop := min(off+every, hi)
			base := off
			out.pass.Scan(input[off:stop], func(pat, end int) {
				if abs := base + end; abs >= lo {
					out.hits = append(out.hits, acHit{pat, abs})
				}
			})
			out.scanned += int64(stop - off)
		}
	}
	var wg sync.WaitGroup
	wg.Add(parts)
	for k := range parts {
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	wg.Wait()
	var res acResult
	var errs []error
	for k := range outs {
		res.scanned += outs[k].scanned
		if p := outs[k].pass; p != nil {
			res.skipped += p.Skipped()
		}
		if outs[k].err != nil {
			errs = append(errs, outs[k].err)
		}
	}
	if len(errs) > 0 {
		return res, errors.Join(errs...)
	}
	for k := range outs {
		for _, h := range outs[k].hits {
			emit(h.pat, h.end)
		}
		// A pattern is new to the union unless an earlier worker saw it.
	firsts:
		for _, pat := range outs[k].pass.Firsts() {
			for j := 0; j < k; j++ {
				if outs[j].pass.Seen(int(pat)) {
					continue firsts
				}
			}
			res.seen = append(res.seen, pat)
		}
	}
	return res, nil
}

// findAllSegmented is FindAll's parallel path: every event is collected
// with rule attribution under a mutex, then the serial report order is
// imposed. parts sets both the pass's segments and the pool's threads.
func (rs *Ruleset) findAllSegmented(ctx context.Context, input []byte, parts int) ([]Match, error) {
	var mu sync.Mutex
	var out []Match
	_, err := rs.scanParallel(ctx, input, parts, parts, func(unit, fsa, end int) {
		r := rs.plan.units[unit].rules[fsa]
		mu.Lock()
		out = append(out, Match{Rule: r.RuleID, Pattern: r.Pattern, End: end})
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	sortByEnd(out)
	return out, nil
}
