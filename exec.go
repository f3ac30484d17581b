package imfant

import (
	"bytes"

	"repro/internal/ahocorasick"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/lazydfa"
	"repro/internal/segment"
	"repro/internal/telemetry"
)

// groupExec is one automaton group's execution unit, built by buildPlan
// beside the group's compiled artifact. Every entry point — Scanner block
// scans, CountParallel, segmented scans and StreamMatchers — runs groups
// only through it, and folds every outcome through Ruleset.fold.
type groupExec struct {
	// runner returns a fresh runner: one per Scanner, StreamMatcher,
	// CountParallel task, serial run of a segmented scan and one-shot
	// Ruleset scan. A lazy-DFA group's runners are cursors on the group's
	// one transition table (its lazydfa.Matcher, which belongs to this
	// compiled Ruleset alone), so every runner starts warm on what the
	// others cached.
	runner func() groupRunner
	// segment scans the input segment-parallel over bounds (as produced by
	// segment.Boundaries); nil for strategies whose scans are O(1) or one
	// cache-resident sweep, which run serially inside segmented scans.
	segment func(input []byte, bounds []int, check func() error, emit func(fsa, end int)) (groupRun, error)
}

// runCfg is the per-run wiring of a groupRunner.
type runCfg struct {
	onMatch func(fsa, end int) // nil: count only
	check   func() error       // checkpoint poll; nil when not cancellable
	faults  *faultpoint.Injector
}

// groupRunner runs one group as a block scan (begin, feed(input, true),
// end) or as a stream (one begin, many feeds, one end). Not safe for
// concurrent use.
type groupRunner interface {
	begin(c runCfg)
	// feed consumes the next chunk; final announces the clean stream end.
	feed(chunk []byte, final bool)
	// flushHeld matches a held-back byte as ordinary data: the stream end
	// will never be observed.
	flushHeld()
	// end finishes the run and returns its outcome.
	end() groupRun
	// totals returns the runner's cumulative counters, including a run in
	// progress, with the live cache gauges; perFSA stays nil.
	totals() groupRun
	err() error
}

// groupRun is the outcome of one group execution, or a runner's cumulative
// totals. fold turns it into the accounting updates.
type groupRun struct {
	scans, bytes, matches int64
	perFSA                []int64 // per-FSA match counts, program FSA order
	accel                 int64   // bytes jumped by byte-skipping acceleration

	// sweep marks the run that carries a literal pass, which doubles as the
	// AC groups' factor sweep; sweepHits counts the distinct literals seen.
	sweep     bool
	sweepHits int64

	// Lazy-DFA runs.
	lazy                                          bool
	hits, misses, flushes, fallbacks, grows, pins int64
	fellBack                                      bool // finished on iMFAnt
	cached, accelStates, cacheBytes               int64
	maxStates, classes                            int

	// Segment-parallel runs; segments == 0 for runner-based runs.
	segments, segFallbacks, parallelBytes, stitchBytes int64
}

// blockScan runs r over a whole input.
func blockScan(r groupRunner, input []byte, c runCfg) (groupRun, error) {
	r.begin(c)
	r.feed(input, true)
	return r.end(), r.err()
}

// newExec builds group i's executor for its planned strategy — the one
// place the root package dispatches on Strategy.
func (rs *Ruleset) newExec(pl *scanPlan, i int) groupExec {
	accel := rs.opts.accelOn()
	p := rs.programs[i]
	ecfg := engine.Config{KeepOnMatch: rs.opts.KeepOnMatch, Accel: accel, Profile: rs.profileOf(i)}
	switch pl.strat[i] {
	case StrategyAnchored:
		g := pl.anch[i]
		return groupExec{runner: func() groupRunner {
			return &anchRunner{g: g, rules: make([]anchRuleState, len(g.rules)), perFSA: make([]int64, len(g.rules))}
		}}
	case StrategyDFA:
		d := pl.dfas[i]
		return groupExec{runner: func() groupRunner { return &dfaRunner{r: dfa.NewRunner(d)} }}
	case StrategyLazyDFA:
		m := rs.lazy[i]
		lcfg := lazydfa.Config{Profile: rs.profileOf(i)}
		return groupExec{
			runner: func() groupRunner {
				return &lazyRunner{r: lazydfa.NewRunner(m), m: m, cfg: lcfg}
			},
			segment: func(input []byte, bounds []int, check func() error, emit func(fsa, end int)) (groupRun, error) {
				lc := lcfg
				lc.Checkpoint, lc.Faults = check, rs.faults
				return rs.segmentScan(segment.Group{Lazy: m, LazyCfg: lc}, i, ecfg, input, bounds, check, emit)
			},
		}
	default:
		return groupExec{
			runner: func() groupRunner { return &imfantRunner{r: engine.NewRunner(p), cfg: ecfg} },
			segment: func(input []byte, bounds []int, check func() error, emit func(fsa, end int)) (groupRun, error) {
				return rs.segmentScan(segment.Group{}, i, ecfg, input, bounds, check, emit)
			},
		}
	}
}

// segmentScan runs default-engine group i segment-parallel: iMFAnt or
// lazy-DFA workers per segment plus the sequential boundary stitch. A scan
// whose boundary carry exceeds the frontier budget, or outlives a whole
// segment (its stitch then costs a serial scan of that segment), completes
// exactly; when the input is at least segmentMinBytes it also pins the group
// serial for subsequent segmented scans, and the pin counts as one segment
// fallback. Smaller inputs never pin: their segments are too short for a
// carry that outlives one to predict anything about a large scan.
func (rs *Ruleset) segmentScan(g segment.Group, i int, cfg engine.Config, input []byte, bounds []int,
	check func() error, emit func(fsa, end int)) (groupRun, error) {
	g.Automaton, g.Program, g.MaxFrontier = i, rs.programs[i], segmentMaxFrontier
	g.Cfg = cfg
	g.Cfg.Checkpoint, g.Cfg.Faults = check, rs.faults
	res, err := segment.Scan(g, input, bounds, emit)
	run := groupRun{scans: 1, bytes: res.ParallelBytes + res.StitchBytes, matches: res.Matches,
		perFSA: res.PerFSA, accel: res.AccelBytes, segments: int64(res.Segments),
		parallelBytes: res.ParallelBytes, stitchBytes: res.StitchBytes}
	if (res.FellBack || res.CarryOutlived) && len(input) >= segmentMinBytes {
		run.segFallbacks = 1
		rs.segSerial[i].Store(true)
	}
	if g.Lazy != nil {
		run.lazy = true
		run.hits, run.misses, run.flushes = res.CacheHits, res.CacheMisses, res.Flushes
		run.fallbacks, run.fellBack = res.Thrashes, res.Thrashes > 0
	}
	return run, err
}

// fold performs every accounting update of one group run of automaton i:
// the ruleset collector's totals, rule hits, strategy and accel bytes, the
// AC-scan-as-factor-sweep update, segment counters, and the lazy-DFA cache,
// degradation, gauges and lazy_* trace events. ruleHits and pref, when
// non-nil, are the owning Scanner's or StreamMatcher's local tables.
func (rs *Ruleset) fold(i int, run *groupRun, ruleHits []int64, pref *prefCounters) {
	c := rs.collector
	c.AddScans(run.scans)
	c.AddBytes(run.bytes)
	c.AddMatches(run.matches)
	c.AddStrategyBytes(int(rs.plan.strat[i]), run.bytes)
	c.AddAccelScan(run.accel)
	rules := rs.programs[i].Rules()
	for fsa, n := range run.perFSA {
		if n == 0 {
			continue
		}
		id := rules[fsa].RuleID
		c.AddRuleHits(id, n)
		if id >= 0 && id < len(ruleHits) {
			ruleHits[id] += n
		}
	}
	if run.sweep && rs.prefEnabled {
		c.AddPrefilterScan(1, run.sweepHits, 0, 0)
		if pref != nil {
			pref.sweeps++
			pref.hits += run.sweepHits
		}
	}
	if run.segments > 0 {
		c.AddSegmentScan(run.segments, run.segFallbacks, run.parallelBytes, run.stitchBytes)
	}
	if !run.lazy {
		return
	}
	c.AddLazyScan(run.hits, run.misses, run.flushes, run.fallbacks)
	if run.grows != 0 || run.pins != 0 {
		c.AddLazyDegraded(run.grows, run.pins)
	}
	if run.segments == 0 {
		c.SetCachedStates(i, run.cached)
		c.SetCacheBytes(i, run.cacheBytes)
		c.SetAccelStates(i, run.accelStates)
	}
	if rs.trace == nil {
		return
	}
	if run.flushes > 0 {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventLazyFlush,
			Automaton: int32(i), Rule: -1, Offset: -1, Value: run.flushes})
	}
	if run.fellBack {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventLazyFallback,
			Automaton: int32(i), Rule: -1, Offset: -1, Value: run.fallbacks})
	}
	if run.pins > 0 {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventLazyPin,
			Automaton: int32(i), Rule: -1, Offset: -1, Value: run.pins})
	}
}

// imfantRunner runs a group on the paper's iMFAnt engine.
type imfantRunner struct {
	r   *engine.Runner
	cfg engine.Config
}

func (x *imfantRunner) begin(c runCfg) {
	cfg := x.cfg
	cfg.OnMatch, cfg.Checkpoint, cfg.Faults = c.onMatch, c.check, c.faults
	x.r.Begin(cfg)
}

func (x *imfantRunner) feed(chunk []byte, final bool) { x.r.Feed(chunk, final) }
func (x *imfantRunner) flushHeld()                    { x.r.FlushHeld() }
func (x *imfantRunner) err() error                    { return x.r.Err() }

func (x *imfantRunner) end() groupRun {
	res := x.r.End()
	return groupRun{scans: 1, bytes: int64(res.Symbols), matches: res.Matches,
		perFSA: res.PerFSA, accel: res.AccelBytes}
}

func (x *imfantRunner) totals() groupRun {
	t := x.r.Totals()
	return groupRun{scans: t.Scans, bytes: t.Symbols, matches: t.Matches, accel: t.AccelBytes}
}

// lazyRunner runs a group on the lazy-DFA engine, as a cursor on m's
// shared transition table.
type lazyRunner struct {
	r   *lazydfa.Runner
	m   *lazydfa.Matcher
	cfg lazydfa.Config
}

func (x *lazyRunner) begin(c runCfg) {
	cfg := x.cfg
	cfg.OnMatch, cfg.Checkpoint, cfg.Faults = c.onMatch, c.check, c.faults
	x.r.Begin(cfg)
}

func (x *lazyRunner) feed(chunk []byte, final bool) { x.r.Feed(chunk, final) }
func (x *lazyRunner) flushHeld()                    { x.r.FlushHeld() }
func (x *lazyRunner) err() error                    { return x.r.Err() }

func (x *lazyRunner) end() groupRun {
	res := x.r.End()
	run := groupRun{scans: 1, bytes: int64(res.Symbols), matches: res.Matches,
		perFSA: res.PerFSA, accel: res.AccelBytes, lazy: true,
		hits: res.CacheHits, misses: res.CacheMisses, flushes: int64(res.Flushes),
		fellBack: res.FellBack}
	if res.Thrashed {
		run.fallbacks = 1
	}
	if res.Grew {
		run.grows = 1
	}
	if res.Pinned {
		run.pins = 1
	}
	x.gauges(&run)
	return run
}

func (x *lazyRunner) totals() groupRun {
	t := x.r.Totals()
	run := groupRun{scans: t.Scans, bytes: t.Symbols, matches: t.Matches, accel: t.AccelBytes,
		lazy: true, hits: t.CacheHits, misses: t.CacheMisses, flushes: t.Flushes,
		fallbacks: t.Fallbacks, grows: t.Grows, pins: t.Pins}
	x.gauges(&run)
	return run
}

func (x *lazyRunner) gauges(run *groupRun) {
	st := x.m.Stats()
	run.cached, run.accelStates, run.cacheBytes = int64(st.States), int64(st.AccelStates), st.Bytes
	run.maxStates, run.classes = st.MaxStates, x.m.NumClasses()
}

// dfaRunner runs a group on its eagerly determinized DFA: one table lookup
// per byte, no held byte.
type dfaRunner struct{ r *dfa.Runner }

func (x *dfaRunner) begin(c runCfg) {
	x.r.Begin(dfa.Config{OnMatch: c.onMatch, Checkpoint: c.check, Faults: c.faults})
}

func (x *dfaRunner) feed(chunk []byte, _ bool) {
	if len(chunk) > 0 {
		x.r.Feed(chunk)
	}
}

func (x *dfaRunner) flushHeld() {}
func (x *dfaRunner) err() error { return x.r.Err() }

func (x *dfaRunner) end() groupRun {
	res := x.r.End()
	return groupRun{scans: 1, bytes: res.Symbols, matches: res.Matches, perFSA: res.PerRule}
}

func (x *dfaRunner) totals() groupRun {
	t := x.r.Totals()
	return groupRun{scans: t.Scans, bytes: t.Symbols, matches: t.Matches}
}

// tally is the run bookkeeping of the anchored runner, whose checks keep no
// totals of their own: the current run and the ended ones.
type tally struct {
	cur, done groupRun
	open      bool
}

func (t *tally) startRun(perFSA []int64) {
	clear(perFSA)
	t.cur = groupRun{scans: 1, perFSA: perFSA}
	t.open = true
}

func (t *tally) hit(fsa int) {
	t.cur.matches++
	t.cur.perFSA[fsa]++
}

func (t *tally) endRun() groupRun {
	if t.open {
		t.open = false
		t.done.scans++
		t.done.bytes += t.cur.bytes
		t.done.matches += t.cur.matches
	}
	return t.cur
}

func (t *tally) totals() groupRun {
	run := t.done
	if t.open {
		run.bytes += t.cur.bytes
		run.matches += t.cur.matches
	}
	return run
}

// litRunner runs the fused literal pass of a Ruleset (see litPass): one
// resumable Aho–Corasick scan in checkpoint-sized blocks, whose every hit is
// attributed to the members carrying the literal. Each AC-routed group gets
// its own run out of it — one scan over the same bytes, its own matches and
// per-FSA counts — so the accounting is that of separate group runs. The
// pass doubles as the groups' factor sweep: the distinct literals it sees
// are the sweep's hits, reported once, on the first group's run. Not safe
// for concurrent use.
type litRunner struct {
	lp     *litPass
	sc     *ahocorasick.StreamScanner
	check  func() error // checkpoint poll; nil when not cancellable
	faults *faultpoint.Injector
	emit   []func(fsa, end int) // per automaton; nil entries count only
	seen   []bool               // per literal: seen in the current run
	hits   int64                // distinct literals seen in the current run
	counts []int64              // per member: events in the current run
	bytes  int64                // bytes of the current run
	skip0  int64                // sc.Skipped() at begin
	stop   error
	open   bool
	runs   []groupRun // per AC group: the last end()'s outcome
	done   []groupRun // per AC group: totals of the ended runs
}

func newLitRunner(lp *litPass, accel bool) *litRunner {
	sc := lp.m.NewStreamScanner()
	sc.SetAccel(accel)
	return &litRunner{lp: lp, sc: sc, seen: make([]bool, lp.m.NumPatterns()),
		counts: make([]int64, len(lp.members)), runs: make([]groupRun, len(lp.groups)),
		done: make([]groupRun, len(lp.groups))}
}

// begin starts a run; emit, indexed by automaton, receives each AC group's
// events (nil: count only).
func (x *litRunner) begin(check func() error, faults *faultpoint.Injector, emit []func(fsa, end int)) {
	x.check, x.faults, x.emit, x.stop, x.skip0 = check, faults, emit, nil, x.sc.Skipped()
	x.sc.Reset()
	clear(x.seen)
	clear(x.counts)
	x.hits, x.bytes, x.open = 0, 0, true
}

func (x *litRunner) feed(chunk []byte) {
	const block = engine.DefaultCheckpointEvery
	for off := 0; off < len(chunk) && x.stop == nil; off += block {
		if x.check != nil {
			if x.stop = x.check(); x.stop != nil {
				return
			}
		}
		// Runners without their own fault plumbing arm the chunk-stall
		// site, so a stalled chunk is cut by ScanTimeout on every strategy.
		x.faults.Stall()
		blk := chunk[off:min(off+block, len(chunk))]
		base := int(x.bytes)
		x.sc.Scan(blk, func(pat, e int) {
			if !x.seen[pat] {
				x.seen[pat] = true
				x.hits++
			}
			x.lp.deliver(pat, base+e, x.counts, x.emit)
		})
		x.bytes += int64(len(blk))
	}
}

func (x *litRunner) err() error { return x.stop }

// end finishes the run and returns one outcome per AC group, in
// litPass.groups order. The slice and its per-FSA counts are reused by the
// next begin.
func (x *litRunner) end() []groupRun {
	x.lp.split(x.counts, x.bytes, x.runs)
	if x.open {
		for j := range x.runs {
			x.done[j].scans++
			x.done[j].bytes += x.bytes
			x.done[j].matches += x.runs[j].matches
		}
	}
	x.runs[0].sweep, x.runs[0].sweepHits = true, x.hits
	x.runs[0].accel = x.sc.Skipped() - x.skip0
	x.open = false
	return x.runs
}

// totals writes every AC group's cumulative totals, including a run in
// progress, into out (indexed by automaton). The pass's skipped bytes count
// on the first group.
func (x *litRunner) totals(out []groupRun) {
	lp := x.lp
	for j, g := range lp.groups {
		t := x.done[j]
		if x.open {
			t.bytes += x.bytes
			for _, n := range x.counts[lp.first[j]:lp.first[j+1]] {
				t.matches += n
			}
		}
		out[g] = t
	}
	out[lp.groups[0]].accel = x.sc.Skipped()
}

// scanLiterals runs the literal pass over input segment-parallel (see
// segment.ScanAC): each worker scans its segment plus the longest literal's
// left context, so no stitching is needed. emit is indexed by automaton.
// Returns one outcome per AC group, in litPass.groups order.
func (rs *Ruleset) scanLiterals(input []byte, bounds []int, check func() error,
	emit []func(fsa, end int)) ([]groupRun, error) {
	lp := rs.plan.lit
	counts := make([]int64, len(lp.members))
	res, err := segment.ScanAC(lp.m, input, bounds, rs.opts.accelOn(), check, 0, func(pat, end int) {
		lp.deliver(pat, end, counts, emit)
	})
	runs := make([]groupRun, len(lp.groups))
	lp.split(counts, res.ScannedBytes, runs)
	for j := range runs {
		runs[j].segments, runs[j].parallelBytes = int64(len(bounds)-1), res.ScannedBytes
	}
	runs[0].sweep, runs[0].accel = true, res.SkippedBytes
	for _, n := range res.PerPattern {
		if n != 0 {
			runs[0].sweepHits++
		}
	}
	return runs, err
}

// anchRunner evaluates an anchored-literal group. Everything it needs is
// O(group) state: per rule an incremental prefix verdict and the positions
// of recent middle-violating bytes, plus one shared tail window of the
// group's longest suffix. `^` means offset 0 and `$` means the clean stream
// end, so suffix-bearing rules are decided at the final feed and `^lit`
// rules emit the moment their prefix completes.
type anchRunner struct {
	g        *anchGroup
	c        runCfg
	rules    []anchRuleState
	perFSA   []int64
	tail     []byte // the last maxSuffix bytes of the stream
	finished bool
	tally
}

type anchRuleState struct {
	prefixOK  bool    // prefix still plausible (or confirmed once complete)
	emitted   bool    // `^lit` rule already reported its one event
	badBefore bool    // a violating byte is provably in the middle region
	recentBad []int64 // violating-byte positions still close enough to land in the suffix
}

func (st *anchRunner) begin(c runCfg) {
	st.c, st.tail, st.finished = c, st.tail[:0], false
	for i := range st.rules {
		st.rules[i] = anchRuleState{prefixOK: true, recentBad: st.rules[i].recentBad[:0]}
	}
	st.startRun(st.perFSA)
}

func (st *anchRunner) emit(fsa, end int) {
	st.hit(fsa)
	if st.c.onMatch != nil {
		st.c.onMatch(fsa, end)
	}
}

func (st *anchRunner) feed(chunk []byte, final bool) {
	if len(chunk) > 0 {
		st.c.faults.Stall()
		base := st.cur.bytes
		for fsa := range st.g.rules {
			st.feedRule(fsa, base, chunk)
		}
		// Maintain the shared suffix window.
		if n := st.g.maxSuffix; n > 0 {
			if len(chunk) >= n {
				st.tail = append(st.tail[:0], chunk[len(chunk)-n:]...)
			} else {
				if drop := len(st.tail) + len(chunk) - n; drop > 0 {
					m := copy(st.tail, st.tail[drop:])
					st.tail = st.tail[:m]
				}
				st.tail = append(st.tail, chunk...)
			}
		}
		st.cur.bytes += int64(len(chunk))
	}
	if final {
		// The clean stream end: `$` is observable now, and only now.
		st.finish()
	}
}

func (st *anchRunner) feedRule(fsa int, base int64, chunk []byte) {
	r := &st.g.rules[fsa]
	rs := &st.rules[fsa]
	sh := &r.sh
	p := int64(len(sh.Prefix))
	// Incremental prefix compare while the stream is still inside it.
	if rs.prefixOK && sh.AnchorStart && base < p {
		for j := 0; j < len(chunk) && base+int64(j) < p; j++ {
			if chunk[j] != sh.Prefix[base+int64(j)] {
				rs.prefixOK = false
				break
			}
		}
	}
	if sh.AnchorStart && !sh.AnchorEnd {
		// `^lit`: its single event fires the moment the prefix completes.
		if rs.prefixOK && !rs.emitted && p > 0 && base+int64(len(chunk)) >= p {
			rs.emitted = true
			st.emit(fsa, int(p)-1)
		}
		return
	}
	if !r.hasBad || !rs.prefixOK || rs.badBefore {
		return
	}
	// Hunt bytes the middle cannot consume, at absolute positions >= p. A
	// bad byte that can no longer land in the suffix window of any future
	// stream end kills the rule outright; the handful that still could are
	// kept and re-judged at finish. Previously kept positions age out the
	// same way.
	s := int64(len(sh.Suffix))
	newEnd := base + int64(len(chunk))
	for _, pos := range rs.recentBad {
		if pos+s < newEnd {
			rs.badBefore = true
			rs.recentBad = rs.recentBad[:0]
			return
		}
	}
	off := 0
	if base < p {
		off = int(min(p-base, int64(len(chunk))))
	}
	// chunk[off:cut] holds positions already decided (pos+s < newEnd).
	cut := len(chunk) - int(s)
	if cut > off {
		if j := r.bad.Index(chunk[off:cut]); j >= 0 {
			rs.badBefore = true
			rs.recentBad = rs.recentBad[:0]
			return
		}
		off = cut
	}
	h := chunk[off:]
	hb := base + int64(off)
	for {
		j := r.bad.Index(h)
		if j < 0 {
			break
		}
		rs.recentBad = append(rs.recentBad, hb+int64(j))
		h = h[j+1:]
		hb += int64(j) + 1
	}
}

// finish evaluates the suffix-bearing rules at the clean stream end. Runs at
// most once per run; error-path closes never reach it (`$` was never
// observed).
func (st *anchRunner) finish() {
	if st.finished {
		return
	}
	st.finished = true
	L := st.cur.bytes
	for fsa := range st.g.rules {
		r := &st.g.rules[fsa]
		rs := &st.rules[fsa]
		sh := &r.sh
		p, s := int64(len(sh.Prefix)), int64(len(sh.Suffix))
		switch {
		case sh.AnchorStart && !sh.AnchorEnd:
			// `^lit` already emitted mid-stream.
		case sh.AnchorStart && sh.AnchorEnd && !sh.HasMiddle:
			// `^lit$`: exact equality with the whole stream.
			if rs.prefixOK && L == p && p > 0 {
				st.emit(fsa, int(L)-1)
			}
		case !sh.AnchorStart && sh.AnchorEnd:
			// `lit$`: one event at the last byte.
			if s > 0 && L >= s && bytes.HasSuffix(st.tail, sh.Suffix) {
				st.emit(fsa, int(L)-1)
			}
		default:
			// `^prefix<set>{m,}suffix$`.
			if !rs.prefixOK || rs.badBefore || L < int64(r.minLen) || L == 0 ||
				!bytes.HasSuffix(st.tail, sh.Suffix) {
				continue
			}
			bad := false
			for _, pos := range rs.recentBad {
				if pos+s < L {
					bad = true
					break
				}
			}
			if !bad {
				st.emit(fsa, int(L)-1)
			}
		}
	}
}

func (st *anchRunner) flushHeld()       {}
func (st *anchRunner) err() error       { return nil }
func (st *anchRunner) end() groupRun    { return st.endRun() }
func (st *anchRunner) totals() groupRun { return st.tally.totals() }
