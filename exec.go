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
	// newRunner returns a fresh runner: a Scanner keeps one per group
	// across scans (warm lazy-DFA caches), a stream one per stream, and a
	// parallel count one per call.
	newRunner func() groupRunner
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

	// sweep marks a pure-AC run, whose literal scan doubles as the group's
	// factor sweep; sweepHits counts the distinct member literals seen.
	sweep     bool
	sweepHits int64

	// Lazy-DFA runs.
	lazy                                          bool
	hits, misses, flushes, fallbacks, grows, pins int64
	fellBack                                      bool // finished on iMFAnt
	cached, accelStates                           int64
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
	case StrategyAC:
		g := pl.ac[i]
		return groupExec{
			newRunner: func() groupRunner {
				sc := g.m.NewStreamScanner()
				sc.SetAccel(accel)
				return &acRunner{sc: sc, seen: make([]bool, g.rules), perFSA: make([]int64, g.rules)}
			},
			segment: func(input []byte, bounds []int, check func() error, emit func(fsa, end int)) (groupRun, error) {
				res, err := segment.ScanAC(g.m, input, bounds, accel, check, 0, emit)
				run := groupRun{scans: 1, bytes: res.ScannedBytes, matches: res.Matches,
					perFSA: res.PerPattern, accel: res.SkippedBytes, sweep: true,
					segments: int64(len(bounds) - 1), parallelBytes: res.ScannedBytes}
				for _, n := range res.PerPattern {
					if n != 0 {
						run.sweepHits++
					}
				}
				return run, err
			},
		}
	case StrategyAnchored:
		g := pl.anch[i]
		return groupExec{newRunner: func() groupRunner {
			return &anchRunner{g: g, rules: make([]anchRuleState, len(g.rules)), perFSA: make([]int64, len(g.rules))}
		}}
	case StrategyDFA:
		d := pl.dfas[i]
		return groupExec{newRunner: func() groupRunner { return &dfaRunner{r: dfa.NewRunner(d)} }}
	case StrategyLazyDFA:
		m := rs.lazy[i]
		lcfg := lazydfa.Config{KeepOnMatch: rs.opts.KeepOnMatch, MaxStates: rs.opts.LazyDFAMaxStates,
			Accel: accel, Profile: rs.profileOf(i), ThrashRetry: rs.opts.thrashRetryOn()}
		return groupExec{
			newRunner: func() groupRunner {
				return &lazyRunner{r: lazydfa.NewRunner(m), cfg: lcfg, classes: m.NumClasses()}
			},
			segment: func(input []byte, bounds []int, check func() error, emit func(fsa, end int)) (groupRun, error) {
				lc := lcfg
				lc.Checkpoint, lc.Faults = check, rs.faults
				return rs.segmentScan(segment.Group{Lazy: m, LazyCfg: lc}, i, ecfg, input, bounds, check, emit)
			},
		}
	default:
		return groupExec{
			newRunner: func() groupRunner { return &imfantRunner{r: engine.NewRunner(p), cfg: ecfg} },
			segment: func(input []byte, bounds []int, check func() error, emit func(fsa, end int)) (groupRun, error) {
				return rs.segmentScan(segment.Group{}, i, ecfg, input, bounds, check, emit)
			},
		}
	}
}

// segmentScan runs default-engine group i segment-parallel: iMFAnt or
// lazy-DFA workers per segment plus the sequential boundary stitch. A scan
// whose boundary carry exceeds the frontier budget completes exactly but
// pins the group serial for subsequent segmented scans.
func (rs *Ruleset) segmentScan(g segment.Group, i int, cfg engine.Config, input []byte, bounds []int,
	check func() error, emit func(fsa, end int)) (groupRun, error) {
	g.Automaton, g.Program, g.MaxFrontier = i, rs.programs[i], rs.maxFrontier()
	g.Cfg = cfg
	g.Cfg.Checkpoint, g.Cfg.Faults = check, rs.faults
	res, err := segment.Scan(g, input, bounds, emit)
	run := groupRun{scans: 1, bytes: res.ParallelBytes + res.StitchBytes, matches: res.Matches,
		perFSA: res.PerFSA, accel: res.AccelBytes, segments: int64(res.Segments),
		parallelBytes: res.ParallelBytes, stitchBytes: res.StitchBytes}
	if res.FellBack {
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

// lazyRunner runs a group on the lazy-DFA engine; its transition cache
// persists across the runs of the runner.
type lazyRunner struct {
	r       *lazydfa.Runner
	cfg     lazydfa.Config
	classes int
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
	run.cached, run.accelStates = int64(x.r.CachedStates()), int64(x.r.AccelStates())
	run.maxStates, run.classes = x.r.MaxStates(), x.classes
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

// tally is the run bookkeeping of the runners whose scanners keep no totals
// of their own (AC and anchored): the current run and the ended ones.
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

// acRunner runs an all-literal group as one resumable Aho–Corasick scan in
// checkpoint-sized blocks. The scan doubles as the group's factor sweep:
// the distinct literals it sees are the sweep's hit count.
type acRunner struct {
	sc     *ahocorasick.StreamScanner
	seen   []bool
	perFSA []int64
	c      runCfg
	skip0  int64 // sc.Skipped() at begin
	stop   error
	tally
}

func (x *acRunner) begin(c runCfg) {
	x.c, x.stop, x.skip0 = c, nil, x.sc.Skipped()
	x.sc.Reset()
	clear(x.seen)
	x.startRun(x.perFSA)
	x.cur.sweep = true
}

func (x *acRunner) feed(chunk []byte, _ bool) {
	const block = engine.DefaultCheckpointEvery
	for off := 0; off < len(chunk) && x.stop == nil; off += block {
		if x.c.check != nil {
			if x.stop = x.c.check(); x.stop != nil {
				return
			}
		}
		// Runners without their own fault plumbing arm the chunk-stall
		// site, so a stalled chunk is cut by ScanTimeout on every strategy.
		x.c.faults.Stall()
		blk := chunk[off:min(off+block, len(chunk))]
		base := int(x.cur.bytes)
		x.sc.Scan(blk, func(pat, e int) {
			x.hit(pat)
			if !x.seen[pat] {
				x.seen[pat] = true
				x.cur.sweepHits++
			}
			if x.c.onMatch != nil {
				x.c.onMatch(pat, base+e)
			}
		})
		x.cur.bytes += int64(len(blk))
	}
}

func (x *acRunner) flushHeld() {}
func (x *acRunner) err() error { return x.stop }

func (x *acRunner) end() groupRun {
	x.cur.accel = x.sc.Skipped() - x.skip0
	return x.endRun()
}

func (x *acRunner) totals() groupRun {
	run := x.tally.totals()
	run.accel = x.sc.Skipped()
	return run
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
