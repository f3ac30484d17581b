package imfant

import (
	"bytes"

	"repro/internal/ahocorasick"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/faultpoint"
	"repro/internal/lazydfa"
	"repro/internal/telemetry"
)

// runCfg is the per-run wiring of a groupRunner.
type runCfg struct {
	onMatch func(fsa, end int) // nil: count only
	check   func() error       // checkpoint poll; nil when not cancellable
	faults  *faultpoint.Injector
}

// groupRunner runs one execution unit as a block scan (begin,
// feed(input, true), end) or as a stream (one begin, many feeds, one end).
// Not safe for concurrent use.
type groupRunner interface {
	begin(c runCfg)
	// feed consumes the next chunk; final announces the clean stream end.
	feed(chunk []byte, final bool)
	// flushHeld matches a held-back byte as ordinary data: the stream end
	// will never be observed.
	flushHeld()
	// end finishes the run and writes its outcome into run.
	end(run *groupRun)
	// totals writes the runner's cumulative counters, including a run in
	// progress, with the live cache gauges into run; perFSA stays nil.
	totals(run *groupRun)
	err() error
}

// groupRun is the outcome of one unit execution, or a runner's cumulative
// totals. Callers own it and pass it by pointer; foldRun gathers it into a
// scanFold.
type groupRun struct {
	scans, bytes, matches int64
	perFSA                []int64 // per-FSA match counts, unit program FSA order
	accel                 int64   // bytes jumped by byte-skipping acceleration

	// Lazy-DFA runs.
	lazy                                          bool
	hits, misses, flushes, fallbacks, grows, pins int64
	fellBack                                      bool // finished on iMFAnt
	cached, accelStates, cacheBytes               int64
	maxStates, classes                            int
}

// set overwrites run with the common counters. It zeroes the struct in
// place and assigns the fields, where assigning a composite literal through
// the pointer would build it in a temporary and copy it.
func (run *groupRun) set(scans, bytes, matches int64, perFSA []int64, accel int64) {
	*run = groupRun{}
	run.scans, run.bytes, run.matches, run.perFSA, run.accel = scans, bytes, matches, perFSA, accel
}

// blockScan runs r over a whole input into run.
func blockScan(r groupRunner, input []byte, c runCfg, run *groupRun) error {
	r.begin(c)
	r.feed(input, true)
	r.end(run)
	return r.err()
}

// newRunnerOf returns unit u's runner constructor for its planned strategy
// — the one place the root package dispatches on Strategy. Every entry
// point — Scanner block scans, CountParallel tasks and StreamMatchers —
// runs a unit only through a runner from it, one per Scanner,
// StreamMatcher, pool task and one-shot Ruleset scan. A lazy-DFA unit's
// runners are cursors on the unit's one transition table (its
// lazydfa.Matcher, which belongs to this compiled Ruleset alone), so every
// runner starts warm on what the others cached. Under Options.Profile the
// runners of an engine unit all sample the unit's one engine.Profile.
func (rs *Ruleset) newRunnerOf(u int) func() groupRunner {
	x := &rs.plan.units[u]
	g, p := x.groups[0], x.prog
	switch x.strat {
	case StrategyAnchored:
		a := rs.plan.anch[g]
		return func() groupRunner {
			return &anchRunner{g: a, rules: make([]anchRuleState, len(a.rules)), perFSA: make([]int64, len(a.rules))}
		}
	case StrategyDFA:
		d := rs.plan.dfas[g]
		return func() groupRunner { return &dfaRunner{r: dfa.NewRunner(d)} }
	case StrategyLazyDFA:
		m := x.lazy
		lcfg := lazydfa.Config{Profile: rs.profileOf(u)}
		return func() groupRunner { return &lazyRunner{r: lazydfa.NewRunner(m), m: m, cfg: lcfg} }
	default:
		ecfg := engine.Config{KeepOnMatch: rs.opts.KeepOnMatch, Accel: rs.opts.accelOn(), Profile: rs.profileOf(u)}
		return func() groupRunner { return &imfantRunner{r: engine.NewRunner(p), cfg: ecfg} }
	}
}

// scanFold gathers the accounting of one scan — the group runs and the
// literal pass of a Scanner or CountParallel block scan, or a closed
// stream — so that Ruleset.flush makes one batch of collector updates per scan
// instead of one per group run. Only rule hits, which need a per-rule
// table, reach the collector as they are gathered, and only where nonzero.
type scanFold struct {
	ruleHits []int64 // the owner's per-rule table; nil when it keeps none
	perRule  []int64 // CountPerRule's table; nil otherwise

	scans, bytes, matches, accel int64
	strat                        [numStrategies]int64
	pref                         prefCounters

	lazy                                          bool
	hits, misses, flushes, fallbacks, grows, pins int64
	segScans, segments, parallel                  int64 // the segmented literal pass (see scanLiterals)
}

// rule adds n events of rule id to the collector and the owner's tables.
func (f *scanFold) rule(c *telemetry.Collector, id int, n int64) {
	c.AddRuleHits(id, n)
	if id >= 0 && id < len(f.ruleHits) {
		f.ruleHits[id] += n
	}
	if id >= 0 && id < len(f.perRule) {
		f.perRule[id] += n
	}
}

// foldRun gathers one run of unit u into f, attributed back to the
// unit's member groups: each member scanned the unit's bytes once, so
// scans, bytes and strategy bytes count once per member; the events count under their rules; the accel bytes, the lazy-DFA
// counters and the lazy_* trace events — the one table's — count once per
// unit, the events under the unit's first member.
func (rs *Ruleset) foldRun(f *scanFold, u int, run *groupRun) {
	x := &rs.plan.units[u]
	k := int64(len(x.groups))
	f.scans += k * run.scans
	f.bytes += k * run.bytes
	f.matches += run.matches
	f.strat[x.strat] += k * run.bytes
	f.accel += run.accel
	if len(run.perFSA) > 0 {
		rules := x.rules
		for fsa, n := range run.perFSA {
			if n != 0 {
				f.rule(rs.collector, rules[fsa].RuleID, n)
			}
		}
	}
	if !run.lazy {
		return
	}
	f.lazy = true
	f.hits += run.hits
	f.misses += run.misses
	f.flushes += run.flushes
	f.fallbacks += run.fallbacks
	f.grows += run.grows
	f.pins += run.pins
	if rs.trace == nil {
		return
	}
	a := int32(x.groups[0])
	if run.flushes > 0 {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventLazyFlush,
			Automaton: a, Rule: -1, Offset: -1, Value: run.flushes})
	}
	if run.fellBack {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventLazyFallback,
			Automaton: a, Rule: -1, Offset: -1, Value: run.fallbacks})
	}
	if run.pins > 0 {
		rs.trace.Record(telemetry.Event{Kind: telemetry.EventLazyPin,
			Automaton: a, Rule: -1, Offset: -1, Value: run.pins})
	}
}

// flush makes f's one batch of collector updates, adds its prefilter
// counters to pref (the owner's; nil at ruleset scope) and resets f,
// keeping its tables.
func (rs *Ruleset) flush(f *scanFold, pref *prefCounters) {
	c := rs.collector
	// A panicked pool task folds a partial run: bytes and matches without
	// a completed scan.
	if f.scans != 0 {
		c.AddScans(f.scans)
	}
	if f.bytes != 0 {
		c.AddBytes(f.bytes)
		for k, n := range f.strat {
			if n != 0 {
				c.AddStrategyBytes(k, n)
			}
		}
	}
	if f.matches != 0 {
		c.AddMatches(f.matches)
	}
	if f.accel != 0 {
		c.AddAccelScan(f.accel)
	}
	if p := f.pref; p != (prefCounters{}) {
		c.AddPrefilterScan(p.sweeps, p.hits, p.skipped, p.saved)
		if pref != nil {
			pref.sweeps += p.sweeps
			pref.hits += p.hits
			pref.skipped += p.skipped
			pref.saved += p.saved
		}
	}
	if f.segScans > 0 {
		c.AddSegmentScans(f.segScans, f.segments, f.parallel)
	}
	if f.lazy {
		c.AddLazyScan(f.hits, f.misses, f.flushes, f.fallbacks)
		if f.grows != 0 || f.pins != 0 {
			c.AddLazyDegraded(f.grows, f.pins)
		}
	}
	ruleHits, perRule := f.ruleHits, f.perRule
	*f = scanFold{}
	f.ruleHits, f.perRule = ruleHits, perRule
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

func (x *imfantRunner) end(run *groupRun) {
	res := x.r.End()
	run.set(1, int64(res.Symbols), res.Matches, res.PerFSA, res.AccelBytes)
}

func (x *imfantRunner) totals(run *groupRun) {
	t := x.r.Totals()
	run.set(t.Scans, t.Symbols, t.Matches, nil, t.AccelBytes)
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

func (x *lazyRunner) end(run *groupRun) {
	res := x.r.End()
	run.set(1, int64(res.Symbols), res.Matches, res.PerFSA, res.AccelBytes)
	run.lazy, run.hits, run.misses, run.flushes = true, res.CacheHits, res.CacheMisses, int64(res.Flushes)
	run.fellBack = res.FellBack
	if res.Thrashed {
		run.fallbacks = 1
	}
	if res.Grew {
		run.grows = 1
	}
	if res.Pinned {
		run.pins = 1
	}
}

func (x *lazyRunner) totals(run *groupRun) {
	t := x.r.Totals()
	run.set(t.Scans, t.Symbols, t.Matches, nil, t.AccelBytes)
	run.lazy, run.hits, run.misses, run.flushes = true, t.CacheHits, t.CacheMisses, t.Flushes
	run.fallbacks, run.grows, run.pins = t.Fallbacks, t.Grows, t.Pins
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

func (x *dfaRunner) end(run *groupRun) {
	res := x.r.End()
	run.set(1, res.Symbols, res.Matches, res.PerRule, 0)
}

func (x *dfaRunner) totals(run *groupRun) {
	t := x.r.Totals()
	run.set(t.Scans, t.Symbols, t.Matches, nil, 0)
}

// tally is the run bookkeeping of the anchored runner, whose checks keep no
// totals of their own: the current run and the ended ones.
type tally struct {
	perFSA                            []int64 // the current run's per-FSA counts
	bytes, matches                    int64   // the current run
	doneScans, doneBytes, doneMatches int64   // the ended runs
	open                              bool
}

func (t *tally) startRun(perFSA []int64) {
	clear(perFSA)
	t.perFSA, t.bytes, t.matches, t.open = perFSA, 0, 0, true
}

func (t *tally) hit(fsa int) {
	t.matches++
	t.perFSA[fsa]++
}

func (t *tally) endRun(run *groupRun) {
	if t.open {
		t.open = false
		t.doneScans++
		t.doneBytes += t.bytes
		t.doneMatches += t.matches
	}
	run.set(1, t.bytes, t.matches, t.perFSA, 0)
}

func (t *tally) totals(run *groupRun) {
	run.set(t.doneScans, t.doneBytes, t.doneMatches, nil, 0)
	if t.open {
		run.bytes += t.bytes
		run.matches += t.matches
	}
}

// litRunner runs the literal pass of a Ruleset (see litPass): one
// resumable Aho–Corasick pass in checkpoint-sized blocks, whose every
// literal hit is attributed to the members carrying the literal, whose
// piece hits advance the chain members, and whose first-seen patterns
// decide the factor gates. A pass without literals to deliver stops once
// every pattern has been seen. Not safe for concurrent use.
type litRunner struct {
	lp     *litPass
	pass   *ahocorasick.Pass
	onHit  func(pat, end int) // x.hit, bound once
	check  func() error       // checkpoint poll; nil when not cancellable
	faults *faultpoint.Injector
	emit   []func(fsa, end int) // per unit; nil entries count only
	st     litState             // the current run
	bytes  int64                // bytes of the current run
	base   int                  // offset of the block being scanned
	skip0  int64                // pass.Skipped() at begin
	stop   error
	open   bool
	runs   int64   // ended runs
	done   int64   // bytes of the ended runs
	doneBy []int64 // per member: events of the ended runs
}

func newLitRunner(lp *litPass, accel bool) *litRunner {
	x := &litRunner{lp: lp, pass: lp.m.NewPass(lp.deliver), st: lp.newState(), doneBy: make([]int64, len(lp.members))}
	x.pass.SetAccel(accel)
	x.onHit = x.hit
	return x
}

// begin starts a run; emit, indexed by unit, receives each AC and chain
// group's events (nil: count only).
func (x *litRunner) begin(check func() error, faults *faultpoint.Injector, emit []func(fsa, end int)) {
	x.check, x.faults, x.emit, x.stop, x.skip0 = check, faults, emit, nil, x.pass.Skipped()
	x.pass.Reset()
	x.st.reset()
	x.bytes, x.open = 0, true
}

func (x *litRunner) hit(pat, end int) {
	x.lp.deliverHit(pat, x.base+end, &x.st, x.emit)
}

func (x *litRunner) feed(chunk []byte) {
	const block = engine.DefaultCheckpointEvery
	for off := 0; off < len(chunk) && x.stop == nil && !x.pass.Done(); off += block {
		if x.check != nil {
			if x.stop = x.check(); x.stop != nil {
				return
			}
		}
		// Runners without their own fault plumbing arm the chunk-stall
		// site, so a stalled chunk is cut by ScanTimeout on every strategy.
		x.faults.Stall()
		blk := chunk[off:min(off+block, len(chunk))]
		x.base = int(x.bytes)
		x.pass.Scan(blk, x.onHit)
		x.bytes += int64(len(blk))
	}
}

func (x *litRunner) err() error { return x.stop }

// end finishes the run and folds it into f: each AC and chain group
// scanned the pass's bytes once, the members' counts are rule hits, the
// pass's root skips are accel bytes and, when the prefilter section is live
// (prefOn), the pass is one sweep whose hits are its distinct patterns.
// Returns the groups' match count. The seen patterns stay readable until
// the next begin.
func (x *litRunner) end(f *scanFold, c *telemetry.Collector, prefOn bool) int64 {
	st := &x.st
	var matches int64
	for _, k := range st.touched {
		n := st.counts[k]
		matches += n
		x.doneBy[k] += n
		st.counts[k] = 0
		f.rule(c, int(x.lp.members[k].rule), n)
	}
	st.touched = st.touched[:0]
	if x.lp.delivers() {
		x.lp.foldBytes(f, x.bytes)
		f.matches += matches
		f.accel += x.pass.Skipped() - x.skip0
	}
	if prefOn {
		f.pref.sweeps++
		f.pref.hits += int64(len(x.pass.Firsts()))
	}
	if x.open {
		x.runs++
		x.done += x.bytes
	}
	x.bytes, x.open = 0, false
	return matches
}

// foldBytes counts one pass over n bytes into f: one scan of n bytes per
// group that runs in the pass, under the group's strategy.
func (lp *litPass) foldBytes(f *scanFold, n int64) {
	g := int64(len(lp.units))
	f.scans += g
	f.bytes += g * n
	for k, units := range lp.perStrat {
		f.strat[k] += units * n
	}
}

// totals writes every pass unit's cumulative totals, including a run in
// progress, into out (indexed by unit). The pass's skipped bytes count on
// the first unit.
func (x *litRunner) totals(out []groupRun) {
	lp := x.lp
	for j, u := range lp.units {
		t := &out[u]
		t.set(x.runs, x.done, 0, nil, 0)
		if x.open {
			t.bytes += x.bytes
		}
		for k := lp.first[j]; k < lp.first[j+1]; k++ {
			t.matches += x.doneBy[k] + x.st.counts[k]
		}
	}
	if len(lp.units) > 0 {
		out[lp.units[0]].accel = x.pass.Skipped()
	}
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
		base := st.bytes
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
		st.bytes += int64(len(chunk))
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
	L := st.bytes
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

func (st *anchRunner) flushHeld()           {}
func (st *anchRunner) err() error           { return nil }
func (st *anchRunner) end(run *groupRun)    { st.endRun(run) }
func (st *anchRunner) totals(run *groupRun) { st.tally.totals(run) }
