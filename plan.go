package imfant

import (
	"sync/atomic"

	"repro/internal/ahocorasick"
	"repro/internal/bytescan"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/lazydfa"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/rex"
	"repro/internal/strategy"
)

// Strategy is the execution strategy the planner assigned to one automaton
// group. With Options.Engine == EngineAuto every group is classified at
// compile time (see DESIGN.md, "Per-group strategy planner"); a forced
// EngineIMFAnt/EngineLazyDFA puts every group on that engine.
type Strategy uint8

const (
	// StrategyIMFAnt runs the group on the paper's NFA-style engine.
	StrategyIMFAnt Strategy = iota
	// StrategyLazyDFA runs the group on the lazy-DFA engine.
	StrategyLazyDFA
	// StrategyAC runs an all-literal group without any automaton: the
	// literals of every AC-routed group of the Ruleset, together with the
	// chain groups' pieces and the prefilter's factors, form one
	// Aho–Corasick matcher, run once per scan, whose hits are attributed
	// back to their owning groups and rules. The same pass decides the
	// factor gates of the other groups.
	StrategyAC
	// StrategyAnchored runs a group of anchored-literal rules (`^lit$`,
	// `^lit`, `lit$`, `^prefix<set>*suffix$`) as O(1)-ish per-scan checks:
	// bounded prefix/suffix compares plus a vectorized hunt for a byte the
	// middle cannot consume.
	StrategyAnchored
	// StrategyDFA runs a small group on an eagerly determinized DFA
	// (internal/dfa): one table lookup per input byte, no activation
	// bookkeeping.
	StrategyDFA
	// StrategyChain runs a group of dot-star literal chains (`L1.*L2`,
	// `L1.*L2.*L3`, and gaps over any class with at most four excluded
	// bytes), possibly mixed with plain literals, without any automaton:
	// the pieces are patterns of the one literal pass, and each rule keeps,
	// per piece, the earliest end of a chain through it since the last
	// excluded byte, so a piece hit decides a match in O(1).
	StrategyChain

	numStrategies = 6
)

// String returns the snapshot label ("imfant", "lazydfa", "ac", "anchored",
// "dfa", "chain").
func (s Strategy) String() string {
	switch s {
	case StrategyIMFAnt:
		return "imfant"
	case StrategyLazyDFA:
		return "lazydfa"
	case StrategyAC:
		return "ac"
	case StrategyAnchored:
		return "anchored"
	case StrategyDFA:
		return "dfa"
	case StrategyChain:
		return "chain"
	}
	return "unknown"
}

// Eager-DFA admission bounds: groups whose member NFAs total more states
// than maxEagerNFAStates are not even attempted, and subset construction
// itself is capped at maxEagerDFAStates (a blow-up falls back to the
// default engine at compile time, never at scan time).
const (
	maxEagerNFAStates = 128
	maxEagerDFAStates = 2048
)

// litPass is the one literal automaton of a Ruleset: an Aho–Corasick
// matcher over the deduplicated union of the AC-routed groups' literals, the
// chain groups' pieces and kill bytes, and the factor prefilter's factors.
// Each pattern carries an owner list — the (unit, FSA) members whose literal
// it is —, a link list — the chain members whose piece it is, one entry per
// (member, phase) —, a kill list — the chain kill sets that hold it, for a
// one-byte pattern — and a wake list — the gated execution units whose
// factor it is. One pass of it per scan executes every AC and chain group
// and decides every factor gate.
type litPass struct {
	m        *ahocorasick.Matcher
	deliver  []bool               // per pattern: it has owners, links or kills
	owners   [][]int32            // per pattern: member indices
	links    [][]chainLink        // per pattern: chain pieces, the last phase first (see chainLink); nil without chains
	kills    [][]int32            // per pattern: the kill sets it belongs to; nil without chains
	wakes    [][]int32            // per pattern: the gated units it wakes
	members  []litMember          // every AC and chain group's FSAs, unit order, then FSA order
	units    []int                // the units that run in the pass (one group each), ascending
	first    []int                // per units entry: its first member; a closing len(members)
	slots    int                  // chain phase slots: one per non-final piece of every chain member
	killSets int                  // distinct chain kill sets
	perStrat [numStrategies]int64 // per strategy: the units that run in the pass
}

// litMember is one rule of an AC or chain group: its execution unit, its
// FSA index within the unit's program (the group's own) and its rule id.
type litMember struct{ unit, fsa, rule int32 }

// chainLink is piece j of a chain member, as an entry of its pattern. A hit
// of the piece at [s, e] extends the member's chain when phase j-1 holds an
// end below s that no later kill byte has voided; the last piece then
// matches at e, an earlier one records e in its own slot unless that slot
// already holds a live, earlier end — the earliest end serves every later
// piece hit best. A pattern's entries run from the last phase down, so a
// repeated piece (`ab.*ab`) reads phase j-1 before the same hit records
// there; the start check alone already keeps a hit from extending its own
// end, so the order is not what makes this exact.
type chainLink struct {
	member int32
	slot   int32 // the piece's phase slot; phase j-1's is slot-1
	kill   int32 // the member's kill set
	len    int32 // the piece's length
	first  bool  // j == 0: the piece opens a chain
	last   bool  // j == k-1: the piece closes one, a match
}

// litState is one run's state of the pass's owners: the members' event
// counts, the chains' phase ends and the last kill byte of every kill set.
// Offsets are absolute within the run and stored plus one, so zero means
// "none". Every kill byte is a one-byte pattern of the pass, so a kill costs
// one store per kill set that holds it, and a phase end at or below its set's
// last kill reads as absent.
type litState struct {
	counts  []int64 // per member: events in the current run
	touched []int32 // members counted in the current run
	ends    []int   // per chain slot: end+1 of the earliest live chain through that phase
	killed  []int   // per kill set: end+1 of its last kill byte
}

// newState returns the state of a fresh run of the pass.
func (lp *litPass) newState() litState {
	return litState{counts: make([]int64, len(lp.members)), touched: make([]int32, 0, len(lp.members)),
		ends: make([]int, lp.slots), killed: make([]int, lp.killSets)}
}

// reset forgets the current run: counts, chains and kills.
func (st *litState) reset() {
	for _, k := range st.touched {
		st.counts[k] = 0
	}
	st.touched = st.touched[:0]
	clear(st.ends)
	clear(st.killed)
}

// delivers reports whether the pass has literals to deliver, i.e. whether
// the Ruleset has AC or chain groups. A pass without them is the factor
// sweep alone, which ends once every factor has been seen.
func (lp *litPass) delivers() bool { return len(lp.members) > 0 }

// deliverHit attributes one occurrence of pattern pat, ending at end, to
// its owners, kill sets and chain links in st; hits must arrive in end
// order. A kill byte and a piece hit of the same kill set never end at one
// offset, as no piece holds a byte of its own kill set. Each event of a
// member bumps its count (a member counted for the first time in the run is
// appended to st.touched), and the owning unit's callback in emit (indexed
// by unit; a nil slice or nil entries count only) receives the member's
// FSA.
func (lp *litPass) deliverHit(pat, end int, st *litState, emit []func(fsa, end int)) {
	for _, k := range lp.owners[pat] {
		lp.event(k, end, st, emit)
	}
	if lp.kills == nil {
		return
	}
	for _, ks := range lp.kills[pat] {
		st.killed[ks] = end + 1
	}
	for i := range lp.links[pat] {
		l := &lp.links[pat][i]
		killed := st.killed[l.kill]
		if !l.first {
			// Phase j-1's end must be live (past the last kill) and below
			// the piece's start, end-len+1; stored plus one, that is
			// killed < prev <= end-len+1.
			if prev := st.ends[l.slot-1]; prev <= killed || prev > end-int(l.len)+1 {
				continue
			}
		}
		if l.last {
			lp.event(l.member, end, st, emit)
		} else if st.ends[l.slot] <= killed {
			st.ends[l.slot] = end + 1
		}
	}
}

// event counts one event of member k at end into st and reports it to its
// unit's callback in emit.
func (lp *litPass) event(k int32, end int, st *litState, emit []func(fsa, end int)) {
	if st.counts[k] == 0 {
		st.touched = append(st.touched, k)
	}
	st.counts[k]++
	if emit == nil {
		return
	}
	mb := lp.members[k]
	if f := emit[mb.unit]; f != nil {
		f(int(mb.fsa), end)
	}
}

// anchRule is one compiled anchored-literal check.
type anchRule struct {
	sh     strategy.Shape
	bad    bytescan.Finder // hunts bytes the middle cannot consume
	hasBad bool
	minLen int
}

// anchGroup is the compiled form of an anchored-literal group, indexed by
// FSA within the program.
type anchGroup struct {
	rules     []anchRule
	maxSuffix int // longest member suffix: the stream tail window
}

// scanPlan is the planner's output, recorded on the Ruleset: one strategy
// per automaton group, the compiled per-strategy artifacts, and the
// execution units that run the groups (see exec.go).
type scanPlan struct {
	strat   []Strategy   // per automaton group
	units   []execUnit   // partition the groups; ordered by first member
	unitOf  []int32      // per automaton group: its unit
	lit     *litPass     // AC literals, chain pieces and gating factors; nil when none exists
	anch    []*anchGroup // non-nil iff strat[i] == StrategyAnchored
	dfas    []*dfa.DFA   // non-nil iff strat[i] == StrategyDFA
	counts  [numStrategies]int
	planned bool // false under a forced Options.Engine
}

// execUnit is one execution unit: the automaton groups that run as one
// program over one table. A unit of one group runs the group's own program;
// the planner fuses lazy-DFA groups of one gating class, up to maxUnitFSAs
// FSAs, into one unit over the disjoint union of their MFSAs, so a byte
// costs one table walk per unit instead of one per group. Every entry
// point runs units, and attributes their outcomes back to the member groups
// through owner.
type execUnit struct {
	groups    []int              // member automata, ascending
	strat     Strategy           // the members' common strategy
	prog      *engine.Program    // the members' disjoint union; the group's own program when alone
	owner     []unitOwner        // per unit FSA: its member automaton and FSA there
	rules     []engine.RuleInfo  // per unit FSA: its owner's rule, read through owner
	lazy      *lazydfa.Matcher   // the unit's one shared table; nil unless StrategyLazyDFA
	newRunner func() groupRunner // a fresh runner (see newRunnerOf); nil for the units that run in lit
}

// unitOwner is the member group, and the FSA within it, that a unit FSA
// stands for.
type unitOwner struct{ group, fsa int32 }

// maxUnitFSAs caps a fused unit at one machine word of FSA ids, so its
// program keeps Words() == 1 and the engines' one-word paths (the lazy
// DFA's miss step and its thrash fallback).
const maxUnitFSAs = 64

// gatable reports whether group i participates in factor-prefilter gating.
// AC and chain groups run in the literal pass that decides the gates, and
// anchored groups are O(1) already, so only DFA and default-engine groups
// are worth gating.
func (pl *scanPlan) gatable(i int) bool {
	return !inPass(pl.strat[i]) && pl.strat[i] != StrategyAnchored
}

// inPass reports whether groups of strategy s run in the literal pass.
func inPass(s Strategy) bool { return s == StrategyAC || s == StrategyChain }

// inLit reports whether unit u runs in the fused literal pass.
func (pl *scanPlan) inLit(u int) bool { return inPass(pl.units[u].strat) }

// StrategyOf returns the execution strategy of automaton group i.
func (rs *Ruleset) StrategyOf(i int) Strategy { return rs.plan.strat[i] }

// Strategies returns the per-group strategy assignment, indexed like the
// automata.
func (rs *Ruleset) Strategies() []Strategy {
	return append([]Strategy(nil), rs.plan.strat...)
}

// defaultStrategy resolves the engine groups fall to when no fast shape
// applies: the lazy DFA, under either match semantics, unless iMFAnt is
// forced.
func (rs *Ruleset) defaultStrategy() Strategy {
	if rs.opts.Engine == EngineIMFAnt {
		return StrategyIMFAnt
	}
	return StrategyLazyDFA
}

// buildPlan classifies every automaton group, packs the groups into
// execution units and builds the units' executors, then the literal pass
// (buildPrefilter). shapes is the Front-End's per-rule classification
// (indexed by original rule id; nil disables the fast shapes); nfas maps
// rule id to its optimized per-rule NFA (nil — e.g. rulesets loaded from
// ANML — disables the eager-DFA strategy); factors holds the per-rule
// literal factors (nil under PrefilterOff). Called after buildEngines.
func (rs *Ruleset) buildPlan(shapes []strategy.Shape, nfas map[int]*nfa.NFA, factors []string) {
	n := len(rs.programs)
	pl := &scanPlan{
		strat:   make([]Strategy, n),
		anch:    make([]*anchGroup, n),
		dfas:    make([]*dfa.DFA, n),
		planned: rs.opts.Engine == EngineAuto,
	}
	def := rs.defaultStrategy()
	for i := range rs.programs {
		pl.strat[i] = def
		if pl.planned {
			rs.classifyGroup(pl, i, shapes, nfas)
		}
		pl.counts[pl.strat[i]]++
	}
	rs.plan = pl

	groupAlways, filterable := rs.gatingPlan(factors)
	rs.formUnits(pl, groupAlways)
	if rs.opts.Profile {
		rs.profiles = make([]*engine.Profile, len(pl.units))
		for u := range pl.units {
			rs.profiles[u] = engine.NewProfile(pl.units[u].prog, rs.opts.ProfileStride)
		}
	}
	lazyUnits, classes := 0, 0
	for u := range pl.units {
		x := &pl.units[u]
		if x.strat == StrategyLazyDFA {
			x.lazy = lazydfa.New(x.prog, lazydfa.Options{KeepOnMatch: rs.opts.KeepOnMatch,
				Accel: rs.opts.accelOn(), MaxStates: rs.opts.LazyDFAMaxStates})
			lazyUnits++
			classes += x.lazy.NumClasses()
		}
		if !inPass(x.strat) {
			x.newRunner = rs.newRunnerOf(u)
		}
	}
	rs.traceEmit = make([]func(fsa, end int), len(pl.units))
	for u := range pl.units {
		rs.traceEmit[u] = rs.traceMatches(u, nil)
	}
	if lazyUnits > 0 {
		rs.collector.EnableLazy(lazyUnits, len(pl.units),
			lazydfa.ResolveMaxStates(rs.opts.LazyDFAMaxStates), classes)
		rs.collector.SetGaugeFunc(rs.lazyGauges)
	}

	names := make([]string, numStrategies)
	groups := make([]int, numStrategies)
	for k := 0; k < numStrategies; k++ {
		names[k] = Strategy(k).String()
		groups[k] = pl.counts[k]
	}
	rs.collector.EnableStrategy(pl.planned, names, groups)

	var pf *prefilter
	if groupAlways != nil {
		pf = &prefilter{filterable: filterable, always: make([]bool, len(pl.units))}
		for u, x := range pl.units {
			// Units form within one gating class, so the first member
			// speaks for all.
			pf.always[u] = groupAlways[x.groups[0]]
			if !pf.always[u] {
				pf.gated = append(pf.gated, u)
			}
		}
	}
	rs.buildPrefilter(shapes, factors, pf)
}

// formUnits packs the planned groups into execution units, in group order.
// A lazy-DFA group joins the open unit of its gating class (groupAlways;
// nil when nothing is gated) while the unit stays within maxUnitFSAs FSAs,
// and otherwise opens the next one. Every other group is a unit of its own,
// and so is a lazy-DFA group with a dot-star state, whose table blows up
// when fused with others, and every group of a forced Options.Engine. Then
// each fused unit gets its program: the disjoint union of its members'
// MFSAs, whose states are the members' back to back in group order (the
// profiler maps unit states back to member automata by that layout).
func (rs *Ruleset) formUnits(pl *scanPlan, groupAlways []bool) {
	open := [2]int{-1, -1} // per gating class (always-run, gated): the unit still taking members
	var fsas []int         // per unit: FSAs so far
	pl.unitOf = make([]int32, len(rs.programs))
	for i, p := range rs.programs {
		fuse := pl.planned && pl.strat[i] == StrategyLazyDFA && !hasDotStar(rs.mfsas[i])
		class := 0
		if groupAlways != nil && !groupAlways[i] {
			class = 1
		}
		if u := open[class]; fuse && u >= 0 && fsas[u]+p.NumFSAs() <= maxUnitFSAs {
			pl.units[u].groups = append(pl.units[u].groups, i)
			fsas[u] += p.NumFSAs()
			pl.unitOf[i] = int32(u)
			continue
		}
		if fuse {
			open[class] = len(pl.units)
		}
		pl.unitOf[i] = int32(len(pl.units))
		pl.units = append(pl.units, execUnit{groups: []int{i}, strat: pl.strat[i]})
		fsas = append(fsas, p.NumFSAs())
	}
	for u := range pl.units {
		x := &pl.units[u]
		x.prog = rs.programs[x.groups[0]]
		if len(x.groups) > 1 {
			zs := make([]*mfsa.MFSA, len(x.groups))
			for k, g := range x.groups {
				zs[k] = rs.mfsas[g]
			}
			x.prog = engine.NewProgram(mfsa.Union(zs))
		}
		x.owner = make([]unitOwner, 0, fsas[u])
		for _, g := range x.groups {
			for fsa := range rs.programs[g].NumFSAs() {
				x.owner = append(x.owner, unitOwner{group: int32(g), fsa: int32(fsa)})
			}
		}
		x.rules = make([]engine.RuleInfo, len(x.owner))
		for k, o := range x.owner {
			x.rules[k] = rs.programs[o.group].Rules()[o.fsa]
		}
	}
}

// hasDotStar reports whether z has a dot-star state: a self-loop labelled
// with at least the 255 bytes of `.`. Such a state keeps every thread that
// reaches it alive for good — the "amnesia" shapes that multiply a lazy
// DFA's states — so its group runs on a table of its own. Groups of
// dot-star literal chains never get here: they run in the literal pass
// (StrategyChain); this isolates the dot-star rules that are not chains,
// and chains that share a group with other rules.
func hasDotStar(z *mfsa.MFSA) bool {
	for _, t := range z.Trans {
		if t.From == t.To && t.Label.Len() >= 255 {
			return true
		}
	}
	return false
}

// classifyGroup decides group i's strategy, in preference order: pure AC
// (every member a plain literal), chain (every member a dot-star literal
// chain or a plain literal, a one-piece chain), anchored-literal, eager DFA
// (small, unanchored, and pop ≡ keep for every member), default engine.
func (rs *Ruleset) classifyGroup(pl *scanPlan, i int, shapes []strategy.Shape, nfas map[int]*nfa.NFA) {
	rules := rs.programs[i].Rules()
	if len(shapes) > 0 {
		allLit, allAnch, chains := true, true, false
		for _, ri := range rules {
			if ri.RuleID < 0 || ri.RuleID >= len(shapes) {
				return
			}
			switch shapes[ri.RuleID].Kind {
			case strategy.KindLiteral:
				allAnch = false
			case strategy.KindChain:
				allAnch, chains = false, true
			case strategy.KindAnchored:
				allLit = false
			default:
				allLit, allAnch = false, false
			}
		}
		if allLit && len(rules) > 0 {
			// The literals and pieces join the Ruleset's one literal pass,
			// built by buildPrefilter once every group is classified.
			pl.strat[i] = StrategyAC
			if chains {
				pl.strat[i] = StrategyChain
			}
			return
		}
		if allAnch && len(rules) > 0 {
			g := &anchGroup{rules: make([]anchRule, len(rules))}
			ok := true
			for j, ri := range rules {
				sh := shapes[ri.RuleID]
				r := anchRule{sh: sh, minLen: sh.MinLen()}
				if sh.HasMiddle && len(sh.MiddleExcluded) > 0 {
					f, built := sh.BadFinder()
					if !built {
						// Cannot hunt the violating bytes: the check
						// would be unsound, so the group stays general.
						ok = false
						break
					}
					r.bad, r.hasBad = f, true
				}
				if len(sh.Suffix) > g.maxSuffix {
					g.maxSuffix = len(sh.Suffix)
				}
				g.rules[j] = r
			}
			if ok {
				pl.strat[i] = StrategyAnchored
				pl.anch[i] = g
				return
			}
		}
	}
	if d := rs.eagerDFA(rules, nfas); d != nil {
		pl.strat[i] = StrategyDFA
		pl.dfas[i] = d
	}
}

// eagerDFA attempts the eager-DFA strategy for a group: every member must
// have an optimized unanchored NFA, the group must be small, and — because
// the scan determinization has keep semantics — either KeepOnMatch is set
// or every member's final states are sinks, which makes the Eq. 5 pop
// unobservable (a popped thread had nowhere to go anyway). Returns nil when
// the group does not qualify or subset construction explodes.
func (rs *Ruleset) eagerDFA(rules []engine.RuleInfo, nfas map[int]*nfa.NFA) *dfa.DFA {
	if nfas == nil || len(rules) == 0 {
		return nil
	}
	group := make([]*nfa.NFA, len(rules))
	states := 0
	for j, ri := range rules {
		a := nfas[ri.RuleID]
		if a == nil || a.AnchorStart || a.AnchorEnd || len(a.Eps) > 0 || len(a.Loops) > 0 {
			return nil
		}
		if !rs.opts.KeepOnMatch && !finalsAreSinks(a) {
			return nil
		}
		states += a.NumStates
		if states > maxEagerNFAStates {
			return nil
		}
		group[j] = a
	}
	d, err := dfa.FromNFAs(group, maxEagerDFAStates)
	if err != nil {
		return nil
	}
	return d
}

// finalsAreSinks reports whether none of the NFA's final states has an
// outgoing transition — the condition under which the engines' pop and
// keep semantics coincide for the rule.
func finalsAreSinks(a *nfa.NFA) bool {
	final := make(map[nfa.StateID]bool, len(a.Finals))
	for _, f := range a.Finals {
		final[f] = true
	}
	for _, t := range a.Trans {
		if final[t.From] {
			return false
		}
	}
	return true
}

// shapesOf re-derives per-rule shapes from pattern sources, for rulesets
// whose compilation pipeline did not run (LoadANML). Rules whose source is
// missing or no longer parses stay KindGeneral, which is always sound.
func shapesOf(patterns []string) []strategy.Shape {
	out := make([]strategy.Shape, len(patterns))
	for i, p := range patterns {
		if p == "" {
			continue
		}
		if ast, err := rex.Parse(p); err == nil {
			out[i] = strategy.Classify(ast)
		}
	}
	return out
}

// Effectiveness-tracker tuning: per-unit wake rates are judged over
// windows of trackerWindow sweeps; a gated unit waking in ≥ 90% of a
// window's sweeps has its gate disabled (the sweep is pure overhead for
// it). A disabled unit re-enables for free on any sweep — run for the other
// units — in which it would not have woken. Once every gated unit is
// disabled the pass is elided, with one explicit probe pass every
// trackerProbeEvery elisions so a traffic shift can re-arm gating. Only
// rulesets whose pass delivers nothing have a tracker: a pass that delivers
// AC literals or chain pieces runs every scan anyway, so elision could never
// pay there, and a disabled gate would only run its unit needlessly.
const (
	trackerWindow     = 16
	trackerProbeEvery = 32
)

// prefTracker is the runtime prefilter-effectiveness tracker of a ruleset
// whose literal pass only gates, shared by every Scanner and CountParallel
// call of the ruleset (streams do not gate, so they neither consult nor
// feed the tracker). It judges execution units, the granularity gating
// acts on, and counts in member groups. All state is atomic; windows are
// approximate under concurrency, which only shifts when a decision lands,
// never its soundness — a disabled gate means more units run, and a sweep
// that does run is always exact.
type prefTracker struct {
	units    []trackerUnit // indexed by execution unit; only gated entries used
	gated    int64         // member groups of the gated units
	disabled atomic.Int64  // gauge: member groups of the disabled units
	elided   atomic.Int64  // elided sweeps since the last probe
}

type trackerUnit struct {
	groups int64       // member groups: the unit's weight in the gauges
	off    atomic.Bool // gate disabled: the unit runs every scan
	sweeps atomic.Int64
	wakes  atomic.Int64
}

func newPrefTracker(pf *prefilter, units []execUnit) *prefTracker {
	t := &prefTracker{units: make([]trackerUnit, len(units))}
	for _, u := range pf.gated {
		t.units[u].groups = int64(len(units[u].groups))
		t.gated += t.units[u].groups
	}
	return t
}

// decide reports whether the next sweep should run at all and whether it
// runs as an explicit re-enable probe. Nil-safe.
func (t *prefTracker) decide() (run, probe bool) {
	if t == nil || t.gated == 0 {
		return true, false
	}
	if t.disabled.Load() < t.gated {
		return true, false
	}
	if t.elided.Add(1) >= trackerProbeEvery {
		t.elided.Store(0)
		return true, true
	}
	return false, false
}

// disabledNow returns how many gated groups' gates are currently off — the
// Stats().Strategy.GroupsUngated gauge. Nil-safe.
func (t *prefTracker) disabledNow() int64 {
	if t == nil {
		return 0
	}
	return t.disabled.Load()
}

// isDisabled reports whether unit u's gate is currently off.
func (t *prefTracker) isDisabled(u int) bool { return t.units[u].off.Load() }

// observe folds one sweep's outcome for gated unit u: woke means a member's
// factors occurred, so gating saved nothing.
func (t *prefTracker) observe(u int, woke bool) {
	g := &t.units[u]
	if g.off.Load() {
		if !woke {
			// The sweep ran anyway (for the other units) and this unit
			// would have been skipped: gating pays again.
			if g.off.CompareAndSwap(true, false) {
				g.sweeps.Store(0)
				g.wakes.Store(0)
				t.disabled.Add(-g.groups)
			}
		}
		return
	}
	s := g.sweeps.Add(1)
	if woke {
		g.wakes.Add(1)
	}
	if s >= trackerWindow {
		w := g.wakes.Load()
		g.sweeps.Store(0)
		g.wakes.Store(0)
		if w*10 >= s*9 {
			if g.off.CompareAndSwap(false, true) {
				t.disabled.Add(g.groups)
			}
		}
	}
}
