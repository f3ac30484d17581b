// Package lazydfa executes an MFSA program by on-the-fly (lazy)
// determinization of the iMFAnt traversal.
//
// iMFAnt's per-byte cost grows with the symbol-indexed transition-list
// density of the program (§V of the paper), while a determinized scan pays
// one indexed load per byte — but offline subset construction over a merged
// MFSA explodes (§II). This engine takes the middle road, in the tradition
// of RE2's bounded-cache DFA and the simultaneous-automata line of work:
// each distinct iMFAnt state vector — the set of (state, J-set) activation
// pairs — is one lazy-DFA state; successors are computed on demand by
// running a single iMFAnt step (engine.Stepper) and cached in a bounded
// transition table. Rows are keyed by a compressed byte-class alphabet
// (equivalence classes of Σ under the program's transition labels), so a
// cached row is NumClasses entries wide instead of 256. Match metadata —
// the per-FSA accept mask and the $-anchored accept-at-end mask — is
// attached to each cached state, so the hot loop is one load plus an
// occasional accept emission.
//
// Both match semantics are cached. A cached state is the *pre-pop* vector
// S of a step: the union of the Jnew values arriving at each state before
// the Eq. 5 pop. The pop of an arrival at state q removes
// finalMask(q) &^ endAnchored — a mask of q alone — so in pop mode the
// iMFAnt runner's post-step vector is exactly Pop(S) and the successor on
// byte c is Step(Pop(S), c); in keep mode Pop is the identity. Either way
// the successor is a pure function of (S, c), and the accept masks are read
// off S.
//
// A Matcher owns one transition table, shared by every Runner on it: hits
// read a published snapshot without a lock, misses insert under the
// Matcher's mutex (see table.go). When the table fills, it is flushed
// whole (RE2-style) into a new generation; a runner whose scan keeps
// flushing falls back transparently to the iMFAnt engine.Runner for the
// rest of its stream, resumed from the exact mid-stream (post-pop)
// activation vector.
//
// Match events are reported once per (FSA, end offset), in ascending FSA
// order at each offset. The distinct (FSA, end) sets are identical to the
// iMFAnt engine's under the same semantics, regardless of table size,
// flushes, sharing, or fallback.
package lazydfa

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/faultpoint"
)

// Defaults for Options and Config fields left zero.
const (
	// DefaultMaxStates bounds the cached DFA states of a table. With a
	// 256-class worst-case alphabet this caps the transition table at
	// 4 MiB of row storage.
	DefaultMaxStates = 4096
	// DefaultMaxFlushes is the number of table flushes a scan may trigger
	// before the runner concludes the input thrashes the table and falls
	// back to the iMFAnt engine.
	DefaultMaxFlushes = 8
	// minStates is the smallest usable cap: the restart state, the
	// current state preserved across a flush, and one successor.
	minStates = 3
	// maxAccelActs bounds the activation-vector width of states considered
	// for acceleration. Wide vectors are never quiet loop hubs — they carry
	// many live paths, hence many live bytes — so rejecting them up front
	// avoids paying a per-class Step probe for states that would fail
	// classification anyway.
	maxAccelActs = 4
)

// Options fix a Matcher's transition table for the Matcher's lifetime:
// successor rows depend on the match semantics, and acceleration
// classification is part of every cached state.
type Options struct {
	// KeepOnMatch mirrors engine.Config.KeepOnMatch: false (the zero
	// value) runs the paper's Eq. 5 pop. Both semantics are cached.
	KeepOnMatch bool
	// Accel enables state acceleration: every cached DFA state is
	// classified at construction time, and a state whose live outgoing
	// byte set is small (≤ 4 distinct bytes; every other byte provably
	// self-loops back to it without emitting) lets the run loop jump with
	// a bytescan kernel straight to the next live byte instead of stepping
	// the transition table once per byte. Results are byte-identical with
	// acceleration on or off. The iMFAnt fallback inherits the setting as
	// its own start-byte skip.
	Accel bool
	// MaxStates caps the table's cached states; 0 selects
	// DefaultMaxStates, values below the structural minimum of 3 are
	// raised to it. The degradation ladder may double it once.
	MaxStates int
}

// Config tunes one lazy-DFA scan.
type Config struct {
	// MaxFlushes caps the table flushes this scan may trigger before it
	// falls back to the iMFAnt engine; 0 selects DefaultMaxFlushes,
	// negative values disable flushing (fallback on the first full table).
	// Flushes other runners trigger do not count.
	MaxFlushes int
	// OnMatch, when non-nil, receives every match with the FSA identifier
	// and the end offset (inclusive, absolute within the stream).
	OnMatch func(fsa, end int)
	// Checkpoint, when non-nil, is polled about every CheckpointEvery
	// bytes during Feed (on both the cached path and the iMFAnt
	// fallback). A non-nil return cancels the scan: the runner stops
	// consuming input, every further Feed is a no-op, and Err reports the
	// cause.
	Checkpoint func() error
	// CheckpointEvery is the polling granularity of Checkpoint in bytes;
	// 0 selects engine.DefaultCheckpointEvery.
	CheckpointEvery int
	// Profile, when non-nil, enables the sampling state profiler: every
	// Profile.Stride() input symbols the current cached state's
	// (post-pop) activation vector is folded into the shared Profile,
	// attributing heat to the underlying MFSA states exactly as the
	// iMFAnt engine samples its own vector. The iMFAnt fallback inherits
	// the Profile, so a scan is profiled end to end regardless of which
	// engine finishes it. Sampling happens at stride-block boundaries
	// outside the per-byte loop; a nil Profile costs one branch per fed
	// chunk.
	Profile *engine.Profile
	// Faults, when non-nil, arms this scan's fault-injection sites
	// (flush storms, forced thrash, allocation caps, stalled chunks) and
	// is inherited by the iMFAnt fallback. Like Profile, a nil Faults
	// costs one predictable branch per fed chunk. Injected faults only
	// force transitions the runner already implements exactly; they
	// never change the reported matches.
	Faults *faultpoint.Injector
}

// Result aggregates one scan.
type Result struct {
	// Matches counts the reported match events, one per distinct
	// (FSA, end offset).
	Matches int64
	// PerFSA counts events per merged-FSA identifier.
	PerFSA []int64
	// Symbols is the number of input bytes processed.
	Symbols int
	// CachedStates is the number of states in the shared table at scan
	// end (a gauge over every runner's work, like TableStats.States).
	CachedStates int
	// Flushes counts the table flushes this scan triggered.
	Flushes int
	// FellBack reports that the scan finished on the iMFAnt engine.
	FellBack bool
	// Thrashed reports that the fallback was forced by cache thrash (the
	// flush budget ran out on this scan), as opposed to a ladder pin.
	// Thrashed implies FellBack.
	Thrashed bool
	// CacheHits counts input bytes served by a cached transition row;
	// CacheMisses counts bytes whose successor had to be computed by an
	// iMFAnt step. Both cover only the cached portion of the scan — bytes
	// executed on the iMFAnt fallback perform no cache lookups and count
	// in neither. Hits are derived at chunk granularity (cached bytes
	// minus misses), so the per-byte hot loop carries no counter update.
	CacheHits, CacheMisses int64
	// AccelBytes counts input bytes jumped over by state acceleration
	// (Options.Accel) rather than stepped one at a time — on the cached
	// path and, via the start-byte skip, on the iMFAnt fallback. Jumped
	// bytes still count in Symbols and as cache hits: they were matched
	// against, just in bulk.
	AccelBytes int64
	// AccelStates is the number of states in the shared table classified
	// as accelerable (a gauge, like CachedStates).
	AccelStates int
	// Grew reports that this scan ran after the runner's previous scan
	// thrashed, with the table's cap doubled by the degradation ladder.
	Grew bool
	// Pinned reports that this scan was delegated whole to the iMFAnt
	// engine because the ladder is out of rungs: the traffic thrashed the
	// grown table too. Pinned implies FellBack (but not Thrashed — the
	// defeat happened on an earlier scan).
	Pinned bool
}

// Totals are cumulative counters over every scan a Runner has executed,
// including the one in progress — the promoted, runner-lifetime form of the
// per-scan Result counters, folded at End and read by the telemetry layer.
type Totals struct {
	// Scans counts completed scans (End calls).
	Scans int64
	// Symbols is the total number of input bytes processed.
	Symbols int64
	// Matches is the total number of match events.
	Matches int64
	// CacheHits and CacheMisses aggregate the per-scan cache counters.
	// Their ratio is the primary cache-sizing signal: a low hit rate on
	// steady traffic means MaxStates is too small for the ruleset.
	CacheHits, CacheMisses int64
	// Flushes counts the table flushes this runner triggered.
	Flushes int64
	// Fallbacks counts scans abandoned to the iMFAnt engine because the
	// input thrashed the table. Ladder pins are counted in Pins instead.
	Fallbacks int64
	// AccelBytes aggregates the per-scan accelerated-jump byte counters.
	AccelBytes int64
	// Grows counts scans retried with a doubled table cap after a thrash;
	// at most 1 per Runner lifetime — the ladder has one grow rung.
	Grows int64
	// Pins counts scans delegated whole to the iMFAnt engine because the
	// ladder bottomed out (thrash at the grown cap).
	Pins int64
}

// Matcher is the shareable lazy-DFA form of one engine.Program: the program,
// its compressed byte-class alphabet, and one transition table shared by
// every Runner on it. The table is built by the first scan, so New
// allocates none of it. The Matcher is safe for concurrent use; each Runner
// is used by one goroutine at a time.
type Matcher struct {
	p       *engine.Program
	classOf [256]uint8
	nc      int
	rep     []byte // representative input byte per class
	// classBytes[c] lists the input bytes of class c in increasing order —
	// the live-byte expansion of state-acceleration classification: a
	// class probed live contributes exactly these bytes to the state's
	// hunt set.
	classBytes  [][]byte
	stride      int // row width: nc successors plus the state's column
	w           int // words per FSA bitset (Program.Words)
	keep, accel bool
	cap0        int // the resolved Options.MaxStates

	table
}

// New builds a Matcher over p with the table fixed by opts (at most one;
// none selects the zero Options: pop semantics, no acceleration,
// DefaultMaxStates).
func New(p *engine.Program, opts ...Options) *Matcher {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	classOf, nc := p.ByteClasses()
	m := &Matcher{p: p, classOf: classOf, nc: nc, rep: make([]byte, nc),
		classBytes: make([][]byte, nc), stride: nc + 1, w: p.Words(), keep: o.KeepOnMatch, accel: o.Accel,
		cap0: ResolveMaxStates(o.MaxStates)}
	m.maxStates = m.cap0
	seen := make([]bool, nc)
	for b := 0; b < 256; b++ {
		c := classOf[b]
		if !seen[c] {
			seen[c] = true
			m.rep[c] = byte(b)
		}
		m.classBytes[c] = append(m.classBytes[c], byte(b))
	}
	return m
}

// NumClasses returns the number of byte equivalence classes — the width of
// every cached transition row.
func (m *Matcher) NumClasses() int { return m.nc }

// Program returns the underlying program.
func (m *Matcher) Program() *engine.Program { return m.p }

// ResolveMaxStates normalizes an Options.MaxStates value to the cap a table
// actually starts with: 0 (or negative) selects DefaultMaxStates and values
// below the structural minimum are raised to it.
func ResolveMaxStates(n int) int {
	if n <= 0 {
		return DefaultMaxStates
	}
	if n < minStates {
		return minStates
	}
	return n
}

// Runner is a cursor on its Matcher's shared table: it executes scans, one
// at a time, and owns only its position, its scratch and its counters, so
// every Runner starts warm on what the others cached. While a chunk runs,
// the runner reads one snapshot of the table; between chunks it holds no
// reference to the table at all, only a copy of its current state's
// vectors, so a flush by another runner in the meantime costs it one
// re-insertion at its next chunk. The flush budget applies per scan, the
// degradation ladder per runner lifetime. A Runner is not safe for
// concurrent use.
type Runner struct {
	m *Matcher

	// Hot cursor fields. snap is the snapshot the current chunk reads (nil
	// between chunks) and cur a state id of generation genID.
	snap  *snapshot
	cur   int32
	genID uint64

	cfg        Config
	res        Result
	offset     int
	maxFlushes int
	stop       error // non-nil: scan cancelled by a Checkpoint failure

	// Fallback state: fb non-nil routes everything to the iMFAnt engine.
	fb        *engine.Runner
	fbSeenEnd int
	fbSeen    []uint64

	// Cold state below: touched at chunk boundaries and scan edges only.

	// saved holds, between chunks, the current state's packed pre-pop
	// vector (savedActs words), its accept masks (2·Words) and, when it
	// differs from the pre-pop one, its live vector (savedLive words, -1
	// when it does not). savedActs == 0 is the restart state, state 0 of
	// every generation.
	saved                []uint64
	savedActs, savedLive int

	// Held-byte stream-end handling, mirroring engine.Runner: the most
	// recent byte of every non-final Feed is held back so a stream end
	// announced later (Feed(nil, true) or End) still has a byte to carry
	// the $-anchored accepts.
	held    [1]byte
	hasHeld bool

	// thrashed records that this scan's fallback was a cache defeat (as
	// opposed to a ladder pin).
	thrashed bool
	// Degradation-ladder state, runner lifetime (see Begin): grown records
	// the one-shot grow rung has been spent; permanent pins every further
	// scan to the iMFAnt engine.
	grown     bool
	permanent bool
	ended     bool // End already folded this scan into totals
	profFill  int  // symbols fed since the last profiler sample
	// cachedSymbols counts bytes executed through the cached hot loop
	// this scan (chunk granularity); CacheHits = cachedSymbols − misses.
	cachedSymbols int64
	totals        Totals
}

// NewRunner returns a cursor on m's shared table. It is cheap: a Runner
// allocates no table of its own.
func NewRunner(m *Matcher) *Runner {
	return &Runner{m: m, fbSeen: make([]uint64, m.w), fbSeenEnd: -1}
}

// Run scans input as one whole stream.
func (r *Runner) Run(input []byte, cfg Config) Result {
	r.Begin(cfg)
	r.Feed(input, true)
	return r.End()
}

// Begin starts a (possibly chunked) scan from the restart state. The runner
// reuses its Result.PerFSA slice: a Result returned by End is valid until
// the next Begin (or Run).
func (r *Runner) Begin(cfg Config) {
	switch {
	case cfg.MaxFlushes == 0:
		cfg.MaxFlushes = DefaultMaxFlushes
	case cfg.MaxFlushes < 0:
		cfg.MaxFlushes = 0
	}
	// Degradation ladder: a thrash on the previous scan spends the
	// one-shot grow rung (double the table's cap — at most once per
	// Matcher, whichever runner asks first — and retry the cached path); a
	// thrash after that pins the runner to the iMFAnt engine: the traffic
	// has defeated both caps, so flushing the table every scan would only
	// add churn on top of the fallback it always ends in.
	var grew bool
	if r.thrashed && !r.permanent {
		if !r.grown {
			r.grown = true
			grew = true
			r.m.grow()
		} else {
			r.permanent = true
		}
	}
	r.thrashed = false
	r.maxFlushes = cfg.MaxFlushes
	r.cfg = cfg
	per := r.res.PerFSA
	if per == nil {
		per = make([]int64, r.m.p.NumFSAs())
	}
	clear(per)
	r.res = Result{PerFSA: per, Grew: grew}
	r.offset = 0
	r.snap, r.cur, r.savedActs, r.savedLive = nil, 0, 0, -1
	r.stop = nil
	r.hasHeld = false
	r.ended = false
	r.cachedSymbols = 0
	r.profFill = 0
	r.fb = nil
	r.fbSeenEnd = -1
	clear(r.fbSeen)
	if r.permanent {
		// Ladder bottom: delegate the whole stream to the iMFAnt engine,
		// deduplicated to the cached path's exact event semantics (one
		// event per (FSA, end), ascending FSA order).
		r.res.FellBack = true
		r.res.Pinned = true
		r.fb = engine.NewRunner(r.m.p)
		r.fb.Begin(r.fallbackCfg())
	}
}

// Frontier returns the scan's current activation vector in canonical form
// (sorted by state, fresh slices): the complete traversal state after the
// bytes fed so far — in pop mode the post-pop vector, exactly what an iMFAnt
// runner holds after the same bytes — suitable for seeding a continuation
// via engine.Runner.Resume. Call FlushHeld first — a held-back byte is not
// yet reflected in the vector. On an engine fallback (thrash or ladder pin)
// the fallback runner's vector is returned.
func (r *Runner) Frontier() []engine.Activation {
	if r.fb != nil {
		return r.fb.Frontier()
	}
	return engine.Unpack(r.liveVec(), r.m.w)
}

// Feed consumes the next chunk of the stream. Set final on the last chunk so
// $-anchored rules can match on the true last byte; splitting a stream into
// chunks never changes the reported matches.
//
// Like engine.Runner, the runner holds back the most recent byte of every
// non-final Feed, so a stream end announced after the fact — Feed(nil,
// true), or End with no final Feed — still reports the $-anchored accepts
// of the true last byte.
//
// When Config.Checkpoint is set, Feed polls it between blocks of
// CheckpointEvery bytes; once it fails, the remaining input is dropped and
// Err returns the cause.
func (r *Runner) Feed(chunk []byte, final bool) {
	if r.stop != nil {
		return
	}
	if r.hasHeld && (len(chunk) > 0 || final) {
		r.hasHeld = false
		r.feedSplit(r.held[:], final && len(chunk) == 0)
		if r.stop != nil || (final && len(chunk) == 0) {
			return
		}
	}
	if len(chunk) == 0 {
		if final {
			r.feedSplit(nil, true)
		}
		return
	}
	if final {
		r.feedSplit(chunk, true)
		return
	}
	r.feedSplit(chunk[:len(chunk)-1], false)
	if r.stop == nil {
		r.held[0] = chunk[len(chunk)-1]
		r.hasHeld = true
	}
}

// FlushHeld feeds the held-back byte as ordinary (non-final) data — the
// cancellation-path companion of the held-byte contract (see
// engine.Runner.FlushHeld). It also drains the fallback engine's own held
// byte and any buffered dedup events, so every byte a caller reported as
// consumed has been matched against.
func (r *Runner) FlushHeld() {
	if r.stop != nil {
		return
	}
	if r.hasHeld {
		r.hasHeld = false
		r.feedSplit(r.held[:], false)
	}
	if r.fb != nil {
		r.fb.FlushHeld()
		r.flushPending()
	}
}

// feedSplit runs chunk through feedChunk in Checkpoint-sized blocks.
func (r *Runner) feedSplit(chunk []byte, final bool) {
	if r.cfg.Checkpoint == nil {
		r.feedChunk(chunk, final)
		return
	}
	every := r.cfg.CheckpointEvery
	if every <= 0 {
		every = engine.DefaultCheckpointEvery
	}
	for off := 0; ; off += every {
		if err := r.cfg.Checkpoint(); err != nil {
			r.stop = err
			return
		}
		end := off + every
		if end >= len(chunk) {
			r.feedChunk(chunk[off:], final)
			return
		}
		r.feedChunk(chunk[off:end], false)
	}
}

// Err returns the Checkpoint error that cancelled the scan, if any.
func (r *Runner) Err() error { return r.stop }

// feedChunk is the uninterruptible Feed body: it attaches the cursor to the
// table for the chunk and detaches it after. Profiled scans on the cached
// path route through feedProfiled, which replays the same body in
// stride-sized blocks; once the scan is on an engine fallback the fallback
// runner profiles itself (its Config carries the same Profile).
func (r *Runner) feedChunk(chunk []byte, final bool) {
	if r.fb != nil {
		r.feedBody(chunk, final)
		return
	}
	// Once on a fallback the engine runner (armed with the same injector)
	// stalls its own chunks; stalling here too would count the site twice
	// per chunk.
	r.cfg.Faults.Stall()
	if !r.attach() {
		// Another runner flushed the table since this one's last chunk,
		// and re-inserting its state needs a flush its budget no longer
		// has.
		r.res.Symbols += len(chunk)
		r.fallback(chunk, 0, final)
		return
	}
	if r.cfg.Profile != nil {
		r.feedProfiled(chunk, final)
	} else {
		r.feedBody(chunk, final)
	}
	r.detach()
}

// attach points the cursor at the table's newest snapshot. A cursor whose
// generation was flushed meanwhile re-inserts its saved state; attach
// reports false when that needs a flush and the scan's budget is spent.
func (r *Runner) attach() bool {
	m := r.m
	s := m.current()
	if s.gen.id == r.genID {
		r.snap = s
		return true
	}
	if r.savedActs == 0 {
		r.snap, r.cur, r.genID = s, 0, s.gen.id
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beginWrite()
	ok := r.intern(r.saved[:r.savedActs], r.saved[r.savedActs:r.savedActs+2*m.w])
	m.endWrite()
	if ok {
		r.snap = m.pub.Load()
	}
	return ok
}

// detach saves the current state's vectors and drops the snapshot, so an
// idle cursor keeps no generation of the table alive.
func (r *Runner) detach() {
	s := r.snap
	if s == nil {
		return
	}
	r.snap = nil
	if r.fb != nil {
		return
	}
	st := &s.meta[r.cur]
	r.saved = append(append(r.saved[:0], s.actsOf(r.cur)...), s.masksOf(r.cur)...)
	r.savedActs, r.savedLive = int(st.nActs), -1
	if st.live != st.acts {
		r.saved = append(r.saved, s.liveOf(r.cur)...)
		r.savedLive = int(st.nLive)
	}
}

// liveVec returns the current state's live vector, from the snapshot while
// attached and from the saved copy between chunks.
func (r *Runner) liveVec() []uint64 {
	if r.snap != nil {
		return r.snap.liveOf(r.cur)
	}
	if r.savedLive < 0 {
		return r.saved[:r.savedActs]
	}
	return r.saved[r.savedActs+2*r.m.w:]
}

// feedProfiled feeds chunk through the unmodified hot loop in stride-sized
// blocks and samples the current cached state's activation vector at each
// block boundary, attributing heat to the underlying MFSA states. Partial
// strides carry across chunks via profFill.
func (r *Runner) feedProfiled(chunk []byte, final bool) {
	pr := r.cfg.Profile
	stride := pr.Stride()
	for {
		// An accelerable parked state jumps over the whole remaining chunk
		// before block-splitting, then settles the sampling debt in bulk:
		// the vector is constant across the jump, so the k stride
		// boundaries crossed are exactly k samples of the parked state, and
		// the partial-stride fill advances by the bytes consumed. Heat
		// shares and sample counts therefore stay byte-comparable with
		// acceleration off, while jumps are no longer capped at one
		// stride-block.
		if r.m.accel && r.offset > 0 {
			jumpEnd := len(chunk)
			if final {
				jumpEnd-- // the true last byte always steps normally
			}
			if jumpEnd > 0 {
				if s := r.snap; s.col(r.cur)&stAccel != 0 {
					j := s.finderOf(r.cur).Index(chunk[:jumpEnd])
					if j < 0 {
						j = jumpEnd
					}
					if j > 0 {
						pr.SamplePacked(s.liveOf(r.cur), int64((r.profFill+j)/stride))
						r.profFill = (r.profFill + j) % stride
						r.res.AccelBytes += int64(j)
						r.res.Symbols += j
						r.cachedSymbols += int64(j)
						r.offset += j
						chunk = chunk[j:]
					}
				}
			}
		}
		n := stride - r.profFill
		if n > len(chunk) {
			r.feedBody(chunk, final)
			r.profFill += len(chunk)
			return
		}
		blockFinal := final && n == len(chunk)
		r.feedBody(chunk[:n], blockFinal)
		chunk = chunk[n:]
		if r.stop != nil {
			return
		}
		if r.fb != nil {
			// Fell back mid-block: the engine runner profiles the rest.
			r.feedBody(chunk, final)
			return
		}
		r.profFill = 0
		pr.SamplePacked(r.snap.liveOf(r.cur), 1)
		if len(chunk) == 0 {
			return
		}
	}
}

// feedBody executes one chunk on the cached path (or relays it to the
// engine fallback).
func (r *Runner) feedBody(chunk []byte, final bool) {
	r.res.Symbols += len(chunk)
	if r.fb != nil {
		r.fb.Feed(chunk, final)
		r.flushPending()
		r.offset += len(chunk)
		return
	}
	if in := r.cfg.Faults; in != nil {
		// Injected cache faults, at chunk granularity like the natural
		// ones' observable effects. A forced thrash takes the ordinary
		// fallback path from the current vector (sound even at offset 0:
		// Resume of the empty vector at 0 is a fresh stream start); a
		// forced flush spends the ordinary flush budget and falls back
		// once the budget is gone, exactly like a storm of real flushes.
		if in.Hit(faultpoint.LazyThrash) {
			r.fallback(chunk, 0, final)
			return
		}
		if in.Hit(faultpoint.LazyFlush) && !r.forceFlush() {
			r.fallback(chunk, 0, final)
			return
		}
	}
	m := r.m
	nc := m.nc
	classOf := &m.classOf
	base := r.offset
	// jumpEnd bounds accelerated jumps: the true last byte of the stream is
	// always stepped normally, so a parked state's $-anchored accepts
	// (acceptEnd) still fire on it — a jump may not cross the stream-end
	// bookkeeping.
	jumpEnd := len(chunk)
	if final {
		jumpEnd--
	}
	pos := 0
	if s := r.snap; m.accel && base > 0 && jumpEnd > 0 && s.col(r.cur)&stAccel != 0 {
		// The state parked across the chunk boundary is accelerable: hunt
		// its live bytes from the first byte of the chunk. Stream byte 0 is
		// exempt (base > 0) — its step also enables the ^-anchored inits,
		// which classification does not model.
		j := s.finderOf(r.cur).Index(chunk[:jumpEnd])
		if j < 0 {
			j = jumpEnd
		}
		r.res.AccelBytes += int64(j)
		pos = j
	}
	// The loop runs on row offsets (see the row layout in table.go) and
	// keeps the row table in a local. Rows are loaded atomically: other
	// runners fill uncomputed entries in place. An entry the snapshot
	// cannot use — uncomputed, or a state added since the snapshot was
	// taken — is settled off the hot path, which leaves r.snap current.
	rows, nc := r.snap.rows, m.nc
	cur := int(r.cur) * m.stride
	if base == 0 && len(chunk) > 0 {
		// The stream's first step also enables the ^-anchored inits; its
		// successors live in a dedicated row.
		cls := int(classOf[chunk[0]])
		next := r.settle(atomic.LoadInt32(&r.snap.gen.startRow[cls]), cls, true)
		if next < 0 {
			r.fallback(chunk, 0, final)
			return
		}
		rows, cur = r.snap.rows, int(next)
		if c := rows[cur+nc]; c&colFlags != 0 {
			pos = r.arrive(c, chunk, 0, base, final, jumpEnd)
		}
		pos++
	}
	for pos < len(chunk) {
		// The hit path, a loop without calls so that its values stay in
		// registers: cached successors that neither accept nor accelerate.
		for ; pos < len(chunk); pos++ {
			next := atomic.LoadInt32(&rows[cur+int(classOf[chunk[pos]])])
			if uint(uint32(next)) >= uint(len(rows)) || rows[int(next)+nc]&colFlags != 0 {
				break
			}
			cur = int(uint32(next))
		}
		if pos == len(chunk) {
			break
		}
		cls := int(classOf[chunk[pos]])
		next := atomic.LoadInt32(&rows[cur+cls])
		if uint(uint32(next)) >= uint(len(rows)) {
			r.cur = rows[cur+nc] >> colShift
			if next = r.settle(next, cls, false); next < 0 {
				// Cache thrash: hand the rest of the stream to iMFAnt,
				// resumed from the current activation vector. Only the
				// bytes before the thrashing one ran out of the cache.
				r.cachedSymbols += int64(pos)
				r.fallback(chunk, pos, final)
				return
			}
			rows = r.snap.rows
		}
		cur = int(next)
		if c := rows[cur+nc]; c&colFlags != 0 {
			pos = r.arrive(c, chunk, pos, base, final, jumpEnd)
		}
		pos++
	}
	r.cur = rows[cur+nc] >> colShift
	r.cachedSymbols += int64(len(chunk))
	r.offset += len(chunk)
}

// settle resolves a row entry next the runner's snapshot cannot use: an
// uncomputed one (-1) is a miss, and an offset past the snapshot is a state
// another runner added since, found in its generation's latest snapshot.
// It returns -1 when the miss must fall back; otherwise r.snap holds the
// returned row offset.
func (r *Runner) settle(next int32, cls int, streamStart bool) int32 {
	for uint(uint32(next)) >= uint(len(r.snap.rows)) {
		if next >= 0 {
			r.snap = r.snap.gen.latest.Load()
		} else if next = r.miss(cls, streamStart); next < 0 {
			return -1
		}
	}
	return next
}

// arrive handles the arrival, on chunk[pos], in the state of column c,
// whose flag bits are not all zero: it emits the state's accepts and, in an
// accelerable state, jumps to the next live byte before jumpEnd. Skipped
// bytes count as cache hits — they were matched, in bulk. It returns the
// position of the last byte consumed.
func (r *Runner) arrive(c int32, chunk []byte, pos, base int, final bool, jumpEnd int) int {
	s, id := r.snap, c>>colShift
	if c&stAccept != 0 {
		r.emitMask(s.acceptOf(id), base+pos)
	}
	if final && pos == len(chunk)-1 && c&stAcceptEnd != 0 {
		r.emitMask(s.acceptEndOf(id), base+pos)
	}
	if c&stAccel != 0 && pos+1 < jumpEnd {
		// Every byte outside the state's needle set self-loops without
		// emitting, so jump straight to the next needle (or the bound).
		rest := chunk[pos+1 : jumpEnd]
		j := s.finderOf(id).Index(rest)
		if j < 0 {
			j = len(rest)
		}
		r.res.AccelBytes += int64(j)
		pos += j
	}
	return pos
}

// End finishes the scan and returns the accumulated result. If no Feed
// announced the stream end, End flushes the held-back byte as the final
// one. End also folds the scan into the runner's cumulative Totals; calling
// it again before the next Begin is idempotent.
func (r *Runner) End() Result {
	if r.hasHeld && r.stop == nil {
		r.hasHeld = false
		r.feedSplit(r.held[:], true)
	}
	if r.fb != nil {
		r.fb.End()
		r.flushPending()
	}
	st := r.m.Stats()
	r.res.CachedStates = st.States
	r.res.AccelStates = st.AccelStates
	r.res.CacheHits = r.cachedSymbols - r.res.CacheMisses
	if !r.ended {
		r.ended = true
		if r.fb != nil {
			// The fallback's own start-byte skips belong to this scan;
			// folded once here (End is idempotent).
			r.res.AccelBytes += r.fb.Totals().AccelBytes
		}
		r.totals.Scans++
		r.totals.Symbols += int64(r.res.Symbols)
		r.totals.Matches += r.res.Matches
		r.totals.CacheHits += r.res.CacheHits
		r.totals.CacheMisses += r.res.CacheMisses
		r.totals.Flushes += int64(r.res.Flushes)
		r.totals.AccelBytes += r.res.AccelBytes
		if r.thrashed {
			r.totals.Fallbacks++
		}
		if r.res.Grew {
			r.totals.Grows++
		}
		if r.res.Pinned {
			r.totals.Pins++
		}
	}
	return r.res
}

// Totals returns the runner's cumulative counters: every finished scan plus
// the live state of an in-progress one. Folding happens at End and chunk
// boundaries — reading Totals adds no per-byte cost.
func (r *Runner) Totals() Totals {
	t := r.totals
	if !r.ended {
		t.Symbols += int64(r.res.Symbols)
		t.Matches += r.res.Matches
		t.CacheMisses += r.res.CacheMisses
		t.CacheHits += r.cachedSymbols - r.res.CacheMisses
		t.Flushes += int64(r.res.Flushes)
		t.AccelBytes += r.res.AccelBytes
		if r.fb != nil {
			t.AccelBytes += r.fb.Totals().AccelBytes
		}
		if r.thrashed {
			t.Fallbacks++
		}
		if r.res.Grew {
			t.Grows++
		}
		if r.res.Pinned {
			t.Pins++
		}
	}
	return t
}

// miss computes the uncached successor of the current state (or of the
// stream-start pseudo-state) on byte class cls under the table lock, and
// returns its row offset in the table's current generation, with r.snap
// current. It
// returns -1 when the table is full and this scan's flush budget is spent —
// the caller must fall back. A successor that is already cached costs one
// Step into scratch plus an index probe, and allocates nothing; an edge
// another runner computed since this one's snapshot costs no Step at all.
func (r *Runner) miss(cls int, streamStart bool) int32 {
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beginWrite()
	id := r.missLocked(cls, streamStart)
	m.endWrite()
	if r.genID == m.tip.gen.id {
		// Else re-inserting the current state failed, and the fallback
		// reads it from the old snapshot.
		r.snap = m.pub.Load()
	}
	return id
}

func (r *Runner) missLocked(cls int, streamStart bool) int32 {
	m := r.m
	t := &m.tip
	if r.genID != t.gen.id {
		// Flushed since this chunk attached. At the stream start the
		// current state is the restart state, state 0 of every generation.
		if streamStart {
			r.cur, r.genID = 0, t.gen.id
		} else if !r.intern(r.snap.actsOf(r.cur), r.snap.masksOf(r.cur)) {
			return -1
		}
	}
	// The edge's slot is taken afresh at each use: an add may reallocate
	// the rows, and a flush replaces them.
	slot := func() *int32 {
		if streamStart {
			return &t.gen.startRow[cls]
		}
		return &t.rows[int(r.cur)*m.stride+cls]
	}
	if off := *slot(); off >= 0 {
		return off
	}
	var src []uint64
	if !streamStart {
		src = t.liveOf(r.cur)
	}
	next, accept, acceptEnd := m.stepper.Step(m.scratch[:0], src, m.rep[cls], streamStart)
	m.scratch = next
	h := hashVec(next)
	id := m.lookup(next, h)
	if id < 0 {
		m.masks = append(append(m.masks[:0], accept...), acceptEnd...)
		// AllocCap injection: the next insertion behaves as if the state
		// cap had been reached (allocation pressure) without the table
		// actually being full — the flush-or-fallback path verbatim.
		if m.full() || r.cfg.Faults.Hit(faultpoint.AllocCap) {
			if r.res.Flushes >= r.maxFlushes {
				return -1
			}
			r.flush()
			id = m.lookup(next, h) // the carried state may be the successor
		}
		if id < 0 {
			id = m.add(next, h, m.masks)
			m.publish()
		}
	}
	r.res.CacheMisses++
	off := id * int32(m.stride)
	atomic.StoreInt32(slot(), off)
	return off
}

// forceFlush flushes the table on an injected LazyFlush, spending the flush
// budget; it reports false when the budget is spent (the caller falls
// back).
func (r *Runner) forceFlush() bool {
	if r.res.Flushes >= r.maxFlushes {
		return false
	}
	m := r.m
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beginWrite()
	ok := r.genID == m.tip.gen.id || r.intern(r.snap.actsOf(r.cur), r.snap.masksOf(r.cur))
	if ok && r.res.Flushes < r.maxFlushes {
		r.flush()
	}
	m.endWrite()
	if ok {
		r.snap = m.pub.Load()
	}
	return ok
}

// flush starts a new table generation holding the restart state and the
// runner's current state, so its scan continues without replay. Called
// with the lock held and the runner in the current generation.
func (r *Runner) flush() {
	m := r.m
	r.res.Flushes++
	old := m.tip // the old arrays stay intact: a flush allocates fresh ones
	m.newGeneration()
	cur := r.cur
	r.cur, r.genID = 0, m.tip.gen.id
	if st := old.meta[cur]; st.nActs > 0 {
		r.cur = m.add(old.actsOf(cur), st.hash, old.masksOf(cur))
	}
}

// intern makes the runner's current state — pre-pop vector acts with accept
// masks masks, from an older generation — a state of the current one.
// Called with the lock held; it reports false when that needs a flush and
// the scan's budget is spent.
func (r *Runner) intern(acts, masks []uint64) bool {
	m := r.m
	h := hashVec(acts)
	id := m.lookup(acts, h)
	if id < 0 {
		if m.full() {
			if r.res.Flushes >= r.maxFlushes {
				return false
			}
			r.res.Flushes++
			m.newGeneration()
		}
		id = m.add(acts, h, masks)
	}
	r.cur, r.genID = id, m.tip.gen.id
	return true
}

// fallback resumes the iMFAnt engine from the current (post-pop) activation
// vector at absolute offset and feeds it the unconsumed tail of the chunk.
func (r *Runner) fallback(chunk []byte, pos int, final bool) {
	r.res.FellBack = true
	r.res.Thrashed = true
	r.thrashed = true
	r.fb = engine.NewRunner(r.m.p)
	r.fb.Resume(r.fallbackCfg(), engine.Unpack(r.liveVec(), r.m.w), r.offset+pos)
	r.fb.Feed(chunk[pos:], final)
	r.flushPending()
	r.offset += len(chunk)
}

// fallbackCfg configures the iMFAnt engine that finishes a scan (thrash
// fallback or ladder pin) under the table's semantics. The engine carries
// no Checkpoint — this runner's feedSplit polls it.
func (r *Runner) fallbackCfg() engine.Config {
	return engine.Config{KeepOnMatch: r.m.keep, OnMatch: r.emitDedup,
		Profile: r.cfg.Profile, Accel: r.m.accel, Faults: r.cfg.Faults}
}

// emitDedup buffers engine events into a per-offset mask. The engine
// already reports each (FSA, end) once, but in transition order; the mask
// restores the cached path's ascending-FSA order within an offset.
// flushPending emits the buffered offset.
func (r *Runner) emitDedup(fsa, end int) {
	if end != r.fbSeenEnd {
		r.flushPending()
		r.fbSeenEnd = end
	}
	r.fbSeen[fsa>>6] |= 1 << (uint(fsa) & 63)
}

func (r *Runner) flushPending() {
	if r.fbSeenEnd < 0 {
		return
	}
	r.emitMask(r.fbSeen, r.fbSeenEnd)
	for i := range r.fbSeen {
		r.fbSeen[i] = 0
	}
	r.fbSeenEnd = -1
}

func (r *Runner) emitMask(mask []uint64, end int) {
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			r.emitOne(w<<6+bits.TrailingZeros64(m), end)
		}
	}
}

func (r *Runner) emitOne(fsa, end int) {
	r.res.Matches++
	r.res.PerFSA[fsa]++
	if r.cfg.OnMatch != nil {
		r.cfg.OnMatch(fsa, end)
	}
}

// Matches runs m over input and returns every (FSA, end offset) event in
// traversal order. Intended for tests and examples on small inputs.
func Matches(m *Matcher, input []byte, cfg Config) []engine.MatchEvent {
	var out []engine.MatchEvent
	cfg.OnMatch = func(fsa, end int) {
		out = append(out, engine.MatchEvent{FSA: fsa, End: end})
	}
	NewRunner(m).Run(input, cfg)
	return out
}
