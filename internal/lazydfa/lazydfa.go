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
// When the cache fills, the whole table is flushed (RE2-style) and rebuilt
// from the current vector; inputs that keep flushing fall back transparently
// to the iMFAnt engine.Runner for the rest of the stream, resumed from the
// exact mid-stream (post-pop) activation vector.
//
// Match events are reported once per (FSA, end offset), in ascending FSA
// order at each offset. The distinct (FSA, end) sets are identical to the
// iMFAnt engine's under the same semantics, regardless of cache size,
// flushes, or fallback.
package lazydfa

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/bytescan"
	"repro/internal/engine"
	"repro/internal/faultpoint"
)

// Defaults for Config fields left zero.
const (
	// DefaultMaxStates bounds the cached DFA states per runner. With a
	// 256-class worst-case alphabet this caps the transition table at
	// 4 MiB of row storage.
	DefaultMaxStates = 4096
	// DefaultMaxFlushes is the number of cache flushes tolerated per
	// stream before the runner concludes the input thrashes the cache and
	// falls back to the iMFAnt engine.
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

// Config tunes one lazy-DFA scan.
type Config struct {
	// MaxStates caps the cached DFA states; 0 selects DefaultMaxStates,
	// values below the structural minimum of 3 are raised to it.
	MaxStates int
	// MaxFlushes caps whole-cache flushes per stream before falling back
	// to the iMFAnt engine; 0 selects DefaultMaxFlushes, negative values
	// disable flushing (fallback on the first full cache).
	MaxFlushes int
	// KeepOnMatch mirrors engine.Config.KeepOnMatch: false (the zero
	// value) runs the paper's Eq. 5 pop. Both semantics are cached;
	// toggling it between scans rebuilds the cache (the successor rows
	// differ).
	KeepOnMatch bool
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
	// Accel enables state acceleration: every cached DFA state is
	// classified at construction time, and a state whose live outgoing
	// byte set is small (≤ 4 distinct bytes; every other byte provably
	// self-loops back to it without emitting) lets the run loop jump with
	// a bytescan kernel straight to the next live byte instead of stepping
	// the transition table once per byte. Results are byte-identical with
	// acceleration on or off; toggling it between scans rebuilds the cache
	// (classification is part of a cached state). The iMFAnt fallback
	// inherits the setting as its own start-byte skip.
	Accel bool
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
	// CachedStates is the number of distinct DFA states cached at stream
	// end (after the last flush, if any).
	CachedStates int
	// Flushes counts whole-cache flushes during the scan.
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
	// (Config.Accel) rather than stepped one at a time — on the cached
	// path and, via the start-byte skip, on the iMFAnt fallback. Jumped
	// bytes still count in Symbols and as cache hits: they were matched
	// against, just in bulk.
	AccelBytes int64
	// AccelStates is the number of currently cached states classified as
	// accelerable (a gauge over the live cache, like CachedStates).
	AccelStates int
	// Grew reports that this scan ran with the cache cap doubled by the
	// degradation ladder after the previous scan thrashed.
	Grew bool
	// Pinned reports that this scan was delegated whole to the iMFAnt
	// engine because the ladder is out of rungs: the traffic thrashed the
	// grown cache too. Pinned implies FellBack (but not Thrashed — the
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
	// Flushes counts whole-cache flushes.
	Flushes int64
	// Fallbacks counts scans abandoned to the iMFAnt engine because the
	// input thrashed the cache. Ladder pins are counted in Pins instead.
	Fallbacks int64
	// AccelBytes aggregates the per-scan accelerated-jump byte counters.
	AccelBytes int64
	// Grows counts scans retried with a doubled cache cap after a thrash;
	// at most 1 per Runner lifetime — the ladder has one grow rung.
	Grows int64
	// Pins counts scans delegated whole to the iMFAnt engine because the
	// ladder bottomed out (thrash at the grown cap).
	Pins int64
}

// Matcher is the shareable lazy-DFA form of one engine.Program: the program
// plus its compressed byte-class alphabet, and a bounded pool of idle
// Runners whose transition caches stay warm between the scans that check
// them out (Get, Put). The Matcher is safe for concurrent use; each Runner
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
	classBytes [][]byte

	poolMu sync.Mutex
	pool   []*Runner // idle runners, at most GOMAXPROCS
}

// New builds a Matcher over p. Its runner pool starts empty.
func New(p *engine.Program) *Matcher {
	classOf, nc := p.ByteClasses()
	m := &Matcher{p: p, classOf: classOf, nc: nc, rep: make([]byte, nc),
		classBytes: make([][]byte, nc)}
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

// Get checks a Runner out of the pool, or returns a new one with an empty
// cache when the pool is empty. A pooled runner keeps the transition cache
// an earlier checkout built; its Totals restart from zero, so they count
// this checkout only. Hand the runner back with Put once its scan or stream
// has ended.
func (m *Matcher) Get() *Runner {
	m.poolMu.Lock()
	n := len(m.pool)
	if n == 0 {
		m.poolMu.Unlock()
		return NewRunner(m)
	}
	r := m.pool[n-1]
	m.pool[n-1] = nil
	m.pool = m.pool[:n-1]
	m.poolMu.Unlock()
	r.totals = Totals{}
	return r
}

// Put returns a runner checked out with Get to the pool. A runner the
// degradation ladder touched — its last scan thrashed, or its cache cap grew,
// or it was pinned to the iMFAnt engine — is dropped instead, so the ladder
// and the flush budget start afresh with every checkout; so is a runner
// that would take the pool beyond GOMAXPROCS idle runners. A runner whose
// scan panicked must never be Put: its cache may be half-updated.
func (m *Matcher) Put(r *Runner) {
	if r.thrashed || r.grown || r.permanent {
		return
	}
	// Drop the references of the last scan: its callbacks (and whatever
	// they capture) and a fallback engine runner must not be retained.
	r.cfg, r.fb, r.res = Config{}, nil, Result{}
	m.poolMu.Lock()
	if len(m.pool) < runtime.GOMAXPROCS(0) {
		m.pool = append(m.pool, r)
	}
	m.poolMu.Unlock()
}

// Per-state flag bits (Runner.flags): the one byte the hot loop loads per
// step besides the transition row.
const (
	stAccept    uint8 = 1 << iota // the state's accept mask is non-zero
	stAcceptEnd                   // its $-anchored accept mask is non-zero
	stAccel                       // the state is accelerable (see classify)
)

// stateMeta locates one cached lazy-DFA state in the runner's word arena.
// A state is a canonical pre-pop iMFAnt activation vector with the match
// metadata of every step arriving at it; everything is stored as packed
// vectors (see engine.Unpack) so the cache holds no pointers.
type stateMeta struct {
	// acts is the packed pre-pop vector, the cache key. live is the vector
	// the iMFAnt runner holds after the step — Pop(acts) in pop mode, acts
	// itself in keep mode or when nothing pops (then both share words) — and
	// is what successors are stepped from, what Frontier and the fallback
	// hand over, and what the profiler samples. Word offsets and lengths.
	acts, nActs, live, nLive int32
	// masks is the word offset of the accept mask (FSAs matching on any
	// arrival at this state) followed by the acceptEnd mask ($-anchored
	// FSAs matching only when the arriving symbol ends the stream), each
	// Words words.
	masks int32
	// finder indexes Runner.finders when the state is accelerable.
	finder int32
	hash   uint32 // hashVec of the packed acts
}

// maxArenaWords bounds the word arena so int32 offsets stay valid; a cache
// reaching it counts as full.
const maxArenaWords = 1 << 30

// Runner executes scans over one Matcher. The transition cache persists
// across scans (Begin does not clear it), so repeated scans of similar
// traffic run warm. It is pointer-free: states live packed in one word
// arena, looked up through an open-addressing index over their hashes, so
// a retained cache costs the garbage collector nothing to scan and a miss
// that lands on an already-cached state allocates nothing.
//
// Runners come from NewRunner (the caller owns the runner and its cache for
// good — a Scanner keeps one per group) or from Matcher.Get (the cache is
// borrowed from the Matcher's pool and returned with Matcher.Put). The
// flush budget applies per scan, the degradation ladder per runner lifetime
// — for a pooled runner, per checkout. A Runner is not safe for concurrent
// use.
type Runner struct {
	m       *Matcher
	stepper *engine.Stepper

	// Hot cache fields, read per input byte.
	rows     []int32 // len(meta)·nc successor ids, -1 = not computed
	flags    []uint8 // per state: stAccept | stAcceptEnd | stAccel
	startRow []int32 // per-class successor of the stream-start step
	cur      int32

	// The rest of the cache, read on misses, emissions and accelerated
	// jumps.
	meta    []stateMeta
	words   []uint64 // arena: packed vectors and masks of every state
	index   []int32  // open-addressing slots over meta[].hash, -1 = empty
	finders []bytescan.Finder
	w       int // words per FSA bitset (Program.Words)
	// Step scratch: scratch receives a miss's successor, probe the
	// classification steps, carry the state preserved across a flush, and
	// masks a miss's accept masks (a flush's classification would clobber
	// the Stepper's own); zeroMasks are the restart state's.
	scratch, probe, carry, masks, zeroMasks []uint64

	cfg        Config
	res        Result
	offset     int
	maxStates  int
	maxFlushes int
	stop       error // non-nil: scan cancelled by a Checkpoint failure
	// accelOn and keepOn mirror the Config.Accel and Config.KeepOnMatch
	// the cache was built under; a toggle of either rebuilds the cache, so
	// every cached state is (re)classified and its successor rows follow
	// the scan's semantics.
	accelOn, keepOn bool
	// accelStates counts currently cached accelerable states (gauge).
	accelStates int

	// Fallback state: fb non-nil routes everything to the iMFAnt engine.
	fb        *engine.Runner
	fbSeenEnd int
	fbSeen    []uint64

	// Cold state below: touched at chunk boundaries and scan edges only,
	// kept after the hot cache fields so it does not displace them.

	// Held-byte stream-end handling, mirroring engine.Runner: the most
	// recent byte of every non-final Feed is held back so a stream end
	// announced later (Feed(nil, true) or End) still has a byte to carry
	// the $-anchored accepts.
	held    [1]byte
	hasHeld bool

	// thrashed records that this scan's fallback was a cache defeat (as
	// opposed to a ladder pin). Begin then rebuilds the cache: the
	// table is at capacity with traffic that defeated it, so the next
	// scan would flush on its first miss anyway — a clean rebuild is
	// cheaper and leaves no half-stale table behind.
	thrashed bool
	// Degradation-ladder state, runner lifetime (see Begin):
	// grown records the one-shot cache grow has been spent (grownCap is
	// the doubled cap it selected); permanent pins every further scan to
	// the iMFAnt engine.
	grown     bool
	grownCap  int
	permanent bool
	ended     bool // End already folded this scan into totals
	profFill  int  // symbols fed since the last profiler sample
	// cachedSymbols counts bytes executed through the cached hot loop
	// this scan (chunk granularity); CacheHits = cachedSymbols − misses.
	cachedSymbols int64
	totals        Totals
}

// NewRunner returns an execution context with an empty cache, owned by the
// caller (see Matcher.Get for a pooled one).
func NewRunner(m *Matcher) *Runner {
	W := m.p.Words()
	r := &Runner{
		m:         m,
		stepper:   engine.NewStepper(m.p),
		startRow:  make([]int32, m.nc),
		w:         W,
		zeroMasks: make([]uint64, 2*W),
		fbSeen:    make([]uint64, W),
		fbSeenEnd: -1,
	}
	r.resetCache()
	return r
}

// Run scans input as one whole stream.
func (r *Runner) Run(input []byte, cfg Config) Result {
	r.Begin(cfg)
	r.Feed(input, true)
	return r.End()
}

// Begin starts a (possibly chunked) scan. The transition cache survives
// from previous scans unless the configured MaxStates changed or the
// previous scan ended in a thrash fallback, both of which rebuild it.
func (r *Runner) Begin(cfg Config) {
	cfg.MaxStates = ResolveMaxStates(cfg.MaxStates)
	switch {
	case cfg.MaxFlushes == 0:
		cfg.MaxFlushes = DefaultMaxFlushes
	case cfg.MaxFlushes < 0:
		cfg.MaxFlushes = 0
	}
	// Degradation ladder: a thrash on the previous scan spends the
	// one-shot grow rung (double the cap and retry the cached path); a
	// thrash at the grown cap pins the runner to the iMFAnt engine — the
	// traffic has defeated both caps, so rebuilding the cache every scan
	// would only add churn on top of the fallback it always ends in.
	var grew bool
	if r.thrashed && !r.permanent {
		if !r.grown {
			r.grown = true
			r.grownCap = 2 * cfg.MaxStates
			grew = true
		} else {
			r.permanent = true
		}
	}
	if r.grown && !r.permanent {
		cfg.MaxStates = r.grownCap
	}
	rebuild := (cfg.MaxStates != r.maxStates && r.maxStates != 0) ||
		r.thrashed || cfg.Accel != r.accelOn || cfg.KeepOnMatch != r.keepOn
	// Before resetCache, so state 0 is classified under the new modes.
	r.accelOn, r.keepOn = cfg.Accel, cfg.KeepOnMatch
	if rebuild {
		r.resetCache() // cache shaped by the old cap/modes or thrashed
	}
	r.thrashed = false
	r.maxStates = cfg.MaxStates
	r.maxFlushes = cfg.MaxFlushes
	r.cfg = cfg
	r.res = Result{PerFSA: make([]int64, r.m.p.NumFSAs()), Grew: grew}
	r.offset = 0
	r.cur = 0
	r.stop = nil
	r.hasHeld = false
	r.ended = false
	r.cachedSymbols = 0
	r.profFill = 0
	r.fb = nil
	r.fbSeenEnd = -1
	for i := range r.fbSeen {
		r.fbSeen[i] = 0
	}
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

// BeginAt starts a chunked scan mid-stream: like Begin, but the scan's
// first byte sits at absolute stream offset. The ^-anchored inits never
// fire (they belong to offset 0), reported match offsets are absolute, and
// the cached path keys its first step off the ordinary transition rows
// instead of the stream-start row — a fresh scan that simply is not at the
// head of the stream. This is the speculative-worker entry point of
// segmented scanning. BeginAt(cfg, 0) is identical to Begin(cfg).
func (r *Runner) BeginAt(cfg Config, offset int) {
	r.Begin(cfg)
	if offset == 0 {
		return
	}
	r.offset = offset
	if r.fb != nil {
		// Begin started the ladder-pinned delegate at offset 0; re-resume
		// it at the true offset.
		r.fb.Resume(r.fallbackCfg(), nil, offset)
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
	return engine.Unpack(r.liveOf(r.cur), r.w)
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

// feedChunk is the uninterruptible Feed body. Profiled scans on the cached
// path route through feedProfiled, which replays the same body in
// stride-sized blocks; once the scan is on an engine fallback the fallback
// runner profiles itself (its Config carries the same Profile).
func (r *Runner) feedChunk(chunk []byte, final bool) {
	if r.cfg.Faults != nil && r.fb == nil {
		// Once on a fallback the engine runner (armed with the same
		// injector) stalls its own chunks; stalling here too would count
		// the site twice per chunk.
		r.cfg.Faults.Stall()
	}
	if r.cfg.Profile != nil && r.fb == nil {
		r.feedProfiled(chunk, final)
		return
	}
	r.feedBody(chunk, final)
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
		if r.accelOn && r.offset > 0 {
			jumpEnd := len(chunk)
			if final {
				jumpEnd-- // the true last byte always steps normally
			}
			if jumpEnd > 0 {
				if r.flags[r.cur]&stAccel != 0 {
					j := r.finderOf(r.cur).Index(chunk[:jumpEnd])
					if j < 0 {
						j = jumpEnd
					}
					if j > 0 {
						pr.SamplePacked(r.liveOf(r.cur), int64((r.profFill+j)/stride))
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
		pr.SamplePacked(r.liveOf(r.cur), 1)
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
		if in.Hit(faultpoint.LazyFlush) {
			if r.res.Flushes >= r.maxFlushes {
				r.fallback(chunk, 0, final)
				return
			}
			r.flush()
		}
	}
	nc := r.m.nc
	classOf := &r.m.classOf
	base := r.offset
	last := len(chunk) - 1
	// jumpEnd bounds accelerated jumps: the true last byte of the stream is
	// always stepped normally, so a parked state's $-anchored accepts
	// (acceptEnd) still fire on it — a jump may not cross the stream-end
	// bookkeeping.
	jumpEnd := len(chunk)
	if final {
		jumpEnd--
	}
	pos := 0
	cur := r.cur
	if r.accelOn && base > 0 && jumpEnd > 0 && r.flags[cur]&stAccel != 0 {
		// The state parked across the chunk boundary is accelerable: hunt
		// its live bytes from the first byte of the chunk. Stream byte 0 is
		// exempt (base > 0) — its step also enables the ^-anchored inits,
		// which classification does not model.
		j := r.finderOf(cur).Index(chunk[:jumpEnd])
		if j < 0 {
			j = jumpEnd
		}
		r.res.AccelBytes += int64(j)
		pos = j
	}
	// The loop keeps the row and flag tables in locals; a miss may grow
	// (reallocate) them, and a flush renumbers the current state, so both
	// are reloaded after every miss.
	rows, flags := r.rows, r.flags
	for ; pos < len(chunk); pos++ {
		cls := int(classOf[chunk[pos]])
		var next int32
		if base+pos == 0 {
			// The stream's first step also enables the ^-anchored
			// inits; its successors live in a dedicated row.
			if next = r.startRow[cls]; next < 0 {
				next = r.miss(cls, true)
				rows, flags = r.rows, r.flags
			}
		} else if next = rows[int(cur)*nc+cls]; next < 0 {
			r.cur = cur
			next = r.miss(cls, false)
			rows, flags = r.rows, r.flags
		}
		if next < 0 {
			// Cache thrash: hand the rest of the stream to iMFAnt,
			// resumed from the current activation vector. Only the
			// bytes before the thrashing one ran out of the cache.
			r.cachedSymbols += int64(pos)
			r.fallback(chunk, pos, final)
			return
		}
		cur = next
		f := flags[next]
		if f == 0 {
			continue
		}
		if f&stAccept != 0 {
			r.emitMask(r.acceptOf(next), base+pos)
		}
		if final && pos == last && f&stAcceptEnd != 0 {
			r.emitMask(r.acceptEndOf(next), base+pos)
		}
		if f&stAccel != 0 && pos+1 < jumpEnd {
			// Arrived in an accelerable state: every byte outside its
			// needle set self-loops without emitting, so jump straight to
			// the next needle (or the jump bound). Skipped bytes count as
			// cache hits — they were matched, in bulk.
			rest := chunk[pos+1 : jumpEnd]
			j := r.finderOf(next).Index(rest)
			if j < 0 {
				j = len(rest)
			}
			r.res.AccelBytes += int64(j)
			pos += j
		}
	}
	r.cur = cur
	r.cachedSymbols += int64(len(chunk))
	r.offset += len(chunk)
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
	r.res.CachedStates = len(r.meta)
	r.res.AccelStates = r.accelStates
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

// CachedStates returns the current number of cached DFA states — the live
// size of the transition table, bounded by MaxStates.
func (r *Runner) CachedStates() int { return len(r.meta) }

// CacheBytes returns the bytes held by the runner's transition cache: the
// capacities of its row, flag, state, word-arena, index and finder tables.
// O(1); like CachedStates a gauge, which a flush does not shrink (the
// tables keep their capacity for reuse).
func (r *Runner) CacheBytes() int64 {
	return int64(cap(r.rows))*4 + int64(cap(r.flags)) +
		int64(cap(r.meta))*int64(unsafe.Sizeof(stateMeta{})) + int64(cap(r.words))*8 +
		int64(cap(r.index))*4 + int64(cap(r.finders))*int64(unsafe.Sizeof(bytescan.Finder{})) +
		int64(cap(r.startRow))*4
}

// AccelStates returns the number of currently cached states classified as
// accelerable — like CachedStates, a gauge over the live transition table.
func (r *Runner) AccelStates() int { return r.accelStates }

// MaxStates returns the resolved cache cap of the current (or most recent)
// scan; 0 before the first Begin.
func (r *Runner) MaxStates() int { return r.maxStates }

// ResolveMaxStates normalizes a Config.MaxStates value to the cap a scan
// actually runs with: 0 (or negative) selects DefaultMaxStates and values
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

// miss computes the uncached successor of the current state (or of the
// stream-start pseudo-state) on byte class cls, caching and returning its
// id. It returns -1 when the cache is full and the flush budget is spent —
// the caller must fall back. A successor that is already cached costs one
// Step into scratch plus an index probe, and allocates nothing.
func (r *Runner) miss(cls int, streamStart bool) int32 {
	var src []uint64
	if !streamStart {
		src = r.liveOf(r.cur)
	}
	next, accept, acceptEnd := r.stepper.Step(r.scratch[:0], src, r.m.rep[cls], streamStart)
	r.scratch = next
	h := hashVec(next)
	id := r.lookup(next, h)
	if id < 0 {
		r.masks = append(append(r.masks[:0], accept...), acceptEnd...)
		// AllocCap injection: the next insertion behaves as if the state
		// cap had been reached (allocation pressure) without the cache
		// actually being full — the flush-or-fallback path verbatim.
		if len(r.meta) >= r.maxStates || len(r.words) > maxArenaWords ||
			r.cfg.Faults.Hit(faultpoint.AllocCap) {
			if r.res.Flushes >= r.maxFlushes {
				return -1
			}
			r.flush()
		}
		id = r.add(next, h, r.masks)
	}
	r.res.CacheMisses++
	if streamStart {
		r.startRow[cls] = id
	} else {
		r.rows[int(r.cur)*r.m.nc+cls] = id
	}
	return id
}

// flush drops the whole cache (RE2-style) and reseeds it with the restart
// state and the current state, so the scan continues without replay.
func (r *Runner) flush() {
	r.res.Flushes++
	st := r.meta[r.cur]
	// The current state's words live in the arena resetCache truncates.
	r.carry = append(append(r.carry[:0], r.actsOf(r.cur)...), r.words[st.masks:int(st.masks)+2*r.w]...)
	r.resetCache()
	if st.nActs > 0 {
		r.cur = r.add(r.carry[:st.nActs], st.hash, r.carry[st.nActs:])
	}
}

// resetCache empties the transition table and re-inserts state 0, the
// restart state (the empty activation vector). The tables keep their
// capacity.
func (r *Runner) resetCache() {
	r.rows = r.rows[:0]
	r.flags = r.flags[:0]
	r.meta = r.meta[:0]
	r.words = r.words[:0]
	r.finders = r.finders[:0]
	for i := range r.index {
		r.index[i] = -1
	}
	for i := range r.startRow {
		r.startRow[i] = -1
	}
	r.accelStates = 0
	r.add(nil, hashVec(nil), r.zeroMasks)
	r.cur = 0
}

// add caches the state of packed pre-pop vector acts (hash h) with its
// accept and acceptEnd masks (masks, 2·Words words) and returns its id,
// growing the row table by one uncomputed row. Neither acts nor masks may
// alias the word arena.
func (r *Runner) add(acts []uint64, h uint32, masks []uint64) int32 {
	id := int32(len(r.meta))
	st := stateMeta{acts: int32(len(r.words)), nActs: int32(len(acts)), hash: h}
	r.words = append(r.words, acts...)
	st.live, st.nLive = st.acts, st.nActs
	if !r.keepOn {
		n := len(r.words)
		var popped bool
		if r.words, popped = r.stepper.Pop(r.words, acts); popped {
			st.live, st.nLive = int32(n), int32(len(r.words)-n)
		}
	}
	st.masks = int32(len(r.words))
	r.words = append(r.words, masks...)
	var f uint8
	for w, m := range masks {
		if m == 0 {
			continue
		}
		if w < r.w {
			f |= stAccept
		} else {
			f |= stAcceptEnd
		}
	}
	r.meta = append(r.meta, st)
	r.flags = append(r.flags, f)
	for i := 0; i < r.m.nc; i++ {
		r.rows = append(r.rows, -1)
	}
	r.insert(id)
	r.classify(id)
	return id
}

// classify decides, once, whether the freshly cached state id is accelerable:
// a state with no unconditional accepts whose live outgoing byte set — the
// bytes whose step leaves the activation vector — fits a bytescan.Finder
// (≤ bytescan.MaxNeedles distinct bytes). Every other byte provably steps
// the vector back to itself; since the state has no accepts, those arrivals
// emit nothing (the self-loop successor's accept mask equals the state's
// own, which is zero), so the run loop may jump straight to the next live
// byte. $-anchored accepts need no gate here: the jump bound in feedBody
// keeps the stream's true last byte on the stepped path. Probing is valid
// per byte class because all bytes of a class enable identical transition
// lists. Dead-class successor rows are prefilled as a side effect — the
// Step that proved them self-loops already paid for them.
func (r *Runner) classify(id int32) {
	if !r.accelOn || r.flags[id]&stAccept != 0 ||
		int(r.meta[id].nActs) > maxAccelActs*(1+r.w) {
		return
	}
	var live [bytescan.MaxNeedles]byte
	n := 0
	rowBase := int(id) * r.m.nc
	for cls := 0; cls < r.m.nc; cls++ {
		r.probe, _, _ = r.stepper.Step(r.probe[:0], r.liveOf(id), r.m.rep[cls], false)
		if slices.Equal(r.probe, r.actsOf(id)) {
			r.rows[rowBase+cls] = id
			continue
		}
		bs := r.m.classBytes[cls]
		if n+len(bs) > bytescan.MaxNeedles {
			return
		}
		n += copy(live[n:], bs)
	}
	if f, ok := bytescan.NewFinder(live[:n]); ok {
		r.meta[id].finder = int32(len(r.finders))
		r.finders = append(r.finders, f)
		r.flags[id] |= stAccel
		r.accelStates++
	}
}

// actsOf and liveOf return the packed pre-pop and live vectors of state
// id; acceptOf and acceptEndOf its match masks. All alias the word arena
// and are valid until the next add or flush.
func (r *Runner) actsOf(id int32) []uint64 {
	st := &r.meta[id]
	return r.words[st.acts : st.acts+st.nActs]
}

func (r *Runner) liveOf(id int32) []uint64 {
	st := &r.meta[id]
	return r.words[st.live : st.live+st.nLive]
}

func (r *Runner) acceptOf(id int32) []uint64 {
	m := int(r.meta[id].masks)
	return r.words[m : m+r.w]
}

func (r *Runner) acceptEndOf(id int32) []uint64 {
	m := int(r.meta[id].masks) + r.w
	return r.words[m : m+r.w]
}

func (r *Runner) finderOf(id int32) *bytescan.Finder {
	return &r.finders[r.meta[id].finder]
}

// hashVec hashes a packed vector for the cache index.
func hashVec(v []uint64) uint32 {
	h := uint64(len(v))
	for _, w := range v {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return uint32(h)
}

// lookup returns the id of the cached state whose packed pre-pop vector is
// vec (hash h), or -1.
func (r *Runner) lookup(vec []uint64, h uint32) int32 {
	mask := len(r.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		id := r.index[i]
		if id < 0 || r.meta[id].hash == h && slices.Equal(r.actsOf(id), vec) {
			return id
		}
	}
}

// insert indexes the just-appended state id, doubling the index (and
// reinserting every state) when it would pass half full. The index is a
// power of two wide, so a linear probe always finds an empty slot.
func (r *Runner) insert(id int32) {
	if 2*len(r.meta) > len(r.index) {
		r.index = make([]int32, max(16, 2*len(r.index)))
		for i := range r.index {
			r.index[i] = -1
		}
		for k := range r.meta {
			r.place(int32(k))
		}
		return
	}
	r.place(id)
}

func (r *Runner) place(id int32) {
	mask := len(r.index) - 1
	i := int(r.meta[id].hash) & mask
	for r.index[i] >= 0 {
		i = (i + 1) & mask
	}
	r.index[i] = id
}

// fallback resumes the iMFAnt engine from the current (post-pop) activation
// vector at absolute offset and feeds it the unconsumed tail of the chunk.
func (r *Runner) fallback(chunk []byte, pos int, final bool) {
	r.res.FellBack = true
	r.res.Thrashed = true
	r.thrashed = true
	r.fb = engine.NewRunner(r.m.p)
	r.fb.Resume(r.fallbackCfg(), engine.Unpack(r.liveOf(r.cur), r.w), r.offset+pos)
	r.fb.Feed(chunk[pos:], final)
	r.flushPending()
	r.offset += len(chunk)
}

// fallbackCfg configures the iMFAnt engine that finishes a scan (thrash
// fallback or ladder pin) under the scan's own semantics. The engine
// carries no Checkpoint — this runner's feedSplit polls it.
func (r *Runner) fallbackCfg() engine.Config {
	return engine.Config{KeepOnMatch: r.cfg.KeepOnMatch, OnMatch: r.emitDedup,
		Profile: r.cfg.Profile, Accel: r.cfg.Accel, Faults: r.cfg.Faults}
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
