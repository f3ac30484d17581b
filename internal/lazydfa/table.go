package lazydfa

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/bytescan"
	"repro/internal/engine"
)

// The shared transition table.
//
// Every Runner of a Matcher reads one table, in the manner of RE2's cached
// DFA: hits take no lock, misses insert under the Matcher's mutex, and a
// flush starts a new generation. The writer only ever appends beyond the
// lengths of what it has published and fills row entries in place with
// atomic stores, so a published snapshot stays valid for as long as a
// reader holds it; a flush allocates fresh arrays instead of truncating the
// old ones, which readers of the old generation keep until their next
// chunk or miss.

// Row layout. A state's row is stride = NumClasses+1 int32 entries: the
// successor of each byte class, then the state's column. Successors are
// row offsets (successor id × stride), -1 while not computed, so the hot
// loop adds the next byte's class to the entry it just loaded — no
// multiply on its critical path. The column holds the state's id above
// colShift and its flag bits below: the one entry the hot loop loads per
// step besides the successor, from the row it is about to index anyway.
const (
	stAccept    int32 = 1 << iota // the state's accept mask is non-zero
	stAcceptEnd                   // its $-anchored accept mask is non-zero
	stAccel                       // the state is accelerable (see classify)

	colFlags = stAccept | stAcceptEnd | stAccel
	colShift = 3
)

// stateMeta locates one cached lazy-DFA state in the table's word arena. A
// state is a canonical pre-pop iMFAnt activation vector with the match
// metadata of every step arriving at it; everything is stored as packed
// vectors (see engine.Unpack) so the table holds no pointers.
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
	// finder indexes the finders table when the state is accelerable.
	finder int32
	hash   uint32 // hashVec of the packed acts
}

// maxArenaWords bounds the word arena so int32 offsets stay valid; a table
// reaching it counts as full.
const maxArenaWords = 1 << 30

// generation is one life of the table, from its build or a flush to the
// next flush. State ids mean something only within their generation.
type generation struct {
	id uint64
	// startRow holds the per-class successors (row offsets) of the
	// stream-start step, -1 = not computed. Read and written atomically.
	startRow []int32
	// latest is the generation's newest snapshot: a reader that loads a
	// state id its own snapshot does not hold yet reloads it from here.
	latest atomic.Pointer[snapshot]
}

// snapshot is a view of one generation: states 0..len(meta)-1 with all
// their data. A published snapshot is never written except for the
// uncomputed (-1) successor entries of rows, which the writer fills with
// atomic stores.
type snapshot struct {
	rows    []int32 // len(meta) rows of stride entries (see the layout above)
	meta    []stateMeta
	words   []uint64 // arena: packed vectors and masks of every state
	finders []bytescan.Finder
	w       int // words per FSA bitset (Program.Words)
	stride  int // row width: NumClasses successors plus the column
	gen     *generation
	stats   TableStats
}

// TableStats are gauges of a Matcher's shared table.
type TableStats struct {
	// States is the number of cached states in the current generation.
	States int
	// AccelStates is the number of those classified as accelerable.
	AccelStates int
	// MaxStates is the table's cap: Options.MaxStates resolved, doubled
	// once if the degradation ladder's grow rung was spent.
	MaxStates int
	// Bytes is the capacity of the table's row, state, word-arena, index,
	// finder and start-row arrays. A flush does not shrink it: the
	// next generation starts at the same capacities.
	Bytes int64
}

// table is the writer side of the shared table; every field but pub is
// guarded by mu.
type table struct {
	mu sync.Mutex
	// pub is the newest snapshot of the newest generation; nil until the
	// first scan builds the table.
	pub atomic.Pointer[snapshot]

	// tip holds the writer's arrays at their full lengths, published by
	// copy.
	tip   snapshot
	index []int32 // open-addressing slots over tip.meta[].hash, -1 = empty
	gens  uint64  // generations started
	// The stepper computes every miss and classification; scratch receives
	// a miss's successor, probe the classification steps, and masks a
	// miss's accept masks (a flush's classification would clobber the
	// Stepper's own); zeroMasks are the restart state's.
	stepper                          *engine.Stepper
	scratch, probe, masks, zeroMasks []uint64
	maxStates                        int
	grown                            bool // the grow rung doubled maxStates
	accelStates                      int
	// torn is set while a writer mutates the table: a writer that panicked
	// mid-update leaves it set, and the next one starts a new generation
	// rather than build on half-added state.
	torn bool
}

// current returns the newest published snapshot, building the table on
// first use.
func (m *Matcher) current() *snapshot {
	if s := m.pub.Load(); s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.pub.Load(); s == nil {
		m.stepper = engine.NewStepper(m.p)
		m.zeroMasks = make([]uint64, 2*m.w)
		m.tip.w, m.tip.stride = m.w, m.stride
		m.newGeneration()
		m.publish()
	}
	return m.pub.Load()
}

// Stats returns the table's gauges. O(1) and lock-free.
func (m *Matcher) Stats() TableStats {
	if s := m.pub.Load(); s != nil {
		return s.stats
	}
	return TableStats{MaxStates: m.cap0}
}

// beginWrite is called with mu held before a writer mutates the table;
// endWrite marks the mutation complete.
func (m *Matcher) beginWrite() {
	if m.torn {
		m.newGeneration()
	}
	m.torn = true
}

func (m *Matcher) endWrite() {
	m.publish()
	m.torn = false
}

// grow spends the degradation ladder's grow rung: it doubles the table's
// cap, at most once per Matcher.
func (m *Matcher) grow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.grown {
		m.grown = true
		m.maxStates *= 2
		if m.tip.gen != nil {
			m.publish()
		}
	}
}

// full reports whether the next insertion needs a flush. Row offsets must
// stay int32.
func (m *Matcher) full() bool {
	return len(m.tip.meta) >= m.maxStates || len(m.tip.words) > maxArenaWords ||
		len(m.tip.rows) > math.MaxInt32-m.stride
}

// newGeneration flushes the table (RE2-style): a new generation with fresh
// arrays of the old capacities, holding only state 0, the restart state
// (the empty activation vector). Readers of the old generation keep its
// arrays until they next synchronise.
func (m *Matcher) newGeneration() {
	m.gens++
	g := &generation{id: m.gens, startRow: make([]int32, m.nc)}
	for i := range g.startRow {
		g.startRow[i] = -1
	}
	t := &m.tip
	t.gen = g
	t.rows = make([]int32, 0, cap(t.rows))
	t.meta = make([]stateMeta, 0, cap(t.meta))
	t.words = make([]uint64, 0, cap(t.words))
	t.finders = make([]bytescan.Finder, 0, cap(t.finders))
	for i := range m.index {
		m.index[i] = -1
	}
	m.accelStates = 0
	m.add(nil, hashVec(nil), m.zeroMasks)
}

// publish makes the tip visible to readers when it changed since the last
// publication. It must precede every row store naming a new state.
func (m *Matcher) publish() {
	t := &m.tip
	if s := m.pub.Load(); s != nil && s.gen == t.gen && len(s.meta) == len(t.meta) &&
		s.stats.MaxStates == m.maxStates {
		return
	}
	s := new(snapshot)
	*s = *t
	s.stats = TableStats{States: len(t.meta), AccelStates: m.accelStates, MaxStates: m.maxStates,
		Bytes: int64(cap(t.rows))*4 +
			int64(cap(t.meta))*int64(unsafe.Sizeof(stateMeta{})) + int64(cap(t.words))*8 +
			int64(cap(m.index))*4 + int64(cap(t.finders))*int64(unsafe.Sizeof(bytescan.Finder{})) +
			int64(len(t.gen.startRow))*4}
	t.gen.latest.Store(s)
	m.pub.Store(s)
}

// add caches the state of packed pre-pop vector acts (hash h) with its
// accept and acceptEnd masks (masks, 2·Words words) and returns its id,
// growing the row table by one row of uncomputed successors. Neither acts
// nor masks may alias the tip's word arena.
func (m *Matcher) add(acts []uint64, h uint32, masks []uint64) int32 {
	t := &m.tip
	id := int32(len(t.meta))
	st := stateMeta{acts: int32(len(t.words)), nActs: int32(len(acts)), hash: h}
	t.words = append(t.words, acts...)
	st.live, st.nLive = st.acts, st.nActs
	if !m.keep {
		n := len(t.words)
		var popped bool
		if t.words, popped = m.stepper.Pop(t.words, acts); popped {
			st.live, st.nLive = int32(n), int32(len(t.words)-n)
		}
	}
	st.masks = int32(len(t.words))
	t.words = append(t.words, masks...)
	f := id << colShift
	for w, mk := range masks {
		if mk == 0 {
			continue
		}
		if w < m.w {
			f |= stAccept
		} else {
			f |= stAcceptEnd
		}
	}
	t.meta = append(t.meta, st)
	for i := 0; i < m.nc; i++ {
		t.rows = append(t.rows, -1)
	}
	t.rows = append(t.rows, f)
	m.insert(id)
	m.classify(id)
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
func (m *Matcher) classify(id int32) {
	t := &m.tip
	if !m.accel || t.col(id)&stAccept != 0 ||
		int(t.meta[id].nActs) > maxAccelActs*(1+m.w) {
		return
	}
	var live [bytescan.MaxNeedles]byte
	n := 0
	rowBase := int(id) * m.stride
	for cls := 0; cls < m.nc; cls++ {
		m.probe, _, _ = m.stepper.Step(m.probe[:0], t.liveOf(id), m.rep[cls], false)
		if slices.Equal(m.probe, t.actsOf(id)) {
			t.rows[rowBase+cls] = int32(rowBase)
			continue
		}
		bs := m.classBytes[cls]
		if n+len(bs) > bytescan.MaxNeedles {
			return
		}
		n += copy(live[n:], bs)
	}
	if f, ok := bytescan.NewFinder(live[:n]); ok {
		t.meta[id].finder = int32(len(t.finders))
		t.finders = append(t.finders, f)
		t.rows[rowBase+m.nc] |= stAccel
		m.accelStates++
	}
}

// col returns state id's column: its id and flag bits.
func (s *snapshot) col(id int32) int32 {
	return s.rows[(int(id)+1)*s.stride-1]
}

// actsOf and liveOf return the packed pre-pop and live vectors of state id;
// masksOf its accept and acceptEnd masks, acceptOf and acceptEndOf each
// alone. All alias the snapshot's word arena.
func (s *snapshot) actsOf(id int32) []uint64 {
	st := &s.meta[id]
	return s.words[st.acts : st.acts+st.nActs]
}

func (s *snapshot) liveOf(id int32) []uint64 {
	st := &s.meta[id]
	return s.words[st.live : st.live+st.nLive]
}

func (s *snapshot) masksOf(id int32) []uint64 {
	m := int(s.meta[id].masks)
	return s.words[m : m+2*s.w]
}

func (s *snapshot) acceptOf(id int32) []uint64 {
	m := int(s.meta[id].masks)
	return s.words[m : m+s.w]
}

func (s *snapshot) acceptEndOf(id int32) []uint64 {
	m := int(s.meta[id].masks) + s.w
	return s.words[m : m+s.w]
}

func (s *snapshot) finderOf(id int32) *bytescan.Finder {
	return &s.finders[s.meta[id].finder]
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

// lookup returns the id of the tip's state whose packed pre-pop vector is
// vec (hash h), or -1.
func (m *Matcher) lookup(vec []uint64, h uint32) int32 {
	mask := len(m.index) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		id := m.index[i]
		if id < 0 || m.tip.meta[id].hash == h && slices.Equal(m.tip.actsOf(id), vec) {
			return id
		}
	}
}

// insert indexes the just-appended state id, doubling the index (and
// reinserting every state) when it would pass half full. The index is a
// power of two wide, so a linear probe always finds an empty slot.
func (m *Matcher) insert(id int32) {
	if 2*len(m.tip.meta) > len(m.index) {
		m.index = make([]int32, max(16, 2*len(m.index)))
		for i := range m.index {
			m.index[i] = -1
		}
		for k := range m.tip.meta {
			m.place(int32(k))
		}
		return
	}
	m.place(id)
}

func (m *Matcher) place(id int32) {
	mask := len(m.index) - 1
	i := int(m.tip.meta[id].hash) & mask
	for m.index[i] >= 0 {
		i = (i + 1) & mask
	}
	m.index[i] = id
}
