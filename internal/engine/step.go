package engine

import "slices"

// Activation is one (state, J-set) entry of an iMFAnt state vector: J is the
// set of merged FSAs still valid on some path reaching State, one bitset
// word per 64 FSAs (Program.Words words). The full vector — a set of
// Activations — is the complete traversal state of the engine between two
// symbols, which makes it the natural state of a determinized view of the
// MFSA: the lazy-DFA engine treats each distinct vector as one DFA state.
type Activation struct {
	State int32
	J     []uint64
}

// A packed vector is the flat, pointer-free form of a canonical activation
// vector, as Stepper.Step produces and consumes it: for each activation, in
// ascending state order, one word holding the state followed by its
// Program.Words J words. Two canonical vectors are equal exactly when their
// packed forms are, so a packed vector doubles as its own cache key, and a
// cache can keep many of them in one arena that the garbage collector
// never scans.

// Unpack returns the activation vector of a packed one over words J words
// per activation, as fresh slices.
func Unpack(vec []uint64, words int) []Activation {
	out := make([]Activation, 0, len(vec)/(1+words))
	for k := 0; k < len(vec); k += 1 + words {
		J := make([]uint64, words)
		copy(J, vec[k+1:k+1+words])
		out = append(out, Activation{State: int32(vec[k]), J: J})
	}
	return out
}

// Stepper evaluates single iMFAnt steps from explicit (packed) activation
// vectors — the step-function form of the Runner hot loop, reusable as the
// successor constructor of on-the-fly (lazy) determinization. Step itself
// is the keep-on-match step (no Eq. 5 pop); Pop supplies the pop. The Eq. 5
// pop of an arrival at state q removes finalMask(q) &^ endAnchored from its
// Jnew — a mask that depends on q alone, never on J — so it distributes
// over the union of arrivals: the runner's post-step vector in pop mode is
// exactly Pop(S), where S is the pre-pop vector Step returns. Under both
// semantics the successor is therefore a pure function of (S, symbol):
// Step(S, c) in keep mode and Step(Pop(S), c) in pop mode, with the match
// masks of an arrival read off S either way.
//
// Step and Pop write into caller-owned buffers and allocate nothing once
// those have grown to the vectors' size. A Stepper owns scratch buffers
// sized for its Program and is not safe for concurrent use.
type Stepper struct {
	p                 *Program
	cur, nxt          *vector
	tmp               []uint64
	accept, acceptEnd []uint64
}

// NewStepper returns a step evaluator for p.
func NewStepper(p *Program) *Stepper {
	return &Stepper{
		p:         p,
		cur:       newVector(p.numStates, p.words),
		nxt:       newVector(p.numStates, p.words),
		tmp:       make([]uint64, p.words),
		accept:    make([]uint64, p.words),
		acceptEnd: make([]uint64, p.words),
	}
}

// Step runs one iMFAnt transition step on symbol c from the packed vector
// src: every transition enabled by c is evaluated with the activation
// update Jnew = (J(q1) ∪ inits(q1)) ∩ bel(t) (Eqs. 4 and 6), with the
// ^-anchored inits participating only when streamStart is set. It appends
// the packed successor vector to dst and returns the extended slice with
// the match masks of the step: accept has bit j set when FSA j matches on
// this symbol at any stream position, acceptAtEnd when it matches only if
// this symbol is the last of the stream ($-anchored FSAs). The masks are
// the Stepper's own scratch, valid until its next Step.
func (s *Stepper) Step(dst, src []uint64, c byte, streamStart bool) (next, accept, acceptAtEnd []uint64) {
	p := s.p
	W := p.words
	for k := 0; k < len(src); k += 1 + W {
		q := int32(src[k])
		base := int(q) * W
		copy(s.cur.j[base:base+W], src[k+1:k+1+W])
		if !s.cur.member[q] {
			s.cur.member[q] = true
			s.cur.dirty = append(s.cur.dirty, q)
		}
	}
	init := p.initAlways
	if streamStart {
		init = p.initAll
	}
	for _, ti := range p.lists[c] {
		t := &p.trans[ti]
		srcBase := int(t.from) * W
		belBase := int(ti) * W
		any := uint64(0)
		for w := 0; w < W; w++ {
			v := (s.cur.j[srcBase+w] | init[srcBase+w]) & p.bel[belBase+w]
			s.tmp[w] = v
			any |= v
		}
		if any == 0 {
			continue
		}
		if !s.nxt.member[t.to] {
			s.nxt.member[t.to] = true
			s.nxt.dirty = append(s.nxt.dirty, t.to)
		}
		dstBase := int(t.to) * W
		for w := 0; w < W; w++ {
			s.nxt.j[dstBase+w] |= s.tmp[w]
		}
	}

	// Canonicalize the successor and derive the match masks. With keep
	// semantics the per-transition match sets union to J'(q2) ∩ F(q2), so
	// the masks depend on the successor vector alone.
	slices.Sort(s.nxt.dirty)
	clear(s.accept)
	clear(s.acceptEnd)
	for _, q := range s.nxt.dirty {
		base := int(q) * W
		J := s.nxt.j[base : base+W]
		dst = append(dst, uint64(q))
		dst = append(dst, J...)
		for w := 0; w < W; w++ {
			m := J[w] & p.finalMask[base+w]
			s.accept[w] |= m &^ p.endAnchored[w]
			s.acceptEnd[w] |= m & p.endAnchored[w]
		}
	}
	s.cur.reset(W)
	s.nxt.reset(W)
	return dst, s.accept, s.acceptEnd
}

// Pop applies the Eq. 5 pop to a packed pre-pop vector as returned by
// Step: each activation loses the FSAs its state accepts outside the $
// anchor, and emptied activations are dropped. When nothing pops it returns
// dst unchanged and popped false — the vector is its own post-pop form;
// otherwise it appends the packed post-pop vector to dst.
func (s *Stepper) Pop(dst, src []uint64) (out []uint64, popped bool) {
	p := s.p
	W := p.words
	for k := 0; k < len(src) && !popped; k += 1 + W {
		base := int(src[k]) * W
		for w := 0; w < W; w++ {
			if src[k+1+w]&p.finalMask[base+w]&^p.endAnchored[w] != 0 {
				popped = true
				break
			}
		}
	}
	if !popped {
		return dst, false
	}
	for k := 0; k < len(src); k += 1 + W {
		q := src[k]
		base := int(q) * W
		n := len(dst)
		dst = append(dst, q)
		any := uint64(0)
		for w := 0; w < W; w++ {
			J := src[k+1+w] &^ (p.finalMask[base+w] &^ p.endAnchored[w])
			dst = append(dst, J)
			any |= J
		}
		if any == 0 {
			dst = dst[:n]
		}
	}
	return dst, true
}

// Frontier returns the runner's current activation vector in canonical form
// (sorted by state, fresh slices): the complete traversal state after the
// bytes fed so far, suitable for seeding another runner via Resume. Call
// FlushHeld first — a held-back byte is not yet reflected in the vector.
// States whose activation set emptied (Eq. 5 pops) are omitted.
func (r *Runner) Frontier() []Activation {
	W := r.p.words
	dirty := slices.Clone(r.cur.dirty)
	slices.Sort(dirty)
	out := make([]Activation, 0, len(dirty))
	for _, q := range dirty {
		base := int(q) * W
		any := uint64(0)
		for w := 0; w < W; w++ {
			any |= r.cur.j[base+w]
		}
		if any == 0 {
			continue
		}
		J := make([]uint64, W)
		copy(J, r.cur.j[base:base+W])
		out = append(out, Activation{State: q, J: J})
	}
	return out
}

// Resume begins a chunked scan mid-stream: the runner continues from the
// given activation vector as if it had already consumed offset bytes of the
// stream, so subsequent Feed calls report absolute offsets and never
// re-apply the ^-anchored inits. It is the hand-off path of the lazy-DFA
// engine when it abandons caching for a thrashing input.
func (r *Runner) Resume(cfg Config, acts []Activation, offset int) {
	r.Begin(cfg)
	r.offset = offset
	W := r.p.words
	for _, a := range acts {
		base := int(a.State) * W
		copy(r.cur.j[base:base+W], a.J)
		if !r.cur.member[a.State] {
			r.cur.member[a.State] = true
			r.cur.dirty = append(r.cur.dirty, a.State)
		}
	}
}
