// Package bytescan provides the byte-skipping substrate of the execution
// engines: allocation-free kernels that find the next occurrence of a small
// ("sparse") set of candidate bytes in a haystack, so a caller parked in an
// automaton state that only reacts to a few bytes can jump directly to the
// next reactive position instead of stepping the transition table once per
// byte. This is the memchr-class acceleration of Hyperscan and the rust
// regex engine, built on Go's assembler-optimized bytes.IndexByte.
//
// All kernels answer the same question — the index of the first byte of the
// haystack that belongs to the needle set — and differ only in the set size
// they are specialized for. A Finder packages a prepared set of up to
// MaxNeedles bytes; its Index method dispatches to the fastest applicable
// kernel. Multi-needle searches run rarest-first (see Rank): probing the
// least frequent byte first shrinks the remaining search window fastest on
// typical traffic.
package bytescan

import "bytes"

// MaxNeedles is the largest byte-set size the kernels accelerate. Beyond
// four needles the per-window bookkeeping outweighs the vectorized scans
// and callers should step byte-at-a-time instead.
const MaxNeedles = 4

// IndexByte returns the index of the first occurrence of b in h, or -1.
// It is bytes.IndexByte, re-exported so engine code has a single import
// for every skip kernel.
func IndexByte(h []byte, b byte) int {
	return bytes.IndexByte(h, b)
}

// IndexPair returns the index of the first occurrence of either b0 or b1
// in h, or -1. The second probe runs only over the prefix the first one
// has not already beaten.
func IndexPair(h []byte, b0, b1 byte) int {
	i := bytes.IndexByte(h, b0)
	if i >= 0 {
		h = h[:i]
	}
	if j := bytes.IndexByte(h, b1); j >= 0 {
		return j
	}
	return i
}

// IndexAny returns the index of the first byte of h that occurs in needles,
// or -1. Needles beyond MaxNeedles are still honored (the kernel is exact
// for any set size), but callers wanting the acceleration guarantee should
// build a Finder, which enforces the bound and orders probes rarest-first.
func IndexAny(h []byte, needles []byte) int {
	best := -1
	for _, b := range needles {
		if i := bytes.IndexByte(h, b); i >= 0 {
			best = i
			h = h[:i]
		}
	}
	return best
}

// Finder is a prepared sparse-set scanner: up to MaxNeedles distinct bytes,
// probe order fixed at construction (rarest first). The zero value is the
// empty set, whose Index always returns -1 — a caller treating -1 as "skip
// the whole window" therefore gets the correct behaviour for automaton
// states with no live bytes at all.
type Finder struct {
	needles [MaxNeedles]byte
	n       int
}

// NewFinder prepares a finder over set. Duplicates are removed; ok is
// false when more than MaxNeedles distinct bytes remain, in which case the
// finder is unusable and the caller should not accelerate.
func NewFinder(set []byte) (Finder, bool) {
	var f Finder
	for _, b := range set {
		dup := false
		for i := 0; i < f.n; i++ {
			if f.needles[i] == b {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if f.n == MaxNeedles {
			return Finder{}, false
		}
		f.needles[f.n] = b
		f.n++
	}
	// Probe rarest-first: a rare byte's first occurrence is far away on
	// typical traffic, so the remaining windows of the later (more common)
	// probes shrink the most. Insertion sort — n ≤ 4.
	for i := 1; i < f.n; i++ {
		for j := i; j > 0 && Rank(f.needles[j]) < Rank(f.needles[j-1]); j-- {
			f.needles[j], f.needles[j-1] = f.needles[j-1], f.needles[j]
		}
	}
	return f, true
}

// Len returns the number of needles.
func (f *Finder) Len() int { return f.n }

// Needles returns the needle bytes in probe order.
func (f *Finder) Needles() []byte {
	return f.needles[:f.n]
}

// probeWindow is the first window of a multi-needle Index; each later
// window doubles. A needle absent from the haystack would otherwise have its
// IndexByte run to the end of h on every call, so a caller jumping from hit
// to hit through a long haystack would pay quadratic time; with doubling
// windows a call costs O(distance to the hit + probeWindow) per needle.
const probeWindow = 256

// Index returns the index of the first byte of h that belongs to the
// finder's set, or -1 when none occurs — in particular, always -1 for the
// empty set. Allocation-free.
func (f *Finder) Index(h []byte) int {
	switch f.n {
	case 0:
		return -1
	case 1:
		return bytes.IndexByte(h, f.needles[0])
	}
	for off, w := 0, probeWindow; off < len(h); off, w = off+w, 2*w {
		if j := f.index(h[off:min(off+w, len(h))]); j >= 0 {
			return off + j
		}
	}
	return -1
}

// index is Index over one window, for two or more needles.
func (f *Finder) index(h []byte) int {
	if f.n == 2 {
		return IndexPair(h, f.needles[0], f.needles[1])
	}
	best := -1
	for i := 0; i < f.n; i++ {
		if j := bytes.IndexByte(h, f.needles[i]); j >= 0 {
			best = j
			h = h[:j]
		}
	}
	return best
}

// Rank is the byte-frequency heuristic behind rarest-first probe ordering:
// a relative commonness score in [0, 255], higher meaning more frequent in
// the mixed text/protocol/binary traffic the engines scan. The ordering is
// what matters, not the absolute values — ties are fine. The table follows
// the shape used by memchr-style literal optimizers: whitespace and lower-
// case letters dominate text, NUL dominates padded binary, control bytes
// and most high bytes are rare.
func Rank(b byte) int {
	switch {
	case b == ' ':
		return 255
	case b == 'e' || b == 't' || b == 'a' || b == 'o' || b == 'i' || b == 'n':
		return 245
	case b >= 'a' && b <= 'z':
		return 220
	case b == 0x00:
		return 210 // zero padding dominates binary traffic
	case b >= '0' && b <= '9':
		return 200
	case b == '\n' || b == '\r' || b == '\t':
		return 190
	case b >= 'A' && b <= 'Z':
		return 180
	case b == '.' || b == ',' || b == '/' || b == '-' || b == '_' || b == ':' || b == '=':
		return 170
	case b > 0x20 && b < 0x7f:
		return 140 // remaining printable ASCII
	case b == 0xff:
		return 120
	case b >= 0x80:
		return 90 // high half: UTF-8 continuations, binary
	default:
		return 30 // control bytes other than the common whitespace
	}
}
