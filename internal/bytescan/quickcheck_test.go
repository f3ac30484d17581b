package bytescan

import (
	"bytes"
	"math/rand"
	"testing"
)

// The correctness invariant under test: every kernel returns exactly the
// index of the first haystack byte belonging to the needle set, or -1 when
// no such byte occurs — the same answer as the naive byte-at-a-time loop
// below. A violation would make an accelerated engine jump over a byte the
// automaton reacts to, silently dropping matches, so the property is
// checked against random inputs across every set size the kernels
// specialize (1–4), against pinned edge cases, and via a fuzz target.

// naiveIndex is the reference loop: first index of any needle byte in h.
func naiveIndex(h []byte, needles []byte) int {
	for i, b := range h {
		for _, n := range needles {
			if b == n {
				return i
			}
		}
	}
	return -1
}

// genHaystack builds a haystack over a small alphabet so that needles both
// occur and are absent with useful probability. Unaligned slicing is
// exercised by the callers cutting random windows out of it.
func genHaystack(rng *rand.Rand, n int) []byte {
	h := make([]byte, n)
	for i := range h {
		h[i] = byte(rng.Intn(8)) // 0..7, dense collisions with small needle sets
	}
	return h
}

// genNeedles draws k distinct bytes from the haystack alphabet plus a few
// never-occurring values, so "not found" paths are exercised too.
func genNeedles(rng *rand.Rand, k int) []byte {
	pool := []byte{0, 1, 2, 3, 4, 5, 6, 7, 0xAA, 0xBB, 0xFF}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:k]
}

// TestFinderQuickcheck cross-checks Finder.Index against the naive loop on
// random haystacks, all set sizes 1–4, including empty, short, and
// unaligned windows.
func TestFinderQuickcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 5000; iter++ {
		k := 1 + rng.Intn(MaxNeedles)
		needles := genNeedles(rng, k)
		f, ok := NewFinder(needles)
		if !ok {
			t.Fatalf("NewFinder(%v) rejected a %d-byte set", needles, k)
		}
		if f.Len() != k {
			t.Fatalf("NewFinder(%v): Len = %d, want %d", needles, f.Len(), k)
		}
		h := genHaystack(rng, rng.Intn(200))
		// Random unaligned window, possibly empty.
		lo := 0
		if len(h) > 0 {
			lo = rng.Intn(len(h) + 1)
		}
		hi := lo
		if lo < len(h) {
			hi = lo + rng.Intn(len(h)-lo+1)
		}
		win := h[lo:hi]
		want := naiveIndex(win, needles)
		if got := f.Index(win); got != want {
			t.Fatalf("Finder(%v).Index(%v) = %d, want %d", needles, win, got, want)
		}
		if got := IndexAny(win, needles); got != want {
			t.Fatalf("IndexAny(%v, %v) = %d, want %d", win, needles, got, want)
		}
	}
}

// TestKernelsAgainstReference pins the specialized kernels on the same
// property with direct random windows (no Finder construction in the way).
func TestKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 5000; iter++ {
		h := genHaystack(rng, rng.Intn(128))
		b0, b1 := byte(rng.Intn(10)), byte(rng.Intn(10))
		if got, want := IndexByte(h, b0), naiveIndex(h, []byte{b0}); got != want {
			t.Fatalf("IndexByte(%v, %d) = %d, want %d", h, b0, got, want)
		}
		if got, want := IndexPair(h, b0, b1), naiveIndex(h, []byte{b0, b1}); got != want {
			t.Fatalf("IndexPair(%v, %d, %d) = %d, want %d", h, b0, b1, got, want)
		}
	}
}

// TestFinderEdgeCases pins the boundary behaviour: empty sets, empty and
// one-byte haystacks, duplicates, oversized sets, needle at every position.
func TestFinderEdgeCases(t *testing.T) {
	var zero Finder
	if got := zero.Index([]byte("anything")); got != -1 {
		t.Errorf("zero Finder.Index = %d, want -1 (empty set matches nothing)", got)
	}
	if f, ok := NewFinder(nil); !ok || f.Index([]byte("xyz")) != -1 {
		t.Errorf("NewFinder(nil): ok=%v, Index=%d; want ok with always -1", ok, f.Index([]byte("xyz")))
	}
	if f, ok := NewFinder([]byte{'a', 'a', 'a'}); !ok || f.Len() != 1 {
		t.Errorf("duplicate needles not collapsed: ok=%v len=%d", ok, f.Len())
	}
	if _, ok := NewFinder([]byte{1, 2, 3, 4, 5}); ok {
		t.Error("NewFinder accepted a 5-byte set; MaxNeedles is 4")
	}
	// Dups beyond MaxNeedles positions still collapse to an accepted set.
	if f, ok := NewFinder([]byte{1, 2, 1, 2, 1, 2}); !ok || f.Len() != 2 {
		t.Errorf("NewFinder with repeats: ok=%v len=%d, want ok len 2", ok, f.Len())
	}
	f, _ := NewFinder([]byte{'x', 'y'})
	if got := f.Index(nil); got != -1 {
		t.Errorf("Index(nil) = %d, want -1", got)
	}
	if got := f.Index([]byte{}); got != -1 {
		t.Errorf("Index(empty) = %d, want -1", got)
	}
	if got := f.Index([]byte{'x'}); got != 0 {
		t.Errorf("Index single hit = %d, want 0", got)
	}
	if got := f.Index([]byte{'z'}); got != -1 {
		t.Errorf("Index single miss = %d, want -1", got)
	}
	h := bytes.Repeat([]byte{'.'}, 64)
	for pos := 0; pos < len(h); pos++ {
		h2 := append([]byte(nil), h...)
		h2[pos] = 'y'
		if got := f.Index(h2); got != pos {
			t.Fatalf("needle at %d: Index = %d", pos, got)
		}
	}
}

// TestFinderWindowEdges pins Index across its probe windows: a lone needle
// byte placed on either side of every window boundary, with the other
// needles absent, and a later needle shadowed by an earlier one in the next
// window.
func TestFinderWindowEdges(t *testing.T) {
	h := bytes.Repeat([]byte{'.'}, 8*probeWindow)
	for _, set := range []string{"xy", "xyz", "wxyz"} {
		f, _ := NewFinder([]byte(set))
		for w, edge := probeWindow, probeWindow; edge < len(h); w, edge = 2*w, edge+2*w {
			for _, pos := range []int{edge - 1, edge, edge + 1} {
				for _, b := range []byte(set) {
					h2 := append([]byte(nil), h...)
					h2[pos] = b
					h2[len(h2)-1] = set[0]
					if got := f.Index(h2); got != pos {
						t.Fatalf("%q: %q at %d: Index = %d", set, b, pos, got)
					}
				}
			}
		}
		if got := f.Index(h); got != -1 {
			t.Fatalf("%q: no needle: Index = %d", set, got)
		}
	}
}

// TestFinderProbeOrder checks the rarest-first invariant: needles come out
// ordered by non-decreasing Rank regardless of input order.
func TestFinderProbeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 1000; iter++ {
		set := make([]byte, 1+rng.Intn(MaxNeedles))
		for i := range set {
			set[i] = byte(rng.Intn(256))
		}
		f, ok := NewFinder(set)
		if !ok {
			t.Fatalf("NewFinder(%v) rejected", set)
		}
		ns := f.Needles()
		for i := 1; i < len(ns); i++ {
			if Rank(ns[i]) < Rank(ns[i-1]) {
				t.Fatalf("needles %v not rarest-first: Rank(%d)=%d < Rank(%d)=%d",
					ns, ns[i], Rank(ns[i]), ns[i-1], Rank(ns[i-1]))
			}
		}
	}
}

// FuzzIndexAny fuzzes the reference property with arbitrary haystacks and
// needle sets: any disagreement with the naive loop is an engine-corrupting
// bug (a jump over a live byte).
func FuzzIndexAny(f *testing.F) {
	f.Add([]byte("hello world"), []byte("lo"))
	f.Add([]byte{}, []byte{0})
	f.Add([]byte{0, 0, 0, 1}, []byte{1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{'/'}, 100), []byte("/"))
	f.Add([]byte("GET /admin HTTP/1.1"), []byte("G/"))
	f.Fuzz(func(t *testing.T, h []byte, needles []byte) {
		if len(h) > 1<<16 {
			t.Skip()
		}
		want := naiveIndex(h, needles)
		if got := IndexAny(h, needles); got != want {
			t.Fatalf("IndexAny(%v, %v) = %d, want %d", h, needles, got, want)
		}
		fd, ok := NewFinder(needles)
		if !ok {
			return // > MaxNeedles distinct bytes: Finder declines, by design
		}
		if got := fd.Index(h); got != want {
			t.Fatalf("Finder(%v).Index(%v) = %d, want %d", needles, h, got, want)
		}
	})
}
