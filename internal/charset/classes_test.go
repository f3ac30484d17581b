package charset

import (
	"math/rand"
	"testing"
)

// signature returns the membership fingerprint of byte b across sets.
func signature(sets []Set, b byte) string {
	sig := make([]byte, len(sets))
	for i, s := range sets {
		if s.Contains(b) {
			sig[i] = 1
		}
	}
	return string(sig)
}

func checkPartition(t *testing.T, sets []Set) (int, [256]uint8) {
	t.Helper()
	classOf, n := Partition(sets)
	// Exactness: same class ⇔ same membership signature.
	bySig := map[string]uint8{}
	distinct := map[uint8]bool{}
	for b := 0; b < 256; b++ {
		sig := signature(sets, byte(b))
		if cls, ok := bySig[sig]; ok {
			if classOf[b] != cls {
				t.Fatalf("byte %#x: class %d, want %d (same signature)", b, classOf[b], cls)
			}
		} else {
			if distinct[classOf[b]] {
				t.Fatalf("byte %#x: class %d reused across signatures", b, classOf[b])
			}
			bySig[sig] = classOf[b]
		}
		distinct[classOf[b]] = true
	}
	if n != len(distinct) || n != len(bySig) {
		t.Fatalf("n=%d, distinct ids=%d, distinct signatures=%d", n, len(distinct), len(bySig))
	}
	return n, classOf
}

func TestPartitionNoSets(t *testing.T) {
	n, classOf := checkPartition(t, nil)
	if n != 1 || classOf[0] != 0 || classOf[255] != 0 {
		t.Fatalf("empty partition: n=%d", n)
	}
}

func TestPartitionKnownClasses(t *testing.T) {
	// Labels of an automaton for [a-c]x: classes {a-c}, {x}, rest.
	n, classOf := checkPartition(t, []Set{Range('a', 'c'), Single('x')})
	if n != 3 {
		t.Fatalf("n=%d, want 3", n)
	}
	if classOf['a'] != classOf['b'] || classOf['b'] != classOf['c'] {
		t.Fatal("a,b,c split")
	}
	if classOf['a'] == classOf['x'] || classOf['x'] == classOf['z'] || classOf['a'] == classOf['z'] {
		t.Fatal("classes not distinct")
	}
}

func TestPartitionOverlappingSets(t *testing.T) {
	// Overlap splits three ways: [a-m] ∩ [h-z] = {h-m}.
	n, _ := checkPartition(t, []Set{Range('a', 'm'), Range('h', 'z')})
	if n != 4 { // a-g, h-m, n-z, rest
		t.Fatalf("n=%d, want 4", n)
	}
}

func TestPartitionDegenerateSets(t *testing.T) {
	// Empty and full sets cut nothing.
	if n, _ := checkPartition(t, []Set{{}, Any()}); n != 1 {
		t.Fatalf("n=%d, want 1", n)
	}
}

func TestPartitionFullyRefined(t *testing.T) {
	// 256 singletons: every byte its own class.
	sets := make([]Set, 256)
	for i := range sets {
		sets[i] = Single(byte(i))
	}
	if n, _ := checkPartition(t, sets); n != 256 {
		t.Fatalf("n=%d, want 256", n)
	}
}

// bruteClasses is Partition by definition: two bytes share a class iff
// every set agrees on them, and classes are numbered by their first byte.
func bruteClasses(sets []Set) (classOf [256]uint8, n int) {
	var sig [256]string
	for b := range sig {
		sig[b] = signature(sets, byte(b))
	}
	for b := 1; b < 256; b++ {
		classOf[b] = uint8(n + 1) // a new class unless an earlier byte agrees
		for a := 0; a < b; a++ {
			if sig[a] == sig[b] {
				classOf[b] = classOf[a]
				break
			}
		}
		if int(classOf[b]) == n+1 {
			n++
		}
	}
	return classOf, n + 1
}

// TestPartitionMatchesDefinition compares Partition with bruteClasses on
// random families of ranges, singletons, complements and arbitrary sets,
// and on the fully refined 256-class family in shuffled order.
func TestPartitionMatchesDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randomSet := func() Set {
		switch r.Intn(4) {
		case 0:
			lo := byte(r.Intn(256))
			return Range(lo, lo+byte(r.Intn(256-int(lo))))
		case 1:
			return Single(byte(r.Intn(256)))
		case 2:
			s := Range(byte(r.Intn(128)), byte(128+r.Intn(128)))
			return s.Complement()
		}
		var s Set
		for i := r.Intn(40); i > 0; i-- {
			s.Add(byte(r.Intn(256)))
		}
		return s
	}
	check := func(sets []Set) {
		t.Helper()
		got, gn := Partition(sets)
		want, wn := bruteClasses(sets)
		if gn != wn || got != want {
			t.Fatalf("%d sets: Partition gives %d classes %v, definition %d classes %v", len(sets), gn, got, wn, want)
		}
	}
	for i := 0; i < 300; i++ {
		sets := make([]Set, r.Intn(12))
		for j := range sets {
			sets[j] = randomSet()
		}
		check(sets)
	}
	singles := make([]Set, 256)
	for i, b := range r.Perm(256) {
		singles[i] = Single(byte(b))
	}
	check(singles)
	check(append(singles[:255:255], Any()))
}
