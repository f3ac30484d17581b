package charset

// Partition computes the coarsest partition of the 256-byte alphabet into
// equivalence classes with respect to the given sets: two bytes land in the
// same class exactly when they are members of the same subset of sets. When
// the sets are the transition labels of an automaton, bytes of one class
// enable identical transition lists and are therefore interchangeable for
// execution — the byte-class compression used by the lazy-DFA engine to
// shrink cached transition rows from 256 entries to one per class.
//
// Classes are numbered in order of first appearance scanning bytes 0..255,
// so classOf[0] == 0 always. n is the number of classes (1 ≤ n ≤ 256).
func Partition(sets []Set) (classOf [256]uint8, n int) {
	// Iterative refinement: start with one class and split every class by
	// membership in each set. A class splits only when the set cuts it, so
	// the result is the coarsest such partition; cost is O(256·len(sets)),
	// with no allocation.
	n = 1
	for _, s := range sets {
		if s.IsEmpty() || s.Equal(Any()) {
			continue // cuts nothing
		}
		// cell[oldClass*2+member] is 1 + the refined id of that half of
		// the old class, or 0 until its first byte is seen.
		var cell [512]int16
		next := int16(0)
		for b := 0; b < 256; b++ {
			k := int(classOf[b]) << 1
			if s.Contains(byte(b)) {
				k++
			}
			if cell[k] == 0 {
				next++
				cell[k] = next
			}
			classOf[b] = uint8(cell[k] - 1)
		}
		n = int(next)
		if n == 256 {
			break // fully refined
		}
	}
	return classOf, n
}
