// Package dfa implements the deterministic baseline the paper positions
// MFSAs against (§II, §VII): subset-construction DFAs with their
// state-explosion behaviour, a dense-table matcher with one transition per
// input byte, and the default-transition compression of the D²FA line of
// work (Kumar et al., the paper's [48]) that trades table size for
// default-chain traversals.
//
// The DFA is built for scan semantics — the rule start states are treated
// as always active, the classic DPI "prefix-closed" determinization — so
// match events (rule, end offset) are directly comparable with the iMFAnt
// engine in KeepOnMatch mode.
package dfa

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/charset"
	"repro/internal/mfsa"
	"repro/internal/nfa"
)

// DFA is a deterministic automaton over the byte alphabet with a dense
// 256-way transition table and per-state rule-acceptance sets. Under scan
// semantics every entry is live (the worst case is "only the restart
// states survive"), so traversal is exactly one table lookup per byte.
type DFA struct {
	NumStates int
	Start     int32
	// Next holds NumStates×256 entries; Next[q*256+c] is the successor
	// of q on byte c.
	Next []int32
	// Accept[q] is the set of rules whose match ends when q is entered
	// (nil for non-accepting states).
	Accept []mfsa.BelongSet
	// NumRules is the number of rules the automaton recognizes.
	NumRules int
}

// ErrStateExplosion reports that subset construction exceeded the state
// budget — the exponential blow-up of §II that motivates NFA-based engines.
type ErrStateExplosion struct {
	Limit int
}

func (e *ErrStateExplosion) Error() string {
	return fmt.Sprintf("dfa: subset construction exceeded %d states", e.Limit)
}

// FromNFAs determinizes a group of optimized NFAs into one scan DFA,
// failing with ErrStateExplosion if more than maxStates subsets arise.
// Anchored rules are rejected (the scan determinization has no notion of
// stream boundaries).
//
// Construction runs over byte classes rather than bytes: the group's
// transition labels partition the alphabet (charset.Partition), bytes of
// one class have identical successors everywhere, so each subset computes
// one successor per class and only the finished row is expanded to the
// dense 256-entry Next. Subsets are fixed-width bitsets over the group's
// NFA states. Classes are visited in order of their smallest byte, so
// state numbering — and the point at which ErrStateExplosion fires — is
// exactly that of a byte-by-byte construction.
func FromNFAs(fsas []*nfa.NFA, maxStates int) (*DFA, error) {
	if len(fsas) == 0 {
		return nil, fmt.Errorf("dfa: empty rule group")
	}
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	// Combine the NFAs into one automaton over a shared global state
	// space, with per-rule state offsets.
	var offset []int32
	total := 0
	var labels []charset.Set
	for _, a := range fsas {
		if a.AnchorStart || a.AnchorEnd {
			return nil, fmt.Errorf("dfa: anchored rule %q not supported by scan determinization", a.Pattern)
		}
		if len(a.Eps) > 0 || len(a.Loops) > 0 {
			return nil, fmt.Errorf("dfa: rule %q is not optimized", a.Pattern)
		}
		offset = append(offset, int32(total))
		total += a.NumStates
		for _, t := range a.Trans {
			labels = append(labels, t.Label)
		}
	}
	classOf, nc := charset.Partition(labels)
	// rep[k] is class k's smallest byte; classes are numbered by it.
	rep := make([]byte, 0, nc)
	for c := 0; c < 256; c++ {
		if int(classOf[c]) == len(rep) {
			rep = append(rep, byte(c))
		}
	}

	// The successor relation per (state, class), as a list of (class,
	// target) arcs per state, and the final and start states as bitsets.
	words := (total + 63) / 64
	type arc struct{ class, to int32 }
	arcsOf := make([][]arc, total)
	final := make([]uint64, words)
	acceptRule := make([]int, total)
	start := make([]uint64, words)
	for r, a := range fsas {
		base := offset[r]
		for _, t := range a.Trans {
			from, to := base+t.From, base+t.To
			for k, b := range rep {
				if t.Label.Contains(b) {
					arcsOf[from] = append(arcsOf[from], arc{int32(k), to})
				}
			}
		}
		for _, f := range a.Finals {
			q := base + f
			final[q>>6] |= 1 << (uint(q) & 63)
			acceptRule[q] = r
		}
		q := base + a.Start
		start[q>>6] |= 1 << (uint(q) & 63)
	}

	// A DFA state is a (closure subset, acceptance) pair: acceptance is
	// computed from the states actually reached by a transition, before
	// the scan closure re-injects the start states — otherwise a rule
	// whose NFA start is final (it accepts ε) would fire on every byte,
	// while the match semantics report matches only on transition
	// arrivals (empty matches are never reported). The interning key is
	// the subset words followed by the acceptance words, fixed width.
	accWords := (len(fsas) + 63) / 64
	keyBuf := make([]byte, 8*(words+accWords))
	key := func(states, acc []uint64) []byte {
		for i, w := range states {
			binary.LittleEndian.PutUint64(keyBuf[8*i:], w)
		}
		for i := 0; i < accWords; i++ {
			var w uint64
			if acc != nil {
				w = acc[i]
			}
			binary.LittleEndian.PutUint64(keyBuf[8*(words+i):], w)
		}
		return keyBuf
	}

	index := map[string]int32{string(key(start, nil)): 0}
	subsets := append([]uint64(nil), start...) // state q's subset at [q*words:]
	d := &DFA{Start: 0, NumRules: len(fsas)}
	// No input consumed yet: the start state accepts nothing.
	d.Accept = append(d.Accept, nil)

	succ := make([]uint64, nc*words) // class k's successor set at [k*words:]
	touched := make([]bool, nc)
	var classRows []int32 // state q's successor per class at [q*nc:]
	for head := 0; head*words < len(subsets); head++ {
		cur := subsets[head*words : (head+1)*words]
		for w, word := range cur {
			for word != 0 {
				q := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for _, e := range arcsOf[q] {
					set := succ[int(e.class)*words:]
					set[e.to>>6] |= 1 << (uint(e.to) & 63)
					touched[e.class] = true
				}
			}
		}
		for k := 0; k < nc; k++ {
			id := int32(0) // no arrival: scan restart only, the start state
			if touched[k] {
				touched[k] = false
				set := succ[k*words : (k+1)*words]
				acc := acceptSet(set, final, acceptRule, len(fsas))
				for i, w := range start {
					set[i] |= w
				}
				kb := key(set, acc)
				var ok bool
				if id, ok = index[string(kb)]; !ok {
					id = int32(len(d.Accept))
					if int(id) >= maxStates {
						return nil, &ErrStateExplosion{Limit: maxStates}
					}
					index[string(kb)] = id
					subsets = append(subsets, set...)
					d.Accept = append(d.Accept, acc)
				}
				clear(set)
			}
			classRows = append(classRows, id)
		}
	}
	d.NumStates = len(d.Accept)
	d.Next = make([]int32, d.NumStates*256)
	for q := 0; q < d.NumStates; q++ {
		row, crow := d.Next[q*256:][:256], classRows[q*nc:][:nc]
		for c, k := range classOf {
			row[c] = crow[k]
		}
	}
	return d, nil
}

// acceptSet returns the rules accepting in the subset states, or nil when
// it holds no final state.
func acceptSet(states, final []uint64, acceptRule []int, numRules int) mfsa.BelongSet {
	var set mfsa.BelongSet
	for w, word := range states {
		word &= final[w]
		for word != 0 {
			q := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if set == nil {
				set = mfsa.NewBelongSet(numRules)
			}
			set.Set(acceptRule[q])
		}
	}
	return set
}

// TableEntries returns the dense-table size in transitions (states × 256),
// the memory-footprint metric default-transition compression attacks.
func (d *DFA) TableEntries() int { return d.NumStates * 256 }

// Match scans input and calls onMatch for every (rule, end offset) event:
// whenever the automaton enters a state accepting rule r after consuming
// the byte at offset end. It returns the total event count. One table
// lookup per byte — the §II upper-bound traversal cost that makes DFAs
// attractive despite their size.
func (d *DFA) Match(input []byte, onMatch func(rule, end int)) int64 {
	var matches int64
	q := d.Start
	for pos := 0; pos < len(input); pos++ {
		q = d.Next[int(q)<<8|int(input[pos])]
		if acc := d.Accept[q]; acc != nil {
			acc.ForEach(func(r int) {
				matches++
				if onMatch != nil {
					onMatch(r, pos)
				}
			})
		}
	}
	return matches
}
