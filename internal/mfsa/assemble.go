package mfsa

import (
	"fmt"
	"sort"
)

// Assemble reconstructs an MFSA from its serialized parts: the state count,
// the COO transition list with per-transition belonging sets, and the
// per-FSA metadata. It rebuilds the derived structures (initial/final masks
// and the transition index) and checks basic well-formedness. It is the
// entry point used by the extended-ANML reader (§IV-E).
func Assemble(numStates int, trans []Transition, bel []BelongSet, fsas []FSAInfo) (*MFSA, error) {
	if len(trans) != len(bel) {
		return nil, fmt.Errorf("mfsa: %d transitions but %d belonging sets", len(trans), len(bel))
	}
	if len(fsas) == 0 {
		return nil, fmt.Errorf("mfsa: no FSAs")
	}
	n := len(fsas)
	z := &MFSA{
		NumStates: numStates,
		Trans:     append([]Transition(nil), trans...),
		Bel:       make([]BelongSet, len(bel)),
		FSAs:      append([]FSAInfo(nil), fsas...),
		byKey:     make(map[transKey]int, len(trans)),
	}
	words := (n + 63) / 64
	for i, b := range bel {
		if !b.Any() {
			return nil, fmt.Errorf("mfsa: transition %d belongs to no FSA", i)
		}
		nb := make(BelongSet, words)
		copy(nb, b)
		if max := maxID(b); max >= n {
			return nil, fmt.Errorf("mfsa: transition %d belongs to FSA %d, only %d merged", i, max, n)
		}
		z.Bel[i] = nb
	}
	for i, t := range z.Trans {
		if err := checkState(numStates, t.From); err != nil {
			return nil, fmt.Errorf("mfsa: transition %d: %v", i, err)
		}
		if err := checkState(numStates, t.To); err != nil {
			return nil, fmt.Errorf("mfsa: transition %d: %v", i, err)
		}
		if t.Label.IsEmpty() {
			return nil, fmt.Errorf("mfsa: transition %d has an empty label", i)
		}
		z.byKey[transKey{t.From, t.To, t.Label}] = i
	}
	z.ensureMaskCapacity(n)
	for j := range z.FSAs {
		info := &z.FSAs[j]
		if info.ID != j {
			return nil, fmt.Errorf("mfsa: FSA at position %d has identifier %d", j, info.ID)
		}
		if err := checkState(numStates, info.Init); err != nil {
			return nil, fmt.Errorf("mfsa: FSA %d init: %v", j, err)
		}
		z.InitMask[info.Init].Set(j)
		sort.Slice(info.Finals, func(x, y int) bool { return info.Finals[x] < info.Finals[y] })
		for _, f := range info.Finals {
			if err := checkState(numStates, f); err != nil {
				return nil, fmt.Errorf("mfsa: FSA %d final: %v", j, err)
			}
			z.FinalMask[f].Set(j)
		}
	}
	z.sortCOO()
	return z, nil
}

func checkState(numStates int, q StateID) error {
	if q < 0 || int(q) >= numStates {
		return fmt.Errorf("state %d out of range [0,%d)", q, numStates)
	}
	return nil
}

func maxID(b BelongSet) int {
	max := -1
	b.ForEach(func(id int) { max = id })
	return max
}

// Union returns the disjoint union of zs as one MFSA: the states of zs[k]
// follow those of zs[:k], its FSA identifiers follow theirs, and every
// belonging set and mask is widened to the union's FSA count. Nothing is
// merged — each FSA keeps exactly its own paths — so the union recognizes
// what its parts recognize, under the renumbering. The parts are not
// modified.
func Union(zs []*MFSA) *MFSA {
	n, states, trans := 0, 0, 0
	for _, p := range zs {
		n += p.NumFSAs()
		states += p.NumStates
		trans += len(p.Trans)
	}
	z := &MFSA{
		NumStates: states,
		Trans:     make([]Transition, 0, trans),
		Bel:       make([]BelongSet, 0, trans),
		FSAs:      make([]FSAInfo, 0, n),
		byKey:     make(map[transKey]int, trans),
	}
	soff, foff := StateID(0), 0
	for _, p := range zs {
		for i, t := range p.Trans {
			t.From += soff
			t.To += soff
			z.byKey[transKey{t.From, t.To, t.Label}] = len(z.Trans)
			z.Trans = append(z.Trans, t)
			b := NewBelongSet(n)
			p.Bel[i].ForEach(func(id int) { b.Set(id + foff) })
			z.Bel = append(z.Bel, b)
		}
		for _, info := range p.FSAs {
			info.ID += foff
			info.Init += soff
			info.Finals = shifted(info.Finals, soff)
			info.Embed = shifted(info.Embed, soff)
			z.FSAs = append(z.FSAs, info)
		}
		soff += StateID(p.NumStates)
		foff += p.NumFSAs()
	}
	z.ensureMaskCapacity(n)
	for _, info := range z.FSAs {
		z.InitMask[info.Init].Set(info.ID)
		for _, f := range info.Finals {
			z.FinalMask[f].Set(info.ID)
		}
	}
	return z
}

// shifted returns a copy of qs with every state offset by d.
func shifted(qs []StateID, d StateID) []StateID {
	out := make([]StateID, len(qs))
	for i, q := range qs {
		out[i] = q + d
	}
	return out
}
