package engine

// feedW1 is the Feed hot loop specialized for words == 1, i.e. MFSAs
// merging at most 64 rules — every M ≤ 64 configuration, and the whole
// M = 1 iNFAnt baseline. The per-transition bitset loops collapse to scalar
// word operations, roughly halving the per-byte cost.
func (r *Runner) feedW1(chunk []byte, final bool) {
	p := r.p
	cfg := r.cfg
	res := &r.res
	last := len(chunk) - 1
	endAnchored := p.endAnchored[0]
	accel := cfg.Accel && p.startAccel

	for pos := 0; pos < len(chunk); pos++ {
		if accel && len(r.cur.dirty) == 0 && r.offset+pos > 0 {
			// Empty vector mid-stream: jump to the next start byte (see
			// the W>1 loop). Skipped bytes fire no transitions, so neither
			// activations nor match events can be lost.
			j := p.startFinder.Index(chunk[pos:])
			if j < 0 {
				res.AccelBytes += int64(len(chunk) - pos)
				break
			}
			res.AccelBytes += int64(j)
			pos += j
		}
		c := chunk[pos]
		cur, nxt := r.cur, r.nxt
		atEnd := final && pos == last
		// seen dedups per-symbol emissions: several transitions can reach
		// distinct accepting states for the same FSA on one symbol, and
		// each (FSA, end) pair must be reported exactly once.
		seen := uint64(0)
		// Select the init vector once per symbol: the ^-anchored inits
		// participate only in the stream's first step.
		init := p.initAlways
		if r.offset == 0 && pos == 0 {
			init = p.initAll
		}
		for _, ti := range p.lists[c] {
			t := &p.trans[ti]
			src := int(t.from)

			v := (cur.j[src] | init[src]) & p.bel[ti]
			if v == 0 {
				continue
			}

			dst := int(t.to)
			m := v & p.finalMask[dst]
			if !atEnd {
				m &^= endAnchored
			}
			if m != 0 {
				e := m &^ seen
				seen |= m
				for e != 0 {
					fsa := trailingZeros(e & (-e))
					res.Matches++
					res.PerFSA[fsa]++
					if cfg.OnMatch != nil {
						cfg.OnMatch(fsa, r.offset+pos)
					}
					e &= e - 1
				}
				if !cfg.KeepOnMatch {
					v &^= m
					if v == 0 {
						continue
					}
				}
			}

			if !nxt.member[t.to] {
				nxt.member[t.to] = true
				nxt.dirty = append(nxt.dirty, t.to)
			}
			nxt.j[dst] |= v
		}

		if cfg.Stats {
			union := uint64(0)
			pairs := int64(0)
			for _, q := range nxt.dirty {
				v := nxt.j[q]
				pairs += int64(popcount(v))
				union |= v
			}
			res.ActivePairsTotal += pairs
			if d := popcount(union); d > res.MaxActiveFSAs {
				res.MaxActiveFSAs = d
			}
		}

		cur.reset(1)
		r.cur, r.nxt = nxt, cur
	}
	res.Symbols += len(chunk)
	r.offset += len(chunk)
}
