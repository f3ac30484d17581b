// Package ahocorasick implements the classic Aho–Corasick multi-string
// matching automaton. It is the string-matching substrate of the
// decomposition baseline (§I, §VII: Hyperscan-style regex decomposition
// extracts literal factors, matches them with a string matcher, and delays
// FSA execution until a factor hits).
//
// The automaton is built in the standard three steps — trie (goto
// function), BFS failure links, and output sets — and then flattened into a
// fully-resolved next table over byte classes, so scanning is one table
// lookup per input byte, like a DFA, and a node's row is as wide as the
// patterns' distinct bytes (plus one), not the alphabet.
package ahocorasick

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/bytescan"
)

// Matcher is an immutable multi-pattern string matcher; build with New.
type Matcher struct {
	// next is the fully resolved transition table in byte-class rows: a
	// state is its node's premultiplied row offset (node·stride), so one
	// step is next[state+class[b]], and the successor is again a state.
	next  []int32
	class [256]uint8 // byte → class: one per distinct pattern byte, one for the rest
	// stride is the class count, the width of every row.
	stride int
	// matchMin is the first state of an output-bearing node: nodes are
	// numbered with every output-bearing node last, so a step emits iff
	// the new state is at least matchMin.
	matchMin int32
	// outputs[node - matchMin/stride] holds the pattern ids emitted at an
	// output-bearing node.
	outputs  [][]int32
	patterns [][]byte
	nodes    int
	// rootFinder (valid when rootAccel) hunts the root-live bytes — the ≤ 4
	// bytes that leave the root state. The root emits nothing (empty
	// patterns are rejected), so while the automaton sits at the root every
	// other byte is a provable no-op and the scan loops may jump over it.
	rootFinder bytescan.Finder
	rootAccel  bool
}

// New builds a matcher over the given patterns. Empty patterns are
// rejected; duplicate patterns are allowed and each reports separately.
func New(patterns [][]byte) (*Matcher, error) {
	for i, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ahocorasick: pattern %d is empty", i)
		}
	}
	// Byte classes: bytes that occur in no pattern all behave alike — they
	// lead every node back to the root — so they share one class; every
	// pattern byte gets its own.
	var used [256]bool
	for _, p := range patterns {
		for _, c := range p {
			used[c] = true
		}
	}
	m := &Matcher{patterns: patterns}
	nc := 0
	for c := 0; c < 256; c++ {
		if !used[c] {
			nc = 1 // class 0 is the rest
			break
		}
	}
	for c := 0; c < 256; c++ {
		if used[c] {
			m.class[c] = uint8(nc)
			nc++
		}
	}
	m.stride = nc
	// Size the table exactly: taken in sorted order, each pattern adds one
	// trie node per byte past its longest common prefix with the previous
	// one.
	sorted := slices.Clone(patterns)
	slices.SortFunc(sorted, bytes.Compare)
	nodes := 1
	for i, p := range sorted {
		lcp := 0
		if i > 0 {
			prev := sorted[i-1]
			for lcp < len(p) && lcp < len(prev) && p[lcp] == prev[lcp] {
				lcp++
			}
		}
		nodes += len(p) - lcp
	}
	// Trie construction, straight into a class-wide table of node ids:
	// trie[u*nc+k] is u's goto edge on class k, or 0 (the root is nobody's
	// child) when absent.
	trie := make([]int32, nodes*nc)
	outputs := make([][]int32, 1, nodes)
	for pi, p := range patterns {
		cur := int32(0)
		for _, c := range p {
			e := int(cur)*nc + int(m.class[c])
			if trie[e] == 0 {
				trie[e] = int32(len(outputs))
				outputs = append(outputs, nil)
			}
			cur = trie[e]
		}
		outputs[cur] = append(outputs[cur], int32(pi))
	}
	// Resolve the table in BFS order. The root's row is already resolved
	// (absent edges return to the root). A deeper node u inherits its
	// failure node's row, resolved earlier because it is shallower, with
	// u's own goto edges written over it; each child's failure node is
	// then one lookup in that resolved row. Outputs are merged down the
	// failure links in the same pass.
	fail := make([]int32, nodes)
	queue := make([]int32, 0, nodes)
	for _, v := range trie[:nc] {
		if v != 0 {
			queue = append(queue, v) // fail[v] = 0
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		row, frow := trie[int(u)*nc:][:nc], trie[int(fail[u])*nc:][:nc]
		for k, v := range row {
			if v == 0 {
				row[k] = frow[k]
				continue
			}
			fail[v] = frow[k]
			outputs[v] = append(outputs[v], outputs[fail[v]]...)
			queue = append(queue, v)
		}
	}
	// Renumber with the output-bearing nodes last, keeping the trie order
	// within each part (so the root, which emits nothing, stays 0), and
	// premultiply the successors.
	id := make([]int32, nodes)
	n := int32(0)
	for pass := 0; pass < 2; pass++ {
		for u, out := range outputs {
			if (len(out) > 0) == (pass == 1) {
				id[u] = n
				n++
			}
		}
		if pass == 0 {
			m.matchMin = n * int32(nc)
		}
	}
	m.next = make([]int32, nodes*nc)
	m.outputs = make([][]int32, nodes-int(m.matchMin)/nc)
	for u, out := range outputs {
		row := m.next[int(id[u])*nc:][:nc]
		for k, v := range trie[u*nc:][:nc] {
			row[k] = id[v] * int32(nc)
		}
		if len(out) > 0 {
			m.outputs[int(id[u])-int(m.matchMin)/nc] = out
		}
	}
	m.nodes = nodes
	var rootBytes []byte
	for c := 0; c < 256; c++ {
		if m.next[m.class[c]] != 0 {
			rootBytes = append(rootBytes, byte(c))
		}
	}
	if len(rootBytes) <= bytescan.MaxNeedles {
		if f, ok := bytescan.NewFinder(rootBytes); ok {
			m.rootFinder = f
			m.rootAccel = true
		}
	}
	return m, nil
}

// emits returns the pattern ids emitted on entering state, which must be
// at least matchMin.
func (m *Matcher) emits(state int32) []int32 {
	return m.outputs[int(state-m.matchMin)/m.stride]
}

// NumNodes returns the automaton size in trie nodes.
func (m *Matcher) NumNodes() int { return m.nodes }

// NumPatterns returns the number of patterns.
func (m *Matcher) NumPatterns() int { return len(m.patterns) }

// MaxPatternLen returns the length of the longest pattern in bytes — the
// overlap window a segmented scan needs: a match ending in segment k starts
// at most MaxPatternLen-1 bytes before k's first byte, so scanning each
// segment with that much left-context makes per-segment AC scans exact
// with no boundary stitching.
func (m *Matcher) MaxPatternLen() int {
	max := 0
	for _, p := range m.patterns {
		if len(p) > max {
			max = len(p)
		}
	}
	return max
}

// Scan reports every occurrence of every pattern: fn receives the pattern
// id and the offset of its last byte. Occurrences of different patterns at
// the same offset are each reported.
func (m *Matcher) Scan(input []byte, fn func(pattern, end int)) {
	state := int32(0)
	for pos := 0; pos < len(input); pos++ {
		if state == 0 && m.rootAccel {
			// Parked at the root: jump to the next byte that leaves it.
			j := m.rootFinder.Index(input[pos:])
			if j < 0 {
				return
			}
			pos += j
		}
		state = m.next[int(state)+int(m.class[input[pos]])]
		if state >= m.matchMin {
			for _, pi := range m.emits(state) {
				fn(int(pi), pos)
			}
		}
	}
}

// Hits returns, per pattern, whether it occurs at least once in input —
// the prefilter query of the decomposition matcher. It short-circuits when
// every pattern has been seen.
func (m *Matcher) Hits(input []byte) []bool {
	p := m.NewPass(nil)
	p.Scan(input, nil)
	return p.seen
}

// Pass is one resumable scan that does two jobs at once: it reports every
// occurrence of the patterns marked for delivery, and it records the first
// occurrence of every pattern. The automaton state is carried across Scan
// calls, so a pattern split over two chunks of a stream still registers —
// no byte tail is buffered, only the current trie node — and the chunking
// of a stream never changes what a pass reports. A pass that delivers
// nothing ends early: once every pattern has been seen, further chunks are
// no-ops (Done). Reuse via Reset. A Pass is not safe for concurrent use.
type Pass struct {
	m       *Matcher
	state   int32
	deliver []bool  // per pattern: report every occurrence
	live    int     // patterns marked for delivery; 0 allows the early end
	seen    []bool  // per pattern: occurred since the last Reset
	firsts  []int32 // the seen patterns, in first-occurrence order
	accel   bool
	skipped int64
}

// NewPass returns a fresh pass over the matcher. deliver marks, per
// pattern, the ones whose every occurrence Scan reports; nil delivers none.
// The pass keeps deliver without copying it. Root-state acceleration is on
// by default; SetAccel(false) disables it.
func (m *Matcher) NewPass(deliver []bool) *Pass {
	n := len(m.patterns)
	p := &Pass{m: m, deliver: deliver, seen: make([]bool, n), firsts: make([]int32, 0, n), accel: true}
	if p.deliver == nil {
		p.deliver = make([]bool, n)
	}
	for _, d := range p.deliver {
		if d {
			p.live++
		}
	}
	return p
}

// SetAccel toggles the root-state byte skip for subsequent chunks. What the
// pass reports is byte-identical either way; off exists for measurement and
// tests.
func (p *Pass) SetAccel(on bool) { p.accel = on }

// Skipped returns the cumulative number of bytes the root-state skip jumped
// over (across Resets).
func (p *Pass) Skipped() int64 { return p.skipped }

// Scan consumes the next chunk: fn receives every occurrence of a
// delivered pattern, at its chunk-relative last-byte offset, and every
// pattern's first occurrence is recorded. fn may be nil when nothing is
// delivered.
func (p *Pass) Scan(chunk []byte, fn func(pattern, end int)) {
	if p.Done() {
		return
	}
	m := p.m
	state := p.state
	accel := p.accel && m.rootAccel
	for pos := 0; pos < len(chunk); pos++ {
		if accel && state == 0 {
			// Parked at the root: every byte outside the root-live set is
			// a self-loop with no outputs, so jump to the next live byte.
			j := m.rootFinder.Index(chunk[pos:])
			if j < 0 {
				p.skipped += int64(len(chunk) - pos)
				break
			}
			p.skipped += int64(j)
			pos += j
		}
		state = m.next[int(state)+int(m.class[chunk[pos]])]
		if state < m.matchMin {
			continue
		}
		for _, pi := range m.emits(state) {
			if !p.seen[pi] {
				p.seen[pi] = true
				p.firsts = append(p.firsts, pi)
				if p.live == 0 && len(p.firsts) == len(p.seen) {
					p.state = state
					return
				}
			}
			if p.deliver[pi] {
				fn(int(pi), pos)
			}
		}
	}
	p.state = state
}

// Seen reports whether pattern has occurred since the last Reset.
func (p *Pass) Seen(pattern int) bool { return p.seen[pattern] }

// Firsts returns the distinct patterns seen since the last Reset, in the
// order of their first occurrences. The slice is the pass's own and is
// valid until the next Reset.
func (p *Pass) Firsts() []int32 { return p.firsts }

// Done reports whether further chunks are no-ops: nothing is delivered and
// every pattern has been seen.
func (p *Pass) Done() bool { return p.live == 0 && len(p.firsts) == len(p.seen) }

// Reset rewinds the automaton and forgets the seen patterns, for a new
// stream. It costs the number of patterns seen, not the number of patterns.
func (p *Pass) Reset() {
	p.state = 0
	for _, pi := range p.firsts {
		p.seen[pi] = false
	}
	p.firsts = p.firsts[:0]
}
