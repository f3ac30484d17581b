// Package ahocorasick implements the classic Aho–Corasick multi-string
// matching automaton. It is the string-matching substrate of the
// decomposition baseline (§I, §VII: Hyperscan-style regex decomposition
// extracts literal factors, matches them with a string matcher, and delays
// FSA execution until a factor hits).
//
// The automaton is built in the standard three steps — trie (goto
// function), BFS failure links, and output sets — and then flattened into a
// fully-resolved dense next table, so scanning is one table lookup per
// input byte, like a DFA.
package ahocorasick

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/bytescan"
)

// Matcher is an immutable multi-pattern string matcher; build with New.
type Matcher struct {
	next     []int32   // nodes × 256, fully resolved
	outputs  [][]int32 // pattern ids emitted at each node
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
	// Trie construction, straight into the dense table: next[u*256+c] is
	// u's goto edge on c, or 0 (the root is nobody's child) when absent.
	next := make([]int32, nodes*256)
	outputs := make([][]int32, 1, nodes)
	for pi, p := range patterns {
		cur := int32(0)
		for _, c := range p {
			e := int(cur)<<8 | int(c)
			if next[e] == 0 {
				next[e] = int32(len(outputs))
				outputs = append(outputs, nil)
			}
			cur = next[e]
		}
		outputs[cur] = append(outputs[cur], int32(pi))
	}
	// Resolve the table in BFS order. The root's row is already resolved
	// (absent edges return to the root). A deeper node u inherits its
	// failure node's row, resolved earlier because it is shallower, with
	// u's own goto edges written over it; each child's failure node is
	// then one lookup in that resolved row. Outputs are merged down the
	// failure links in the same pass.
	fail := make([]int32, len(outputs))
	queue := make([]int32, 0, len(outputs))
	for c := 0; c < 256; c++ {
		if v := next[c]; v != 0 {
			queue = append(queue, v) // fail[v] = 0
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		row, frow := next[int(u)<<8:][:256], next[int(fail[u])<<8:][:256]
		for c, v := range row {
			if v == 0 {
				row[c] = frow[c]
				continue
			}
			fail[v] = frow[c]
			outputs[v] = append(outputs[v], outputs[fail[v]]...)
			queue = append(queue, v)
		}
	}
	m := &Matcher{
		next:     next,
		outputs:  outputs,
		patterns: patterns,
		nodes:    len(outputs),
	}
	var rootBytes []byte
	for c := 0; c < 256; c++ {
		if m.next[c] != 0 {
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
		state = m.next[int(state)<<8|int(input[pos])]
		for _, pi := range m.outputs[state] {
			fn(int(pi), pos)
		}
	}
}

// Hits returns, per pattern, whether it occurs at least once in input —
// the prefilter query of the decomposition matcher. It short-circuits when
// every pattern has been seen.
func (m *Matcher) Hits(input []byte) []bool {
	s := m.NewSweeper()
	s.Sweep(input)
	return s.hits
}

// Sweeper is a resumable Hits query: the automaton state is carried across
// Sweep calls, so a pattern split over two chunks of a stream still
// registers — no byte tail is buffered, only the current trie node. The
// zero chunking of a stream therefore never changes the hit set. Reuse via
// Reset. A Sweeper is not safe for concurrent use.
type Sweeper struct {
	m       *Matcher
	state   int32
	hits    []bool
	left    int // patterns not seen yet; 0 short-circuits Sweep
	accel   bool
	skipped int64
}

// NewSweeper returns a fresh resumable hit query over the matcher. Root-state
// acceleration is on by default; SetAccel(false) disables it.
func (m *Matcher) NewSweeper() *Sweeper {
	return &Sweeper{m: m, hits: make([]bool, len(m.patterns)),
		left: len(m.patterns), accel: true}
}

// SetAccel toggles the root-state byte skip for subsequent Sweeps. The hit
// set is byte-identical either way; off exists for measurement and tests.
func (s *Sweeper) SetAccel(on bool) { s.accel = on }

// Skipped returns the cumulative number of bytes the root-state skip jumped
// over (across Resets).
func (s *Sweeper) Skipped() int64 { return s.skipped }

// Sweep consumes the next chunk of the stream, updating the hit set.
func (s *Sweeper) Sweep(chunk []byte) {
	if s.left == 0 {
		return
	}
	m := s.m
	state := s.state
	accel := s.accel && m.rootAccel
	for pos := 0; pos < len(chunk) && s.left > 0; pos++ {
		if accel && state == 0 {
			// Parked at the root: every byte outside the root-live set is
			// a self-loop with no outputs, so jump to the next live byte.
			j := m.rootFinder.Index(chunk[pos:])
			if j < 0 {
				s.skipped += int64(len(chunk) - pos)
				break
			}
			s.skipped += int64(j)
			pos += j
		}
		state = m.next[int(state)<<8|int(chunk[pos])]
		for _, pi := range m.outputs[state] {
			if !s.hits[pi] {
				s.hits[pi] = true
				s.left--
			}
		}
	}
	s.state = state
}

// Hits returns the per-pattern hit set accumulated so far. The slice is a
// copy; later Sweeps do not mutate it.
func (s *Sweeper) Hits() []bool {
	return append([]bool(nil), s.hits...)
}

// Hit reports whether pattern has occurred in the swept stream so far.
func (s *Sweeper) Hit(pattern int) bool { return s.hits[pattern] }

// Seen returns the number of distinct patterns that have occurred so far.
func (s *Sweeper) Seen() int { return len(s.hits) - s.left }

// Done reports whether every pattern has been seen; further Sweeps are
// no-ops.
func (s *Sweeper) Done() bool { return s.left == 0 }

// Reset clears the hit set and rewinds the automaton for a new stream.
func (s *Sweeper) Reset() {
	s.state = 0
	s.left = len(s.hits)
	for i := range s.hits {
		s.hits[i] = false
	}
}

// StreamScanner is a resumable match-emitting Scan: the automaton state is
// carried across chunks, so a pattern split over a chunk boundary still
// reports (at its chunk-relative end offset in the chunk that completes it).
// Unlike Sweeper it reports every occurrence, not just first-seen. Not safe
// for concurrent use.
type StreamScanner struct {
	m       *Matcher
	state   int32
	accel   bool
	skipped int64
}

// NewStreamScanner returns a fresh resumable occurrence scan over the
// matcher. Root-state acceleration is on by default.
func (m *Matcher) NewStreamScanner() *StreamScanner {
	return &StreamScanner{m: m, accel: true}
}

// SetAccel toggles the root-state byte skip for subsequent chunks.
func (s *StreamScanner) SetAccel(on bool) { s.accel = on }

// Skipped returns the cumulative number of bytes the root-state skip jumped
// over (across Resets).
func (s *StreamScanner) Skipped() int64 { return s.skipped }

// Scan consumes the next chunk, reporting pattern occurrences at their
// chunk-relative last-byte offsets.
func (s *StreamScanner) Scan(chunk []byte, fn func(pattern, end int)) {
	m := s.m
	state := s.state
	accel := s.accel && m.rootAccel
	for pos := 0; pos < len(chunk); pos++ {
		if accel && state == 0 {
			j := m.rootFinder.Index(chunk[pos:])
			if j < 0 {
				s.skipped += int64(len(chunk) - pos)
				s.state = 0
				return
			}
			s.skipped += int64(j)
			pos += j
		}
		state = m.next[int(state)<<8|int(chunk[pos])]
		for _, pi := range m.outputs[state] {
			fn(int(pi), pos)
		}
	}
	s.state = state
}

// Reset rewinds the automaton for a new stream.
func (s *StreamScanner) Reset() { s.state = 0 }
