package ahocorasick

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

type hit struct{ pattern, end int }

func scanAll(m *Matcher, input []byte) []hit {
	var out []hit
	m.Scan(input, func(p, e int) { out = append(out, hit{p, e}) })
	sort.Slice(out, func(i, j int) bool {
		if out[i].end != out[j].end {
			return out[i].end < out[j].end
		}
		return out[i].pattern < out[j].pattern
	})
	return out
}

// naive finds all occurrences by brute-force substring comparison.
func naive(patterns [][]byte, input []byte) []hit {
	var out []hit
	for pi, p := range patterns {
		for i := 0; i+len(p) <= len(input); i++ {
			if bytes.Equal(input[i:i+len(p)], p) {
				out = append(out, hit{pi, i + len(p) - 1})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].end != out[j].end {
			return out[i].end < out[j].end
		}
		return out[i].pattern < out[j].pattern
	})
	return out
}

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestClassicExample(t *testing.T) {
	// The canonical Aho–Corasick example: {he, she, his, hers} on "ushers".
	m, err := New(pats("he", "she", "his", "hers"))
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(m, []byte("ushers"))
	want := []hit{{0, 3}, {1, 3}, {3, 5}} // she@3, he@3, hers@5
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hits %v, want %v", got, want)
	}
}

func TestOverlapsAndNesting(t *testing.T) {
	m, err := New(pats("aa", "aaa", "a"))
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(m, []byte("aaaa"))
	want := naive(pats("aa", "aaa", "a"), []byte("aaaa"))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hits %v, want %v", got, want)
	}
}

func TestDuplicatePatterns(t *testing.T) {
	m, err := New(pats("ab", "ab"))
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(m, []byte("ab"))
	if len(got) != 2 {
		t.Fatalf("hits %v, want both duplicates", got)
	}
}

func TestEmptyPatternRejected(t *testing.T) {
	if _, err := New(pats("a", "")); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestHits(t *testing.T) {
	m, err := New(pats("foo", "bar", "baz"))
	if err != nil {
		t.Fatal(err)
	}
	hits := m.Hits([]byte("xx bar yy foo"))
	if !hits[0] || !hits[1] || hits[2] {
		t.Fatalf("hits %v", hits)
	}
	none := m.Hits([]byte("nothing here"))
	for _, h := range none {
		if h {
			t.Fatalf("phantom hit: %v", none)
		}
	}
}

func TestBinaryPatterns(t *testing.T) {
	p := [][]byte{{0x00, 0xff}, {0xff, 0x00, 0xff}}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	in := []byte{0xff, 0x00, 0xff, 0x00, 0xff}
	got := scanAll(m, in)
	want := naive(p, in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hits %v, want %v", got, want)
	}
}

func TestQuickMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func() bool {
		np := 1 + r.Intn(6)
		patterns := make([][]byte, np)
		for i := range patterns {
			p := make([]byte, 1+r.Intn(5))
			for k := range p {
				p[k] = byte('a' + r.Intn(3))
			}
			patterns[i] = p
		}
		m, err := New(patterns)
		if err != nil {
			return false
		}
		in := make([]byte, r.Intn(48))
		for k := range in {
			in[k] = byte('a' + r.Intn(3))
		}
		got := scanAll(m, in)
		want := naive(patterns, in)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("patterns=%q input=%q: %v want %v", patterns, in, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestNumAccessors(t *testing.T) {
	m, err := New(pats("ab", "cd"))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPatterns() != 2 {
		t.Fatal("NumPatterns")
	}
	if m.NumNodes() != 5 { // root + a,b + c,d
		t.Fatalf("NumNodes=%d", m.NumNodes())
	}
}

// refNode is a trie node of the reference construction.
type refNode struct {
	children map[byte]int32
	out      []int32
	fail     int32
}

// refTables is the reference construction New must agree with: a trie of
// child maps, BFS failure links found by walking failure chains, and a
// next table resolved entry by entry with resolve.
func refTables(patterns [][]byte) (next []int32, outputs [][]int32) {
	trie := []refNode{{children: map[byte]int32{}}}
	for pi, p := range patterns {
		cur := int32(0)
		for _, c := range p {
			nxt, ok := trie[cur].children[c]
			if !ok {
				nxt = int32(len(trie))
				trie = append(trie, refNode{children: map[byte]int32{}})
				trie[cur].children[c] = nxt
			}
			cur = nxt
		}
		trie[cur].out = append(trie[cur].out, int32(pi))
	}
	queue := make([]int32, 0, len(trie))
	for _, child := range trie[0].children {
		queue = append(queue, child)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for c, v := range trie[u].children {
			f := trie[u].fail
			for {
				if w, ok := trie[f].children[c]; ok && w != v {
					trie[v].fail = w
					break
				}
				if f == 0 {
					trie[v].fail = 0
					break
				}
				f = trie[f].fail
			}
			trie[v].out = append(trie[v].out, trie[trie[v].fail].out...)
			queue = append(queue, v)
		}
	}
	next = make([]int32, len(trie)*256)
	outputs = make([][]int32, len(trie))
	for u := range trie {
		outputs[u] = trie[u].out
		for c := 0; c < 256; c++ {
			next[u*256+c] = resolve(trie, int32(u), byte(c))
		}
	}
	return next, outputs
}

// resolve follows failure links from u until a goto edge on c exists, or
// the root is reached.
func resolve(trie []refNode, u int32, c byte) int32 {
	for {
		if v, ok := trie[u].children[c]; ok {
			return v
		}
		if u == 0 {
			return 0
		}
		u = trie[u].fail
	}
}

// TestQuickTablesMatchReference walks New's class-compressed table in
// lockstep with the fail-chain reference on random pattern sets over a
// small alphabet that includes NUL and 0xFF, with prefixes, suffixes and
// exact duplicates: from the two roots, every byte must lead both tables to
// corresponding states — one state per reference node — with the same
// outputs, and the match threshold must separate the emitting states.
func TestQuickTablesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	alpha := []byte{0x00, 0xff, 'a', 'b'}
	f := func() bool {
		np := 1 + r.Intn(12)
		patterns := make([][]byte, np)
		for i := range patterns {
			if i > 0 && r.Intn(4) == 0 {
				prev := patterns[r.Intn(i)]
				patterns[i] = prev[r.Intn(len(prev)):] // suffix or duplicate
				continue
			}
			p := make([]byte, 1+r.Intn(6))
			for k := range p {
				p[k] = alpha[r.Intn(len(alpha))]
			}
			patterns[i] = p
		}
		m, err := New(patterns)
		if err != nil {
			t.Logf("patterns=%q: %v", patterns, err)
			return false
		}
		if err := lockstep(m, patterns); err != "" {
			t.Logf("patterns=%q: %s", patterns, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// lockstep walks m and the reference tables of patterns together over
// every byte from every reachable state pair, and describes the first
// disagreement ("" when none).
func lockstep(m *Matcher, patterns [][]byte) string {
	next, outputs := refTables(patterns)
	if m.nodes != len(outputs) || len(m.next) != m.nodes*m.stride {
		return fmt.Sprintf("%d nodes of %d classes in %d entries, reference %d nodes",
			m.nodes, m.stride, len(m.next), len(outputs))
	}
	toRef := map[int32]int32{0: 0}
	fromRef := map[int32]int32{0: 0}
	queue := []int32{0}
	for head := 0; head < len(queue); head++ {
		s := queue[head]
		u := toRef[s]
		for c := 0; c < 256; c++ {
			s2 := m.next[int(s)+int(m.class[c])]
			u2 := next[int(u)*256+c]
			if s2%int32(m.stride) != 0 {
				return fmt.Sprintf("state %d on %#x: successor %d is not a row offset", s, c, s2)
			}
			if w, ok := toRef[s2]; ok {
				if w != u2 {
					return fmt.Sprintf("state %d on %#x: reaches node %d, reference %d", s, c, w, u2)
				}
				continue
			}
			if w, ok := fromRef[u2]; ok {
				return fmt.Sprintf("reference node %d is both states %d and %d", u2, w, s2)
			}
			var got []int32
			if s2 >= m.matchMin {
				got = m.emits(s2)
			}
			if len(got) == 0 && s2 >= m.matchMin || !slices.Equal(got, outputs[u2]) {
				return fmt.Sprintf("state %d (node %d): outputs %v, reference %v", s2, u2, got, outputs[u2])
			}
			toRef[s2], fromRef[u2] = u2, s2
			queue = append(queue, s2)
		}
	}
	if len(queue) != m.nodes {
		return fmt.Sprintf("%d states reachable of %d nodes", len(queue), m.nodes)
	}
	return ""
}

func BenchmarkScan(b *testing.B) {
	patterns := make([][]byte, 100)
	r := rand.New(rand.NewSource(6))
	for i := range patterns {
		p := make([]byte, 4+r.Intn(12))
		for k := range p {
			p[k] = byte('a' + r.Intn(26))
		}
		patterns[i] = p
	}
	m, err := New(patterns)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]byte, 64<<10)
	for k := range in {
		in[k] = byte('a' + r.Intn(26))
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Scan(in, func(int, int) {})
	}
}
