package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"

	imfant "repro"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/nfa"
	"repro/internal/rex"
	"repro/internal/snort"
)

// packetsExtraRules put the packets ruleset's first two groups on the
// anchored and eager-DFA strategies, which no generated dataset group
// reaches: anchored HTTP request lines, and small alternations whose final
// states are sinks. Each list is exactly one MergeFactor-10 group.
var packetsExtraRules = []string{
	`^GET /admin/`,
	`^GET /cgi-bin/`,
	`^POST /login`,
	`^HEAD /`,
	`^PUT /upload/`,
	`^DELETE /api/`,
	`^GET /wp-login\.php$`,
	`^GET /.*\.php HTTP/1\.1$`,
	`^POST /.*HTTP/1\.0$`,
	`^OPTIONS \* HTTP/1\.1$`,

	`(cmd|exec|eval)\.exe`,
	`(select|union|insert) from`,
	`(passwd|shadow)%00`,
	`\.\./\.\./(etc|bin)/`,
	`(wget|curl) http`,
	`(base64|hex)_decode`,
	`(onload|onerror)=`,
	`(alert|prompt)\(`,
	`<(script|iframe)>`,
	`(xp_cmdshell|sp_execute)`,
}

// datasetPatterns concatenates the generated rules of the named datasets.
func datasetPatterns(abbrs ...string) ([]string, error) {
	var out []string
	for _, a := range abbrs {
		s, err := dataset.ByAbbr(a)
		if err != nil {
			return nil, err
		}
		out = append(out, s.Patterns()...)
	}
	return out, nil
}

// withoutHighByteRepeats drops rules with a mandatory repetition of a body
// holding a byte of 0x80 or above, such as `\xca{1,3}`. The prefilter's
// factor extraction encodes such bytes as UTF-8 runes, so it derives a
// factor the rule's matches do not contain and block scans skip the rule's
// group: every planted match of the rule would fail its reference check.
// 61 of the 300 TCP rules have this shape; no other dataset has any.
func withoutHighByteRepeats(patterns []string) ([]string, error) {
	var out []string
	for _, p := range patterns {
		ast, err := rex.Parse(p)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", p, err)
		}
		high := false
		ast.Walk(func(n *rex.Node) {
			if n.Op != rex.OpRepeat || n.Min == 0 {
				return
			}
			n.Subs[0].Walk(func(b *rex.Node) {
				if b.Op == rex.OpLit && b.Set.Len() == 1 && b.Set.Bytes()[0] >= 0x80 {
					high = true
				}
			})
		})
		if !high {
			out = append(out, p)
		}
	}
	return out, nil
}

// snortPatterns translates the snort-derived web-attacks rules shipped with
// the snort package's tests.
func snortPatterns() ([]string, error) {
	f, err := os.Open("internal/snort/testdata/web-attacks.rules")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rules, _, err := snort.ParseRules(f)
	if err != nil {
		return nil, fmt.Errorf("parse web-attacks.rules: %w", err)
	}
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Pattern
	}
	return out, nil
}

// planter samples strings accepted by a ruleset's rules, so traffic can
// carry real matches. Anchored rules are planted at the start or end of
// their buffer, where their anchors can hold.
type planter struct {
	asts       []*rex.Node
	start, end []bool
	printable  []byte
	allBytes   []byte
}

func newPlanter(patterns []string) (*planter, error) {
	p := &planter{}
	for _, pat := range patterns {
		ast, err := rex.Parse(pat)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", pat, err)
		}
		p.asts = append(p.asts, ast)
		p.start = append(p.start, strings.HasPrefix(pat, "^"))
		p.end = append(p.end, strings.HasSuffix(pat, "$") && !strings.HasSuffix(pat, `\$`))
	}
	for c := 0x20; c < 0x7f; c++ {
		p.printable = append(p.printable, byte(c))
	}
	for c := 0; c < 256; c++ {
		p.allBytes = append(p.allBytes, byte(c))
	}
	return p, nil
}

// skewedSize draws a payload size in [64, 1500], skewed small: the cube of
// a uniform variate puts the median near 240 bytes and the mean near 420.
func skewedSize(rng *rand.Rand) int {
	u := rng.Float64()
	return 64 + int(1436*u*u*u)
}

// fill returns n background bytes: printable text for two payloads in
// three, arbitrary bytes otherwise.
func (p *planter) fill(rng *rand.Rand, n int) []byte {
	alpha := p.printable
	if rng.Intn(3) == 0 {
		alpha = p.allBytes
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return b
}

// plant overwrites part of b with a sample of a random rule.
func (p *planter) plant(rng *rand.Rand, b []byte) []byte {
	i := rng.Intn(len(p.asts))
	s := dataset.SampleString(rng, p.asts[i])
	if len(s) > len(b) {
		s = s[:len(b)]
	}
	switch {
	case p.start[i] && p.end[i]:
		return append(b[:0], s...)
	case p.start[i]:
		copy(b, s)
	case p.end[i]:
		copy(b[len(b)-len(s):], s)
	default:
		copy(b[rng.Intn(len(b)-len(s)+1):], s)
	}
	return b
}

// digest is an order-independent fingerprint of a set of (rule, end) match
// events. Digests of disjoint event sets combine by add.
type digest struct {
	n        int64
	sum, xor uint64
}

func (d *digest) add(rule, end int) {
	h := uint64(rule)<<32 ^ uint64(uint32(end))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	d.n++
	d.sum += h
	d.xor ^= h
}

func (d *digest) merge(o digest) {
	d.n += o.n
	d.sum += o.sum
	d.xor ^= o.xor
}

func digestOf(ms []imfant.Match) digest {
	var d digest
	for _, m := range ms {
		d.add(m.Rule, m.End)
	}
	return d
}

// reference is the configuration every operation is checked against: each
// rule its own automaton on the iMFAnt engine, with the prefilter,
// acceleration and segmentation off, so it bypasses the layers later
// changes optimise. The rules are split across one ruleset per CPU so the
// reference scans run in parallel.
type reference struct {
	parts   []*imfant.Ruleset
	offsets []int
}

func newReference(patterns []string, keepOnMatch bool) (*reference, error) {
	opts := imfant.Options{
		MergeFactor: 1,
		KeepOnMatch: keepOnMatch,
		Engine:      imfant.EngineIMFAnt,
		Prefilter:   imfant.PrefilterOff,
		Accel:       imfant.AccelOff,
		Segment:     imfant.SegmentOff,
	}
	n := runtime.NumCPU()
	ref := &reference{}
	for i := 0; i < n; i++ {
		lo, hi := i*len(patterns)/n, (i+1)*len(patterns)/n
		if lo == hi {
			continue
		}
		rs, err := imfant.Compile(patterns[lo:hi], opts)
		if err != nil {
			return nil, fmt.Errorf("reference compile: %w", err)
		}
		ref.parts = append(ref.parts, rs)
		ref.offsets = append(ref.offsets, lo)
	}
	return ref, nil
}

// each runs fn once per part on its own goroutine and waits for all.
func (ref *reference) each(fn func(k int, rs *imfant.Ruleset)) {
	var wg sync.WaitGroup
	for k, rs := range ref.parts {
		wg.Add(1)
		go func(k int, rs *imfant.Ruleset) {
			defer wg.Done()
			fn(k, rs)
		}(k, rs)
	}
	wg.Wait()
}

// digests returns the reference digest of every input.
func (ref *reference) digests(inputs [][]byte) []digest {
	partial := make([][]digest, len(ref.parts))
	ref.each(func(k int, rs *imfant.Ruleset) {
		ds := make([]digest, len(inputs))
		for i, in := range inputs {
			for _, m := range rs.FindAll(in) {
				ds[i].add(m.Rule+ref.offsets[k], m.End)
			}
		}
		partial[k] = ds
	})
	out := make([]digest, len(inputs))
	for _, ds := range partial {
		for i := range ds {
			out[i].merge(ds[i])
		}
	}
	return out
}

// count returns the reference match count of input.
func (ref *reference) count(input []byte) int64 {
	counts := make([]int64, len(ref.parts))
	ref.each(func(k int, rs *imfant.Ruleset) { counts[k] = rs.Count(input) })
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// crossCheck compares reference digests against engine.ReferenceScan over
// the per-rule NFAs, which shares no merging or engine code with the
// reference ruleset. It returns one message per disagreeing input.
func crossCheck(patterns []string, keepOnMatch bool, inputs [][]byte, want []digest) ([]string, error) {
	fsas := make([]*nfa.NFA, len(patterns))
	for i, p := range patterns {
		a, err := nfa.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("cross-check compile %q: %w", p, err)
		}
		fsas[i] = a
	}
	var bad []string
	for i, in := range inputs {
		var d digest
		for rule, a := range fsas {
			for _, end := range engine.ReferenceScan(a, in, keepOnMatch) {
				d.add(rule, end)
			}
		}
		if d != want[i] {
			bad = append(bad, fmt.Sprintf("cross-check input %d: %d events from ReferenceScan, %d from the reference ruleset", i, d.n, want[i].n))
		}
	}
	return bad, nil
}

// sample picks k distinct indices below n, seeded.
func sample(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}
