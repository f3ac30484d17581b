package imfant

import (
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lazydfa"
	"repro/internal/nfa"
	"repro/internal/snort"
)

// The conformance matrix checks every execution configuration and every
// entry point against a ground truth anchored in stdlib regexp, which shares
// no code with this repo's parser or NFA construction. A match is a (rule,
// end offset) event. Patterns and inputs range over the full byte alphabet:
// stdlib reads each input byte as the rune U+0000–U+00FF of the same value,
// so a pattern's \xNN escapes and classes mean the same bytes to both
// parsers, and this repo's \s and \S (POSIX space, with \v) are rewritten to
// explicit classes for stdlib.
//
// Under KeepOnMatch the event (r, e) exists iff some s ≤ e has in[s:e+1] in
// the language of rule r, decided by stdlib alone. Under the paper's Eq. 5
// pop the truth is engine.ReferenceScan over the rule's own NFA, pinned from
// both sides by stdlib: its events are keep events, and for a rule without
// a trailing $ they include, from every start s, the end of the shortest
// in[s:e+1] in the language, since no proper prefix of that word is
// accepted and so no path through it was popped. Only the few pop events
// that depend on the automaton's shape rest on ReferenceScan alone.
//
// Small inputs are checked against that truth directly; large,
// boundary-straddling inputs against the plain iMFAnt configuration
// (prefilter, acceleration and segmentation off), which the small inputs
// validate in the same run. The rulesets are generated ones, a wide one of
// more than 64 rules, and the snort-derived web-attacks rules.

// confPatterns are fixed shapes that every generated matrix ruleset
// carries, chosen so that each execution layer engages somewhere in the
// matrix: under EngineAuto at MergeFactor 1 they plan to the AC, anchored,
// eager-DFA and lazy-DFA strategies.
var confPatterns = []string{
	"needle", "cab", // literals: an AC group at M ≤ 2, prefilter factors
	// More literals, so that at M ≤ 2 three or more AC groups meet in the
	// one literal pass: a suffix of another literal, a duplicate, a
	// high-byte literal and a suffix that is also a generated atom.
	"eedle", "needle", `\x90\x90`, "ab",
	"^HDR", "tail$", // anchored literals
	"a[bc]+d", "(foo|bar)baz", // small sets: the eager DFA
	"x.{2,5}y", "b+c", // carries across chunk and segment boundaries
	"/adm[a-z]*",                             // one start byte: acceleration skips filler
	"(xc+)?", "(xc+)?y", "((c)+[^ab]c){0,1}", // an optional over a + loop
	"x[0-9a-c]{40}y", // a long counted chain
	// A gated rule whose factor is an AC literal: one pattern of the literal
	// pass both delivers "needle" and wakes this rule's group.
	"needle[0-9]*x",
	// Dot-star literal chains, a chain group at M ≤ 2: overlapping and
	// repeated pieces, three pieces one of which is an AC literal and a
	// factor, and gaps that two bytes kill.
	"ab.*ba", "ab.*ab", "cab.*needle.*xy", `needle[^\x0d\x0a]*cab`,
}

// confFragments salt the generated inputs with near and full matches of
// confPatterns.
var confFragments = []string{
	"needle", "neede", "cab", "\x90\x90\x90", "HDR", "tail", "abd", "acbd", "foobaz", "barba",
	"xqqy", "x12345y", "bbc", "/admin", "xc", "xccy", "cc", "c", "y", "\n",
	"aba", "abba", "xy", "\r\n", "\r",
}

// snortFragments salt the snort ruleset's inputs with the literals of its
// rules, in several letter cases, and with near misses.
var snortFragments = []string{
	"/cgi-bin/phf", "/cgi-bin/test-cgi", "cmd.exe", "CmD.ExE", "/etc/passwd",
	"../..", "union select", "UNION/**/SELECT", "<script", "<ScRiPt",
	".php?u=http://", "\x90\x90\x90\x90", "site exec", "SITE  EXEC",
	"User-Agent: nikto", "User-Agent:sqlmap", "nmap", "GET ", "\r\n", "\n",
}

// confEdgeBytes are the bytes where this repo's classes and stdlib's are
// most likely to part: NUL, the POSIX spaces (\v among them), DEL, the high
// half and the word-class borders.
const confEdgeBytes = "\x00\t\n\v\f\r \x7f\x80\x90\xff09AZ_"

// snortPatterns returns the patterns of the snort-derived web-attacks
// ruleset.
func snortPatterns(t testing.TB) []string {
	t.Helper()
	f, err := os.Open("internal/snort/testdata/web-attacks.rules")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rules, _, err := snort.ParseRules(f)
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]string, len(rules))
	for i, ru := range rules {
		patterns[i] = ru.Pattern
	}
	return patterns
}

// confConfig is one cell of the configuration matrix.
type confConfig struct {
	name string
	opts Options
}

// conformanceConfigs enumerates the full product Engine × KeepOnMatch ×
// Prefilter × Accel × Segment. Three further dimensions rotate through each
// engine × semantics block of 18 cells, so that every value meets every
// engine and semantics: MergeFactor {0, 1, 2}, LazyDFAMaxStates {0, 3} and
// instrumentation (Latency, TraceCapacity and Profile) off or on.
func conformanceConfigs() []confConfig {
	engines := []EngineMode{EngineAuto, EngineIMFAnt, EngineLazyDFA}
	engineNames := []string{"auto", "imfant", "lazydfa"}
	prefilters := []PrefilterMode{PrefilterAuto, PrefilterOff, PrefilterOn}
	accels := []AccelMode{AccelAuto, AccelOff}
	segments := []SegmentMode{SegmentAuto, SegmentOff, SegmentOn}
	modeNames := []string{"auto", "off", "on"}
	var out []confConfig
	for e, eng := range engines {
		for _, keep := range []bool{false, true} {
			for p, pf := range prefilters {
				for a, accel := range accels {
					for s, seg := range segments {
						mix := p + a + s
						instr := (p+s)%2 == 1
						o := Options{Engine: eng, KeepOnMatch: keep, Prefilter: pf, Accel: accel,
							Segment: seg, MergeFactor: mix % 3, LazyDFAMaxStates: 3 * (mix % 2),
							Latency: instr, Profile: instr}
						if instr {
							o.TraceCapacity = 256
						}
						sem := "pop"
						if keep {
							sem = "keep"
						}
						out = append(out, confConfig{
							name: fmt.Sprintf("%s/%s/pf-%s/accel-%s/seg-%s/m%d/cap%d/obs-%v",
								engineNames[e], sem, modeNames[p], []string{"auto", "off"}[a],
								modeNames[s], o.MergeFactor, o.LazyDFAMaxStates, instr),
							opts: o,
						})
					}
				}
			}
		}
	}
	return out
}

// confRule is one rule's independent oracle: stdlib regexps of its
// anchor-free body, whole-word and suffix-anchored, and its own NFA for
// ReferenceScan.
type confRule struct {
	whole, suffix    *regexp.Regexp
	anchorS, anchorE bool
	fsa              *nfa.NFA
}

// newConfRules builds the oracles of a ruleset, or fails when a pattern is
// outside the subset both parsers accept. The stdlib regexp runs without
// the s flag: like this repo's '.', its '.' excludes '\n'.
func newConfRules(patterns []string) ([]confRule, error) {
	out := make([]confRule, len(patterns))
	for i, p := range patterns {
		r := &out[i]
		body, anchorS := strings.CutPrefix(p, "^")
		body, anchorE := strings.CutSuffix(body, "$")
		r.anchorS, r.anchorE = anchorS, anchorE
		body = stdlibSyntax(body)
		var err error
		if r.whole, err = regexp.Compile(`\A(?:` + body + `)\z`); err != nil {
			return nil, err
		}
		r.suffix = regexp.MustCompile(`(?:` + body + `)\z`)
		if r.fsa, err = nfa.Compile(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stdlibSyntax rewrites a pattern body of the shared subset for stdlib,
// whose \s lacks \v: \s and \S become POSIX space and its complement over
// the bytes, as classes or, inside a bracket, as bare byte lists.
func stdlibSyntax(p string) string {
	var b strings.Builder
	bracket := false
	for i := 0; i < len(p); i++ {
		switch c := p[i]; {
		case c == '\\' && i+1 < len(p) && (p[i+1] == 's' || p[i+1] == 'S'):
			list := `\t\n\v\f\r `
			if p[i+1] == 'S' {
				list = `\x00-\x08\x0e-\x1f!-\xff`
			}
			if !bracket {
				list = "[" + list + "]"
			}
			b.WriteString(list)
			i++
		case c == '\\' && i+1 < len(p):
			b.WriteString(p[i : i+2])
			i++
		case c == '[' && bracket && strings.HasPrefix(p[i:], "[:"):
			// A POSIX class: its ']' does not close the bracket.
			n := strings.Index(p[i:], ":]") + 2
			b.WriteString(p[i : i+n])
			i += n - 1
		default:
			bracket = c == '[' || bracket && c != ']'
			b.WriteByte(c)
		}
	}
	return b.String()
}

// confTruth returns the KeepOnMatch and pop ground truths of in, in FindAll
// order, and fails the test unless the pop events lie between the stdlib
// lower bound and the keep events.
func confTruth(t testing.TB, patterns []string, rules []confRule, in []byte) (keep, pop []Match) {
	t.Helper()
	// Byte i of in is the rune text[off[i]:off[i+1]].
	var sb strings.Builder
	off := make([]int, len(in)+1)
	for i, c := range in {
		off[i] = sb.Len()
		sb.WriteRune(rune(c))
	}
	off[len(in)] = sb.Len()
	text := sb.String()
	var lower []Match
	for i, r := range rules {
		ends := make([]bool, len(in))
		for e := range in {
			if r.anchorE && e != len(in)-1 {
				continue
			}
			if r.anchorS {
				ends[e] = r.whole.MatchString(text[:off[e+1]])
			} else {
				// The leftmost start of a match ending at e: some
				// nonempty word ends there iff it lies before e+1.
				loc := r.suffix.FindStringIndex(text[:off[e+1]])
				ends[e] = loc != nil && loc[0] < off[e+1]
			}
			if ends[e] {
				keep = append(keep, Match{Rule: i, Pattern: patterns[i], End: e})
			}
		}
		for s := 0; s < len(in) && !r.anchorE && (s == 0 || !r.anchorS); s++ {
			for e := s; e < len(in); e++ {
				if ends[e] && r.whole.MatchString(text[off[s]:off[e+1]]) {
					lower = append(lower, Match{Rule: i, Pattern: patterns[i], End: e})
					break
				}
			}
		}
		for _, e := range engine.ReferenceScan(r.fsa, in, false) {
			pop = append(pop, Match{Rule: i, Pattern: patterns[i], End: e})
		}
	}
	sortByEnd(keep)
	sortByEnd(pop)
	for _, m := range pop {
		if !slices.Contains(keep, m) {
			t.Fatalf("pop event %+v on %q is not a keep event of stdlib regexp", m, in)
		}
	}
	for _, m := range lower {
		if !slices.Contains(pop, m) {
			t.Fatalf("pop truth on %q lacks %+v, the end of a shortest stdlib match", in, m)
		}
	}
	return keep, pop
}

// confCase is one input with the events every configuration must report.
type confCase struct {
	in        []byte
	keep, pop []Match
}

// want returns the events of the case under the given semantics.
func (c confCase) want(keepOnMatch bool) []Match {
	if keepOnMatch {
		return c.keep
	}
	return c.pop
}

// genConfPattern draws a pattern from the subset both this repo's parser
// and stdlib regexp accept: literals, \xNN escapes, classes (negated,
// ranged, POSIX and the \d \w \s \S shorthands), '.', groups, alternation,
// the quantifiers * + ? {0,1} {0,2} {1,3} {2,} {3}, and anchors at the
// pattern ends. High bytes appear only as \xNN escapes, so the pattern
// stays valid UTF-8 for stdlib.
func genConfPattern(r *rand.Rand) string {
	p := genConfExpr(r, 3)
	switch r.Intn(6) {
	case 0:
		p = "^" + p
	case 1:
		p += "$"
	}
	return p
}

// genConfExpr draws an anchor-free expression of genConfPattern's subset.
func genConfExpr(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(4) == 0 {
		atoms := []string{"a", "b", "c", "x", "y", "ab", "xc", "abc", "[a-c]", "[bx]", "[^ab]", ".",
			`\x00`, `\x0b`, `\x90`, `\xff`, `[\x80-\xff]`, `[^a\x90]`, `[^\s\xff]`,
			`\d`, `\w`, `\s`, `\S`, `[[:alpha:]]`}
		return atoms[r.Intn(len(atoms))]
	}
	switch r.Intn(4) {
	case 0, 1:
		return genConfExpr(r, depth-1) + genConfExpr(r, depth-1)
	case 2:
		return "(" + genConfExpr(r, depth-1) + "|" + genConfExpr(r, depth-1) + ")"
	default:
		quants := []string{"*", "+", "?", "{0,1}", "{0,2}", "{1,3}", "{2,}", "{3}"}
		return "(" + genConfExpr(r, depth-1) + ")" + quants[r.Intn(len(quants))]
	}
}

// genConfInput builds a small input of at most max bytes from frags, single
// bytes of the pattern alphabet, edge bytes and arbitrary bytes.
func genConfInput(r *rand.Rand, frags []string, max int) []byte {
	n := r.Intn(max + 1)
	var b []byte
	for len(b) < n {
		switch r.Intn(8) {
		case 0, 1, 2, 3:
			b = append(b, frags[r.Intn(len(frags))]...)
		case 4, 5:
			b = append(b, "abcxy/ -"[r.Intn(8)])
		case 6:
			b = append(b, confEdgeBytes[r.Intn(len(confEdgeBytes))])
		default:
			b = append(b, byte(r.Intn(256)))
		}
	}
	return b[:n]
}

// confLargeInput builds 3 KiB of sparse filler salted with frags, with
// fragments of four bytes or more straddling every segment boundary for 2,
// 3, 4 and 8 parts (the length is a multiple of 24, so the cuts fall at
// exact fractions).
func confLargeInput(r *rand.Rand, frags []string) []byte {
	const n = 3 << 10
	b := []byte(strings.Repeat("-", n))
	for pos := r.Intn(64); pos < n-16; pos += 16 + r.Intn(160) {
		copy(b[pos:], frags[r.Intn(len(frags))])
	}
	for _, parts := range []int{2, 3, 4, 8} {
		for k := 1; k < parts; k++ {
			f := ""
			for len(f) < 4 {
				f = frags[r.Intn(len(frags))]
			}
			copy(b[k*n/parts-len(f)/2:], f)
		}
	}
	copy(b[:4], "HDR ")
	copy(b[n-5:], " tail")
	return b
}

// confRuleset is one matrix ruleset with its cases: small inputs carry the
// independent truth, large ones the reference configuration's events.
type confRuleset struct {
	patterns []string
	cases    []confCase
}

// newConfRuleset builds sixteen small inputs of at most max bytes and one
// large input for patterns, salted with frags, and their truths.
func newConfRuleset(t *testing.T, patterns, frags []string, max int, r *rand.Rand) confRuleset {
	t.Helper()
	rules, err := newConfRules(patterns)
	if err != nil {
		t.Fatal(err)
	}
	cs := confRuleset{patterns: patterns}
	for i := range 16 {
		in := genConfInput(r, frags, max)
		switch i {
		case 0:
			in = nil
		case 1:
			in = []byte("c") // the (xc+)? bypass
		}
		c := confCase{in: in}
		c.keep, c.pop = confTruth(t, patterns, rules, in)
		cs.cases = append(cs.cases, c)
	}
	large := confCase{in: confLargeInput(r, frags)}
	reference := func(keep bool) []Match {
		return MustCompile(patterns, Options{Engine: EngineIMFAnt, KeepOnMatch: keep,
			Prefilter: PrefilterOff, Accel: AccelOff, Segment: SegmentOff}).FindAll(large.in)
	}
	large.keep, large.pop = reference(true), reference(false)
	cs.cases = append(cs.cases, large)
	return cs
}

// TestConformanceMatrix runs every cell of conformanceConfigs over a
// rotating set of rulesets, through every entry point, against the
// independent truth, and checks the stats invariants of each cell.
func TestConformanceMatrix(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	var rulesets []confRuleset
	r := rand.New(rand.NewSource(1))
	for range 6 {
		patterns := slices.Clone(confPatterns)
		for range 3 {
			patterns = append(patterns, genConfPattern(r))
		}
		rulesets = append(rulesets, newConfRuleset(t, patterns, confFragments, 20, r))
	}
	// More than 64 rules behind two start bytes: at MergeFactor 0 the group
	// runs iMFAnt's multi-word activation sets, whose start-byte skip
	// engages on the filler.
	var wide []string
	for k := range 66 {
		wide = append(wide, string("x/"[k%2])+genConfExpr(r, 2))
	}
	rulesets = append(rulesets, newConfRuleset(t, wide, confFragments, 20, r))
	// The snort rules' cells alternate LazyDFAMaxStates 0 and 3, so their
	// lazy groups flush and fall back to iMFAnt on thrash.
	rulesets = append(rulesets, newConfRuleset(t, snortPatterns(t), snortFragments, 48, r))
	// Several AC groups must meet in one literal pass somewhere in the
	// matrix, or the pass's attribution goes unexercised.
	acGroups := 0
	for i, cfg := range conformanceConfigs() {
		if cfg.opts.Engine != EngineAuto || acGroups >= 3 {
			continue
		}
		n := 0
		for _, st := range MustCompile(rulesets[i%len(rulesets)].patterns, cfg.opts).Strategies() {
			if st == StrategyAC {
				n++
			}
		}
		acGroups = max(acGroups, n)
	}
	if acGroups < 3 {
		t.Fatalf("no auto cell plans more than %d AC groups, want 3", acGroups)
	}
	// Some auto cell must gate a group on a factor that is also an AC
	// literal, or the pass's owner and wake lists never meet on one pattern.
	fused := false
	for i, cfg := range conformanceConfigs() {
		if cfg.opts.Engine != EngineAuto || fused {
			continue
		}
		if lp := MustCompile(rulesets[i%len(rulesets)].patterns, cfg.opts).plan.lit; lp != nil {
			for k := range lp.owners {
				fused = fused || len(lp.owners[k]) > 0 && len(lp.wakes[k]) > 0
			}
		}
	}
	if !fused {
		t.Fatal("no auto cell gates a group on a factor that is also an AC literal")
	}
	// Some auto cell must plan a chain group, or the pass's phase state goes
	// unexercised.
	chains := false
	for i, cfg := range conformanceConfigs() {
		if cfg.opts.Engine == EngineAuto && !chains {
			chains = slices.Contains(MustCompile(rulesets[i%len(rulesets)].patterns, cfg.opts).Strategies(), StrategyChain)
		}
	}
	if !chains {
		t.Fatal("no auto cell plans a chain group")
	}
	// Some auto cell must run lazy-DFA groups fused into one execution
	// unit, or the units' owner map goes unexercised.
	multi := false
	for i, cfg := range conformanceConfigs() {
		if cfg.opts.Engine != EngineAuto || multi {
			continue
		}
		for _, x := range MustCompile(rulesets[i%len(rulesets)].patterns, cfg.opts).plan.units {
			multi = multi || len(x.groups) >= 2
		}
	}
	if !multi {
		t.Fatal("no auto cell runs an execution unit of two or more groups")
	}
	// Runs once every parallel cell has finished.
	t.Cleanup(func() { checkGoroutines(t, goroutines) })
	for i, cfg := range conformanceConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			cs := rulesets[i%len(rulesets)]
			checkConformance(t, cfg.opts, cs.patterns, cs.cases, rand.New(rand.NewSource(int64(i))))
		})
	}
}

// checkConformance compiles patterns under opts and checks every entry
// point on every case, a Registry stream across an Update on the last case,
// and the stats invariants.
func checkConformance(t *testing.T, opts Options, patterns []string, cases []confCase, rng *rand.Rand) {
	t.Helper()
	rs, err := Compile(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	sc := rs.NewScanner()
	for _, c := range cases {
		checkEntryPoints(t, rs, sc, c.in, c.want(opts.KeepOnMatch), rng)
	}
	last := cases[len(cases)-1]
	checkRegistryStream(t, rs, patterns, opts, last.in, last.want(opts.KeepOnMatch), rng)
	checkStatsInvariants(t, rs, sc, opts)
}

// checkEntryPoints runs in through FindAll, the reused Scanner, Count,
// CountPerRule, CountParallel at 1, 2 and 4 threads, findAllSegmented at 2,
// 3 and 8 segments, a randomly chunked StreamMatcher, and three interleaved
// ones — the shape of many open flows on one shared lazy-DFA table, which
// the cap-3 cells flush while the other streams hold states in it.
func checkEntryPoints(t *testing.T, rs *Ruleset, sc *Scanner, in []byte, want []Match, rng *rand.Rand) {
	t.Helper()
	fail := func(what string, got any) {
		t.Helper()
		t.Fatalf("%s on %.80q:\ngot  %v\nwant %v", what, in, got, want)
	}
	ctx := t.Context()
	if got, err := rs.FindAllContext(ctx, in); err != nil || !slices.Equal(got, want) {
		fail(fmt.Sprintf("FindAll (err %v)", err), got)
	}
	if got, err := sc.FindAllContext(ctx, in); err != nil || !slices.Equal(got, want) {
		fail(fmt.Sprintf("reused Scanner (err %v)", err), got)
	}
	if n := rs.Count(in); n != int64(len(want)) {
		fail("Count", n)
	}
	perRule := make([]int64, rs.NumRules())
	for _, m := range want {
		perRule[m.Rule]++
	}
	if got := rs.CountPerRule(in); !slices.Equal(got, perRule) {
		fail(fmt.Sprintf("CountPerRule (want %v)", perRule), got)
	}
	for _, threads := range []int{1, 2, 4} {
		if n, err := rs.CountParallel(in, threads); err != nil || n != int64(len(want)) {
			fail(fmt.Sprintf("CountParallel(%d) (err %v)", threads, err), n)
		}
	}
	for _, parts := range []int{2, 3, 8} {
		if got, err := rs.findAllSegmented(ctx, in, parts); err != nil || !slices.Equal(got, want) {
			fail(fmt.Sprintf("findAllSegmented(%d) (err %v)", parts, err), got)
		}
	}
	if got, _ := streamAll(t, rs, in, randomChunks(rng)); !slices.Equal(got, want) {
		fail("chunked StreamMatcher", got)
	}
	for i, got := range interleaveStreams(t, rs, in, 3, rng) {
		if !slices.Equal(got, want) {
			fail(fmt.Sprintf("interleaved StreamMatcher %d of 3", i), got)
		}
	}
}

// interleaveStreams writes in through n StreamMatchers open on rs at once,
// each in its own random chunking, one chunk per open matcher in turn, and
// returns each matcher's matches in FindAll order.
func interleaveStreams(t testing.TB, rs *Ruleset, in []byte, n int, rng *rand.Rand) [][]Match {
	t.Helper()
	got := make([][]Match, n)
	sms := make([]*StreamMatcher, n)
	rest := make([][]byte, n)
	chunk := randomChunks(rng)
	for i := range sms {
		sms[i] = rs.NewStreamMatcher(func(m Match) { got[i] = append(got[i], m) })
		rest[i] = in
	}
	for open := n; open > 0; {
		open = 0
		for i, sm := range sms {
			if len(rest[i]) == 0 {
				continue
			}
			k := min(chunk(len(rest[i])), len(rest[i]))
			if w, err := sm.Write(rest[i][:k]); err != nil || w != k {
				t.Fatalf("stream %d: Write(%d bytes) = (%d, %v)", i, k, w, err)
			}
			rest[i] = rest[i][k:]
			open++
		}
	}
	for i, sm := range sms {
		if err := sm.Close(); err != nil {
			t.Fatal(err)
		}
		sortByEnd(got[i])
	}
	return got
}

// checkRegistryStream opens a Registry stream, writes half of in, updates
// the registry to the same rules, writes the rest and closes: the stream
// stays pinned to its version and reports want, and so does the new
// version's FindAll.
func checkRegistryStream(t *testing.T, rs *Ruleset, patterns []string, opts Options,
	in []byte, want []Match, rng *rand.Rand) {
	t.Helper()
	reg := NewRegistryFrom(rs)
	var got []Match
	sm := reg.NewStreamMatcher(func(m Match) { got = append(got, m) })
	half := len(in) / 2
	writeChunks(t, sm, in[:half], randomChunks(rng))
	if _, err := reg.Update(patterns, opts); err != nil {
		t.Fatal(err)
	}
	writeChunks(t, sm, in[half:], randomChunks(rng))
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	sortByEnd(got)
	if !slices.Equal(got, want) {
		t.Fatalf("registry stream across Update: %d matches, want %d", len(got), len(want))
	}
	if got := reg.FindAll(in); !slices.Equal(got, want) {
		t.Fatalf("registry FindAll after Update: %d matches, want %d", len(got), len(want))
	}
	if err := reg.DrainOld(t.Context()); err != nil || reg.Draining() != 0 {
		t.Fatalf("DrainOld = %v with %d versions draining", err, reg.Draining())
	}
}

// checkStatsInvariants checks the stats of a cell after its traffic:
// strategy and segment bytes partition BytesScanned, each optional section
// is present exactly when its option is on, skipped bytes stay within
// scanned ones, lazy caches within the retry ladder's grown cap, and the
// reused Scanner, which never segments, counts all its bytes serial.
func checkStatsInvariants(t *testing.T, rs *Ruleset, sc *Scanner, opts Options) {
	t.Helper()
	st := rs.Stats()
	var strat int64
	for _, g := range st.Strategy.Groups {
		strat += g.Bytes
	}
	if strat != st.BytesScanned {
		t.Errorf("strategy bytes %d, BytesScanned %d", strat, st.BytesScanned)
	}
	if (st.Segment == nil) != (opts.Segment == SegmentOff) {
		t.Errorf("Segment section %+v under %v", st.Segment, opts.Segment)
	} else if s := st.Segment; s != nil && s.ParallelBytes+s.StitchBytes+s.SerialBytes != st.BytesScanned {
		t.Errorf("segment bytes %+v do not partition BytesScanned %d", s, st.BytesScanned)
	}
	if scs := sc.Stats(); (scs.Segment == nil) != (opts.Segment == SegmentOff) ||
		scs.Segment != nil && *scs.Segment != (SegmentStats{SerialBytes: scs.BytesScanned}) {
		t.Errorf("Scanner Segment section %+v under %v, want all %d bytes serial",
			scs.Segment, opts.Segment, scs.BytesScanned)
	}
	if (st.Accel == nil) != (opts.Accel == AccelOff) {
		t.Errorf("Accel section %+v under %v", st.Accel, opts.Accel)
	} else if a := st.Accel; a != nil && a.BytesSkipped > st.BytesScanned {
		t.Errorf("BytesSkipped %d exceeds BytesScanned %d", a.BytesSkipped, st.BytesScanned)
	}
	instr := opts.Latency
	if (st.Latency == nil) == instr || (rs.Profile() == nil) == instr || (len(rs.TraceEvents()) == 0) == instr {
		t.Errorf("instrumentation %v: latency %v, profile %v, %d trace events",
			instr, st.Latency != nil, rs.Profile() != nil, len(rs.TraceEvents()))
	} else if instr && !slices.ContainsFunc(st.Latency.Stages, func(s StageLatency) bool {
		return s.Stage == "scan" && s.Count > 0
	}) {
		t.Errorf("instrumented cell recorded no scan stage: %+v", st.Latency.Stages)
	}
	if l := st.Lazy; l != nil {
		grown := 2 * lazydfa.ResolveMaxStates(opts.LazyDFAMaxStates)
		if l.CachedStates > int64(l.Automata*grown) {
			t.Errorf("%d cached states over %d automata, cap %d each", l.CachedStates, l.Automata, grown)
		}
	}
}

// checkGoroutines waits briefly for the goroutine count to return to
// baseline: no entry point may leak a worker.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for range 100 {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
}

// randomChunks sizes stream writes: empty, 1-byte and random pieces.
func randomChunks(rng *rand.Rand) func(left int) int {
	return func(left int) int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Intn(left + 1)
	}
}

// fixedChunks sizes every stream write at n bytes.
func fixedChunks(n int) func(int) int { return func(int) int { return n } }

// writeChunks writes in to sm in pieces sized by chunk, called with the
// number of bytes still to write; every Write must consume its piece.
func writeChunks(t testing.TB, sm *StreamMatcher, in []byte, chunk func(left int) int) {
	t.Helper()
	for len(in) > 0 {
		n := min(chunk(len(in)), len(in))
		if w, err := sm.Write(in[:n]); err != nil || w != n {
			t.Fatalf("Write(%d bytes) = (%d, %v)", n, w, err)
		}
		in = in[n:]
	}
}

// streamAll streams in through a new StreamMatcher on rs and returns its
// matches in FindAll order, plus the closed matcher for stats inspection.
func streamAll(t testing.TB, rs *Ruleset, in []byte, chunk func(left int) int) ([]Match, *StreamMatcher) {
	t.Helper()
	var got []Match
	sm := rs.NewStreamMatcher(func(m Match) { got = append(got, m) })
	writeChunks(t, sm, in, chunk)
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	sortByEnd(got)
	return got, sm
}

// confToken is one token of the subset shared by this repo's parser and
// stdlib regexp: '.', a literal letter, digit or unspecial punctuation, an
// escaped punctuation byte, a \xNN escape, a \d \D \w \W \s \S shorthand, a
// bracket of letters, digits, \xNN escapes, their ranges, shorthands and
// POSIX classes, or an operator. Counted bounds are not zero-led: this
// parser reads `{01}` as `{1}` (POSIX intervals are decimal), stdlib as
// literal text.
var confToken = regexp.MustCompile(`^(?:[.0-9A-Za-z _/<>=:;,!@#%&~'"-]|\\[!-/:-@[-` + "`" + `{-~]|\\x[0-9a-fA-F]{2}|\\[dDwWsS]|` +
	`\[\^?(?:(?:[0-9A-Za-z]|\\x[0-9a-fA-F]{2})(?:-(?:[0-9A-Za-z]|\\x[0-9a-fA-F]{2}))?|\\[dDwWsS]|` +
	`\[:(?:alpha|digit|alnum|upper|lower|space|blank|punct|print|graph|cntrl|xdigit|word):\])+\]|` +
	`[()|*+?]|\{(?:0|[1-9][0-9]?)(?:,(?:0|[1-9][0-9]?)?)?\})`)

// inConfSubset reports whether a fuzzed pattern lies in the subset whose
// syntax this repo's parser and stdlib regexp read alike (after
// stdlibSyntax): confToken's tokens under genConfPattern's grammar, with
// any counted bounds. Stacked quantifiers pass: stdlib rejects them or
// reads them lazily, which leaves the language unchanged.
func inConfSubset(p string) bool {
	p = strings.TrimSuffix(strings.TrimPrefix(p, "^"), "$")
	depth, operand := 0, false // operand: the tokens so far end in an operand
	for p != "" {
		tok := confToken.FindString(p)
		if tok == "" {
			return false
		}
		p = p[len(tok):]
		switch tok {
		case "(":
			depth++
			operand = false
		case ")", "|":
			if !operand || tok == ")" && depth == 0 {
				return false
			}
			if tok == ")" {
				depth--
			}
			operand = tok == ")"
		case "*", "+", "?":
			if !operand {
				return false
			}
		default:
			if tok[0] == '{' && !operand {
				return false
			}
			operand = true
		}
	}
	return depth == 0 && operand
}

// FuzzConformance is the matrix's fuzz target: newline-separated patterns
// from the shared subset, an input of any bytes, one configuration of the
// matrix, and a seed for the stream's chunking, checked against the
// independent truth through every entry point.
func FuzzConformance(f *testing.F) {
	add := func(pats []string, input string, config uint, chunkSeed int64) {
		for _, p := range pats {
			if !inConfSubset(p) {
				f.Fatalf("seed pattern %q is outside the fuzzed subset", p)
			}
		}
		f.Add(strings.Join(pats, "\n"), input, config, chunkSeed)
	}
	add([]string{"(xc+)?", "needle"}, "c needle", 0, 1)
	add([]string{"(xc+)?y", "((c)+[^ab]c){0,1}"}, "cy xcy c", 41, 2)
	add([]string{"^ab", "b+c$", "x.{2,5}y"}, "abxaaayabbc", 77, 3)
	r := rand.New(rand.NewSource(1))
	for i := range 7 {
		pats := []string{genConfPattern(r), genConfPattern(r), confPatterns[r.Intn(len(confPatterns))]}
		add(pats, string(genConfInput(r, confFragments, 20)), uint(i*15), int64(i))
	}
	add([]string{`[^a\x90]+`, `\s\S`, `.[\x80-\xff]`}, "a\x90\xff \v\x0b\x00x\x80\n\x90", 5, 10)
	add(snortPatterns(f)[7:], "x.php?u=http://SITE  ExEc\x90\x90\x90\x90\x90\x90\x90\x90\x90", 87, 11)
	configs := conformanceConfigs()
	// An AC literal that is also a gated group's factor: the first auto
	// cell with the prefilter on and one rule per group.
	for i, cfg := range configs {
		if cfg.opts.Engine == EngineAuto && cfg.opts.Prefilter == PrefilterOn && cfg.opts.MergeFactor == 1 {
			add([]string{"needle", "needle[0-9]*x", "cab"}, "cab needle42x needlex needle", uint(i), 12)
			break
		}
	}
	// Two chain groups, one over gaps that two bytes kill, with the kill
	// bytes between and beside the pieces: the first auto cell with two
	// rules per group.
	for i, cfg := range configs {
		if cfg.opts.Engine == EngineAuto && cfg.opts.MergeFactor == 2 {
			add([]string{"ab.*ba", "ab.*ab", "cab.*needle.*xy", `needle[^\x0d\x0a]*cab`},
				"abba\nab cab needle\r\nxy abab needlecab cab needle xy", uint(i), 13)
			break
		}
	}
	f.Fuzz(func(t *testing.T, patterns, input string, config uint, chunkSeed int64) {
		pats := strings.Split(patterns, "\n")
		if len(pats) > 8 || len(input) > 64 {
			return
		}
		for _, p := range pats {
			if len(p) > 64 || !inConfSubset(p) {
				return
			}
		}
		// Compile first: within its budgets the oracle's NFAs stay small.
		cfg := configs[config%uint(len(configs))]
		if _, err := Compile(pats, cfg.opts); err != nil {
			return // FuzzCompile owns compile-error typing
		}
		rules, err := newConfRules(pats)
		if err != nil {
			return
		}
		c := confCase{in: []byte(input)}
		c.keep, c.pop = confTruth(t, pats, rules, c.in)
		checkConformance(t, cfg.opts, pats, []confCase{c}, rand.New(rand.NewSource(chunkSeed)))
	})
}
