// Package decompose implements the regex-decomposition baseline of the
// paper's related work (§I, §VII — Wang et al.'s Hyperscan [6]): each RE is
// analyzed for a required literal factor, a string that must occur in every
// match; the factors of the whole ruleset are matched in one pass with an
// Aho–Corasick automaton, and the full automaton of a rule is executed only
// when its factor actually appears in the input ("delaying FSA execution
// until the string matching analysis is required"). Rules without a usable
// factor always run their automaton.
package decompose

import (
	"fmt"

	"repro/internal/ahocorasick"
	"repro/internal/engine"
	"repro/internal/factor"
	"repro/internal/mfsa"
	"repro/internal/nfa"
	"repro/internal/rex"
)

// Factor returns the longest literal string guaranteed to occur in every
// match of the expression, or ok=false when no factor of at least minLen
// bytes exists (see factor.Extract, which holds the implementation so the
// compilation pipeline can use it without importing the engine).
func Factor(ast *rex.Node, minLen int) (string, bool) {
	return factor.Extract(ast, minLen)
}

// Matcher is a decomposed ruleset: an Aho–Corasick prefilter over the
// extracted factors plus one compiled automaton per rule for confirmation.
type Matcher struct {
	patterns []string
	programs []*engine.Program
	// factorOf[rule] is the prefilter pattern index, or -1 when the rule
	// has no usable factor and always runs.
	factorOf []int
	ac       *ahocorasick.Matcher
	// alwaysRun lists rules without factors.
	alwaysRun []int
	keep      bool
}

// New compiles a decomposed matcher. keepOnMatch selects the engine's match
// semantics, as in engine.Config.
func New(patterns []string, keepOnMatch bool) (*Matcher, error) {
	m := &Matcher{
		patterns: patterns,
		programs: make([]*engine.Program, len(patterns)),
		factorOf: make([]int, len(patterns)),
		keep:     keepOnMatch,
	}
	var factors [][]byte
	for i, pat := range patterns {
		ast, err := rex.Parse(pat)
		if err != nil {
			return nil, fmt.Errorf("decompose: rule %d: %w", i, err)
		}
		a, err := nfa.Build(ast)
		if err != nil {
			return nil, fmt.Errorf("decompose: rule %d: %w", i, err)
		}
		a.ID = i
		a.Pattern = pat
		if err := nfa.Optimize(a); err != nil {
			return nil, fmt.Errorf("decompose: rule %d: %w", i, err)
		}
		z, err := mfsa.Merge([]*nfa.NFA{a})
		if err != nil {
			return nil, err
		}
		m.programs[i] = engine.NewProgram(z)
		if f, ok := Factor(ast, factor.MinLen); ok {
			m.factorOf[i] = len(factors)
			factors = append(factors, []byte(f))
		} else {
			m.factorOf[i] = -1
			m.alwaysRun = append(m.alwaysRun, i)
		}
	}
	if len(factors) > 0 {
		ac, err := ahocorasick.New(factors)
		if err != nil {
			return nil, err
		}
		m.ac = ac
	}
	return m, nil
}

// NumFilterable returns how many rules carry a prefilter factor.
func (m *Matcher) NumFilterable() int {
	return len(m.patterns) - len(m.alwaysRun)
}

// Stats of one decomposed scan.
type Stats struct {
	// Matches is the total engine match-event count.
	Matches int64
	// Triggered is the number of filterable rules whose factor occurred
	// (and whose automaton therefore ran).
	Triggered int
	// Skipped is the number of filterable rules whose automaton was
	// skipped entirely.
	Skipped int
}

// Scan prefilters input and runs only the triggered (or unfilterable)
// rules' automata over it.
func (m *Matcher) Scan(input []byte, onMatch func(rule, end int)) Stats {
	st, _ := m.ScanWith(input, engine.Config{}, onMatch)
	return st
}

// ScanWith is Scan under an execution Config: the Checkpoint (and
// CheckpointEvery) fields are threaded through both the Aho–Corasick
// prefilter sweep and every confirming automaton run, so a hostile input
// cannot wedge the baseline — the scan stops at the next checkpoint and
// returns the checkpoint's error together with the partial stats.
// cfg.KeepOnMatch and cfg.OnMatch are owned by the Matcher and ignored.
func (m *Matcher) ScanWith(input []byte, cfg engine.Config, onMatch func(rule, end int)) (Stats, error) {
	var st Stats
	cfg.KeepOnMatch = m.keep
	var hits []bool
	if m.ac != nil {
		sw := m.ac.NewPass(nil)
		every := cfg.CheckpointEvery
		if every <= 0 {
			every = engine.DefaultCheckpointEvery
		}
		for off := 0; off < len(input) && !sw.Done(); off += every {
			if cfg.Checkpoint != nil {
				if err := cfg.Checkpoint(); err != nil {
					return st, err
				}
			}
			end := off + every
			if end > len(input) {
				end = len(input)
			}
			sw.Scan(input[off:end], nil)
		}
		hits = make([]bool, m.ac.NumPatterns())
		for _, pi := range sw.Firsts() {
			hits[pi] = true
		}
	}
	run := func(rule int) error {
		rcfg := cfg
		rcfg.OnMatch = nil
		if onMatch != nil {
			rcfg.OnMatch = func(_, end int) { onMatch(rule, end) }
		}
		runner := engine.NewRunner(m.programs[rule])
		st.Matches += runner.Run(input, rcfg).Matches
		return runner.Err()
	}
	for rule, fi := range m.factorOf {
		switch {
		case fi < 0:
			if err := run(rule); err != nil {
				return st, err
			}
		case hits[fi]:
			st.Triggered++
			if err := run(rule); err != nil {
				return st, err
			}
		default:
			st.Skipped++
		}
	}
	return st, nil
}
