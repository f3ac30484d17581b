// Package nfa implements the Middle-End automata of the compilation
// framework (§IV-B, §IV-C of the paper): the Thompson-like construction from
// ASTs to non-deterministic finite state automata, and the three single-FSA
// optimizations that precede merging — loop expansion, ε-arc removal, and
// the simplification of multiplicity-greater-than-one arcs into character
// classes.
package nfa

import (
	"fmt"
	"sort"

	"repro/internal/charset"
	"repro/internal/rex"
)

// StateID identifies a state within one automaton. States are dense indices
// in [0, NumStates).
type StateID = int32

// Transition is a labeled arc: From reads any byte in Label and moves to To.
type Transition struct {
	From, To StateID
	Label    charset.Set
}

// EpsTransition is an ε-arc, present only between construction and the
// ε-removal pass (ANML does not support ε-moves, §IV-C).
type EpsTransition struct {
	From, To StateID
}

// Loop records a counted repetition ({m,n} or {m,}) saved during FSA
// generation, per §IV-C(2): the sub-RE is kept symbolic and materialized by
// the loop-expansion pass. Until expansion, Entry and Exit are connected by
// nothing, so an NFA with pending loops is an incomplete IR.
type Loop struct {
	Entry, Exit StateID
	Min, Max    int // Max == rex.Inf for {m,}
	Body        *rex.Node
}

// NFA is a non-deterministic finite automaton over the byte alphabet. The
// zero value is not useful; construct with Build.
type NFA struct {
	ID        int    // identifier of the RE within its ruleset (1-based in the paper)
	Pattern   string // source regular expression, for diagnostics
	NumStates int
	Start     StateID
	Finals    []StateID // sorted, no duplicates
	Trans     []Transition
	Eps       []EpsTransition
	Loops     []Loop

	// AnchorStart/AnchorEnd record a leading ^ / trailing $: the engines
	// then restrict initial activation to stream offset 0 and match
	// emission to the final stream byte.
	AnchorStart bool
	AnchorEnd   bool
}

// newState appends a fresh state and returns its id.
func (n *NFA) newState() StateID {
	id := StateID(n.NumStates)
	n.NumStates++
	return id
}

// IsFinal reports whether q is an accepting state.
func (n *NFA) IsFinal(q StateID) bool {
	i := sort.Search(len(n.Finals), func(i int) bool { return n.Finals[i] >= q })
	return i < len(n.Finals) && n.Finals[i] == q
}

func (n *NFA) setFinals(fs []StateID) {
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	out := fs[:0]
	var prev StateID = -1
	for _, f := range fs {
		if f != prev {
			out = append(out, f)
		}
		prev = f
	}
	n.Finals = out
}

// CCLen returns the total character-class length: the sum of Label.Len()
// over proper character-class transitions (Table I metric). Labels wider
// than half the alphabet — the ERE dot and negated classes — are not
// counted, matching the workload convention (Dotstar09's dot-heavy rules
// report only ~2k CC characters in Table I).
func (n *NFA) CCLen() int {
	t := 0
	for _, tr := range n.Trans {
		if l := tr.Label.Len(); l > 1 && l <= 128 {
			t += l
		}
	}
	return t
}

// Clone returns a deep copy of the automaton.
func (n *NFA) Clone() *NFA {
	c := *n
	c.Finals = append([]StateID(nil), n.Finals...)
	c.Trans = append([]Transition(nil), n.Trans...)
	c.Eps = append([]EpsTransition(nil), n.Eps...)
	c.Loops = append([]Loop(nil), n.Loops...)
	return &c
}

// String summarizes the automaton for debugging.
func (n *NFA) String() string {
	return fmt.Sprintf("NFA{id=%d states=%d trans=%d eps=%d loops=%d finals=%v}",
		n.ID, n.NumStates, len(n.Trans), len(n.Eps), len(n.Loops), n.Finals)
}

// frag is a Thompson fragment with one entry and one exit state.
type frag struct {
	start, end StateID
}

// Build converts an AST into an ε-NFA using the Thompson-like construction
// of §IV-B: a depth-first traversal encodes atomic sub-expressions as
// two-state sub-FSAs and wires operator structures around them. Counted
// repetitions are saved as Loop records for the expansion pass. Anchors are
// accepted only as a leading ^ or trailing $.
func Build(ast *rex.Node) (*NFA, error) {
	n := &NFA{}
	root, anchorStart, anchorEnd, err := stripAnchors(ast)
	if err != nil {
		return nil, err
	}
	n.AnchorStart, n.AnchorEnd = anchorStart, anchorEnd
	f, err := n.build(root)
	if err != nil {
		return nil, err
	}
	n.Start = f.start
	n.setFinals([]StateID{f.end})
	return n, nil
}

// stripAnchors removes a leading '^' and a trailing '$' from the top-level
// concatenation and rejects anchors anywhere else.
func stripAnchors(ast *rex.Node) (root *rex.Node, start, end bool, err error) {
	subs := []*rex.Node{ast}
	if ast.Op == rex.OpConcat {
		subs = append([]*rex.Node(nil), ast.Subs...)
	}
	if len(subs) > 0 && subs[0].Op == rex.OpAnchor && subs[0].Atom == '^' {
		start = true
		subs = subs[1:]
	}
	if len(subs) > 0 && subs[len(subs)-1].Op == rex.OpAnchor && subs[len(subs)-1].Atom == '$' {
		end = true
		subs = subs[:len(subs)-1]
	}
	root = rex.Concat(subs...)
	bad := false
	root.Walk(func(m *rex.Node) {
		if m.Op == rex.OpAnchor {
			bad = true
		}
	})
	if bad {
		return nil, false, false, fmt.Errorf("nfa: anchors are supported only at the pattern boundaries")
	}
	return root, start, end, nil
}

func (n *NFA) build(node *rex.Node) (frag, error) {
	switch node.Op {
	case rex.OpEmpty:
		s, f := n.newState(), n.newState()
		n.Eps = append(n.Eps, EpsTransition{s, f})
		return frag{s, f}, nil
	case rex.OpLit:
		if node.Set.IsEmpty() {
			return frag{}, fmt.Errorf("nfa: empty character class matches nothing")
		}
		s, f := n.newState(), n.newState()
		n.Trans = append(n.Trans, Transition{s, f, node.Set})
		return frag{s, f}, nil
	case rex.OpConcat:
		cur, err := n.build(node.Subs[0])
		if err != nil {
			return frag{}, err
		}
		for _, sub := range node.Subs[1:] {
			next, err := n.build(sub)
			if err != nil {
				return frag{}, err
			}
			n.Eps = append(n.Eps, EpsTransition{cur.end, next.start})
			cur = frag{cur.start, next.end}
		}
		return cur, nil
	case rex.OpAlt:
		// Single-characters alternation is an arc with multiplicity > 1
		// (§IV-C(3)): encode it directly as one CC-labeled transition so
		// the merge cannot produce the incorrect paths of Fig. 5b.
		if lits, ok := allLiterals(node.Subs); ok {
			s, f := n.newState(), n.newState()
			n.Trans = append(n.Trans, Transition{s, f, lits})
			return frag{s, f}, nil
		}
		s, f := n.newState(), n.newState()
		for _, sub := range node.Subs {
			sf, err := n.build(sub)
			if err != nil {
				return frag{}, err
			}
			n.Eps = append(n.Eps, EpsTransition{s, sf.start}, EpsTransition{sf.end, f})
		}
		return frag{s, f}, nil
	case rex.OpRepeat:
		return n.buildRepeat(node)
	default:
		return frag{}, fmt.Errorf("nfa: cannot build %v node", node.Op)
	}
}

// allLiterals reports whether every node is an OpLit leaf, returning the
// union of their symbol sets.
func allLiterals(subs []*rex.Node) (charset.Set, bool) {
	var u charset.Set
	for _, s := range subs {
		if s.Op != rex.OpLit {
			return charset.Set{}, false
		}
		u = u.Union(s.Set)
	}
	return u, !u.IsEmpty()
}

func (n *NFA) buildRepeat(node *rex.Node) (frag, error) {
	min, max := node.Min, node.Max
	switch {
	case min == 0 && max == rex.Inf: // X*
		s, f := n.newState(), n.newState()
		sf, err := n.build(node.Subs[0])
		if err != nil {
			return frag{}, err
		}
		n.Eps = append(n.Eps,
			EpsTransition{s, sf.start},
			EpsTransition{sf.end, f},
			EpsTransition{s, f},
			EpsTransition{sf.end, sf.start})
		return frag{s, f}, nil
	case min == 1 && max == rex.Inf: // X+
		sf, err := n.build(node.Subs[0])
		if err != nil {
			return frag{}, err
		}
		n.Eps = append(n.Eps, EpsTransition{sf.end, sf.start})
		return sf, nil
	case min == 0 && max == 1: // X?
		// Fresh endpoints, like X*: a bypass straight from sf.start to
		// sf.end would also open every path that re-enters sf.start
		// (an X+ back edge inside X), so (xc+)? would accept "c".
		s, f := n.newState(), n.newState()
		sf, err := n.build(node.Subs[0])
		if err != nil {
			return frag{}, err
		}
		n.Eps = append(n.Eps,
			EpsTransition{s, sf.start},
			EpsTransition{sf.end, f},
			EpsTransition{s, f})
		return frag{s, f}, nil
	default:
		// Counted repetition: record the loop, leave Entry..Exit
		// unconnected until ExpandLoops materializes it (§IV-C(2)).
		s, f := n.newState(), n.newState()
		n.Loops = append(n.Loops, Loop{Entry: s, Exit: f, Min: min, Max: max, Body: node.Subs[0]})
		return frag{s, f}, nil
	}
}

// sortTrans orders transitions row-major (From, then To, then label min),
// the COO layout of Fig. 2.
func (n *NFA) sortTrans() {
	sort.Slice(n.Trans, func(i, j int) bool {
		a, b := n.Trans[i], n.Trans[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label.Min() < b.Label.Min()
	})
}

// OutDegree returns, for each state, the number of outgoing labeled
// transitions. Used by tests and by the merge heuristic.
func (n *NFA) OutDegree() []int {
	deg := make([]int, n.NumStates)
	for _, t := range n.Trans {
		deg[t.From]++
	}
	return deg
}
