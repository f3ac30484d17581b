// Package factor extracts required literal factors from parsed regular
// expressions — the compile-time half of Hyperscan-style decomposition
// (Wang et al., the paper's related work [6]). A factor is a string that
// occurs in every match of the RE, so its absence from an input proves the
// rule cannot match there. The package depends only on the rex front-end,
// so both the compilation pipeline and the runtime prefilter can use it
// without layering cycles.
package factor

import "repro/internal/rex"

// MinLen is the default shortest factor worth prefiltering on; shorter
// strings hit too often to skip any work.
const MinLen = 3

// Extract returns the longest literal string guaranteed to occur in every
// match of the expression, or ok=false when no factor of at least minLen
// bytes exists. Only the mandatory concatenation spine contributes:
// alternations, optional parts (min-0 repeats) and character classes break
// factors, while counted repeats of literals extend them.
func Extract(ast *rex.Node, minLen int) (string, bool) {
	best := ""
	cur := make([]byte, 0, 32)
	flush := func() {
		if len(cur) > len(best) {
			best = string(cur)
		}
		cur = cur[:0]
	}
	var walk func(n *rex.Node)
	walk = func(n *rex.Node) {
		switch n.Op {
		case rex.OpLit:
			if b, ok := n.Set.IsSingle(); ok {
				cur = append(cur, b)
				return
			}
			flush()
		case rex.OpConcat:
			for _, s := range n.Subs {
				walk(s)
			}
		case rex.OpRepeat:
			if n.Min == 0 {
				flush()
				return
			}
			// The body occurs at least Min times consecutively; a
			// literal body extends the run Min times, then breaks
			// the run unless the repetition is exact.
			if lit, ok := literalString(n.Subs[0]); ok {
				for i := 0; i < n.Min; i++ {
					cur = append(cur, lit...)
				}
				if n.Max != n.Min {
					flush()
				}
				return
			}
			// Non-literal mandatory body: contributes its own
			// factors but breaks the surrounding run.
			flush()
			walk(n.Subs[0])
			flush()
		case rex.OpAlt, rex.OpAnchor, rex.OpEmpty:
			flush()
		}
	}
	walk(ast)
	flush()
	if len(best) >= minLen {
		return best, true
	}
	return "", false
}

func literalString(n *rex.Node) (string, bool) {
	switch n.Op {
	case rex.OpLit:
		if b, ok := n.Set.IsSingle(); ok {
			return string([]byte{b}), true // the byte itself, not a UTF-8 rune
		}
	case rex.OpConcat:
		out := make([]byte, 0, len(n.Subs))
		for _, s := range n.Subs {
			b, ok := s.Set.IsSingle()
			if s.Op != rex.OpLit || !ok {
				return "", false
			}
			out = append(out, b)
		}
		return string(out), true
	}
	return "", false
}
