// Package strategy classifies rule ASTs into execution-shape classes for the
// per-group strategy planner. The planner's premise (Bille's algorithm-per-
// shape observation, and the coregex meta-engine) is that many DPI rules do
// not need an automaton at all: a pure literal is a string-search problem,
// and a `^prefix.*suffix$` rule is two bounded memcmps plus a byte-class
// check. Classification is purely syntactic — it runs once at compile time
// over the Front-End's AST, and a rule that does not match a fast shape
// simply stays on the general engines, so misclassification is impossible by
// construction (there is no "almost literal" shape, only exact ones).
//
// A third fast shape, the dot-star literal chain `L1<G>*L2…<G>*Lk`, is the
// Dotstar09 family that blows up a DFA. Instead of determinizing the gaps,
// a chain is decided by remembering that its pieces occurred in order with
// no byte outside G between them — Quesada et al.'s cure for "amnesia" —
// so its pieces run as literals on the one literal pass.
package strategy

import (
	"repro/internal/bytescan"
	"repro/internal/charset"
	"repro/internal/rex"
)

// Kind is the execution-shape class of one rule.
type Kind uint8

const (
	// KindGeneral is every rule that needs an automaton.
	KindGeneral Kind = iota
	// KindLiteral is an unanchored literal byte string: every match is an
	// occurrence of Literal, so Aho–Corasick over the group's literals
	// reproduces the engines' match events exactly.
	KindLiteral
	// KindAnchored is the anchored-literal family — `^lit$`, `^lit`,
	// `lit$`, and `^prefix<mid>*suffix$` where <mid> is a byte class whose
	// complement has at most bytescan.MaxNeedles bytes (`.` excludes only
	// \n). Each admits an O(1)-ish decision per scan: bounded prefix/suffix
	// compares plus, for the middle, a vectorized hunt for a violating
	// byte.
	KindAnchored
	// KindChain is an unanchored dot-star literal chain: k ≥ 2 non-empty
	// literal Pieces joined by `<G>*`, one byte class G throughout, whose
	// complement (the kill bytes, in MiddleExcluded) has at most
	// bytescan.MaxNeedles bytes (`.` kills only \n) and occurs in no piece. The rule matches at end
	// e iff the last piece ends at e, the others occur before it in order,
	// each starting after the previous one ends, and no kill byte lies
	// between the first piece's start and e. Every final state of such a
	// rule is a sink, so pop and KeepOnMatch report the same events.
	KindChain
)

func (k Kind) String() string {
	switch k {
	case KindLiteral:
		return "literal"
	case KindAnchored:
		return "anchored"
	case KindChain:
		return "chain"
	default:
		return "general"
	}
}

// maxExpand bounds how many copies an exact repetition of a literal byte is
// expanded to during classification (mirroring the Middle-End's loop
// expansion, which the shapes bypass).
const maxExpand = 64

// Shape is the classification result for one rule.
type Shape struct {
	Kind Kind
	// Literal is the KindLiteral byte string.
	Literal []byte
	// Prefix/Suffix are the KindAnchored literal halves; either may be
	// empty when HasMiddle is set.
	Prefix, Suffix []byte
	// AnchorStart/AnchorEnd record which anchors the rule carries.
	AnchorStart, AnchorEnd bool
	// HasMiddle reports a `<set>*`/`<set>{n,}` between Prefix and Suffix.
	HasMiddle bool
	// MinMiddle is the middle repetition's minimum length (0 for `*`).
	MinMiddle int
	// MiddleExcluded lists the bytes the middle set cannot consume (the
	// set's complement); empty means the middle accepts every byte. At
	// most bytescan.MaxNeedles entries — larger complements fail
	// classification.
	MiddleExcluded []byte
	// Pieces are the KindChain literals, in order; the gaps' excluded
	// bytes, the chain's kill bytes, are in MiddleExcluded.
	Pieces [][]byte
}

// MinLen returns the shortest input length the shape can match.
func (sh *Shape) MinLen() int {
	switch sh.Kind {
	case KindLiteral:
		return len(sh.Literal)
	case KindAnchored:
		return len(sh.Prefix) + len(sh.Suffix) + sh.MinMiddle
	}
	return 0
}

// BadFinder returns a prepared hunter for the middle's excluded bytes and
// whether a hunt is needed at all (false when the middle accepts any byte or
// there is no middle).
func (sh *Shape) BadFinder() (bytescan.Finder, bool) {
	if !sh.HasMiddle || len(sh.MiddleExcluded) == 0 {
		return bytescan.Finder{}, false
	}
	f, ok := bytescan.NewFinder(sh.MiddleExcluded)
	return f, ok
}

// part is one element of the flattened rule spine.
type part struct {
	anchor byte // '^' or '$', else 0
	lit    byte // single literal byte when set == single
	isLit  bool
	mid    charset.Set // repeat{min,inf} middle set
	isMid  bool
	minMid int
}

// flatten linearizes the AST into spine parts; ok is false as soon as a
// construct outside the shape grammar appears (alternation, bounded repeats
// of classes, multi-byte sets outside the middle, nested anchors...).
func flatten(n *rex.Node, out []part) ([]part, bool) {
	switch n.Op {
	case rex.OpEmpty:
		return out, true
	case rex.OpAnchor:
		return append(out, part{anchor: n.Atom}), true
	case rex.OpLit:
		b, single := n.Set.IsSingle()
		if !single {
			return out, false
		}
		return append(out, part{lit: b, isLit: true}), true
	case rex.OpConcat:
		ok := true
		for _, s := range n.Subs {
			if out, ok = flatten(s, out); !ok {
				return out, false
			}
		}
		return out, true
	case rex.OpRepeat:
		sub := n.Subs[0]
		if sub.Op != rex.OpLit {
			return out, false
		}
		if n.Max == rex.Inf {
			// A candidate middle: any byte class, unbounded.
			return append(out, part{mid: sub.Set, isMid: true, minMid: n.Min}), true
		}
		// Exact small repetition of a single literal byte expands into the
		// literal spine, mirroring loop expansion.
		b, single := sub.Set.IsSingle()
		if !single || n.Min != n.Max || n.Max > maxExpand {
			return out, false
		}
		for i := 0; i < n.Min; i++ {
			out = append(out, part{lit: b, isLit: true})
		}
		return out, true
	default:
		return out, false
	}
}

// Classify reduces a rule AST to its execution shape. Rules outside the
// literal, anchored-literal and chain grammars come back KindGeneral.
func Classify(ast *rex.Node) Shape {
	parts, ok := flatten(ast, nil)
	if !ok {
		return Shape{}
	}
	if sh, ok := chain(parts); ok {
		return sh
	}
	sh := Shape{}
	// Split the spine: [^]? pre... [mid]? suf... [$]?
	i := 0
	if i < len(parts) && parts[i].anchor == '^' {
		sh.AnchorStart = true
		i++
	}
	for i < len(parts) && parts[i].isLit {
		sh.Prefix = append(sh.Prefix, parts[i].lit)
		i++
	}
	if i < len(parts) && parts[i].isMid {
		sh.HasMiddle = true
		sh.MinMiddle = parts[i].minMid
		comp := parts[i].mid.Complement()
		if comp.Len() > bytescan.MaxNeedles {
			return Shape{}
		}
		sh.MiddleExcluded = comp.Bytes()
		i++
	}
	for i < len(parts) && parts[i].isLit {
		sh.Suffix = append(sh.Suffix, parts[i].lit)
		i++
	}
	if i < len(parts) && parts[i].anchor == '$' {
		sh.AnchorEnd = true
		i++
	}
	if i != len(parts) {
		// Leftover structure (second middle, interior anchor, ...).
		return Shape{}
	}

	switch {
	case !sh.AnchorStart && !sh.AnchorEnd && !sh.HasMiddle:
		// Unanchored literal. (Suffix is necessarily empty here.)
		if len(sh.Prefix) == 0 {
			return Shape{}
		}
		return Shape{Kind: KindLiteral, Literal: sh.Prefix}
	case sh.AnchorStart && sh.AnchorEnd:
		// `^lit$` or `^prefix<mid>suffix$`. A fully empty shape (`^$`)
		// could only match the empty input, on which the engines report
		// nothing (matches fire on byte arrivals only) — not worth a class.
		if len(sh.Prefix)+len(sh.Suffix)+boolInt(sh.HasMiddle) == 0 {
			return Shape{}
		}
		sh.Kind = KindAnchored
		return sh
	case sh.AnchorStart && !sh.AnchorEnd && !sh.HasMiddle && len(sh.Prefix) > 0:
		// `^lit`: one event at len(lit)-1 iff the input starts with lit.
		// (With a trailing middle but no $ the event multiplicity depends
		// on KeepOnMatch, so that form stays general.)
		sh.Kind = KindAnchored
		return sh
	case !sh.AnchorStart && sh.AnchorEnd && !sh.HasMiddle:
		// `lit$`: one event at the last byte iff the input ends with lit.
		// The spine put the bytes in Prefix; they are really a suffix.
		if len(sh.Prefix) == 0 {
			return Shape{}
		}
		sh.Suffix, sh.Prefix = sh.Prefix, nil
		sh.Kind = KindAnchored
		return sh
	default:
		return Shape{}
	}
}

// chain reads the spine as a dot-star literal chain: literal runs
// separated by `<G>*` middles of one set G, no anchors, at least two runs,
// and no run holding a byte outside G.
func chain(parts []part) (Shape, bool) {
	var pieces [][]byte
	var cur []byte
	var gap charset.Set
	for _, p := range parts {
		switch {
		case p.isLit:
			cur = append(cur, p.lit)
		case p.isMid && len(cur) > 0 && p.minMid == 0 && (len(pieces) == 0 || p.mid.Equal(gap)):
			pieces, cur, gap = append(pieces, cur), nil, p.mid
		default:
			return Shape{}, false
		}
	}
	if len(pieces) == 0 || len(cur) == 0 {
		return Shape{}, false
	}
	pieces = append(pieces, cur)
	kill := gap.Complement()
	if kill.Len() > bytescan.MaxNeedles {
		return Shape{}, false
	}
	for _, pc := range pieces {
		for _, b := range pc {
			if kill.Contains(b) {
				return Shape{}, false
			}
		}
	}
	return Shape{Kind: KindChain, Pieces: pieces, MiddleExcluded: kill.Bytes()}, true
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
