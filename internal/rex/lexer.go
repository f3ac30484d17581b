package rex

import (
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/charset"
)

// TokenKind classifies lexical tokens of the ERE grammar.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokEOF    TokenKind = iota
	TokChar             // a literal byte (possibly from an escape)
	TokClass            // a complete bracket expression or shorthand class
	TokDot              // .
	TokStar             // *
	TokPlus             // +
	TokQuest            // ?
	TokLParen           // (
	TokRParen           // )
	TokAlt              // |
	TokLBrace           // { opening a repetition bound
	TokCaret            // ^
	TokDollar           // $
	TokRepeat           // a full {m}, {m,}, {m,n} bound
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokChar:
		return "char"
	case TokClass:
		return "class"
	case TokDot:
		return "."
	case TokStar:
		return "*"
	case TokPlus:
		return "+"
	case TokQuest:
		return "?"
	case TokLParen:
		return "("
	case TokRParen:
		return ")"
	case TokAlt:
		return "|"
	case TokLBrace:
		return "{"
	case TokCaret:
		return "^"
	case TokDollar:
		return "$"
	case TokRepeat:
		return "repeat"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Ch   byte        // TokChar
	Set  charset.Set // TokClass
	Min  int         // TokRepeat
	Max  int         // TokRepeat (Inf when open)
	Pos  int
}

// SyntaxError reports a lexical or syntactic violation of the POSIX ERE
// grammar, with the byte offset where it was detected. Err, when non-nil,
// classifies the failure (budget.Err for resource-budget violations) and is
// exposed through Unwrap for errors.Is.
type SyntaxError struct {
	Pattern string
	Pos     int
	Msg     string
	Err     error
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("regex syntax error at offset %d in %q: %s", e.Pos, e.Pattern, e.Msg)
}

// Unwrap exposes the classifying sentinel, if any.
func (e *SyntaxError) Unwrap() error { return e.Err }

// ErrUnknownEscape classifies a SyntaxError raised by a backslash escape of
// an ASCII letter or digit the dialect does not define (anything but \n \t
// \r \f \v \a \0 \xNN \d \D \w \W \s \S); its Msg names the escape and
// its Pos is the backslash's offset.
var ErrUnknownEscape = errors.New("unknown escape")

// Lexer tokenizes a POSIX ERE pattern. It resolves escapes, bracket
// expressions (including POSIX named classes and negation) and repetition
// bounds into single tokens so that the parser deals only with grammar
// structure.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over pattern.
func NewLexer(pattern string) *Lexer {
	return &Lexer{src: pattern}
}

func (l *Lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pattern: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token. After the end of input it keeps returning
// TokEOF.
func (l *Lexer) Next() (Token, error) {
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	switch c {
	case '.':
		return Token{Kind: TokDot, Pos: start}, nil
	case '*':
		return Token{Kind: TokStar, Pos: start}, nil
	case '+':
		return Token{Kind: TokPlus, Pos: start}, nil
	case '?':
		return Token{Kind: TokQuest, Pos: start}, nil
	case '(':
		return Token{Kind: TokLParen, Pos: start}, nil
	case ')':
		return Token{Kind: TokRParen, Pos: start}, nil
	case '|':
		return Token{Kind: TokAlt, Pos: start}, nil
	case '^':
		return Token{Kind: TokCaret, Pos: start}, nil
	case '$':
		return Token{Kind: TokDollar, Pos: start}, nil
	case '{':
		return l.lexRepeat(start)
	case '[':
		set, err := l.lexBracket(start)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokClass, Set: set, Pos: start}, nil
	case '\\':
		return l.lexEscape(start)
	default:
		return Token{Kind: TokChar, Ch: c, Pos: start}, nil
	}
}

// lexRepeat scans a {m}, {m,} or {m,n} bound. A '{' not followed by a valid
// bound is a literal brace, matching common ruleset practice (and PCRE).
func (l *Lexer) lexRepeat(start int) (Token, error) {
	save := l.pos
	min, ok := l.scanInt()
	if !ok {
		l.pos = save
		return Token{Kind: TokChar, Ch: '{', Pos: start}, nil
	}
	max := min
	if l.pos < len(l.src) && l.src[l.pos] == ',' {
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '}' {
			max = Inf
		} else {
			m, ok := l.scanInt()
			if !ok {
				l.pos = save
				return Token{Kind: TokChar, Ch: '{', Pos: start}, nil
			}
			max = m
		}
	}
	if l.pos >= len(l.src) || l.src[l.pos] != '}' {
		l.pos = save
		return Token{Kind: TokChar, Ch: '{', Pos: start}, nil
	}
	l.pos++
	if max != Inf && max < min {
		return Token{}, l.errf(start, "repetition bound {%d,%d} has max < min", min, max)
	}
	if min > maxRepeatBound || (max != Inf && max > maxRepeatBound) {
		return Token{}, &SyntaxError{
			Pattern: l.src, Pos: start,
			Msg: fmt.Sprintf("repetition bound exceeds limit %d", maxRepeatBound),
			Err: budget.Err,
		}
	}
	return Token{Kind: TokRepeat, Min: min, Max: max, Pos: start}, nil
}

// maxRepeatBound caps counted repetitions so that loop expansion (§IV-C)
// cannot blow up the automaton; POSIX requires at least 255.
const maxRepeatBound = 1000

func (l *Lexer) scanInt() (int, bool) {
	begin := l.pos
	v := 0
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		v = v*10 + int(l.src[l.pos]-'0')
		if v > 1<<20 {
			return 0, false
		}
		l.pos++
	}
	return v, l.pos > begin
}

// lexEscape resolves a backslash escape into a literal byte or a shorthand
// class token.
func (l *Lexer) lexEscape(start int) (Token, error) {
	if l.pos >= len(l.src) {
		return Token{}, l.errf(start, "trailing backslash")
	}
	c := l.src[l.pos]
	l.pos++
	switch c {
	case 'n':
		return Token{Kind: TokChar, Ch: '\n', Pos: start}, nil
	case 't':
		return Token{Kind: TokChar, Ch: '\t', Pos: start}, nil
	case 'r':
		return Token{Kind: TokChar, Ch: '\r', Pos: start}, nil
	case 'f':
		return Token{Kind: TokChar, Ch: '\f', Pos: start}, nil
	case 'v':
		return Token{Kind: TokChar, Ch: '\v', Pos: start}, nil
	case 'a':
		return Token{Kind: TokChar, Ch: '\a', Pos: start}, nil
	case '0':
		return Token{Kind: TokChar, Ch: 0, Pos: start}, nil
	case 'x':
		b, err := l.scanHexByte(start)
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokChar, Ch: b, Pos: start}, nil
	case 'd', 'D', 'w', 'W', 's', 'S':
		set := shorthandClass(c)
		return Token{Kind: TokClass, Set: set, Pos: start}, nil
	default:
		if isASCIIAlnum(c) {
			// Other dialects give these escapes meanings this one lacks —
			// \b word boundaries, \1 back-references, \p properties — so
			// reading them as the literal byte would silently compile a
			// different language.
			return Token{}, &SyntaxError{Pattern: l.src, Pos: start,
				Msg: fmt.Sprintf("unknown escape \\%c", c), Err: ErrUnknownEscape}
		}
		// POSIX: a backslash escapes any special (and, pragmatically, any
		// other non-alphanumeric) byte to its literal self.
		return Token{Kind: TokChar, Ch: c, Pos: start}, nil
	}
}

func isASCIIAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func shorthandClass(c byte) charset.Set {
	var s charset.Set
	switch c {
	case 'd', 'D':
		s = charset.Range('0', '9')
	case 'w', 'W':
		s, _ = charset.Posix("word")
	case 's', 'S':
		s, _ = charset.Posix("space")
	}
	if c == 'D' || c == 'W' || c == 'S' {
		s = s.Complement()
	}
	return s
}

func (l *Lexer) scanHexByte(start int) (byte, error) {
	if l.pos+2 > len(l.src) {
		return 0, l.errf(start, `\x escape needs two hex digits`)
	}
	hi, ok1 := hexVal(l.src[l.pos])
	lo, ok2 := hexVal(l.src[l.pos+1])
	if !ok1 || !ok2 {
		return 0, l.errf(start, `invalid \x escape %q`, l.src[start:l.pos+2])
	}
	l.pos += 2
	return hi<<4 | lo, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// lexBracket scans a complete bracket expression; the opening '[' has been
// consumed. It supports negation, ranges, POSIX [:name:] classes, escapes,
// and the POSIX rules that ']' first and '-' first/last are literals.
func (l *Lexer) lexBracket(start int) (charset.Set, error) {
	var set charset.Set
	negate := false
	if l.pos < len(l.src) && l.src[l.pos] == '^' {
		negate = true
		l.pos++
	}
	first := true
	for {
		if l.pos >= len(l.src) {
			return set, l.errf(start, "unterminated bracket expression")
		}
		c := l.src[l.pos]
		if c == ']' && !first {
			l.pos++
			break
		}
		first = false
		var lo byte
		switch {
		case c == '[' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':':
			name, err := l.scanPosixName(start)
			if err != nil {
				return set, err
			}
			cls, ok := charset.Posix(name)
			if !ok {
				return set, l.errf(start, "unknown POSIX class [:%s:]", name)
			}
			set = set.Union(cls)
			continue
		case c == '\\':
			l.pos++
			tok, err := l.lexEscape(l.pos - 1)
			if err != nil {
				return set, err
			}
			if tok.Kind == TokClass {
				set = set.Union(tok.Set)
				continue
			}
			lo = tok.Ch
		default:
			lo = c
			l.pos++
		}
		// Possible range lo-hi.
		if l.pos+1 < len(l.src) && l.src[l.pos] == '-' && l.src[l.pos+1] != ']' {
			l.pos++
			hc := l.src[l.pos]
			var hi byte
			if hc == '\\' {
				l.pos++
				tok, err := l.lexEscape(l.pos - 1)
				if err != nil {
					return set, err
				}
				if tok.Kind != TokChar {
					return set, l.errf(start, "class shorthand cannot end a range")
				}
				hi = tok.Ch
			} else {
				hi = hc
				l.pos++
			}
			if hi < lo {
				return set, l.errf(start, "inverted range %q-%q in bracket expression", lo, hi)
			}
			set = set.Union(charset.Range(lo, hi))
			continue
		}
		set.Add(lo)
	}
	if negate {
		set = set.Complement()
	}
	if set.IsEmpty() {
		return set, l.errf(start, "empty bracket expression")
	}
	return set, nil
}

func (l *Lexer) scanPosixName(start int) (string, error) {
	// l.pos is at '['; expect "[:name:]".
	p := l.pos + 2
	begin := p
	for p < len(l.src) && l.src[p] != ':' {
		p++
	}
	if p+1 >= len(l.src) || l.src[p] != ':' || l.src[p+1] != ']' {
		return "", l.errf(start, "unterminated POSIX class")
	}
	name := l.src[begin:p]
	l.pos = p + 2
	return name, nil
}

// Tokens runs the lexer to completion, returning all tokens up to and
// excluding EOF. It is a convenience for tests.
func Tokens(pattern string) ([]Token, error) {
	l := NewLexer(pattern)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
