package rpe

import (
	"fmt"
	"unicode"
)

// Parse parses a regular path expression. Grammar (lowest precedence first):
//
//	alt  := seq ('|' seq)*
//	seq  := post (('.' | '//') post)*
//	post := atom ('?' | '*')*
//	atom := label | '_' | '(' alt ')'
//
// 'a//b' is sugar for 'a.(_)*.b', and a leading '//' ("anywhere below") is
// accepted as sugar for '(_)*.': "//a.b" parses as (_)*.a.b. Labels consist
// of letters, digits and the characters '-', ':' and '@'.
func Parse(src string) (Expr, error) {
	p := &parser{src: src}
	p.next()
	var e Expr
	var err error
	if p.tok == tokSlash {
		// Leading '//': anything (possibly empty) before the expression.
		p.next()
		rest, rerr := p.alt()
		if rerr != nil {
			return nil, rerr
		}
		e = Seq{L: Star{X: Wildcard{}}, R: rest}
	} else {
		e, err = p.alt()
		if err != nil {
			return nil, err
		}
	}
	if p.tok == tokErr {
		return nil, p.err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("rpe: unexpected %q at offset %d", p.text, p.off)
	}
	return e, nil
}

// maxExprTokens bounds the expressions Parse accepts. A token adds at most
// three automaton states ('//' does), and a compiled automaton holds one
// state bitset per consuming edge, so its tables grow with the square of the
// expression: 1024 tokens keep them under half a megabyte, where an
// unbounded expression could ask for any amount of memory before touching
// the data.
const maxExprTokens = 1024

type token int

const (
	tokEOF token = iota
	tokLabel
	tokWild   // _
	tokDot    // .
	tokSlash  // //
	tokPipe   // |
	tokLParen // (
	tokRParen // )
	tokOpt    // ?
	tokStar   // *
	tokErr
)

type parser struct {
	src  string
	pos  int
	tok  token
	text string
	off  int // offset of current token
	toks int // tokens scanned so far
	err  error
}

func isLabelRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == ':' || r == '@' || r == '_'
}

func (p *parser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	p.off = p.pos
	if p.pos >= len(p.src) {
		p.tok = tokEOF
		p.text = ""
		return
	}
	if p.toks++; p.toks > maxExprTokens {
		p.tok, p.text = tokErr, ""
		p.err = fmt.Errorf("rpe: expression longer than %d tokens at offset %d", maxExprTokens, p.pos)
		return
	}
	c := p.src[p.pos]
	switch c {
	case '.':
		p.pos++
		p.tok, p.text = tokDot, "."
	case '/':
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
			p.pos += 2
			p.tok, p.text = tokSlash, "//"
			return
		}
		p.tok, p.text, p.err = tokErr, "/", fmt.Errorf("rpe: single '/' at offset %d (use '//')", p.pos)
	case '|':
		p.pos++
		p.tok, p.text = tokPipe, "|"
	case '(':
		p.pos++
		p.tok, p.text = tokLParen, "("
	case ')':
		p.pos++
		p.tok, p.text = tokRParen, ")"
	case '?':
		p.pos++
		p.tok, p.text = tokOpt, "?"
	case '*':
		p.pos++
		p.tok, p.text = tokStar, "*"
	case '_':
		// A lone underscore is the wildcard; an underscore glued to label
		// characters starts a label ("open_auction").
		if p.pos+1 < len(p.src) && isLabelRune(rune(p.src[p.pos+1])) {
			p.scanLabel(c)
			return
		}
		p.pos++
		p.tok, p.text = tokWild, "_"
	default:
		p.scanLabel(c)
	}
}

// scanLabel consumes a label token starting at the current position.
func (p *parser) scanLabel(c byte) {
	start := p.pos
	for p.pos < len(p.src) && isLabelRune(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		p.tok, p.text = tokErr, string(c)
		p.err = fmt.Errorf("rpe: unexpected character %q at offset %d", c, start)
		return
	}
	p.tok, p.text = tokLabel, p.src[start:p.pos]
}

func (p *parser) alt() (Expr, error) {
	e, err := p.seq()
	if err != nil {
		return nil, err
	}
	for p.tok == tokPipe {
		p.next()
		r, err := p.seq()
		if err != nil {
			return nil, err
		}
		e = Alt{L: e, R: r}
	}
	return e, nil
}

func (p *parser) seq() (Expr, error) {
	e, err := p.post()
	if err != nil {
		return nil, err
	}
	for p.tok == tokDot || p.tok == tokSlash {
		desc := p.tok == tokSlash
		p.next()
		r, err := p.post()
		if err != nil {
			return nil, err
		}
		if desc {
			e = Seq{L: e, R: Seq{L: Star{X: Wildcard{}}, R: r}}
		} else {
			e = Seq{L: e, R: r}
		}
	}
	return e, nil
}

func (p *parser) post() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOpt || p.tok == tokStar {
		if p.tok == tokOpt {
			e = Opt{X: e}
		} else {
			e = Star{X: e}
		}
		p.next()
	}
	return e, nil
}

func (p *parser) atom() (Expr, error) {
	switch p.tok {
	case tokLabel:
		e := Label{Name: p.text}
		p.next()
		return e, nil
	case tokWild:
		p.next()
		return Wildcard{}, nil
	case tokLParen:
		p.next()
		e, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("rpe: missing ')' at offset %d", p.off)
		}
		p.next()
		return e, nil
	case tokErr:
		return nil, p.err
	case tokEOF:
		return nil, fmt.Errorf("rpe: unexpected end of expression")
	default:
		return nil, fmt.Errorf("rpe: unexpected %q at offset %d", p.text, p.off)
	}
}
