// Package qtext parses a small textual form of canonical SPJ queries, used
// by the command-line tools and the public DB.ParseQuery API. The grammar
// accepts an optional SQL-ish prefix and a conjunction of predicates:
//
//	[SELECT * FROM table [, table…] WHERE] pred AND pred AND …
//
// with predicates
//
//	t.a = u.b                  equi-join (both sides attributes)
//	t.a = 5                    equality filter
//	t.a < 5 | <= | > | >=      one-sided range filter
//	5 <= t.a <= 10             two-sided range filter
//	t.a BETWEEN 5 AND 10       two-sided range filter
//
// Keywords are case-insensitive; attribute names are "table.column". The
// FROM clause, when present, is validated against the predicates' tables
// but otherwise ignored (the canonical form derives tables from the
// predicates).
package qtext

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"condsel/internal/engine"
)

// Parse parses the query text against the catalog.
func Parse(cat *engine.Catalog, text string) (*engine.Query, error) {
	p := &parser{cat: cat}
	if err := p.tokenize(text); err != nil {
		return nil, err
	}
	preds, declared, err := p.parse()
	if err != nil {
		return nil, err
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("qtext: query has no predicates")
	}
	if len(preds) >= 64 {
		return nil, fmt.Errorf("qtext: at most 63 predicates supported")
	}
	q := engine.NewQuery(cat, preds)
	if declared != 0 && !q.Tables.SubsetOf(declared) {
		return nil, fmt.Errorf("qtext: predicates reference tables missing from FROM clause")
	}
	if declared != 0 {
		q.Tables = declared
	}
	return q, nil
}

type tokenKind int

const (
	tokIdent tokenKind = iota // bare or dotted identifier
	tokNumber
	tokOp    // = < <= > >=
	tokComma // ,
	tokStar  // *
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type parser struct {
	cat  *engine.Catalog
	toks []token
	i    int
}

func (p *parser) tokenize(text string) error {
	i := 0
	for i < len(text) {
		c := rune(text[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == ',':
			p.toks = append(p.toks, token{tokComma, ",", i})
			i++
		case c == '*':
			p.toks = append(p.toks, token{tokStar, "*", i})
			i++
		case c == '=':
			p.toks = append(p.toks, token{tokOp, "=", i})
			i++
		case c == '<' || c == '>':
			start := i
			op := string(c)
			i++
			if i < len(text) && text[i] == '=' {
				op += "="
				i++
			}
			p.toks = append(p.toks, token{tokOp, op, start})
		case c == '-' || unicode.IsDigit(c):
			start := i
			i++
			for i < len(text) && unicode.IsDigit(rune(text[i])) {
				i++
			}
			p.toks = append(p.toks, token{tokNumber, text[start:i], start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(text) {
				r := rune(text[i])
				if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' {
					i++
				} else {
					break
				}
			}
			p.toks = append(p.toks, token{tokIdent, text[start:i], start})
		default:
			return fmt.Errorf("qtext: unexpected character %q at position %d", c, i)
		}
	}
	return nil
}

func (p *parser) peek() (token, bool) {
	if p.i >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.i], true
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.i++
	}
	return t, ok
}

func (p *parser) keyword(word string) bool {
	t, ok := p.peek()
	if ok && t.kind == tokIdent && strings.EqualFold(t.text, word) {
		p.i++
		return true
	}
	return false
}

// parse handles the optional SELECT…WHERE prefix and the predicate list,
// returning the predicates and the declared table set (0 if no FROM).
func (p *parser) parse() ([]engine.Pred, engine.TableSet, error) {
	var declared engine.TableSet
	if p.keyword("select") {
		if t, ok := p.next(); !ok || t.kind != tokStar {
			return nil, 0, fmt.Errorf("qtext: expected * after SELECT")
		}
		if !p.keyword("from") {
			return nil, 0, fmt.Errorf("qtext: expected FROM after SELECT *")
		}
		for {
			t, ok := p.next()
			if !ok || t.kind != tokIdent {
				return nil, 0, fmt.Errorf("qtext: expected table name in FROM clause")
			}
			tab := p.cat.TableByName(t.text)
			if tab == nil {
				return nil, 0, fmt.Errorf("qtext: unknown table %q", t.text)
			}
			declared = declared.Add(tab.ID)
			if nt, ok := p.peek(); ok && nt.kind == tokComma {
				p.i++
				continue
			}
			// "x" is also accepted as a cross-product separator, matching
			// Query.String output.
			if p.keyword("x") {
				continue
			}
			break
		}
		if !p.keyword("where") {
			return nil, 0, fmt.Errorf("qtext: expected WHERE after FROM clause")
		}
	}

	var preds []engine.Pred
	for {
		pred, err := p.parsePred()
		if err != nil {
			return nil, 0, err
		}
		preds = append(preds, pred)
		if !p.keyword("and") {
			break
		}
	}
	if t, ok := p.peek(); ok {
		return nil, 0, fmt.Errorf("qtext: unexpected %q at position %d", t.text, t.pos)
	}
	return preds, declared, nil
}

// parsePred handles one predicate in any accepted shape.
func (p *parser) parsePred() (engine.Pred, error) {
	t, ok := p.next()
	if !ok {
		return engine.Pred{}, fmt.Errorf("qtext: expected predicate")
	}
	switch t.kind {
	case tokNumber:
		// const <= attr <= const
		lo, err := number(t)
		if err != nil {
			return engine.Pred{}, err
		}
		op1, ok := p.next()
		if !ok || op1.kind != tokOp || (op1.text != "<=" && op1.text != "<") {
			return engine.Pred{}, fmt.Errorf("qtext: expected <= after leading constant")
		}
		attrTok, ok := p.next()
		if !ok || attrTok.kind != tokIdent {
			return engine.Pred{}, fmt.Errorf("qtext: expected attribute in range predicate")
		}
		attr, err := p.attr(attrTok)
		if err != nil {
			return engine.Pred{}, err
		}
		op2, ok := p.next()
		if !ok || op2.kind != tokOp || (op2.text != "<=" && op2.text != "<") {
			return engine.Pred{}, fmt.Errorf("qtext: expected <= closing range predicate")
		}
		hiTok, ok := p.next()
		if !ok || hiTok.kind != tokNumber {
			return engine.Pred{}, fmt.Errorf("qtext: expected constant closing range predicate")
		}
		hi, err := number(hiTok)
		if err != nil {
			return engine.Pred{}, err
		}
		if op1.text == "<" {
			if lo, err = strictBound(lo, 1, t.text+" <"); err != nil {
				return engine.Pred{}, err
			}
		}
		if op2.text == "<" {
			if hi, err = strictBound(hi, -1, "< "+hiTok.text); err != nil {
				return engine.Pred{}, err
			}
		}
		return engine.Filter(attr, lo, hi), nil

	case tokIdent:
		attr, err := p.attr(t)
		if err != nil {
			return engine.Pred{}, err
		}
		if p.keyword("between") {
			loTok, ok := p.next()
			if !ok || loTok.kind != tokNumber {
				return engine.Pred{}, fmt.Errorf("qtext: expected constant after BETWEEN")
			}
			if !p.keyword("and") {
				return engine.Pred{}, fmt.Errorf("qtext: expected AND in BETWEEN")
			}
			hiTok, ok := p.next()
			if !ok || hiTok.kind != tokNumber {
				return engine.Pred{}, fmt.Errorf("qtext: expected upper constant in BETWEEN")
			}
			lo, err := number(loTok)
			if err != nil {
				return engine.Pred{}, err
			}
			hi, err := number(hiTok)
			if err != nil {
				return engine.Pred{}, err
			}
			return engine.Filter(attr, lo, hi), nil
		}
		opTok, ok := p.next()
		if !ok || opTok.kind != tokOp {
			return engine.Pred{}, fmt.Errorf("qtext: expected operator after %s", t.text)
		}
		rhs, ok := p.next()
		if !ok {
			return engine.Pred{}, fmt.Errorf("qtext: expected right-hand side after %s", opTok.text)
		}
		if rhs.kind == tokIdent {
			if opTok.text != "=" {
				return engine.Pred{}, fmt.Errorf("qtext: joins support = only, got %q", opTok.text)
			}
			right, err := p.attr(rhs)
			if err != nil {
				return engine.Pred{}, err
			}
			return engine.Join(attr, right), nil
		}
		if rhs.kind != tokNumber {
			return engine.Pred{}, fmt.Errorf("qtext: expected constant or attribute after %s", opTok.text)
		}
		v, err := number(rhs)
		if err != nil {
			return engine.Pred{}, err
		}
		switch opTok.text {
		case "=":
			return engine.Eq(attr, v), nil
		case "<":
			hi, err := strictBound(v, -1, "< "+rhs.text)
			if err != nil {
				return engine.Pred{}, err
			}
			return engine.Filter(attr, engine.MinValue, hi), nil
		case "<=":
			return engine.Filter(attr, engine.MinValue, v), nil
		case ">":
			lo, err := strictBound(v, 1, "> "+rhs.text)
			if err != nil {
				return engine.Pred{}, err
			}
			return engine.Filter(attr, lo, engine.MaxValue), nil
		case ">=":
			return engine.Filter(attr, v, engine.MaxValue), nil
		}
		return engine.Pred{}, fmt.Errorf("qtext: unsupported operator %q", opTok.text)
	}
	return engine.Pred{}, fmt.Errorf("qtext: unexpected token %q at position %d", t.text, t.pos)
}

// number parses a numeric token; an out-of-range literal, or a "-" with no
// digits, is an error.
func number(t token) (int64, error) {
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("qtext: bad number %q", t.text)
	}
	return v, nil
}

// strictBound turns a strict bound v into the inclusive bound next to it,
// v+step: step is 1 for a lower bound (a < x) and -1 for an upper bound
// (x < b). A bound with no int64 neighbour on that side is an error naming
// it, like an out-of-range literal: wrapping round would answer for a
// different predicate.
func strictBound(v, step int64, bound string) (int64, error) {
	if (step > 0 && v == engine.MaxValue) || (step < 0 && v == engine.MinValue) {
		return 0, fmt.Errorf("qtext: strict bound %q leaves the int64 range", bound)
	}
	return v + step, nil
}

func (p *parser) attr(t token) (engine.AttrID, error) {
	if !strings.Contains(t.text, ".") {
		return 0, fmt.Errorf("qtext: attribute %q must be qualified as table.column", t.text)
	}
	a, err := p.cat.Attr(t.text)
	if err != nil {
		return 0, fmt.Errorf("qtext: %v", err)
	}
	return a, nil
}
