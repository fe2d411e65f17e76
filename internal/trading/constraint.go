// Package trading implements the paper's dynamic component selection
// substrate: a trading service in the style of the OMG Trading Object
// Service (paper §IV, [18]), with service types, offers, a constraint
// language, preference ordering, and — critically for adaptation — *dynamic
// properties*, whose values are fetched from monitor objects at query time.
package trading

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"autoadapt/internal/wire"
)

// Constraint is a compiled constraint-language expression. The grammar is
// the OMG trader constraint language subset the paper's example uses
// ("LoadAvg < 50 and LoadAvgIncreasing == no"):
//
//	expr    := or
//	or      := and { "or" and }
//	and     := not { "and" not }
//	not     := "not" not | cmp
//	cmp     := sum [ ("=="|"!="|"<"|"<="|">"|">=") sum ]
//	sum     := prod { ("+"|"-") prod }
//	prod    := unary { ("*"|"/") unary }
//	unary   := "-" unary | "exist" ident | primary
//	primary := number | string | "true" | "false" | ident | "(" expr ")"
//
// Identifiers name offer properties. A bareword that is not a defined
// property evaluates as a string literal when compared against a string
// property — this matches the paper's "LoadAvgIncreasing == no", where
// "no" is unquoted.
type Constraint struct {
	src  string
	root cexpr
	refs []string // property names the expression references, sorted
}

// Source returns the original constraint text.
func (c *Constraint) Source() string { return c.src }

// PropRefs returns the sorted set of property names the constraint
// references. The trader uses it for demand-driven snapshots: only
// referenced dynamic properties are resolved at query time. Barewords that
// double as string literals ("LoadAvgIncreasing == no") are included — a
// name's role is only decided at evaluation time.
func (c *Constraint) PropRefs() []string { return slices.Clone(c.refs) }

// ParseConstraint compiles a constraint expression. An empty source
// compiles to a constraint matching every offer.
func ParseConstraint(src string) (*Constraint, error) {
	if strings.TrimSpace(src) == "" {
		return &Constraint{src: src, root: litExpr{wire.Bool(true)}}, nil
	}
	p := &cparser{src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trading: constraint %q: trailing input at %d", src, p.pos)
	}
	return &Constraint{src: src, root: root, refs: sortedRefs(root)}, nil
}

// collectRefs walks an expression tree and records every property name it
// can read during evaluation.
func collectRefs(e cexpr, refs map[string]struct{}) {
	switch x := e.(type) {
	case propExpr:
		refs[x.name] = struct{}{}
	case existExpr:
		refs[x.name] = struct{}{}
	case notExpr:
		collectRefs(x.e, refs)
	case negExpr:
		collectRefs(x.e, refs)
	case binCExpr:
		collectRefs(x.lhs, refs)
		collectRefs(x.rhs, refs)
	}
}

// sortedRefs lists the property names e references, sorted.
func sortedRefs(e cexpr) []string {
	refs := make(map[string]struct{})
	collectRefs(e, refs)
	out := make([]string, 0, len(refs))
	for n := range refs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PropLookup resolves a property name during evaluation. ok=false means
// the property does not exist for this offer.
type PropLookup func(name string) (wire.Value, bool)

// Eval evaluates the constraint against an offer's properties. Per OMG
// semantics, an offer for which evaluation fails (e.g. a comparison against
// a missing property) simply does not match — the error reports why.
func (c *Constraint) Eval(lookup PropLookup) (bool, error) {
	v, err := c.root.eval(lookup)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// ---- expression tree ----

type cexpr interface {
	eval(lookup PropLookup) (wire.Value, error)
}

type litExpr struct{ v wire.Value }

func (e litExpr) eval(PropLookup) (wire.Value, error) { return e.v, nil }

type propExpr struct{ name string }

func (e propExpr) eval(lookup PropLookup) (wire.Value, error) {
	v, ok := lookup(e.name)
	if !ok {
		// Unquoted barewords double as string literals (paper's "== no").
		return wire.String(e.name), nil
	}
	return v, nil
}

type existExpr struct{ name string }

func (e existExpr) eval(lookup PropLookup) (wire.Value, error) {
	_, ok := lookup(e.name)
	return wire.Bool(ok), nil
}

type notExpr struct{ e cexpr }

func (e notExpr) eval(lookup PropLookup) (wire.Value, error) {
	v, err := e.e.eval(lookup)
	if err != nil {
		return wire.Nil(), err
	}
	return wire.Bool(!v.Truthy()), nil
}

type negExpr struct{ e cexpr }

func (e negExpr) eval(lookup PropLookup) (wire.Value, error) {
	v, err := e.e.eval(lookup)
	if err != nil {
		return wire.Nil(), err
	}
	n, ok := v.AsNumber()
	if !ok {
		return wire.Nil(), fmt.Errorf("trading: cannot negate %s", v.Kind())
	}
	return wire.Number(-n), nil
}

type binCExpr struct {
	op       string
	lhs, rhs cexpr
}

func (e binCExpr) eval(lookup PropLookup) (wire.Value, error) {
	switch e.op {
	case "and":
		l, err := e.lhs.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		if !l.Truthy() {
			return wire.Bool(false), nil
		}
		r, err := e.rhs.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		return wire.Bool(r.Truthy()), nil
	case "or":
		l, err := e.lhs.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		if l.Truthy() {
			return wire.Bool(true), nil
		}
		r, err := e.rhs.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		return wire.Bool(r.Truthy()), nil
	}
	l, err := e.lhs.eval(lookup)
	if err != nil {
		return wire.Nil(), err
	}
	r, err := e.rhs.eval(lookup)
	if err != nil {
		return wire.Nil(), err
	}
	switch e.op {
	case "+", "-", "*", "/":
		ln, lok := l.AsNumber()
		rn, rok := r.AsNumber()
		if !lok || !rok {
			return wire.Nil(), fmt.Errorf("trading: arithmetic on %s and %s", l.Kind(), r.Kind())
		}
		switch e.op {
		case "+":
			return wire.Number(ln + rn), nil
		case "-":
			return wire.Number(ln - rn), nil
		case "*":
			return wire.Number(ln * rn), nil
		default:
			if rn == 0 {
				return wire.Nil(), fmt.Errorf("trading: division by zero")
			}
			return wire.Number(ln / rn), nil
		}
	case "==":
		return wire.Bool(looseEqual(l, r)), nil
	case "!=":
		return wire.Bool(!looseEqual(l, r)), nil
	case "<", "<=", ">", ">=":
		cmp, err := compareValues(l, r)
		if err != nil {
			return wire.Nil(), err
		}
		switch e.op {
		case "<":
			return wire.Bool(cmp < 0), nil
		case "<=":
			return wire.Bool(cmp <= 0), nil
		case ">":
			return wire.Bool(cmp > 0), nil
		default:
			return wire.Bool(cmp >= 0), nil
		}
	default:
		return wire.Nil(), fmt.Errorf("trading: unknown operator %q", e.op)
	}
}

// looseEqual compares for the constraint language: like wire.Value.Equal
// but booleans compare equal to the barewords "yes"/"no"/"true"/"false"
// so paper-style constraints work against boolean-valued properties.
func looseEqual(a, b wire.Value) bool {
	if a.Kind() == b.Kind() {
		return a.Equal(b)
	}
	ab, aIsBool := a.AsBool()
	bs, bIsStr := b.AsString()
	if aIsBool && bIsStr {
		return boolWord(ab, bs)
	}
	bb, bIsBool := b.AsBool()
	as, aIsStr := a.AsString()
	if bIsBool && aIsStr {
		return boolWord(bb, as)
	}
	return false
}

func boolWord(b bool, s string) bool {
	if b {
		return s == "yes" || s == "true"
	}
	return s == "no" || s == "false"
}

func compareValues(a, b wire.Value) (int, error) {
	an, aok := a.AsNumber()
	bn, bok := b.AsNumber()
	if aok && bok {
		switch {
		case an < bn:
			return -1, nil
		case an > bn:
			return 1, nil
		default:
			return 0, nil
		}
	}
	as, aok := a.AsString()
	bs, bok := b.AsString()
	if aok && bok {
		return strings.Compare(as, bs), nil
	}
	return 0, fmt.Errorf("trading: cannot order %s against %s", a.Kind(), b.Kind())
}

// ---- parser ----

type cparser struct {
	src string
	pos int
}

func (p *cparser) errf(format string, args ...any) error {
	return fmt.Errorf("trading: constraint %q at %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *cparser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
		} else {
			return
		}
	}
}

func (p *cparser) peekIdent() string {
	p.skipSpace()
	i := p.pos
	for i < len(p.src) {
		c := p.src[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || (i > p.pos && c >= '0' && c <= '9') {
			i++
		} else {
			break
		}
	}
	return p.src[p.pos:i]
}

func (p *cparser) takeIdent() string {
	w := p.peekIdent()
	p.pos += len(w)
	return w
}

func (p *cparser) acceptWord(w string) bool {
	if p.peekIdent() == w {
		p.pos += len(w)
		return true
	}
	return false
}

func (p *cparser) acceptOp(ops ...string) (string, bool) {
	p.skipSpace()
	for _, op := range ops {
		if strings.HasPrefix(p.src[p.pos:], op) {
			// Avoid treating "<=" as "<" by requiring the longest ops first
			// in the caller's list.
			p.pos += len(op)
			return op, true
		}
	}
	return "", false
}

func (p *cparser) parseOr() (cexpr, error) {
	lhs, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptWord("or") {
		rhs, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		lhs = binCExpr{op: "or", lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *cparser) parseAnd() (cexpr, error) {
	lhs, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptWord("and") {
		rhs, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		lhs = binCExpr{op: "and", lhs: lhs, rhs: rhs}
	}
	return lhs, nil
}

func (p *cparser) parseNot() (cexpr, error) {
	if p.acceptWord("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return notExpr{e}, nil
	}
	return p.parseCmp()
}

func (p *cparser) parseCmp() (cexpr, error) {
	lhs, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if op, ok := p.acceptOp("==", "!=", "<=", ">=", "<", ">"); ok {
		rhs, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return binCExpr{op: op, lhs: lhs, rhs: rhs}, nil
	}
	return lhs, nil
}

func (p *cparser) parseSum() (cexpr, error) {
	lhs, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp("+", "-")
		if !ok {
			return lhs, nil
		}
		rhs, err := p.parseProd()
		if err != nil {
			return nil, err
		}
		lhs = binCExpr{op: op, lhs: lhs, rhs: rhs}
	}
}

func (p *cparser) parseProd() (cexpr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := p.acceptOp("*", "/")
		if !ok {
			return lhs, nil
		}
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		lhs = binCExpr{op: op, lhs: lhs, rhs: rhs}
	}
}

func (p *cparser) parseUnary() (cexpr, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negExpr{e}, nil
	}
	if p.acceptWord("exist") {
		name := p.takeIdent()
		if name == "" {
			return nil, p.errf("'exist' requires a property name")
		}
		return existExpr{name}, nil
	}
	return p.parsePrimary()
}

func (p *cparser) parsePrimary() (cexpr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of constraint")
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("missing ')'")
		}
		p.pos++
		return e, nil
	case c == '\'' || c == '"':
		quote := c
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && p.src[p.pos] != quote {
			p.pos++
		}
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated string")
		}
		s := p.src[start:p.pos]
		p.pos++
		return litExpr{wire.String(s)}, nil
	case c >= '0' && c <= '9' || c == '.':
		start := p.pos
		for p.pos < len(p.src) {
			d := p.src[p.pos]
			if d >= '0' && d <= '9' || d == '.' || d == 'e' || d == 'E' ||
				((d == '+' || d == '-') && p.pos > start && (p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E')) {
				p.pos++
			} else {
				break
			}
		}
		n, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil || math.IsNaN(n) {
			return nil, p.errf("malformed number %q", p.src[start:p.pos])
		}
		return litExpr{wire.Number(n)}, nil
	default:
		w := p.takeIdent()
		switch w {
		case "":
			return nil, p.errf("unexpected character %q", string(rune(c)))
		case "true", "TRUE":
			return litExpr{wire.Bool(true)}, nil
		case "false", "FALSE":
			return litExpr{wire.Bool(false)}, nil
		default:
			return propExpr{w}, nil
		}
	}
}
