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
//
// Parsing compiles the expression once into a tree of cnodes that read the
// values of the referenced properties from an array indexed like refs; the
// trader fills that array from an offer's slots.
//
// The top-level "and" chain accepts an offer iff each of its conjuncts is
// truthy without error, in any order: the trader evaluates those that read
// only static properties before it resolves anything (passStatic), and after
// resolution only the rest (passRest).
type Constraint struct {
	root *cnode
	refs []string   // property names the expression references, sorted
	conj []conjunct // the top-level "and" chain; none for the empty constraint
}

// conjunct is one term of a constraint's top-level "and" chain and the
// indices into the constraint's refs of the names it reads.
type conjunct struct {
	n    *cnode
	refs []int
}

// maxStatic is how many conjuncts fit an offer's mask of open ones.
const maxStatic = 64

// unresolved is passStatic's value of a dynamic property.
var unresolved wire.Value

// ParseConstraint compiles a constraint expression. An empty source
// compiles to a constraint matching every offer.
func ParseConstraint(src string) (*Constraint, error) {
	if strings.TrimSpace(src) == "" {
		return &Constraint{root: &cnode{op: opLit, lit: wire.Bool(true)}}, nil
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
	refs := numberRefs(root) // before conjuncts, which reads the numbered refs
	return &Constraint{root: root, refs: refs, conj: conjuncts(root, nil)}, nil
}

// conjuncts appends the terms of n's "and" chain to conj, left to right.
func conjuncts(n *cnode, conj []conjunct) []conjunct {
	if n.op == opAnd {
		return conjuncts(n.r, conjuncts(n.l, conj))
	}
	var refs []int
	n.walk(func(m *cnode) {
		if (m.op == opProp || m.op == opExist) && !slices.Contains(refs, m.ref) {
			refs = append(refs, m.ref)
		}
	})
	return append(conj, conjunct{n: n, refs: refs})
}

// passStatic evaluates the first maxStatic conjuncts that read no
// unresolved value in vals, reporting whether none rejected and the mask of
// those it left open.
func (c *Constraint) passStatic(vals []*wire.Value) (open uint64, ok bool) {
	for k := range min(len(c.conj), maxStatic) {
		if slices.ContainsFunc(c.conj[k].refs, func(u int) bool { return vals[u] == &unresolved }) {
			open |= 1 << k
		} else if ok, err := c.conj[k].n.test(vals); err != nil || !ok {
			return 0, false
		}
	}
	return open, true
}

// passRest reports whether the conjuncts passStatic left open, and those
// past maxStatic, all accept vals.
func (c *Constraint) passRest(open uint64, vals []*wire.Value) bool {
	for k := range c.conj {
		if k < maxStatic && open&(1<<k) == 0 {
			continue
		}
		if ok, err := c.conj[k].n.test(vals); err != nil || !ok {
			return false
		}
	}
	return true
}

// numberRefs lists the property names the expression reads, sorted, and
// points every node that reads one at the name's index in that list.
func numberRefs(root *cnode) []string {
	var refs []string
	root.walk(func(n *cnode) {
		if n.op == opProp || n.op == opExist {
			refs = append(refs, n.name)
		}
	})
	slices.Sort(refs)
	refs = slices.Compact(refs)
	root.walk(func(n *cnode) {
		if n.op == opProp || n.op == opExist {
			n.ref, _ = slices.BinarySearch(refs, n.name)
		}
	})
	return refs
}

// ---- compiled form ----

// looseEqual compares for the constraint language: wire.Value.Equal (NaN
// equals NaN, -0 does not equal +0), except that booleans compare equal to
// the barewords "yes"/"no"/"true"/"false" so paper-style constraints work
// against boolean-valued properties.
func looseEqual(a, b wire.Value) bool {
	if a.Kind() == b.Kind() {
		return a.Equal(b)
	}
	if ab, ok := a.AsBool(); ok {
		bs, ok := b.AsString()
		return ok && boolWord(ab, bs)
	}
	if bb, ok := b.AsBool(); ok {
		as, ok := a.AsString()
		return ok && boolWord(bb, as)
	}
	return false
}

func boolWord(b bool, s string) bool {
	if b {
		return s == "yes" || s == "true"
	}
	return s == "no" || s == "false"
}

// cop is a compiled node's operation.
type cop uint8

const (
	opLit   cop = iota // lit
	opProp             // the value at ref, else the bareword name as a string
	opExist            // whether the value at ref exists
	opNot              // unary: l
	opNeg
	opAnd // binary: l, r
	opOr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAdd
	opSub
	opMul
	opDiv
)

// binOps maps the parser's operator tokens to opcodes.
var binOps = map[string]cop{
	"and": opAnd, "or": opOr,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
}

// cnode is one node of a compiled expression. Nodes are immutable after
// parsing, so one tree serves every query that uses its source.
type cnode struct {
	op   cop
	ref  int        // opProp, opExist: index of name in the expression's refs
	name string     // opProp, opExist
	lit  wire.Value // opLit: a number, string or boolean; opProp: name as a string
	l, r *cnode
}

func (n *cnode) walk(fn func(*cnode)) {
	if n != nil {
		fn(n)
		n.l.walk(fn)
		n.r.walk(fn)
	}
}

// run evaluates the expression over vals, the values of its refs in order;
// a nil entry is a property the offer does not have. A truth-valued node
// (exist, not, and, or, a comparison) is test's answer as a wire.Bool.
func (n *cnode) run(vals []*wire.Value) (wire.Value, error) {
	switch n.op {
	case opLit, opProp:
		return *n.leaf(vals), nil
	case opNeg, opAdd, opSub, opMul, opDiv:
	default:
		b, err := n.test(vals)
		if err != nil {
			return wire.Value{}, err
		}
		return wire.Bool(b), nil
	}
	l, err := n.l.run(vals)
	if err != nil {
		return wire.Value{}, err
	}
	if n.op == opNeg {
		x, ok := l.AsNumber()
		if !ok {
			return wire.Value{}, fmt.Errorf("trading: cannot negate %s", l.Kind())
		}
		return wire.Number(-x), nil
	}
	r, err := n.r.run(vals)
	if err != nil {
		return wire.Value{}, err
	}
	ln, lok := l.AsNumber()
	rn, rok := r.AsNumber()
	if !lok || !rok {
		return wire.Value{}, fmt.Errorf("trading: arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	switch n.op {
	case opAdd:
		return wire.Number(ln + rn), nil
	case opSub:
		return wire.Number(ln - rn), nil
	case opMul:
		return wire.Number(ln * rn), nil
	}
	if rn == 0 {
		return wire.Value{}, fmt.Errorf("trading: division by zero")
	}
	return wire.Number(ln / rn), nil
}

// test evaluates the expression for its truth: whether run's value is
// truthy, or run's error. A truth-valued node answers without building a
// wire.Value; any other is run.
func (n *cnode) test(vals []*wire.Value) (bool, error) {
	switch n.op {
	case opExist:
		return vals[n.ref] != nil, nil
	case opNot:
		b, err := n.l.test(vals)
		return !b && err == nil, err
	case opAnd, opOr:
		b, err := n.l.test(vals)
		if err != nil || b != (n.op == opAnd) {
			return b && err == nil, err // "and" false, "or" true: r is not read
		}
		return n.r.test(vals)
	case opEq, opNe, opLt, opLe, opGt, opGe:
		if n.l.op <= opProp && n.r.op <= opProp {
			// Both operands are leaves ("Cores >= 2"): compare them in place.
			return n.cmp(n.l.leaf(vals), n.r.leaf(vals))
		}
		l, err := n.l.run(vals)
		if err != nil {
			return false, err
		}
		r, err := n.r.run(vals)
		if err != nil {
			return false, err
		}
		return n.cmp(&l, &r)
	}
	v, err := n.run(vals)
	return err == nil && v.Truthy(), err
}

// leaf is where the value of an opLit or opProp node is. Unquoted
// barewords double as string literals (paper's "== no").
func (n *cnode) leaf(vals []*wire.Value) *wire.Value {
	if n.op == opProp && vals[n.ref] != nil {
		return vals[n.ref]
	}
	return &n.lit
}

// cmp applies the comparison n.op to a and b, the one compare routine
// of run and test. Only two numbers or two strings are ordered, and a NaN
// orders equal to every number.
func (n *cnode) cmp(a, b *wire.Value) (bool, error) {
	if n.op == opEq || n.op == opNe {
		return looseEqual(*a, *b) == (n.op == opEq), nil
	}
	an, aok := a.AsNumber()
	bn, bok := b.AsNumber()
	var c int
	switch {
	case aok && bok && an < bn:
		c = -1
	case aok && bok && an > bn:
		c = 1
	case aok && bok:
	case a.Kind() == wire.KindString && b.Kind() == wire.KindString:
		c = strings.Compare(a.Str(), b.Str())
	default:
		return false, fmt.Errorf("trading: cannot order %s against %s", a.Kind(), b.Kind())
	}
	switch n.op {
	case opLt:
		return c < 0, nil
	case opLe:
		return c <= 0, nil
	case opGt:
		return c > 0, nil
	}
	return c >= 0, nil
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

// bin builds the node of a binary operator token.
func bin(op string, l, r *cnode) *cnode { return &cnode{op: binOps[op], l: l, r: r} }

func (p *cparser) parseOr() (*cnode, error) {
	lhs, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptWord("or") {
		rhs, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		lhs = bin("or", lhs, rhs)
	}
	return lhs, nil
}

func (p *cparser) parseAnd() (*cnode, error) {
	lhs, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptWord("and") {
		rhs, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		lhs = bin("and", lhs, rhs)
	}
	return lhs, nil
}

func (p *cparser) parseNot() (*cnode, error) {
	if p.acceptWord("not") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &cnode{op: opNot, l: e}, nil
	}
	return p.parseCmp()
}

func (p *cparser) parseCmp() (*cnode, error) {
	lhs, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if op, ok := p.acceptOp("==", "!=", "<=", ">=", "<", ">"); ok {
		rhs, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return bin(op, lhs, rhs), nil
	}
	return lhs, nil
}

func (p *cparser) parseSum() (*cnode, error) {
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
		lhs = bin(op, lhs, rhs)
	}
}

func (p *cparser) parseProd() (*cnode, error) {
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
		lhs = bin(op, lhs, rhs)
	}
}

func (p *cparser) parseUnary() (*cnode, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &cnode{op: opNeg, l: e}, nil
	}
	if p.acceptWord("exist") {
		name := p.takeIdent()
		if name == "" {
			return nil, p.errf("'exist' requires a property name")
		}
		return &cnode{op: opExist, name: name}, nil
	}
	return p.parsePrimary()
}

func (p *cparser) parsePrimary() (*cnode, error) {
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
		return &cnode{op: opLit, lit: wire.String(s)}, nil
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
		return &cnode{op: opLit, lit: wire.Number(n)}, nil
	default:
		w := p.takeIdent()
		switch w {
		case "":
			return nil, p.errf("unexpected character %q", string(rune(c)))
		case "true", "TRUE":
			return &cnode{op: opLit, lit: wire.Bool(true)}, nil
		case "false", "FALSE":
			return &cnode{op: opLit, lit: wire.Bool(false)}, nil
		default:
			return &cnode{op: opProp, name: w, lit: wire.String(w)}, nil
		}
	}
}
