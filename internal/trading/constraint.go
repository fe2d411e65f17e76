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
type Constraint struct {
	root *cnode
	refs []string // property names the expression references, sorted
}

// ParseConstraint compiles a constraint expression. An empty source
// compiles to a constraint matching every offer.
func ParseConstraint(src string) (*Constraint, error) {
	if strings.TrimSpace(src) == "" {
		return &Constraint{root: &cnode{op: opLit, lit: boolVal(true)}}, nil
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
	return &Constraint{root: root, refs: numberRefs(root)}, nil
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

// PropLookup resolves a property name during evaluation. ok=false means
// the property does not exist for this offer.
type PropLookup func(name string) (wire.Value, bool)

// lookupVals appends to dst the values lookup gives for refs, in the form
// the compiled evaluator reads.
func lookupVals(dst []cval, refs []string, lookup PropLookup) []cval {
	for _, name := range refs {
		v, ok := lookup(name)
		if !ok {
			dst = append(dst, cval{kind: kindMissing})
		} else if c, ok := scalarOf(&v); ok {
			dst = append(dst, c)
		} else {
			held := v // escapes; taking &v would move every v to the heap
			dst = append(dst, cval{kind: held.Kind(), v: &held})
		}
	}
	return dst
}

// ---- compiled form ----

// cval is a value as the compiled evaluator passes it, in 40 bytes instead
// of a wire.Value's 80: scalars inline (a boolean as n = 0 or 1), and for
// bytes, tables and object references — which the language can only compare
// for equality — a pointer to the wire.Value they came from. kindMissing
// marks a property the offer does not have; it never leaves a value array.
type cval struct {
	kind wire.Kind
	n    float64
	s    string
	v    *wire.Value
}

const kindMissing wire.Kind = -1

func boolVal(b bool) cval {
	if b {
		return cval{kind: wire.KindBool, n: 1}
	}
	return cval{kind: wire.KindBool}
}

func numVal(n float64) cval { return cval{kind: wire.KindNumber, n: n} }

// scalarOf converts a nil, boolean, number or string; ok is false for the
// other kinds.
func scalarOf(v *wire.Value) (cval, bool) {
	switch v.Kind() {
	case wire.KindNil:
		return cval{}, true
	case wire.KindBool:
		b, _ := v.AsBool()
		return boolVal(b), true
	case wire.KindNumber:
		return numVal(v.Num()), true
	case wire.KindString:
		return cval{kind: wire.KindString, s: v.Str()}, true
	}
	return cval{}, false
}

// valueOf converts *v, which must stay put while the result is in use.
func valueOf(v *wire.Value) cval {
	if c, ok := scalarOf(v); ok {
		return c
	}
	return cval{kind: v.Kind(), v: v}
}

// truthy is wire.Value.Truthy: only nil and false are false.
func (a cval) truthy() bool {
	switch a.kind {
	case wire.KindNil:
		return false
	case wire.KindBool:
		return a.n != 0
	}
	return true
}

// looseEqual compares for the constraint language: wire.Value.Equal (NaN
// equals NaN, -0 does not equal +0), except that booleans compare equal to
// the barewords "yes"/"no"/"true"/"false" so paper-style constraints work
// against boolean-valued properties.
func (a cval) looseEqual(b cval) bool {
	if a.kind == b.kind {
		switch a.kind {
		case wire.KindNil:
			return true
		case wire.KindBool:
			return a.n == b.n
		case wire.KindNumber:
			return math.Float64bits(a.n) == math.Float64bits(b.n) || math.IsNaN(a.n) && math.IsNaN(b.n)
		case wire.KindString:
			return a.s == b.s
		}
		return a.v.Equal(*b.v)
	}
	switch {
	case a.kind == wire.KindBool && b.kind == wire.KindString:
		return boolWord(a.n != 0, b.s)
	case b.kind == wire.KindBool && a.kind == wire.KindString:
		return boolWord(b.n != 0, a.s)
	}
	return false
}

func boolWord(b bool, s string) bool {
	if b {
		return s == "yes" || s == "true"
	}
	return s == "no" || s == "false"
}

// compare orders two numbers or two strings.
func (a cval) compare(b cval) (int, error) {
	switch {
	case a.kind == wire.KindNumber && b.kind == wire.KindNumber:
		switch {
		case a.n < b.n:
			return -1, nil
		case a.n > b.n:
			return 1, nil
		}
		return 0, nil
	case a.kind == wire.KindString && b.kind == wire.KindString:
		return strings.Compare(a.s, b.s), nil
	}
	return 0, fmt.Errorf("trading: cannot order %s against %s", a.kind, b.kind)
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
	ref  int    // opProp, opExist: index of name in the expression's refs
	name string // opProp, opExist
	lit  cval   // opLit: a number, string or boolean
	l, r *cnode
}

func (n *cnode) walk(fn func(*cnode)) {
	if n != nil {
		fn(n)
		n.l.walk(fn)
		n.r.walk(fn)
	}
}

// run evaluates the expression over vals, the values of its refs in order.
func (n *cnode) run(vals []cval) (cval, error) {
	switch n.op {
	case opLit:
		return n.lit, nil
	case opProp:
		if v := vals[n.ref]; v.kind != kindMissing {
			return v, nil
		}
		// Unquoted barewords double as string literals (paper's "== no").
		return cval{kind: wire.KindString, s: n.name}, nil
	case opExist:
		return boolVal(vals[n.ref].kind != kindMissing), nil
	}
	l, err := n.l.run(vals)
	if err != nil {
		return cval{}, err
	}
	switch n.op {
	case opNot:
		return boolVal(!l.truthy()), nil
	case opNeg:
		if l.kind != wire.KindNumber {
			return cval{}, fmt.Errorf("trading: cannot negate %s", l.kind)
		}
		return numVal(-l.n), nil
	case opAnd:
		if !l.truthy() {
			return boolVal(false), nil
		}
	case opOr:
		if l.truthy() {
			return boolVal(true), nil
		}
	}
	r, err := n.r.run(vals)
	if err != nil {
		return cval{}, err
	}
	switch n.op {
	case opAnd, opOr:
		return boolVal(r.truthy()), nil
	case opEq:
		return boolVal(l.looseEqual(r)), nil
	case opNe:
		return boolVal(!l.looseEqual(r)), nil
	case opLt, opLe, opGt, opGe:
		c, err := l.compare(r)
		if err != nil {
			return cval{}, err
		}
		switch n.op {
		case opLt:
			return boolVal(c < 0), nil
		case opLe:
			return boolVal(c <= 0), nil
		case opGt:
			return boolVal(c > 0), nil
		}
		return boolVal(c >= 0), nil
	}
	if l.kind != wire.KindNumber || r.kind != wire.KindNumber {
		return cval{}, fmt.Errorf("trading: arithmetic on %s and %s", l.kind, r.kind)
	}
	switch n.op {
	case opAdd:
		return numVal(l.n + r.n), nil
	case opSub:
		return numVal(l.n - r.n), nil
	case opMul:
		return numVal(l.n * r.n), nil
	}
	if r.n == 0 {
		return cval{}, fmt.Errorf("trading: division by zero")
	}
	return numVal(l.n / r.n), nil
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
		return &cnode{op: opLit, lit: cval{kind: wire.KindString, s: s}}, nil
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
		return &cnode{op: opLit, lit: numVal(n)}, nil
	default:
		w := p.takeIdent()
		switch w {
		case "":
			return nil, p.errf("unexpected character %q", string(rune(c)))
		case "true", "TRUE":
			return &cnode{op: opLit, lit: boolVal(true)}, nil
		case "false", "FALSE":
			return &cnode{op: opLit, lit: boolVal(false)}, nil
		default:
			return &cnode{op: opProp, name: w}, nil
		}
	}
}
