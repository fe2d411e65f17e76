package trading

import (
	"fmt"
	"strings"

	"autoadapt/internal/wire"
)

// The reference evaluator: the tree walk the trader ran before expressions
// were compiled to slot reads, kept as the oracle of the compiled one. It
// walks the same parsed tree, but looks every name up through a PropLookup
// as evaluation reaches it and computes in wire.Values.

// PropLookup resolves a property name during evaluation. ok=false means
// the property does not exist for this offer.
type PropLookup func(name string) (wire.Value, bool)

// lookupVals is the value array the compiled evaluator reads for refs,
// filled from lookup.
func lookupVals(refs []string, lookup PropLookup) []*wire.Value {
	vals := make([]*wire.Value, len(refs))
	for i, name := range refs {
		if v, ok := lookup(name); ok {
			vals[i] = &v
		}
	}
	return vals
}

func (n *cnode) eval(lookup PropLookup) (wire.Value, error) {
	switch n.op {
	case opLit:
		return n.lit, nil
	case opProp:
		v, ok := lookup(n.name)
		if !ok {
			// Unquoted barewords double as string literals (paper's "== no").
			return wire.String(n.name), nil
		}
		return v, nil
	case opExist:
		_, ok := lookup(n.name)
		return wire.Bool(ok), nil
	case opNot:
		v, err := n.l.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		return wire.Bool(!v.Truthy()), nil
	case opNeg:
		v, err := n.l.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		x, ok := v.AsNumber()
		if !ok {
			return wire.Nil(), fmt.Errorf("trading: cannot negate %s", v.Kind())
		}
		return wire.Number(-x), nil
	case opAnd, opOr:
		l, err := n.l.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		if n.op == opAnd && !l.Truthy() {
			return wire.Bool(false), nil
		}
		if n.op == opOr && l.Truthy() {
			return wire.Bool(true), nil
		}
		r, err := n.r.eval(lookup)
		if err != nil {
			return wire.Nil(), err
		}
		return wire.Bool(r.Truthy()), nil
	}
	l, err := n.l.eval(lookup)
	if err != nil {
		return wire.Nil(), err
	}
	r, err := n.r.eval(lookup)
	if err != nil {
		return wire.Nil(), err
	}
	switch n.op {
	case opAdd, opSub, opMul, opDiv:
		ln, lok := l.AsNumber()
		rn, rok := r.AsNumber()
		if !lok || !rok {
			return wire.Nil(), fmt.Errorf("trading: arithmetic on %s and %s", l.Kind(), r.Kind())
		}
		switch n.op {
		case opAdd:
			return wire.Number(ln + rn), nil
		case opSub:
			return wire.Number(ln - rn), nil
		case opMul:
			return wire.Number(ln * rn), nil
		default:
			if rn == 0 {
				return wire.Nil(), fmt.Errorf("trading: division by zero")
			}
			return wire.Number(ln / rn), nil
		}
	case opEq:
		return wire.Bool(refLooseEqual(l, r)), nil
	case opNe:
		return wire.Bool(!refLooseEqual(l, r)), nil
	default:
		cmp, err := refCompare(l, r)
		if err != nil {
			return wire.Nil(), err
		}
		switch n.op {
		case opLt:
			return wire.Bool(cmp < 0), nil
		case opLe:
			return wire.Bool(cmp <= 0), nil
		case opGt:
			return wire.Bool(cmp > 0), nil
		default:
			return wire.Bool(cmp >= 0), nil
		}
	}
}

// refLooseEqual is wire.Value.Equal, except that booleans equal the barewords
// "yes"/"no"/"true"/"false".
func refLooseEqual(a, b wire.Value) bool {
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

func refCompare(a, b wire.Value) (int, error) {
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

// referenceKey is the preference sort key computed with the reference
// evaluator.
func referenceKey(p *Preference, id string, lookup PropLookup) prefKey {
	if p.kind == prefRandom {
		return prefKey{ok: true, num: float64(offerHash(id))}
	}
	v, err := p.expr.eval(lookup)
	if err != nil {
		return prefKey{}
	}
	if p.kind == prefWith {
		if v.Truthy() {
			return prefKey{ok: true, num: 0}
		}
		return prefKey{ok: true, num: 1}
	}
	n, ok := v.AsNumber()
	if !ok {
		return prefKey{}
	}
	if p.kind == prefMax {
		n = -n
	}
	return prefKey{ok: true, num: n}
}
