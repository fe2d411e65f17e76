package trading

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"autoadapt/internal/wire"
)

// Preference orders query results. The supported forms follow the OMG
// trader preference grammar:
//
//	first            — keep export order (the default)
//	random           — deterministic shuffle (seeded by the offer ids, so
//	                   repeated queries spread load without true randomness)
//	min <expr>       — ascending by the expression's numeric value
//	max <expr>       — descending by the expression's numeric value
//	with <expr>      — offers satisfying expr sort before those that do not
//
// Offers for which the preference expression cannot be evaluated sort last
// (OMG semantics), rather than being dropped: the paper's fallback query
// "specifies only offer sorting, and no filtering" and must still see every
// offer.
type Preference struct {
	kind prefKind
	expr *cnode
	refs []string // property names the expression references, sorted
}

type prefKind int

const (
	prefFirst prefKind = iota + 1
	prefRandom
	prefMin
	prefMax
	prefWith
)

// ParsePreference compiles a preference string; empty means "first".
func ParsePreference(src string) (*Preference, error) {
	s := strings.TrimSpace(src)
	if s == "" || s == "first" {
		return &Preference{kind: prefFirst}, nil
	}
	if s == "random" {
		return &Preference{kind: prefRandom}, nil
	}
	var kind prefKind
	var rest string
	switch {
	case strings.HasPrefix(s, "min "):
		kind, rest = prefMin, s[4:]
	case strings.HasPrefix(s, "max "):
		kind, rest = prefMax, s[4:]
	case strings.HasPrefix(s, "with "):
		kind, rest = prefWith, s[5:]
	default:
		return nil, fmt.Errorf("trading: malformed preference %q", src)
	}
	p := &cparser{src: rest}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("trading: preference %q: trailing input", src)
	}
	return &Preference{kind: kind, expr: e, refs: numberRefs(e)}, nil
}

// Sort orders results in place, by the values in their snapshots.
func (p *Preference) Sort(results []QueryResult) error {
	switch p.kind {
	case prefFirst:
		return nil
	case prefRandom, prefMin, prefMax, prefWith:
	default:
		return fmt.Errorf("trading: unknown preference kind %d", p.kind)
	}
	idx := make([]int, len(results))
	keys := make([]prefKey, len(results))
	held := make([]wire.Value, len(p.refs))
	vals := make([]*wire.Value, len(p.refs))
	for i := range results {
		idx[i] = i
		for k, name := range p.refs {
			var ok bool
			held[k], ok = results[i].Snapshot[name]
			vals[k] = nil
			if ok {
				vals[k] = &held[k]
			}
		}
		keys[i] = p.key(results[i].Offer.ID, vals)
	}
	sortByKeys(idx, keys)
	out := make([]QueryResult, len(results))
	for i, j := range idx {
		out[i] = results[j]
	}
	copy(results, out)
	return nil
}

// prefKey is one offer's sort key under a preference: offers the
// preference expression can be evaluated for come first, by ascending num.
type prefKey struct {
	ok  bool
	num float64
}

// sortByKeys stable-sorts idx, a list of offer indices, by keys, which is
// indexed by the values in idx.
func sortByKeys(idx []int, keys []prefKey) {
	slices.SortStableFunc(idx, func(a, b int) int {
		ka, kb := keys[a], keys[b]
		switch {
		case ka.ok != kb.ok:
			if ka.ok {
				return -1
			}
			return 1
		case !ka.ok:
			return 0
		case ka.num < kb.num:
			return -1
		case ka.num > kb.num:
			return 1
		}
		return 0
	})
}

// key computes the sort key of the offer with the given id, whose values of
// p.refs are vals.
func (p *Preference) key(id string, vals []*wire.Value) prefKey {
	if p.kind == prefRandom {
		return prefKey{ok: true, num: float64(offerHash(id))}
	}
	v, err := p.expr.run(vals)
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

func offerHash(id string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return h.Sum32()
}
