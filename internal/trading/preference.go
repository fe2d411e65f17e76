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
	src  string
	kind prefKind
	expr cexpr
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
		return &Preference{src: src, kind: prefFirst}, nil
	}
	if s == "random" {
		return &Preference{src: src, kind: prefRandom}, nil
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
	return &Preference{src: src, kind: kind, expr: e, refs: sortedRefs(e)}, nil
}

// Source returns the original preference text.
func (p *Preference) Source() string { return p.src }

// PropRefs returns the sorted set of property names the preference
// expression references ("first" and "random" reference none). The trader
// uses it for demand-driven snapshots.
func (p *Preference) PropRefs() []string { return slices.Clone(p.refs) }

// Sort orders results in place.
func (p *Preference) Sort(results []QueryResult) error {
	if p.kind == prefFirst {
		return nil
	}
	idx := make([]int, len(results))
	for i := range idx {
		idx[i] = i
	}
	var snap map[string]wire.Value
	lookup := func(name string) (wire.Value, bool) {
		v, ok := snap[name]
		return v, ok
	}
	err := p.rank(idx, make([]prefKey, len(results)), func(i int) (string, PropLookup) {
		snap = results[i].Snapshot
		return results[i].Offer.ID, lookup
	})
	if err != nil {
		return err
	}
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

// rank stable-sorts idx, a list of offer indices, by the preference. at(i)
// yields offer i's id and property lookup; keys is scratch indexed by the
// values in idx. Trader.Query ranks candidate indices with it before any
// snapshot exists; Sort ranks finished results.
func (p *Preference) rank(idx []int, keys []prefKey, at func(i int) (id string, lookup PropLookup)) error {
	switch p.kind {
	case prefFirst:
		return nil
	case prefRandom, prefMin, prefMax, prefWith:
	default:
		return fmt.Errorf("trading: unknown preference kind %d", p.kind)
	}
	for _, i := range idx {
		keys[i] = p.key(at(i))
	}
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
	return nil
}

// key computes one offer's sort key.
func (p *Preference) key(id string, lookup PropLookup) prefKey {
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
	n, isNum := v.AsNumber()
	if !isNum {
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
