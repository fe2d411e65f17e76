// Package wire defines the dynamically typed value model shared by every
// layer of the infrastructure, and a binary codec for moving those values
// (and ORB request/reply frames) across a network.
//
// The paper's middleware is built on CORBA's Any/DynAny machinery plus Lua's
// dynamic values: arguments, results, monitored property values, trader
// property values, and shipped code are all dynamically typed. Value is the
// Go analog. A Value holds one of: nil, bool, float64, string, []byte,
// *Table, or ObjRef (a remote object reference), packed into four words
// (32 bytes) with a ref's two strings inline; repr.go holds the layout.
// Tables are associative arrays with both an array part and a hash part,
// mirroring the Lua tables the paper relies on for data description (§VI).
package wire

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// Value kinds. KindNil is deliberately the zero value: the zero Value is nil.
const (
	KindNil Kind = iota
	KindBool
	KindNumber
	KindString
	KindBytes
	KindTable
	KindObjRef
)

// String returns the kind's name as used in diagnostics and by the script
// runtime's type() builtin.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindTable:
		return "table"
	case KindObjRef:
		return "objref"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ObjRef names a remote object: a transport endpoint plus an object key
// scoped to that endpoint. It is the IOR analog; ObjRefs cross the wire so
// that, e.g., a client can hand a monitor a reference to its observer.
type ObjRef struct {
	// Endpoint is "network|address", e.g. "tcp|127.0.0.1:9021" or
	// "inproc|trader-1".
	Endpoint string
	// Key identifies the object within the endpoint's object adapter.
	Key string
}

// IsZero reports whether r is the zero reference.
func (r ObjRef) IsZero() bool { return r.Endpoint == "" && r.Key == "" }

// String renders the reference in the canonical "endpoint/key" form.
func (r ObjRef) String() string { return r.Endpoint + "/" + r.Key }

// ParseObjRef parses the canonical "network|address/key" form produced by
// ObjRef.String.
func ParseObjRef(s string) (ObjRef, error) {
	// Endpoints never contain '/', keys may: split at the first slash.
	i := strings.Index(s, "/")
	if i < 0 {
		return ObjRef{}, fmt.Errorf("wire: malformed object reference %q", s)
	}
	r := ObjRef{Endpoint: s[:i], Key: s[i+1:]}
	if r.Endpoint == "" || r.Key == "" || !strings.Contains(r.Endpoint, "|") {
		return ObjRef{}, fmt.Errorf("wire: malformed object reference %q", s)
	}
	return r, nil
}

// Constructors.

// Nil returns the nil Value.
func Nil() Value { return Value{} }

// Bool, Number, String, Bytes, TableVal and Ref are in repr.go.

// Int returns a numeric Value holding an integer.
func Int(n int) Value { return Number(float64(n)) }

// Accessors. Each returns the zero payload when the kind does not match.

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind() }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind() == KindNil }

// AsBool returns the boolean payload; ok is false if the value is not a
// boolean.
func (v Value) AsBool() (b, ok bool) {
	ok = v.kind() == KindBool
	return ok && v.boolean(), ok
}

// AsNumber returns the numeric payload; ok is false if the value is not a
// number.
func (v Value) AsNumber() (float64, bool) {
	if v.kind() != KindNumber {
		return 0, false
	}
	return v.num(), true
}

// AsString returns the string payload; ok is false if the value is not a
// string.
func (v Value) AsString() (string, bool) {
	if v.kind() != KindString {
		return "", false
	}
	return v.str(), true
}

// AsBytes returns the binary payload; ok is false if the value is not bytes.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind() != KindBytes {
		return nil, false
	}
	return []byte(v.str()), true
}

// AsTable returns the table payload; ok is false if the value is not a
// table.
func (v Value) AsTable() (*Table, bool) {
	if v.kind() != KindTable {
		return nil, false
	}
	return v.table(), true
}

// AsRef returns the object-reference payload; ok is false if the value is
// not an object reference.
func (v Value) AsRef() (ObjRef, bool) {
	if v.kind() != KindObjRef {
		return ObjRef{}, false
	}
	return v.ref(), true
}

// Truthy reports the value's truth under the scripting language's rules
// (only nil and false are false — Lua semantics, which the paper's shipped
// predicates rely on).
func (v Value) Truthy() bool {
	switch v.kind() {
	case KindNil:
		return false
	case KindBool:
		return v.boolean()
	default:
		return true
	}
}

// Num returns the numeric payload or 0 if the value is not a number.
// Convenience for metric plumbing where a missing number means zero.
func (v Value) Num() float64 {
	if v.kind() != KindNumber {
		return 0
	}
	return v.num()
}

// Str returns the string payload or "" if the value is not a string.
func (v Value) Str() string {
	if v.kind() != KindString {
		return ""
	}
	return v.str()
}

// Equal reports deep equality of two values. Tables compare by content
// (recursively); NaN equals NaN so that codec round-trip properties hold.
func (v Value) Equal(w Value) bool {
	if v.kind() != w.kind() {
		return false
	}
	switch v.kind() {
	case KindNil:
		return true
	case KindBool:
		return v.boolean() == w.boolean()
	case KindNumber:
		a, b := v.num(), w.num()
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	case KindString, KindBytes:
		return v.str() == w.str()
	case KindObjRef:
		return v.ref() == w.ref()
	case KindTable:
		return v.table().equal(w.table())
	default:
		return false
	}
}

// String renders the value for diagnostics. Tables render with sorted keys
// so output is deterministic.
func (v Value) String() string {
	var sb strings.Builder
	v.format(&sb, 0)
	return sb.String()
}

func (v Value) format(sb *strings.Builder, depth int) {
	switch v.kind() {
	case KindNil:
		sb.WriteString("nil")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.boolean()))
	case KindNumber:
		sb.WriteString(FormatNumber(v.num()))
	case KindString:
		sb.WriteString(strconv.Quote(v.str()))
	case KindBytes:
		fmt.Fprintf(sb, "bytes[%d]", len(v.str()))
	case KindObjRef:
		sb.WriteString("<" + v.ref().String() + ">")
	case KindTable:
		if depth > 8 {
			sb.WriteString("{...}")
			return
		}
		v.table().format(sb, depth)
	}
}

// FormatNumber renders a float64 the way the script runtime's tostring()
// does: integers without a decimal point, everything else in shortest form.
func FormatNumber(n float64) string {
	if n == math.Trunc(n) && math.Abs(n) < 1e15 {
		return strconv.FormatInt(int64(n), 10)
	}
	return strconv.FormatFloat(n, 'g', -1, 64)
}

// Table is an associative array with Lua-like behaviour: a contiguous
// integer-keyed array part (1-based) plus a hash part keyed by arbitrary
// non-nil scalar values. Tables are not safe for concurrent mutation; the
// layers above confine each table to one goroutine or copy at boundaries.
//
// The hash part has two forms. Up to smallTableMax pairs live in small,
// sorted by key: the records that cross the wire (an offer, its properties,
// a stats reply) have a handful of fields, and a Go map costs over a
// kilobyte and three allocations before it holds one. A larger hash part
// spills to hash and stays there: hash != nil means spilled, and small nil.
// Neither form stores a nil value.
type Table struct {
	arr   []Value
	small []tablePair
	hash  map[tableKey]Value
}

// smallTableMax is the largest hash part kept in Table.small: eight pairs
// cover every record the infrastructure itself sends, a lookup scans at
// most eight keys, and the copy Pairs iterates (8 x 80 bytes) fits a stack.
const smallTableMax = 8

type tablePair struct {
	k tableKey
	v Value
}

// tableKey is the comparable form of a Value usable as a table key: a
// bool's 0 or 1 or a number in n, a string or a ref's Endpoint in s, a
// ref's Key in s2. Unlike Value it compares by content, so it can key the
// spilled map.
type tableKey struct {
	kind  Kind
	n     float64
	s, s2 string
}

func toKey(v Value) (tableKey, error) {
	switch k := v.kind(); k {
	case KindBool:
		var n float64
		if v.boolean() {
			n = 1
		}
		return tableKey{kind: k, n: n}, nil
	case KindNumber:
		n := v.num()
		if math.IsNaN(n) {
			return tableKey{}, errors.New("wire: NaN table key")
		}
		return tableKey{kind: k, n: n}, nil
	case KindString:
		return tableKey{kind: k, s: v.str()}, nil
	case KindObjRef:
		r := v.ref()
		return tableKey{kind: k, s: r.Endpoint, s2: r.Key}, nil
	default:
		return tableKey{}, fmt.Errorf("wire: %s is not usable as a table key", k)
	}
}

func (k tableKey) value() Value {
	switch k.kind {
	case KindBool:
		return Bool(k.n != 0)
	case KindNumber:
		return Number(k.n)
	case KindString:
		return String(k.s)
	case KindObjRef:
		return Ref(ObjRef{Endpoint: k.s, Key: k.s2})
	default:
		return Nil()
	}
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// NewTableSize returns an empty table with room for narr array elements
// and nrec hash-part pairs, for builders that know what they will store.
func NewTableSize(narr, nrec int) *Table {
	t := &Table{arr: make([]Value, 0, narr)}
	t.reserveHash(nrec)
	return t
}

// reserveHash sizes the still-empty hash part for n pairs.
func (t *Table) reserveHash(n int) {
	if n > smallTableMax {
		t.hash = make(map[tableKey]Value, n)
	} else if n > 0 {
		t.small = make([]tablePair, 0, n)
	}
}

// NewList returns a table whose array part holds vs in order.
func NewList(vs ...Value) *Table {
	t := &Table{arr: make([]Value, len(vs))}
	copy(t.arr, vs)
	return t
}

// NewRecord returns a table populated from string-keyed fields.
func NewRecord(fields map[string]Value) *Table {
	t := NewTableSize(0, len(fields))
	for k, v := range fields {
		t.SetString(k, v)
	}
	return t
}

// Len reports the length of the array part (the # operator).
func (t *Table) Len() int { return len(t.arr) }

// Index returns the value stored in the array part at i (1-based), or nil
// if out of range.
func (t *Table) Index(i int) Value {
	if i < 1 || i > len(t.arr) {
		// Fall back to the hash part: a[i] may have been stored sparsely.
		return t.Get(Int(i))
	}
	return t.arr[i-1]
}

// Append adds v to the end of the array part.
func (t *Table) Append(v Value) { t.arr = append(t.arr, v) }

// hashLen reports the number of pairs in the hash part.
func (t *Table) hashLen() int { return len(t.small) + len(t.hash) }

// findSmall returns k's position in t.small, or the position that keeps
// the slice sorted if k is not there.
func (t *Table) findSmall(k tableKey) (int, bool) {
	for i := range t.small {
		if c := keyCmp(k, t.small[i].k); c <= 0 {
			return i, c == 0
		}
	}
	return len(t.small), false
}

// hashGet returns the hash part's value for k, nil if there is none.
func (t *Table) hashGet(k tableKey) Value {
	if t.hash != nil {
		return t.hash[k]
	}
	if i, ok := t.findSmall(k); ok {
		return t.small[i].v
	}
	return Value{}
}

func (t *Table) hashDelete(k tableKey) {
	if t.hash != nil {
		delete(t.hash, k)
	} else if i, ok := t.findSmall(k); ok {
		t.small = slices.Delete(t.small, i, i+1)
	}
}

func (t *Table) hashSet(k tableKey, v Value) {
	if t.hash != nil {
		t.hash[k] = v
		return
	}
	i, ok := t.findSmall(k)
	switch {
	case ok:
		// The key is rewritten too, as a map does for keys that are equal
		// but not identical (-0 and +0).
		t.small[i] = tablePair{k, v}
	case len(t.small) < smallTableMax:
		if t.small == nil {
			t.small = make([]tablePair, 0, smallTableMax/2)
		}
		t.small = slices.Insert(t.small, i, tablePair{k, v})
	default:
		t.hash = make(map[tableKey]Value, 2*smallTableMax)
		for _, p := range t.small {
			t.hash[p.k] = p.v
		}
		t.hash[k] = v
		t.small = nil
	}
}

// Get returns the value stored under key, or nil if absent or the key is
// not usable.
func (t *Table) Get(key Value) Value {
	if key.kind() == KindNumber {
		n := key.num()
		if n == math.Trunc(n) {
			i := int(n)
			if i >= 1 && i <= len(t.arr) {
				return t.arr[i-1]
			}
		}
	}
	k, err := toKey(key)
	if err != nil {
		return Nil()
	}
	return t.hashGet(k)
}

// GetString returns the value stored under the string key name.
func (t *Table) GetString(name string) Value {
	return t.hashGet(tableKey{kind: KindString, s: name})
}

// Set stores v under key. Setting nil deletes the key. Integer keys that
// extend the array part contiguously are stored there. Set returns an error
// only for unusable keys (nil, NaN, table, bytes).
func (t *Table) Set(key, v Value) error {
	if n := key.num(); key.kind() == KindNumber && n == math.Trunc(n) && !math.IsNaN(n) {
		i := int(n)
		if i >= 1 && i <= len(t.arr) {
			t.arr[i-1] = v
			if v.IsNil() && i == len(t.arr) {
				// Shrink trailing nils so Len stays meaningful.
				for len(t.arr) > 0 && t.arr[len(t.arr)-1].IsNil() {
					t.arr = t.arr[:len(t.arr)-1]
				}
			}
			return nil
		}
		if i == len(t.arr)+1 && !v.IsNil() {
			t.arr = append(t.arr, v)
			// Absorb any contiguous successors previously stored sparsely.
			for t.hashLen() > 0 {
				k, _ := toKey(Int(len(t.arr) + 1))
				nv := t.hashGet(k)
				if nv.IsNil() {
					break
				}
				t.hashDelete(k)
				t.arr = append(t.arr, nv)
			}
			return nil
		}
	}
	k, err := toKey(key)
	if err != nil {
		return err
	}
	t.hashPut(k, v)
	return nil
}

// SetString stores v under the string key name. A string key is always
// usable and never lands in the array part, so it goes to the hash part
// without a Value built for it.
func (t *Table) SetString(name string, v Value) {
	t.hashPut(tableKey{kind: KindString, s: name}, v)
}

// hashPut stores v under k in the hash part; nil deletes.
func (t *Table) hashPut(k tableKey, v Value) {
	if v.IsNil() {
		t.hashDelete(k)
		return
	}
	t.hashSet(k, v)
}

// Pairs calls fn for every key/value pair: array part first in index order,
// then hash part in deterministic (sorted) key order. Iteration stops if fn
// returns false. fn may mutate the table: the hash part is iterated as it
// was when Pairs reached it.
func (t *Table) Pairs(fn func(k, v Value) bool) {
	for i, v := range t.arr {
		if v.IsNil() {
			continue
		}
		if !fn(Int(i+1), v) {
			return
		}
	}
	ps := t.sortedHash()
	if t.hash == nil {
		var buf [smallTableMax]tablePair
		ps = buf[:copy(buf[:], ps)]
	}
	for i := range ps {
		if !fn(ps[i].k.value(), ps[i].v) {
			return
		}
	}
}

// sortedHash returns the hash part in key order: for a small table the
// inline slice itself, which the caller must not hold across a mutation,
// for a spilled one a fresh sorted slice.
func (t *Table) sortedHash() []tablePair {
	if t.hash == nil {
		return t.small
	}
	ps := make([]tablePair, 0, len(t.hash))
	for k, v := range t.hash {
		ps = append(ps, tablePair{k, v})
	}
	slices.SortFunc(ps, func(a, b tablePair) int { return keyCmp(a.k, b.k) })
	return ps
}

// keyCmp orders table keys: by kind, then by value within the kind. The
// fields a kind does not use are zero, so one comparison serves them all.
func keyCmp(a, b tableKey) int {
	if c := cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.n, b.n); c != 0 {
		return c
	}
	if c := strings.Compare(a.s, b.s); c != 0 {
		return c
	}
	return strings.Compare(a.s2, b.s2)
}

// Size reports the total number of stored pairs (array + hash).
func (t *Table) Size() int {
	n := t.hashLen()
	for _, v := range t.arr {
		if !v.IsNil() {
			n++
		}
	}
	return n
}

// Copy returns a deep copy of the table. Object references and scalars are
// copied by value; nested tables are copied recursively.
func (t *Table) Copy() *Table {
	out := &Table{arr: make([]Value, len(t.arr))}
	for i, v := range t.arr {
		out.arr[i] = copyValue(v)
	}
	if len(t.small) > 0 {
		out.small = make([]tablePair, len(t.small))
		for i, p := range t.small {
			out.small[i] = tablePair{p.k, copyValue(p.v)}
		}
	}
	if len(t.hash) > 0 {
		out.hash = make(map[tableKey]Value, len(t.hash))
		for k, v := range t.hash {
			out.hash[k] = copyValue(v)
		}
	}
	return out
}

func copyValue(v Value) Value {
	if v.kind() == KindTable {
		return TableVal(v.table().Copy())
	}
	return v
}

func (t *Table) equal(u *Table) bool {
	if t == nil || u == nil {
		return t == u
	}
	if len(t.arr) != len(u.arr) || t.hashLen() != u.hashLen() {
		return false
	}
	for i := range t.arr {
		if !t.arr[i].Equal(u.arr[i]) {
			return false
		}
	}
	// One of the two loops is empty; u may be in either form.
	for _, p := range t.small {
		if !p.v.Equal(u.hashGet(p.k)) {
			return false
		}
	}
	for k, v := range t.hash {
		if !v.Equal(u.hashGet(k)) {
			return false
		}
	}
	return true
}

func (t *Table) format(sb *strings.Builder, depth int) {
	sb.WriteByte('{')
	first := true
	t.Pairs(func(k, v Value) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		if s, ok := k.AsString(); ok && isIdent(s) {
			sb.WriteString(s)
		} else {
			sb.WriteByte('[')
			k.format(sb, depth+1)
			sb.WriteByte(']')
		}
		sb.WriteByte('=')
		v.format(sb, depth+1)
		return true
	})
	sb.WriteByte('}')
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && r >= '0' && r <= '9':
		default:
			return false
		}
	}
	return true
}
