// Package script implements AdaptScript, the small dynamically typed
// interpreted language this repository embeds wherever the paper embeds Lua.
//
// The paper's central flexibility argument (§II, §VI) is that adaptation
// strategies, aspect evaluators and event-diagnosing predicates are written
// in an interpreted extension language, shipped across the network as source
// strings, and evaluated remotely ("remote evaluation paradigm", §III).
// AdaptScript reproduces the Lua fragment the paper actually uses: dynamic
// typing, first-class closures, tables as the single data structure, method
// call sugar (a:m(x)), multi-line string literals, multiple assignment and
// multiple return values, and a sandboxed global environment into which the
// host injects primitives.
//
// The interpreter is a register VM with per-call step, wall-clock and
// memory budgets so that code received from remote, semi-trusted peers
// cannot spin a monitor forever. Compilation runs parse → resolve
// (resolve.go turns every variable reference into an integer slot, box or
// upvalue index and folds constant subexpressions) → a content-addressed
// chunk cache (cache.go), so sources that arrive repeatedly over the wire
// compile once; each function is lowered to bytecode (compile.go) on its
// first call and run by vm.go.
//
// # Concurrency
//
// An Interp is single-goroutine: it owns a mutable globals table and the
// per-call step budget, so hosts sharing one Interp across goroutines must
// serialize every Eval/Call (see internal/monitor for the locked pattern).
// A *ChunkCache, by contrast, is internally synchronized and designed to be
// shared: many Interp values on many goroutines may point at one cache
// (Options.Cache), and the compiled funcProto values it returns are
// immutable after resolution, so concurrent compiles and calls through a
// shared cache are race-free as long as each Interp itself stays on one
// goroutine at a time.
package script

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"autoadapt/internal/wire"
)

// Kind identifies the dynamic type of a script Value. It extends the wire
// kinds with functions, which exist only inside an interpreter and cannot
// cross the network except as source text. (uint8 keeps Value compact —
// the interpreter copies Values constantly.)
type Kind uint8

// Script value kinds.
const (
	KindNil Kind = iota
	KindBool
	KindNumber
	KindString
	KindBytes
	KindTable
	KindObjRef
	KindFunction
)

// String names the kind as reported by the type() builtin.
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
	case KindFunction:
		return "function"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// GoFunc is a host-provided builtin callable from scripts. It receives the
// interpreter (so builtins can call back into script functions) and the
// argument list, and returns result values.
type GoFunc struct {
	Name string
	Fn   func(in *Interp, args []Value) ([]Value, error)
}

// Closure is a compiled script function plus the cells it captured. The
// proto is shared by every closure made from the same function literal;
// upvals holds one pointer per captured variable (empty for functions that
// capture nothing).
type Closure struct {
	proto  *funcProto
	upvals []*Value
}

// Name reports the chunk-qualified name of the closure for diagnostics.
func (c *Closure) Name() string {
	if c.proto.name != "" {
		return c.proto.name
	}
	return fmt.Sprintf("<anonymous %s:%d>", c.proto.chunk, c.proto.line)
}

// Value is a dynamically typed script value. The zero Value is nil.
//
// The layout is deliberately tight (64 bytes): the VM copies Values between
// registers on nearly every instruction, so the rare object-reference payload
// lives behind a pointer instead of inlining wire.ObjRef's two strings.
type Value struct {
	n    float64
	s    string
	t    *Table
	r    *wire.ObjRef
	cl   *Closure
	gf   *GoFunc
	kind Kind
	b    bool
}

// Constructors.

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Number returns a numeric value.
func Number(n float64) Value { return Value{kind: KindNumber, n: n} }

// Int returns a numeric value holding an integer.
func Int(n int) Value { return Number(float64(n)) }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Bytes returns a binary value.
func Bytes(b []byte) Value { return Value{kind: KindBytes, s: string(b)} }

// TableVal wraps a table.
func TableVal(t *Table) Value {
	if t == nil {
		return Nil()
	}
	return Value{kind: KindTable, t: t}
}

// Ref wraps an object reference.
func Ref(r wire.ObjRef) Value { return Value{kind: KindObjRef, r: &r} }

// Func wraps a host builtin.
func Func(name string, fn func(in *Interp, args []Value) ([]Value, error)) Value {
	return Value{kind: KindFunction, gf: &GoFunc{Name: name, Fn: fn}}
}

func closureVal(c *Closure) Value { return Value{kind: KindFunction, cl: c} }

// Accessors.

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is nil.
func (v Value) IsNil() bool { return v.kind == KindNil }

// IsFunction reports whether the value is callable.
func (v Value) IsFunction() bool { return v.kind == KindFunction }

// AsNumber returns the numeric payload.
func (v Value) AsNumber() (float64, bool) { return v.n, v.kind == KindNumber }

// AsString returns the string payload.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsTable returns the table payload.
func (v Value) AsTable() (*Table, bool) { return v.t, v.kind == KindTable }

// AsRef returns the object-reference payload.
func (v Value) AsRef() (wire.ObjRef, bool) {
	if v.kind != KindObjRef {
		return wire.ObjRef{}, false
	}
	return *v.r, true
}

// Truthy reports Lua truth: only nil and false are false.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNil:
		return false
	case KindBool:
		return v.b
	default:
		return true
	}
}

// Num returns the numeric payload or 0.
func (v Value) Num() float64 {
	if v.kind != KindNumber {
		return 0
	}
	return v.n
}

// Str returns the string payload or "".
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// Equal implements the == operator: same kind and payload; tables and
// functions compare by identity (Lua semantics), not structure.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindBool:
		return v.b == w.b
	case KindNumber:
		return v.n == w.n
	case KindString, KindBytes:
		return v.s == w.s
	case KindObjRef:
		return *v.r == *w.r
	case KindTable:
		return v.t == w.t
	case KindFunction:
		return v.cl == w.cl && v.gf == w.gf
	default:
		return false
	}
}

// ToString renders the value the way the tostring() builtin does.
func (v Value) ToString() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindNumber:
		return wire.FormatNumber(v.n)
	case KindString:
		return v.s
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.s))
	case KindTable:
		return fmt.Sprintf("table: %p", v.t)
	case KindObjRef:
		return "<" + v.r.String() + ">"
	case KindFunction:
		if v.gf != nil {
			return "function: builtin " + v.gf.Name
		}
		return "function: " + v.cl.Name()
	default:
		return "?"
	}
}

// ToWire converts a script value to a wire value so it can cross the
// network. Functions cannot be converted; tables convert recursively.
func (v Value) ToWire() (wire.Value, error) {
	switch v.kind {
	case KindNil:
		return wire.Nil(), nil
	case KindBool:
		return wire.Bool(v.b), nil
	case KindNumber:
		return wire.Number(v.n), nil
	case KindString:
		return wire.String(v.s), nil
	case KindBytes:
		return wire.Bytes([]byte(v.s)), nil
	case KindObjRef:
		return wire.Ref(*v.r), nil
	case KindTable:
		out := wire.NewTableSize(len(v.t.arr), len(v.t.strs)+len(v.t.hash))
		var convErr error
		v.t.Pairs(func(k, val Value) bool {
			wk, err := k.ToWire()
			if err != nil {
				convErr = err
				return false
			}
			wv, err := val.ToWire()
			if err != nil {
				convErr = err
				return false
			}
			if err := out.Set(wk, wv); err != nil {
				convErr = err
				return false
			}
			return true
		})
		if convErr != nil {
			return wire.Nil(), convErr
		}
		return wire.TableVal(out), nil
	case KindFunction:
		return wire.Nil(), fmt.Errorf("script: function %s cannot cross the wire; ship its source instead", v.ToString())
	default:
		return wire.Nil(), fmt.Errorf("script: cannot convert kind %v", v.kind)
	}
}

// AppendWire appends to dst the bytes wire.AppendValue writes for
// v.ToWire(). A list, such as a load triple, is written in place, with no
// wire.Table built for it: ToWire maps a table with only an array part, and
// no nil in it, onto a wire list element for element.
func (v Value) AppendWire(dst []byte) ([]byte, error) {
	if v.kind != KindTable || len(v.t.strs) != 0 || len(v.t.hash) != 0 || slices.ContainsFunc(v.t.arr, Value.IsNil) {
		w, err := v.ToWire()
		if err != nil {
			return dst, err
		}
		return wire.AppendValue(dst, w)
	}
	dst = wire.AppendTableHeader(dst, len(v.t.arr))
	for _, e := range v.t.arr {
		w, err := e.ToWire()
		if err == nil {
			dst, err = wire.AppendValueAt(dst, w, 1)
		}
		if err != nil {
			return dst, err
		}
	}
	return wire.AppendCount(dst, 0), nil
}

// FromWire converts a wire value into a script value, recursively for
// tables.
func FromWire(v wire.Value) Value {
	switch v.Kind() {
	case wire.KindNil:
		return Nil()
	case wire.KindBool:
		b, _ := v.AsBool()
		return Bool(b)
	case wire.KindNumber:
		n, _ := v.AsNumber()
		return Number(n)
	case wire.KindString:
		s, _ := v.AsString()
		return String(s)
	case wire.KindBytes:
		b, _ := v.AsBytes()
		return Bytes(b)
	case wire.KindObjRef:
		r, _ := v.AsRef()
		return Ref(r)
	case wire.KindTable:
		wt, _ := v.AsTable()
		t := &Table{arr: make([]Value, 0, wt.Len())}
		wt.Pairs(func(k, val wire.Value) bool {
			// Wire table keys are always valid script keys.
			_ = t.Set(FromWire(k), FromWire(val))
			return true
		})
		return TableVal(t)
	default:
		return Nil()
	}
}

// Table is the script's associative array, mirroring wire.Table but able to
// hold functions. Not safe for concurrent mutation.
//
// String keys — field access, method dispatch, the globals table — dominate
// script workloads, so they live in their own map keyed directly by string
// instead of going through the wide tableKey struct.
type Table struct {
	arr  []Value
	strs map[string]Value
	hash map[tableKey]Value
}

type tableKey struct {
	kind Kind
	b    bool
	n    float64
	s    string
	r    wire.ObjRef
	t    *Table
	cl   *Closure
	gf   *GoFunc
}

func toKey(v Value) (tableKey, error) {
	switch v.kind {
	case KindBool:
		return tableKey{kind: KindBool, b: v.b}, nil
	case KindNumber:
		if math.IsNaN(v.n) {
			return tableKey{}, fmt.Errorf("script: table index is NaN")
		}
		return tableKey{kind: KindNumber, n: v.n}, nil
	case KindString:
		return tableKey{kind: KindString, s: v.s}, nil
	case KindObjRef:
		return tableKey{kind: KindObjRef, r: *v.r}, nil
	case KindTable:
		return tableKey{kind: KindTable, t: v.t}, nil
	case KindFunction:
		return tableKey{kind: KindFunction, cl: v.cl, gf: v.gf}, nil
	default:
		return tableKey{}, fmt.Errorf("script: table index is %v", v.kind)
	}
}

func (k tableKey) value() Value {
	switch k.kind {
	case KindBool:
		return Bool(k.b)
	case KindNumber:
		return Number(k.n)
	case KindString:
		return String(k.s)
	case KindObjRef:
		return Ref(k.r)
	case KindTable:
		return TableVal(k.t)
	case KindFunction:
		return Value{kind: KindFunction, cl: k.cl, gf: k.gf}
	default:
		return Nil()
	}
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// NewList returns a table whose array part holds vs.
func NewList(vs ...Value) *Table {
	t := &Table{arr: make([]Value, len(vs))}
	copy(t.arr, vs)
	return t
}

// Len reports the array-part length (the # operator).
func (t *Table) Len() int { return len(t.arr) }

// Append adds v at the end of the array part.
func (t *Table) Append(v Value) { t.arr = append(t.arr, v) }

// Index returns the 1-based array element, falling back to the hash part.
func (t *Table) Index(i int) Value {
	if i >= 1 && i <= len(t.arr) {
		return t.arr[i-1]
	}
	return t.Get(Int(i))
}

// Get returns the value under key, or nil.
func (t *Table) Get(key Value) Value {
	if key.kind == KindString {
		return t.strs[key.s]
	}
	if key.kind == KindNumber && key.n == math.Trunc(key.n) {
		i := int(key.n)
		if i >= 1 && i <= len(t.arr) {
			return t.arr[i-1]
		}
	}
	k, err := toKey(key)
	if err != nil {
		return Nil()
	}
	return t.hash[k]
}

// GetString returns the value under a string key.
func (t *Table) GetString(name string) Value { return t.strs[name] }

// Set stores v under key; nil values delete. Contiguous integer keys extend
// the array part.
func (t *Table) Set(key, v Value) error {
	if key.kind == KindString {
		t.SetString(key.s, v)
		return nil
	}
	if key.kind == KindNumber && key.n == math.Trunc(key.n) && !math.IsNaN(key.n) {
		i := int(key.n)
		if i >= 1 && i <= len(t.arr) {
			t.arr[i-1] = v
			if v.IsNil() && i == len(t.arr) {
				for len(t.arr) > 0 && t.arr[len(t.arr)-1].IsNil() {
					t.arr = t.arr[:len(t.arr)-1]
				}
			}
			return nil
		}
		if i == len(t.arr)+1 && !v.IsNil() {
			t.arr = append(t.arr, v)
			for {
				k, _ := toKey(Int(len(t.arr) + 1))
				nv, ok := t.hash[k]
				if !ok {
					break
				}
				delete(t.hash, k)
				t.arr = append(t.arr, nv)
			}
			return nil
		}
	}
	k, err := toKey(key)
	if err != nil {
		return err
	}
	if v.IsNil() {
		delete(t.hash, k)
		return nil
	}
	if t.hash == nil {
		t.hash = make(map[tableKey]Value)
	}
	t.hash[k] = v
	return nil
}

// SetString stores v under a string key; nil values delete.
func (t *Table) SetString(name string, v Value) {
	if v.IsNil() {
		delete(t.strs, name)
		return
	}
	if t.strs == nil {
		t.strs = make(map[string]Value)
	}
	t.strs[name] = v
}

// Pairs iterates array part then hash part in deterministic order (string
// keys sort among the other kinds exactly as when they shared one map).
func (t *Table) Pairs(fn func(k, v Value) bool) {
	for i, v := range t.arr {
		if v.IsNil() {
			continue
		}
		if !fn(Int(i+1), v) {
			return
		}
	}
	if len(t.hash)+len(t.strs) == 0 {
		return // a list: nothing to sort
	}
	keys := make([]tableKey, 0, len(t.hash)+len(t.strs))
	for k := range t.hash {
		keys = append(keys, k)
	}
	for s := range t.strs {
		keys = append(keys, tableKey{kind: KindString, s: s})
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for _, k := range keys {
		v, ok := t.hash[k]
		if k.kind == KindString {
			v, ok = t.strs[k.s]
		}
		if !ok {
			continue
		}
		if !fn(k.value(), v) {
			return
		}
	}
}

func keyLess(a, b tableKey) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	switch a.kind {
	case KindBool:
		return !a.b && b.b
	case KindNumber:
		return a.n < b.n
	case KindString:
		return a.s < b.s
	case KindObjRef:
		if a.r.Endpoint != b.r.Endpoint {
			return a.r.Endpoint < b.r.Endpoint
		}
		return a.r.Key < b.r.Key
	case KindTable:
		return fmt.Sprintf("%p", a.t) < fmt.Sprintf("%p", b.t)
	case KindFunction:
		return fmt.Sprintf("%p%p", a.cl, a.gf) < fmt.Sprintf("%p%p", b.cl, b.gf)
	default:
		return false
	}
}
