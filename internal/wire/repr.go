package wire

import (
	"math"
	"unsafe"
)

// Value is a dynamically typed value. The zero Value is nil.
//
// It is four words. p and q hold string data or a table; n and meta hold
// the scalar payload and the lengths:
//
//	kind            p            q         n                   meta>>8
//	nil, bool       -            -         0 or 1              -
//	number          -            -         float64 bits        -
//	string, bytes   data         -         len                 -
//	table           *Table       -         -                   -
//	objref          Endpoint     Key       len(Endpoint)       len(Key)
//
// This is the only file that knows the layout; everything else packs and
// unpacks through the functions below. p and q only ever point at the data
// of immutable Go strings or at a Table, and nothing writes through them.
type Value struct {
	_    [0]func()      // not comparable: == would compare pointers, not content
	p    unsafe.Pointer // string/bytes data, *Table, or a ref's Endpoint data
	q    unsafe.Pointer // a ref's Key data
	n    uint64         // float64 bits, bool, string length, or len(Endpoint)
	meta uint64         // Kind in the low byte, len(Key) above it
}

// The constructors below are the only code that packs a Value. Each is one
// composite literal because its inlining cost is charged to every caller:
// a costlier String or Int stops callers such as a map-literal builder from
// inlining, and what they return then escapes to the heap.

// Bool returns a boolean Value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{n: n, meta: uint64(KindBool)}
}

// Number returns a numeric Value.
func Number(n float64) Value {
	// math.Float64bits spelled out: the call costs the inliner more.
	return Value{n: *(*uint64)(unsafe.Pointer(&n)), meta: uint64(KindNumber)}
}

// String returns a string Value.
func String(s string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s)), meta: uint64(KindString)}
}

// Bytes returns a binary Value. The slice is copied.
func Bytes(b []byte) Value { return bytesVal(string(b)) }

// bytesVal packs a bytes payload without copying it.
func bytesVal(s string) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s)), meta: uint64(KindBytes)}
}

// TableVal wraps a Table in a Value.
func TableVal(t *Table) Value {
	if t == nil {
		return Nil()
	}
	return Value{p: unsafe.Pointer(t), meta: uint64(KindTable)}
}

// Ref wraps an object reference in a Value.
func Ref(r ObjRef) Value {
	return Value{p: unsafe.Pointer(unsafe.StringData(r.Endpoint)), q: unsafe.Pointer(unsafe.StringData(r.Key)),
		n: uint64(len(r.Endpoint)), meta: uint64(KindObjRef) | uint64(len(r.Key))<<8}
}

func (v Value) kind() Kind { return Kind(uint8(v.meta)) }

// num is the payload of a number; the others below likewise assume the
// kind they unpack.
func (v Value) num() float64 { return math.Float64frombits(v.n) }

func (v Value) boolean() bool { return v.n != 0 }

func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

func (v Value) table() *Table { return (*Table)(v.p) }

func (v Value) ref() ObjRef {
	return ObjRef{Endpoint: unsafe.String((*byte)(v.p), int(v.n)), Key: unsafe.String((*byte)(v.q), int(v.meta>>8))}
}

// fuse returns a new H and an empty []E of capacity n whose backing array
// is part of the same heap object, for n from 1 to maxFused; ok is false
// for any other n. Each size is its own struct type, so the collector sees
// the real element type and nothing here needs unsafe. The slice may
// outgrow the array by append like any other; the array then stays with H.
func fuse[H, E any](n int) (h *H, s []E, ok bool) {
	switch n {
	case 1:
		x := new(struct {
			h H
			a [1]E
		})
		return &x.h, x.a[:0], true
	case 2:
		x := new(struct {
			h H
			a [2]E
		})
		return &x.h, x.a[:0], true
	case 3:
		x := new(struct {
			h H
			a [3]E
		})
		return &x.h, x.a[:0], true
	case 4:
		x := new(struct {
			h H
			a [4]E
		})
		return &x.h, x.a[:0], true
	case 5:
		x := new(struct {
			h H
			a [5]E
		})
		return &x.h, x.a[:0], true
	case 6:
		x := new(struct {
			h H
			a [6]E
		})
		return &x.h, x.a[:0], true
	case 7:
		x := new(struct {
			h H
			a [7]E
		})
		return &x.h, x.a[:0], true
	case 8:
		x := new(struct {
			h H
			a [8]E
		})
		return &x.h, x.a[:0], true
	}
	return nil, nil, false
}

// maxFused is the largest element count fuse handles.
const maxFused = 8
