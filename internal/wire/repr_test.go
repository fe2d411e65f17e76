package wire

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestReprSize pins the compact layout: a Value is four words, a small
// table's pair fits in 80 bytes, and Value cannot be compared with ==
// (which would compare pointers, not content).
func TestReprSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(tablePair{}); got > 80 {
		t.Errorf("unsafe.Sizeof(tablePair{}) = %d, want <= 80", got)
	}
	if reflect.TypeFor[Value]().Comparable() {
		t.Error("Value is comparable; == would compare representations")
	}
}

// FuzzValueRepr checks the packing against the accessors: every
// constructor round-trips through its accessor, the wrong accessor yields
// the zero payload, Equal is reflexive and compares content rather than
// pointers, and encode → decode → Equal holds, for values alone and as
// keys and values of a table.
func FuzzValueRepr(f *testing.F) {
	f.Add("tcp|10.0.0.1:9000", "monitor/LoadAvg", 0.5, true)
	f.Add("", "", 0.0, false)
	f.Add("inproc|t", "", math.Copysign(0, -1), true)
	f.Add("", "a/b/c", math.NaN(), false)
	f.Add("LoadAvg", "x", math.Inf(-1), true)
	f.Add("\x00\xff", "日本", 3.0, false)
	f.Fuzz(func(t *testing.T, a, b string, n float64, flag bool) {
		if v, ok := Bool(flag).AsBool(); !ok || v != flag {
			t.Fatalf("Bool(%v).AsBool() = %v, %v", flag, v, ok)
		}
		if v, ok := Number(n).AsNumber(); !ok || math.Float64bits(v) != math.Float64bits(n) {
			t.Fatalf("Number(%v).AsNumber() = %v, %v", n, v, ok)
		}
		if v, ok := String(a).AsString(); !ok || v != a {
			t.Fatalf("String(%q).AsString() = %q, %v", a, v, ok)
		}
		if v, ok := Bytes([]byte(a)).AsBytes(); !ok || string(v) != a {
			t.Fatalf("Bytes(%q).AsBytes() = %q, %v", a, v, ok)
		}
		refs := []ObjRef{{a, b}, {"", b}, {a, ""}, {a, b + "/" + a}}
		for _, r := range refs {
			if v, ok := Ref(r).AsRef(); !ok || v != r {
				t.Fatalf("Ref(%+v).AsRef() = %+v, %v", r, v, ok)
			}
		}
		// The wrong accessor sees the zero payload, whatever the words hold.
		if v, ok := String(a).AsNumber(); ok || v != 0 {
			t.Fatalf("String(%q).AsNumber() = %v, %v", a, v, ok)
		}
		if v, ok := Number(n).AsString(); ok || v != "" {
			t.Fatalf("Number(%v).AsString() = %q, %v", n, v, ok)
		}
		if v, ok := Ref(refs[0]).AsString(); ok || v != "" {
			t.Fatalf("Ref.AsString() = %q, %v", v, ok)
		}
		if v, ok := Number(n).AsBool(); ok || v {
			t.Fatalf("Number(%v).AsBool() = %v, %v", n, v, ok)
		}
		if v, ok := String(a).AsRef(); ok || !v.IsZero() {
			t.Fatalf("String(%q).AsRef() = %+v, %v", a, v, ok)
		}

		tb := NewTable()
		tb.SetString(a, Number(n))
		if err := tb.Set(Ref(refs[3]), String(b)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Set(Bool(flag), Ref(refs[1])); err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(n) {
			if err := tb.Set(Number(n), Bytes([]byte(b))); err != nil {
				t.Fatal(err)
			}
		}
		if got := tb.GetString(a); !got.Equal(Number(n)) {
			t.Fatalf("GetString(%q) = %v, want %v", a, got, Number(n))
		}
		if got := tb.Get(Ref(refs[3])); !got.Equal(String(b)) {
			t.Fatalf("Get(ref) = %v, want %q", got, b)
		}

		vals := []Value{
			Nil(), Bool(flag), Number(n), String(a), Bytes([]byte(b)),
			Ref(refs[0]), Ref(refs[1]), Ref(refs[2]), Ref(refs[3]), TableVal(tb),
		}
		for i, v := range vals {
			if !v.Equal(v) {
				t.Fatalf("%v does not equal itself", v)
			}
			for _, w := range vals[i+1:] {
				if w.Kind() != v.Kind() && (v.Equal(w) || w.Equal(v)) {
					t.Fatalf("%v equals %v of kind %v", v, w, w.Kind())
				}
			}
			enc, err := EncodeValue(v)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeValue(enc)
			if err != nil {
				t.Fatalf("decode %v: %v", v, err)
			}
			if !dec.Equal(v) || !v.Equal(dec) {
				t.Fatalf("round trip: %v decoded as %v", v, dec)
			}
		}
		// Equal compares content: a copy held at another address is equal.
		if c := strings.Clone(a); !String(a).Equal(String(c)) || !Ref(ObjRef{c, b}).Equal(Ref(refs[0])) {
			t.Fatalf("String or Ref of a copy of %q is not Equal", a)
		}
	})
}
