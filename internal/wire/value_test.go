package wire

import (
	"math"
	"strings"
	"testing"
)

func TestZeroValueIsNil(t *testing.T) {
	var v Value
	if !v.IsNil() || v.Kind() != KindNil {
		t.Fatalf("zero Value: kind=%v IsNil=%v, want nil/true", v.Kind(), v.IsNil())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
	}{
		{"nil", Nil(), KindNil},
		{"bool", Bool(true), KindBool},
		{"number", Number(3.5), KindNumber},
		{"int", Int(7), KindNumber},
		{"string", String("x"), KindString},
		{"bytes", Bytes([]byte{1, 2}), KindBytes},
		{"table", TableVal(NewTable()), KindTable},
		{"ref", Ref(ObjRef{Endpoint: "tcp|a:1", Key: "k"}), KindObjRef},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.v.Kind() != tt.kind {
				t.Fatalf("Kind() = %v, want %v", tt.v.Kind(), tt.kind)
			}
		})
	}

	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool(Bool(true)) failed")
	}
	if n, ok := Number(2.5).AsNumber(); !ok || n != 2.5 {
		t.Error("AsNumber(Number(2.5)) failed")
	}
	if s, ok := String("hi").AsString(); !ok || s != "hi" {
		t.Error("AsString(String(hi)) failed")
	}
	if bs, ok := Bytes([]byte{9}).AsBytes(); !ok || len(bs) != 1 || bs[0] != 9 {
		t.Error("AsBytes round trip failed")
	}
	if _, ok := String("x").AsNumber(); ok {
		t.Error("AsNumber on string reported ok")
	}
	if _, ok := Number(1).AsString(); ok {
		t.Error("AsString on number reported ok")
	}
}

func TestTableValNilTableIsNil(t *testing.T) {
	if !TableVal(nil).IsNil() {
		t.Fatal("TableVal(nil) should be the nil value")
	}
}

func TestTruthy(t *testing.T) {
	tests := []struct {
		v    Value
		want bool
	}{
		{Nil(), false},
		{Bool(false), false},
		{Bool(true), true},
		{Number(0), true}, // Lua semantics: 0 is true
		{String(""), true},
		{TableVal(NewTable()), true},
	}
	for _, tt := range tests {
		if got := tt.v.Truthy(); got != tt.want {
			t.Errorf("Truthy(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestNumStrHelpers(t *testing.T) {
	if Number(4).Num() != 4 || String("x").Num() != 0 {
		t.Error("Num() helper wrong")
	}
	if String("x").Str() != "x" || Number(4).Str() != "" {
		t.Error("Str() helper wrong")
	}
}

func TestEqual(t *testing.T) {
	t1 := NewList(Int(1), String("a"))
	t1.SetString("k", Bool(true))
	t2 := NewList(Int(1), String("a"))
	t2.SetString("k", Bool(true))
	t3 := NewList(Int(1), String("a"))

	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"nil=nil", Nil(), Nil(), true},
		{"nil!=false", Nil(), Bool(false), false},
		{"num=num", Number(1.5), Number(1.5), true},
		{"nan=nan", Number(math.NaN()), Number(math.NaN()), true},
		{"str=str", String("a"), String("a"), true},
		{"str!=bytes", String("a"), Bytes([]byte("a")), false},
		{"table deep equal", TableVal(t1), TableVal(t2), true},
		{"table not equal", TableVal(t1), TableVal(t3), false},
		{"ref=ref", Ref(ObjRef{"tcp|x", "k"}), Ref(ObjRef{"tcp|x", "k"}), true},
		{"ref!=ref", Ref(ObjRef{"tcp|x", "k"}), Ref(ObjRef{"tcp|x", "j"}), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Fatalf("Equal = %v, want %v", got, tt.want)
			}
			if got := tt.b.Equal(tt.a); got != tt.want {
				t.Fatalf("Equal (sym) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestObjRefParseRoundTrip(t *testing.T) {
	refs := []ObjRef{
		{Endpoint: "tcp|127.0.0.1:9000", Key: "trader"},
		{Endpoint: "inproc|host-1", Key: "monitor/load"},
	}
	for _, r := range refs {
		got, err := ParseObjRef(r.String())
		if err != nil {
			t.Fatalf("ParseObjRef(%q): %v", r.String(), err)
		}
		if got != r {
			t.Fatalf("round trip = %+v, want %+v", got, r)
		}
	}
}

func TestObjRefParseErrors(t *testing.T) {
	for _, s := range []string{"", "nokey", "/onlykey", "noendpoint/", "missingbar/key"} {
		if _, err := ParseObjRef(s); err == nil {
			t.Errorf("ParseObjRef(%q) succeeded, want error", s)
		}
	}
}

func TestTableArrayPart(t *testing.T) {
	tb := NewTable()
	tb.Append(String("a"))
	tb.Append(String("b"))
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if got := tb.Index(1).Str(); got != "a" {
		t.Fatalf("Index(1) = %q, want a", got)
	}
	if !tb.Index(0).IsNil() || !tb.Index(3).IsNil() {
		t.Fatal("out-of-range Index should be nil")
	}
}

func TestTableSetContiguousIntegerExtendsArray(t *testing.T) {
	tb := NewTable()
	if err := tb.Set(Int(1), String("x")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(Int(2), String("y")); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

func TestTableSparseThenFill(t *testing.T) {
	tb := NewTable()
	// Store index 3 sparsely, then fill 1 and 2; array should absorb 3.
	if err := tb.Set(Int(3), String("c")); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 0 {
		t.Fatalf("sparse store grew array: Len = %d", tb.Len())
	}
	if err := tb.Set(Int(1), String("a")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(Int(2), String("b")); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after absorbing sparse successor", tb.Len())
	}
	if got := tb.Index(3).Str(); got != "c" {
		t.Fatalf("Index(3) = %q, want c", got)
	}
}

func TestTableSetNilDeletes(t *testing.T) {
	tb := NewTable()
	tb.SetString("k", Int(1))
	tb.SetString("k", Nil())
	if !tb.GetString("k").IsNil() {
		t.Fatal("SetString(k, nil) did not delete")
	}
	if tb.Size() != 0 {
		t.Fatalf("Size = %d, want 0", tb.Size())
	}
	// Deleting the tail of the array part shrinks it.
	tb.Append(Int(1))
	tb.Append(Int(2))
	if err := tb.Set(Int(2), Nil()); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after trailing delete", tb.Len())
	}
}

func TestTableBadKeys(t *testing.T) {
	tb := NewTable()
	if err := tb.Set(Nil(), Int(1)); err == nil {
		t.Error("Set(nil key) succeeded")
	}
	if err := tb.Set(Number(math.NaN()), Int(1)); err == nil {
		t.Error("Set(NaN key) succeeded")
	}
	if err := tb.Set(TableVal(NewTable()), Int(1)); err == nil {
		t.Error("Set(table key) succeeded")
	}
	// Get with a bad key returns nil rather than erroring.
	if !tb.Get(Nil()).IsNil() {
		t.Error("Get(nil key) should be nil")
	}
}

func TestTableMixedKeyKinds(t *testing.T) {
	tb := NewTable()
	if err := tb.Set(Bool(true), String("bt")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Set(Number(2.5), String("n")); err != nil {
		t.Fatal(err)
	}
	r := ObjRef{Endpoint: "tcp|x:1", Key: "o"}
	if err := tb.Set(Ref(r), String("ref")); err != nil {
		t.Fatal(err)
	}
	if got := tb.Get(Bool(true)).Str(); got != "bt" {
		t.Fatalf("bool key = %q", got)
	}
	if got := tb.Get(Number(2.5)).Str(); got != "n" {
		t.Fatalf("float key = %q", got)
	}
	if got := tb.Get(Ref(r)).Str(); got != "ref" {
		t.Fatalf("ref key = %q", got)
	}
}

func TestTablePairsOrderDeterministic(t *testing.T) {
	tb := NewTable()
	tb.Append(String("first"))
	tb.SetString("zeta", Int(1))
	tb.SetString("alpha", Int(2))
	if err := tb.Set(Number(10), Int(3)); err != nil {
		t.Fatal(err)
	}
	var keys []string
	tb.Pairs(func(k, v Value) bool {
		keys = append(keys, k.String())
		return true
	})
	want := []string{"1", "10", `"alpha"`, `"zeta"`}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestTablePairsEarlyStop(t *testing.T) {
	tb := NewList(Int(1), Int(2), Int(3))
	n := 0
	tb.Pairs(func(k, v Value) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("Pairs visited %d entries after early stop, want 2", n)
	}
}

func TestValueStringRendering(t *testing.T) {
	tb := NewTable()
	tb.Append(Int(1))
	tb.SetString("name", String("srv"))
	got := TableVal(tb).String()
	if !strings.Contains(got, "name=") || !strings.Contains(got, `"srv"`) {
		t.Fatalf("String() = %q, missing record field", got)
	}
	if Number(42).String() != "42" {
		t.Fatalf("Number(42).String() = %q", Number(42).String())
	}
	if Number(2.5).String() != "2.5" {
		t.Fatalf("Number(2.5).String() = %q", Number(2.5).String())
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNil: "nil", KindBool: "boolean", KindNumber: "number",
		KindString: "string", KindBytes: "bytes", KindTable: "table",
		KindObjRef: "objref",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind rendered as %q", got)
	}
}
