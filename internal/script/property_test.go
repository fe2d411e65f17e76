package script

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"autoadapt/internal/wire"
)

// Property: numeric literals round-trip through the lexer exactly.
func TestPropertyNumberLiteralRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			// Mix integers and decimal fractions with bounded precision so
			// the textual form is exact.
			n := float64(r.Intn(1_000_000))
			if r.Intn(2) == 0 {
				n += float64(r.Intn(1000)) / 1000
			}
			args[0] = reflect.ValueOf(n)
		},
	}
	in := New(Options{})
	prop := func(n float64) bool {
		src := "return " + strconv.FormatFloat(n, 'f', -1, 64)
		vs, err := in.Eval("p", src)
		if err != nil || len(vs) != 1 {
			return false
		}
		got, ok := vs[0].AsNumber()
		return ok && got == n
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the interpreter's arithmetic agrees with Go for + - * on
// integer operands.
func TestPropertyArithmeticAgreesWithGo(t *testing.T) {
	ops := []string{"+", "-", "*"}
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(float64(r.Intn(10_000) - 5_000))
			args[1] = reflect.ValueOf(float64(r.Intn(10_000) - 5_000))
			args[2] = reflect.ValueOf(ops[r.Intn(len(ops))])
		},
	}
	in := New(Options{})
	prop := func(a, b float64, op string) bool {
		src := fmt.Sprintf("return %v %s %v", a, op, b)
		vs, err := in.Eval("p", src)
		if err != nil {
			return false
		}
		var want float64
		switch op {
		case "+":
			want = a + b
		case "-":
			want = a - b
		case "*":
			want = a * b
		}
		return vs[0].Num() == want
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: string escaping round-trips through a quoted literal for
// printable payloads.
func TestPropertyStringLiteralRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(24)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(32 + r.Intn(95)) // printable ASCII
			}
			args[0] = reflect.ValueOf(string(b))
		},
	}
	in := New(Options{})
	prop := func(s string) bool {
		vs, err := in.Eval("p", "return "+quoteScript(s))
		if err != nil || len(vs) != 1 {
			return false
		}
		return vs[0].Str() == s
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// quoteScript renders s as a double-quoted AdaptScript literal.
func quoteScript(s string) string {
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			out = append(out, '\\', c)
		default:
			out = append(out, c)
		}
	}
	return string(append(out, '"'))
}

// pairCount counts the pairs Pairs visits: the array part's non-nil
// elements plus the hash part.
func pairCount(t *Table) int {
	n := 0
	t.Pairs(func(Value, Value) bool { n++; return true })
	return n
}

// Property: table Set/Get is a faithful map for random key/value streams
// against a Go map reference implementation.
func TestPropertyTableAgainstMap(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		ref := map[string]float64{}
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("k%d", r.Intn(20))
			if r.Intn(4) == 0 {
				// Delete.
				tbl.SetString(key, Nil())
				delete(ref, key)
			} else {
				v := float64(r.Intn(1000))
				tbl.SetString(key, Number(v))
				ref[key] = v
			}
		}
		if pairCount(tbl) != len(ref) {
			return false
		}
		for k, v := range ref {
			if tbl.GetString(k).Num() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: ToWire/FromWire round-trips every function-free value.
func TestPropertyWireConversionRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomScriptValue(r, 0))
		},
	}
	prop := func(v Value) bool {
		wv, err := v.ToWire()
		if err != nil {
			return false
		}
		back := FromWire(wv)
		w2, err := back.ToWire()
		if err != nil {
			return false
		}
		return wv.Equal(w2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func randomScriptValue(r *rand.Rand, depth int) Value {
	max := 6
	if depth > 2 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return Nil()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Intn(1000) - 500)
	case 3:
		return String(fmt.Sprintf("s%d", r.Intn(100)))
	case 4:
		return Ref(wire.ObjRef{Endpoint: "tcp|h:1", Key: fmt.Sprintf("k%d", r.Intn(10))})
	default:
		tbl := NewTable()
		for i, n := 0, r.Intn(4); i < n; i++ {
			tbl.Append(randomScriptValue(r, depth+1))
		}
		for i, n := 0, r.Intn(3); i < n; i++ {
			tbl.SetString(fmt.Sprintf("f%d", i), randomScriptValue(r, depth+1))
		}
		return TableVal(tbl)
	}
}

func TestToWireRejectsFunctions(t *testing.T) {
	in := New(Options{})
	vs, err := in.Eval("t", "return function() end")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vs[0].ToWire(); err == nil {
		t.Fatal("function crossed the wire")
	}
	tbl := NewTable()
	tbl.SetString("fn", vs[0])
	if _, err := TableVal(tbl).ToWire(); err == nil {
		t.Fatal("table containing a function crossed the wire")
	}
}

func TestScriptTableHelpers(t *testing.T) {
	tbl := NewList(Int(1), Int(2))
	if tbl.Len() != 2 || tbl.Index(2).Num() != 2 || !tbl.Index(9).IsNil() {
		t.Fatal("NewList/Index wrong")
	}
	tbl.Append(Int(3))
	if tbl.Len() != 3 {
		t.Fatal("append wrong")
	}
	// Function-valued and table-valued keys are permitted.
	in := New(Options{})
	vs, _ := in.Eval("t", "return function() end")
	if err := tbl.Set(vs[0], String("fn-key")); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(vs[0]).Str() != "fn-key" {
		t.Fatal("function key lookup failed")
	}
	inner := NewTable()
	if err := tbl.Set(TableVal(inner), String("tbl-key")); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(TableVal(inner)).Str() != "tbl-key" {
		t.Fatal("table key lookup failed")
	}
}

func TestValueToStringForms(t *testing.T) {
	in := New(Options{})
	vs, _ := in.Eval("t", "return function() end")
	cases := []struct {
		v    Value
		want string
	}{
		{Nil(), "nil"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Number(2.5), "2.5"},
		{Int(7), "7"},
		{String("x"), "x"},
		{Bytes([]byte{1, 2}), "bytes[2]"},
		{Ref(wire.ObjRef{Endpoint: "tcp|a:1", Key: "k"}), "<tcp|a:1/k>"},
	}
	for _, c := range cases {
		if got := c.v.ToString(); got != c.want {
			t.Errorf("ToString(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if got := vs[0].ToString(); got == "" {
		t.Error("function ToString empty")
	}
	if got := TableVal(NewTable()).ToString(); got == "" {
		t.Error("table ToString empty")
	}
}

func TestKindStringScript(t *testing.T) {
	names := map[Kind]string{
		KindNil: "nil", KindBool: "boolean", KindNumber: "number",
		KindString: "string", KindBytes: "bytes", KindTable: "table",
		KindObjRef: "objref", KindFunction: "function",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}
