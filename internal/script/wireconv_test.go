package script

import (
	"math"
	"testing"

	"autoadapt/internal/wire"
)

// Differential tests for the script/wire conversion. FromWire and ToWire
// size their target table before filling it; fromWireRef and toWireRef are
// the element-by-element conversion they replaced, and the two must build
// the same tables: same keys, same values and the same split between array
// and hash part. A nil hole in a wire list is not a pair, so the elements
// after it land in the hash part on both sides.

// wireSeedTables are the shapes the wire fuzzers seed with: a load sample,
// a list carrying bytes, records of 0 to 9 pairs on both sides of the
// fused-table limit, nested tables, mixed array and hash parts, and holes.
func wireSeedTables() []wire.Value {
	ref := wire.Ref(wire.ObjRef{Endpoint: "tcp|h:1", Key: "svc"})
	list := func(vs ...wire.Value) wire.Value { return wire.TableVal(wire.NewList(vs...)) }
	seeds := []wire.Value{
		list(wire.Number(80), wire.Number(40), wire.Number(30)),
		list(wire.Number(3.25), wire.Bytes([]byte{1, 2})),
		list(wire.String("alpha"), wire.Int(42), wire.Bool(true), ref),
		list(wire.Number(1), wire.Nil(), wire.Number(3)),
		list(wire.Number(1), wire.Nil()),
		list(),
	}
	for n := 0; n <= 9; n++ {
		rec := wire.NewTable()
		for i := 0; i < n; i++ {
			rec.SetString(string(rune('a'+i)), wire.Int(i))
		}
		seeds = append(seeds, wire.TableVal(rec))
	}
	mixed := wire.NewList(wire.Int(1), wire.Int(2))
	mustSet := func(t *wire.Table, k, v wire.Value) {
		if err := t.Set(k, v); err != nil {
			panic(err)
		}
	}
	mustSet(mixed, wire.String("x"), wire.String("a"))
	mustSet(mixed, wire.Int(10), wire.Bool(true))
	mustSet(mixed, wire.Number(-2.5), wire.Nil())
	mustSet(mixed, wire.Number(0.5), ref)
	mustSet(mixed, wire.Bool(false), wire.Int(0))
	mustSet(mixed, ref, wire.String("by ref"))
	seeds = append(seeds, wire.TableVal(mixed))
	nested := wire.NewTable()
	nested.SetString("load", seeds[0])
	nested.SetString("mixed", wire.TableVal(mixed))
	nested.SetString("deeper", list(list(list(wire.String("in")), wire.Nil(), seeds[3])))
	seeds = append(seeds, wire.TableVal(nested), list(wire.TableVal(nested), seeds[3]))
	return seeds
}

// fromWireRef is FromWire as it was before the conversion sized its table.
func fromWireRef(v wire.Value) Value {
	wt, ok := v.AsTable()
	if !ok {
		return FromWire(v)
	}
	t := NewTable()
	wt.Pairs(func(k, val wire.Value) bool {
		_ = t.Set(FromWire(k), fromWireRef(val))
		return true
	})
	return TableVal(t)
}

// toWireRef is ToWire as it was before the conversion sized its table.
func toWireRef(v Value) (wire.Value, error) {
	if v.kind != KindTable {
		return v.ToWire()
	}
	out := wire.NewTable()
	var convErr error
	v.t.Pairs(func(k, val Value) bool {
		wk, err := k.ToWire()
		if err == nil {
			var wv wire.Value
			if wv, err = toWireRef(val); err == nil {
				err = out.Set(wk, wv)
			}
		}
		convErr = err
		return err == nil
	})
	return wire.TableVal(out), convErr
}

// sameLayout reports whether two script values are equal with their
// tables laid out alike: the same array part, holes included, and the same
// hash part.
func sameLayout(a, b Value) bool {
	if a.kind != KindTable || b.kind != KindTable {
		return a.kind == b.kind && (a.Equal(b) || a.kind == KindNumber && math.IsNaN(a.n) && math.IsNaN(b.n))
	}
	if len(a.t.arr) != len(b.t.arr) || len(a.t.strs) != len(b.t.strs) || len(a.t.hash) != len(b.t.hash) {
		return false
	}
	for i := range a.t.arr {
		if !sameLayout(a.t.arr[i], b.t.arr[i]) {
			return false
		}
	}
	for k, v := range a.t.strs {
		if !sameLayout(v, b.t.strs[k]) {
			return false
		}
	}
	for k, v := range a.t.hash {
		if !sameLayout(v, b.t.hash[k]) {
			return false
		}
	}
	return true
}

// samePairs reports whether two wire values hold the same pairs, however
// each table splits them between its array and hash parts.
func samePairs(a, b wire.Value) bool {
	at, aok := a.AsTable()
	bt, bok := b.AsTable()
	if !aok || !bok {
		return a.Equal(b)
	}
	count := func(t *wire.Table) (n int) {
		t.Pairs(func(_, _ wire.Value) bool { n++; return true })
		return n
	}
	same := count(at) == count(bt)
	at.Pairs(func(k, v wire.Value) bool {
		same = same && samePairs(v, bt.Get(k))
		return same
	})
	return same
}

// checkConversion runs every conversion property on one wire value.
func checkConversion(t *testing.T, w wire.Value) {
	t.Helper()
	s := FromWire(w)
	if ref := fromWireRef(w); !sameLayout(s, ref) {
		t.Fatalf("FromWire(%v) builds a table unlike the unsized conversion", w)
	}
	back, err := s.ToWire()
	if err != nil {
		t.Fatalf("ToWire(FromWire(%v)): %v", w, err)
	}
	if ref, _ := toWireRef(s); !back.Equal(ref) {
		t.Fatalf("ToWire(FromWire(%v)) = %v, the unsized conversion gives %v", w, back, ref)
	}
	if !samePairs(back, w) {
		t.Fatalf("ToWire(FromWire(%v)) = %v, want the same pairs", w, back)
	}
	again := FromWire(back)
	if !sameLayout(again, s) {
		t.Fatalf("FromWire(ToWire(s)) for s = FromWire(%v) changed its length or pairs", w)
	}
}

func TestWireRoundTripSeedTables(t *testing.T) {
	for _, w := range wireSeedTables() {
		checkConversion(t, w)
	}
}

// TestWireRoundTripHoleSplit pins where a hole sends the elements after
// it: FromWire keeps the array part up to the hole and stores the rest by
// key, and ToWire then does the same.
func TestWireRoundTripHoleSplit(t *testing.T) {
	w := wire.TableVal(wire.NewList(wire.Number(1), wire.Nil(), wire.Number(3)))
	s := FromWire(w)
	st, _ := s.AsTable()
	if st.Len() != 1 || st.Get(Int(3)).Num() != 3 || pairCount(st) != 2 {
		t.Fatalf("FromWire of {1, nil, 3} = %s, want array part {1} and [3]=3", renderValue(TableVal(st), 0))
	}
	back, _ := s.ToWire()
	bt, _ := back.AsTable()
	if bt.Len() != 1 || bt.Get(wire.Int(3)).Num() != 3 {
		t.Fatalf("ToWire of %s = %v, want array part {1} and [3]=3", renderValue(TableVal(st), 0), back)
	}
}

// FuzzScriptWireRoundTrip decodes arbitrary bytes as a wire value and runs
// the conversion properties on whatever decodes.
func FuzzScriptWireRoundTrip(f *testing.F) {
	for _, w := range wireSeedTables() {
		b, err := wire.EncodeValue(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := wire.DecodeValue(b)
		if err != nil {
			return
		}
		checkConversion(t, w)
	})
}
