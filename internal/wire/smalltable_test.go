package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refTable is the table as it was before the small form: the same array
// part rules over a map-only hash part, iterated through a sorted key
// slice. The property test below drives it and Table with one op stream.
type refTable struct {
	arr  []Value
	hash map[tableKey]Value
}

func (t *refTable) get(key Value) Value {
	if n := key.num(); key.kind() == KindNumber && n == math.Trunc(n) {
		if i := int(n); i >= 1 && i <= len(t.arr) {
			return t.arr[i-1]
		}
	}
	k, err := toKey(key)
	if err != nil {
		return Nil()
	}
	return t.hash[k]
}

func (t *refTable) set(key, v Value) error {
	if n := key.num(); key.kind() == KindNumber && n == math.Trunc(n) && !math.IsNaN(n) {
		i := int(n)
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

func (t *refTable) sortedKeys() []tableKey {
	keys := make([]tableKey, 0, len(t.hash))
	for k := range t.hash {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { // the old keyLess
		a, b := keys[i], keys[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		switch a.kind {
		case KindBool:
			return a.n == 0 && b.n != 0
		case KindNumber:
			return a.n < b.n
		case KindString:
			return a.s < b.s
		case KindObjRef:
			if a.s != b.s { // Endpoint
				return a.s < b.s
			}
			return a.s2 < b.s2 // Key
		}
		return false
	})
	return keys
}

// pairs renders what Pairs must visit, in order.
func (t *refTable) pairs() []string {
	var out []string
	for i, v := range t.arr {
		if !v.IsNil() {
			out = append(out, fmt.Sprintf("%v=%v", Int(i+1), v))
		}
	}
	for _, k := range t.sortedKeys() {
		out = append(out, fmt.Sprintf("%v=%v", k.value(), t.hash[k]))
	}
	return out
}

// encode is the table encoding written out by hand.
func (t *refTable) encode() []byte {
	dst := []byte{tagTable}
	dst = binary.AppendUvarint(dst, uint64(len(t.arr)))
	for _, e := range t.arr {
		dst, _ = AppendValue(dst, e)
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.hash)))
	for _, k := range t.sortedKeys() {
		dst, _ = AppendValue(dst, k.value())
		dst, _ = AppendValue(dst, t.hash[k])
	}
	return dst
}

func tablePairs(t *Table) []string {
	var out []string
	t.Pairs(func(k, v Value) bool {
		out = append(out, fmt.Sprintf("%v=%v", k, v))
		return true
	})
	return out
}

// randomKey draws from a universe small enough that keys repeat (updates,
// deletes of present keys) and large enough to cross the spill boundary;
// small integers exercise the array part and its absorption of successors.
func randomKey(r *rand.Rand) Value {
	switch r.Intn(10) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Number([]float64{0.5, -2.25, 0, math.Copysign(0, -1), 1e9}[r.Intn(5)])
	case 2:
		return Ref(ObjRef{Endpoint: "tcp|h:" + string(rune('1'+r.Intn(2))), Key: string(rune('a' + r.Intn(2)))})
	case 3, 4, 5:
		return Int(r.Intn(8) - 1)
	case 6:
		return [...]Value{Nil(), Number(math.NaN()), Bytes([]byte("k")), TableVal(NewTable())}[r.Intn(4)] // unusable
	default:
		return String(string(rune('a' + r.Intn(14))))
	}
}

func TestPropertySmallTableMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		tb, ref := NewTable(), &refTable{}
		spilled := false
		for step := 0; step < 300; step++ {
			key := randomKey(r)
			val := Nil() // a delete
			// Runs biased towards stores push the hash part across the
			// boundary; runs biased towards deletes pull it back.
			if r.Intn(10) < 3+4*int(seed%2) {
				val = Int(step)
				if r.Intn(8) == 0 {
					val = TableVal(NewList(Int(step)))
				}
			}
			errT, errR := tb.Set(key, val), ref.set(key, val)
			if (errT == nil) != (errR == nil) {
				t.Fatalf("seed %d step %d: Set(%v) error %v, reference %v", seed, step, key, errT, errR)
			}
			spilled = spilled || tb.hash != nil
			if tb.hash != nil && tb.small != nil {
				t.Fatalf("seed %d step %d: table holds both forms", seed, step)
			}
			if got, want := tb.Get(key), ref.get(key); !got.Equal(want) {
				t.Fatalf("seed %d step %d: Get(%v) = %v, reference %v", seed, step, key, got, want)
			}
			if got, want := tb.Size(), len(ref.pairs()); got != want || tb.Len() != len(ref.arr) {
				t.Fatalf("seed %d step %d: Size/Len %d/%d, reference %d/%d", seed, step, got, tb.Len(), want, len(ref.arr))
			}
			if got, want := fmt.Sprint(tablePairs(tb)), fmt.Sprint(ref.pairs()); got != want {
				t.Fatalf("seed %d step %d: Pairs\n got %s\nwant %s", seed, step, got, want)
			}
			enc, err := EncodeValue(TableVal(tb))
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.encode(); !bytes.Equal(enc, want) {
				t.Fatalf("seed %d step %d: encoding\n got %x\nwant %x", seed, step, enc, want)
			}
			if step%16 == 0 {
				dec, err := DecodeValue(enc)
				if err != nil {
					t.Fatal(err)
				}
				if !dec.Equal(TableVal(tb)) || !TableVal(tb).Equal(dec) {
					t.Fatalf("seed %d step %d: decode differs from the table", seed, step)
				}
			}
		}
		if seed%2 == 1 && !spilled {
			t.Fatalf("seed %d never crossed the spill boundary", seed)
		}
	}
}

// TestSmallTableSpillBoundary walks the hash part across 8 -> 9 pairs one
// key at a time, in descending order so every insert lands at the front.
func TestSmallTableSpillBoundary(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 12; i++ {
		tb.SetString(string(rune('z'-i)), Int(i))
		if wantSpill := i+1 > smallTableMax; (tb.hash != nil) != wantSpill {
			t.Fatalf("%d pairs: spilled = %v", i+1, tb.hash != nil)
		}
		prev := ""
		tb.Pairs(func(k, _ Value) bool {
			if k.Str() <= prev {
				t.Fatalf("%d pairs: Pairs out of order at %q", i+1, k.Str())
			}
			prev = k.Str()
			return true
		})
	}
	small, big := NewTable(), tb
	for i := 0; i < 12; i++ {
		if i >= 5 {
			big.SetString(string(rune('z'-i)), Nil())
		} else {
			small.SetString(string(rune('z'-i)), Int(i))
		}
	}
	// A spilled table that shrank equals a small one with the same pairs.
	if big.hash == nil || small.hash != nil || !TableVal(big).Equal(TableVal(small)) || !TableVal(small).Equal(TableVal(big)) {
		t.Fatal("tables with equal content in different forms do not compare equal")
	}
}

// TestPairsMutationInsideCallback: fn may store to and delete from the
// table it is iterating, in both forms; every pair present at the start is
// still visited exactly once.
func TestPairsMutationInsideCallback(t *testing.T) {
	for _, n := range []int{3, smallTableMax, smallTableMax + 4} {
		tb := NewTable()
		for i := 0; i < n; i++ {
			tb.SetString(fmt.Sprintf("k%02d", i), Int(i))
		}
		seen := map[string]int{}
		tb.Pairs(func(k, v Value) bool {
			seen[k.Str()]++
			tb.SetString(k.Str(), Nil())                   // delete the current key
			tb.SetString(fmt.Sprintf("k%02d", n-1), Nil()) // and the last one
			tb.SetString("a"+k.Str(), v)                   // insert before everything
			return true
		})
		if len(seen) != n {
			t.Fatalf("%d pairs: visited %d keys: %v", n, len(seen), seen)
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("%d pairs: %s visited %d times", n, k, c)
			}
		}
		if tb.Size() != n || tb.GetString("ak01").Num() != 1 || !tb.GetString("k01").IsNil() {
			t.Fatalf("%d pairs: table after mutation: %v", n, TableVal(tb))
		}
	}
}

// TestFusedTableMatchesMapReference: tables that start as one object (a
// list of 1 to 8 elements, a record of 1, 2, 4, 5, 7 or 8 pairs) and those
// that do not, whether built by NewList and NewTableSize or decoded, follow
// the reference under one op stream: growing past their inline storage,
// shrinking, spilling to a map and coming back.
func TestFusedTableMatchesMapReference(t *testing.T) {
	for n := 0; n <= smallTableMax+1; n++ {
		for _, list := range []bool{false, true} {
			ref := &refTable{}
			var built *Table
			if list {
				vals := make([]Value, n)
				for i := range vals {
					vals[i] = Int(i)
					ref.set(Int(i+1), vals[i])
				}
				built = NewList(vals...)
			} else {
				built = NewTableSize(0, n)
				for i := 0; i < n; i++ {
					k := string(rune('a' + i))
					built.SetString(k, Int(i))
					ref.set(String(k), Int(i))
				}
			}
			dec, err := DecodeValue(ref.encode())
			if err != nil {
				t.Fatal(err)
			}
			decoded, _ := dec.AsTable()
			r := rand.New(rand.NewSource(int64(n)))
			for step := 0; step < 200; step++ {
				key, val := randomKey(r), Nil()
				if r.Intn(10) < 6 {
					val = Int(step)
				}
				errR := ref.set(key, val)
				want := ref.encode()
				for _, tb := range []*Table{built, decoded} {
					if err := tb.Set(key, val); (err == nil) != (errR == nil) {
						t.Fatalf("n=%d list=%v step %d: Set(%v) error %v, reference %v", n, list, step, key, err, errR)
					}
					if enc, _ := EncodeValue(TableVal(tb)); !bytes.Equal(enc, want) {
						t.Fatalf("n=%d list=%v step %d: encoding\n got %x\nwant %x", n, list, step, enc, want)
					}
					if step%8 == 0 && fmt.Sprint(tablePairs(tb)) != fmt.Sprint(ref.pairs()) {
						t.Fatalf("n=%d list=%v step %d: Pairs\n got %v\nwant %v", n, list, step, tablePairs(tb), ref.pairs())
					}
				}
			}
			if built.hash == nil || decoded.hash == nil {
				t.Fatalf("n=%d list=%v: the op stream never spilled the hash part", n, list)
			}
		}
	}
}
