package trading

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// TestAllocGuardExportModify pins what storing the repository benchmark's
// offer allocates (a number and a string static, two dynamics on one
// monitor with an aspect each): an Export followed by its Withdraw (the
// maps keep their size), and a Modify. The props map is built once,
// outside the count. Export allocates the id (one string: its number is
// appended into a stack buffer after the prefix, where it was a second
// allocation), the record and the offer's two slot slices; Withdraw
// nothing; Modify the two slot slices.
func TestAllocGuardExportModify(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector's allocation counts are not the program's")
	}
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "LoadShared", Props: []string{"LoadAvg", "LoadAvgIncreasing", "Cores", "Host"}})
	mon, ref := monitorRef(1), serverRef(1)
	props := map[string]PropValue{
		"LoadAvg":           {Dynamic: mon, Aspect: "Load1"},
		"LoadAvgIncreasing": {Dynamic: mon, Aspect: "Increasing"},
		"Cores":             {Static: wire.Int(4)},
		"Host":              {Static: wire.String(mon.Endpoint)},
	}
	for i := 0; i < 200; i++ { // numbers offer ids past the small-integer strings
		if _, err := tr.Export("LoadShared", ref, props); err != nil {
			t.Fatal(err)
		}
	}
	exports := testing.AllocsPerRun(300, func() {
		id, err := tr.Export("LoadShared", ref, props)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Withdraw(id); err != nil {
			t.Fatal(err)
		}
	})
	id, err := tr.Export("LoadShared", ref, props)
	if err != nil {
		t.Fatal(err)
	}
	modifies := testing.AllocsPerRun(300, func() {
		if err := tr.Modify(id, props); err != nil {
			t.Fatal(err)
		}
	})
	const wantExport, wantModify = 4, 2
	if exports > wantExport {
		t.Errorf("Export+Withdraw: %.1f allocs/op, want <= %d", exports, wantExport)
	}
	if modifies > wantModify {
		t.Errorf("Modify: %.1f allocs/op, want <= %d", modifies, wantModify)
	}
	t.Logf("Export+Withdraw %.1f allocs/op, Modify %.1f allocs/op", exports, modifies)
}

// TestStaticSlotSize pins what an offer stores for a static property: one
// compact value, the element of slotProps.val.
func TestStaticSlotSize(t *testing.T) {
	var p slotProps
	if got := unsafe.Sizeof(p.val[0]); got != 32 {
		t.Errorf("a static slot stores %d bytes, want 32", got)
	}
}

// callLog is a DynamicResolver that answers every read with a value naming
// it and records the reads it was asked for.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, ref.String()+"#"+aspect)
	return wire.String(ref.String() + "#" + aspect), nil
}

// TestSlotLayoutRoundTrip: what the trader stores for an offer reads back as
// the exported properties, for statics of every kind (an object reference,
// a nil and a table among them), dynamics with and without an aspect, and
// offers that lack low slots. For each shape, Query through Local returns
// the exported props and the snapshot they imply, queryWire writes the
// bytes the generic codec writes for those rows, and the resolver is asked
// for exactly the dynamic reads: a static object reference is never
// resolved.
func TestSlotLayoutRoundTrip(t *testing.T) {
	mon, other := monitorRef(1), monitorRef(2)
	names := []string{"A", "B", "C", "D", "E", "F", "G"}
	shapes := []struct {
		name   string
		offers []map[string]PropValue
	}{
		{"statics", []map[string]PropValue{{
			"A": {},
			"B": {Static: wire.Bool(true)},
			"C": {Static: wire.Number(2.5)},
			"D": {Static: wire.String("gold")},
			"E": {Static: wire.Bytes([]byte{0, 1, 2})},
			"F": {Static: wire.Ref(mon)},
			"G": {Static: wire.TableVal(wire.NewList(wire.Int(1), wire.String("x")))},
		}}},
		{"dynamics", []map[string]PropValue{{
			"A": {Dynamic: mon},
			"B": {Dynamic: mon, Aspect: "Increasing"},
			"C": {Dynamic: other, Aspect: "Load1"},
			"D": {Static: wire.Ref(other)},
			"E": {Static: wire.Ref(mon), Aspect: "Increasing"},
		}, {
			"A": {Dynamic: other},
			"F": {Static: wire.Int(7)},
		}}},
		{"sparse", []map[string]PropValue{
			{"E": {Dynamic: mon, Aspect: "Increasing"}, "G": {Static: wire.Ref(mon)}},
			{"B": {Static: wire.String("b")}, "C": {Dynamic: other}, "D": {Static: wire.Int(3)}},
			{"A": {Static: wire.Nil()}, "F": {Dynamic: mon, Aspect: "Load1"}},
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			log := &callLog{}
			tr := NewTrader(log)
			tr.AddType(ServiceType{Name: "S", Props: names})
			var want []QueryResult
			wantCalls := map[string]bool{}
			for i, props := range shape.offers {
				id, err := tr.Export("S", serverRef(i), props)
				if err != nil {
					t.Fatal(err)
				}
				r := QueryResult{Offer: Offer{ID: id, ServiceType: "S", Ref: serverRef(i), Props: map[string]PropValue{}},
					Snapshot: map[string]wire.Value{}}
				for name, pv := range props {
					if !pv.IsDynamic() {
						r.Offer.Props[name] = PropValue{Static: pv.Static}
						r.Snapshot[name] = pv.Static
						continue
					}
					read := pv.Dynamic.String() + "#" + pv.Aspect
					r.Offer.Props[name] = PropValue{Dynamic: pv.Dynamic, Aspect: pv.Aspect}
					r.Snapshot[name] = wire.String(read)
					wantCalls[read] = true
				}
				want = append(want, r)
			}
			// Every offer passes: a name reads present where some offer has a
			// non-nil value, and "Missing" no offer has.
			var conj []string
			for _, name := range names {
				conj = append(conj, "(exist "+name+" or not exist "+name+")")
			}
			cons := strings.Join(append(conj, "not exist Missing"), " and ")

			got, err := Local{T: tr}.Query(context.Background(), "S", cons, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResults(got, want); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				for name, w := range want[i].Offer.Props {
					g := got[i].Offer.Props[name]
					if !g.Static.Equal(w.Static) || g.Dynamic != w.Dynamic || g.Aspect != w.Aspect || g.IsDynamic() != w.IsDynamic() {
						t.Fatalf("%s: Props[%s] = %+v, want %+v", got[i].Offer.ID, name, g, w)
					}
				}
			}
			var wantReads []string
			for read := range wantCalls {
				wantReads = append(wantReads, read)
			}
			slices.Sort(wantReads)
			slices.Sort(log.calls)
			if !slices.Equal(slices.Compact(log.calls), wantReads) {
				t.Fatalf("resolver read %v, want %v", log.calls, wantReads)
			}

			wantBytes, err := wire.EncodeValue(resultsToTables(want))
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := tr.queryWire(context.Background(), "S", cons, "", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("queryWire\n%x\nreference\n%x", gotBytes, wantBytes)
			}
		})
	}
}
