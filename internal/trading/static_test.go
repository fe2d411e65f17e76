package trading

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/wire"
)

// countingResolver passes every read on to its DynamicResolver and counts
// them by the object they address.
type countingResolver struct {
	DynamicResolver
	mu    sync.Mutex
	asked map[wire.ObjRef]int
}

func (r *countingResolver) ResolveDynamic(ctx context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	r.mu.Lock()
	r.asked[ref]++
	r.mu.Unlock()
	return r.DynamicResolver.ResolveDynamic(ctx, ref, aspect)
}

func (r *countingResolver) reads() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.asked {
		n += c
	}
	return n
}

// TestStaticConjunctSkipsResolution: on 50 offers shaped like the paper's
// (two aspects of one monitor, a static Cores), an offer whose Cores fails
// the constraint's static conjunct never reaches the resolver, and the
// answer is the full evaluation's.
func TestStaticConjunctSkipsResolution(t *testing.T) {
	loads := &loadResolver{loads: map[wire.ObjRef]float64{}}
	res := &countingResolver{DynamicResolver: loads, asked: map[wire.ObjRef]int{}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "LoadShared", Props: []string{"LoadAvg", "LoadAvgIncreasing", "Cores", "Host"}})
	cores := map[wire.ObjRef]int{}
	for k := 0; k < 50; k++ {
		mon := monitorRef(k)
		loads.loads[mon] = float64(k) // Increasing reads "no" on even loads
		cores[mon] = [...]int{1, 2, 4, 8}[k%4]
		_, err := tr.Export("LoadShared", serverRef(k), map[string]PropValue{
			"LoadAvg":           {Dynamic: mon},
			"LoadAvgIncreasing": {Dynamic: mon, Aspect: "Increasing"},
			"Cores":             {Static: wire.Int(cores[mon])},
			"Host":              {Static: wire.String(mon.Endpoint)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rs, err := tr.Query(context.Background(), "LoadShared", "LoadAvg < 50 and LoadAvgIncreasing == no and Cores >= 2", "min LoadAvg", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Even loads with Cores >= 2 are k = 2 mod 4: offers 3, 7 and 11.
	var got []string
	for _, r := range rs {
		got = append(got, r.Offer.ID)
	}
	if want := []string{"offer-3", "offer-7", "offer-11"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("rows %v, want %v", got, want)
	}
	for mon, n := range res.asked {
		if cores[mon] < 2 {
			t.Errorf("%s has Cores %d but was read %d times", mon, cores[mon], n)
		}
	}
	// 37 offers pass Cores >= 2, each read for two aspects.
	if n := res.reads(); n != 74 {
		t.Fatalf("%d reads, want 74", n)
	}
}

// TestStaticConjunctQuarantinedNotProbed: a quarantined offer that a static
// conjunct rejects is not probed, so a recovered monitor does not
// rehabilitate it and its strikes stand; a query whose static conjuncts
// admit it probes and rehabilitates it.
func TestStaticConjunctQuarantinedNotProbed(t *testing.T) {
	flaky := &flakyResolver{v: wire.Number(0.5)}
	res := &countingResolver{DynamicResolver: flaky, asked: map[wire.ObjRef]int{}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	id, err := tr.Export("S", serverRef(0), map[string]PropValue{
		"Load":  {Dynamic: monitorRef(0)},
		"Cores": {Static: wire.Int(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	query := func(cons string) int {
		t.Helper()
		rs, err := tr.Query(context.Background(), "S", cons, "min Load", 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(rs)
	}
	flaky.setFail(true)
	for i := 0; i < 3; i++ {
		query("Load < 10")
	}
	if !tr.Quarantined(id) {
		t.Fatal("offer not quarantined")
	}
	flaky.setFail(false)
	reads, struck := res.reads(), offerStrikes(tr)[id]
	if n := query("Cores >= 2 and Load < 10"); n != 0 {
		t.Fatalf("statically rejected query matched %d offers", n)
	}
	if n := res.reads(); n != reads {
		t.Fatalf("statically rejected offer read %d times", n-reads)
	}
	if s := offerStrikes(tr)[id]; s != struck || !tr.Quarantined(id) {
		t.Fatalf("strikes %d (quarantined %v), want %d and quarantined", s, tr.Quarantined(id), struck)
	}
	if n := query("Cores < 2 and Load < 10"); n != 0 {
		t.Fatalf("probing query matched %d offers", n)
	}
	if res.reads() != reads+1 || tr.Quarantined(id) {
		t.Fatalf("%d reads, quarantined %v: the probe did not rehabilitate", res.reads()-reads, tr.Quarantined(id))
	}
	if n := query("Cores < 2 and Load < 10"); n != 1 {
		t.Fatalf("query after rehabilitation matched %d offers", n)
	}
}

// TestStaticConjunctStats: on TestStaticConjunctSkipsResolution's 50
// offers plus 10 whose leases expired, each query scans the 60 records,
// counts the 50 live ones as candidates, whether or not the static pass
// then drops them, and reads the 37 that pass Cores >= 2 for two aspects
// each. The expired offers would pass every conjunct and are never read.
func TestStaticConjunctStats(t *testing.T) {
	loads := &loadResolver{loads: map[wire.ObjRef]float64{}}
	res := &countingResolver{DynamicResolver: loads, asked: map[wire.ObjRef]int{}}
	tr := NewTrader(res)
	sim := clock.NewSim(leaseEpoch)
	tr.SetClock(sim)
	tr.SetLeaseTTL(30 * time.Second)
	tr.AddType(ServiceType{Name: "LoadShared", Props: []string{"LoadAvg", "LoadAvgIncreasing", "Cores", "Host"}})
	export := func(k, cores int) {
		t.Helper()
		mon := monitorRef(k)
		loads.loads[mon] = float64(k % 50) // Increasing reads "no" on even loads
		_, err := tr.Export("LoadShared", serverRef(k), map[string]PropValue{
			"LoadAvg":           {Dynamic: mon},
			"LoadAvgIncreasing": {Dynamic: mon, Aspect: "Increasing"},
			"Cores":             {Static: wire.Int(cores)},
			"Host":              {Static: wire.String(mon.Endpoint)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := 100; k < 110; k++ {
		export(k, 8)
	}
	sim.Advance(20 * time.Second)
	for k := 0; k < 50; k++ {
		export(k, [...]int{1, 2, 4, 8}[k%4])
	}
	sim.Advance(15 * time.Second) // past the first ten leases only
	before := tr.Stats()
	const queries = 3
	for q := 0; q < queries; q++ {
		rs, err := tr.Query(context.Background(), "LoadShared", "LoadAvg < 50 and LoadAvgIncreasing == no and Cores >= 2", "min LoadAvg", 3)
		if err != nil || len(rs) != 3 || rs[0].Offer.ID != "offer-13" {
			t.Fatalf("query %d: %d rows, err %v", q, len(rs), err)
		}
	}
	after := tr.Stats()
	if n := after.Scanned - before.Scanned; n != queries*60 {
		t.Errorf("Scanned grew by %d, want %d", n, queries*60)
	}
	if n := after.Candidates - before.Candidates; n != queries*50 {
		t.Errorf("Candidates grew by %d, want %d", n, queries*50)
	}
	if n := res.reads(); n != queries*74 {
		t.Errorf("%d reads, want %d", n, queries*74)
	}
	for k := 100; k < 110; k++ {
		if n := res.asked[monitorRef(k)]; n != 0 {
			t.Errorf("expired offer's monitor %d read %d times", k, n)
		}
	}
}

// TestQueryScratchPinsNothing: after a query whose static pass dropped
// offers, and whose rows carry different numbers of properties, the
// recycled scratch holds no reference to an offer or a resolved value
// anywhere in its slices, up to their capacities. Two queries run, the
// second returning fewer and shorter rows than the first.
func TestQueryScratchPinsNothing(t *testing.T) {
	loads := &loadResolver{loads: map[wire.ObjRef]float64{}}
	tr := NewTrader(loads)
	tr.AddType(ServiceType{Name: "S"})
	for k := 0; k < 40; k++ {
		mon := monitorRef(k)
		loads.loads[mon] = float64(k)
		props := map[string]PropValue{
			"LoadAvg": {Dynamic: mon},
			"Cores":   {Static: wire.Int([...]int{1, 2, 4, 8}[k%4])},
		}
		if k%2 == 0 { // the even offers, which load least, carry two more
			props["LoadAvgIncreasing"] = PropValue{Dynamic: mon, Aspect: "Increasing"}
			props["Host"] = PropValue{Static: wire.String(mon.Endpoint)}
		}
		if _, err := tr.Export("S", serverRef(k), props); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []struct {
		cons string
		rows int
	}{
		{"Cores >= 2 and LoadAvg < 30", 4},
		{"Cores >= 4 and LoadAvg < 8", 2},
	} {
		var sc *queryScratch
		var dst []byte
		err := tr.query(context.Background(), "S", q.cons, "min LoadAvg", q.rows, func(s *queryScratch) {
			sc = s
			if len(s.matched) != q.rows {
				t.Fatalf("%q: %d rows, want %d", q.cons, len(s.matched), q.rows)
			}
			// The last row is an odd offer's: shorter than the ones before.
			if last := &s.candidates[s.matched[len(s.matched)-1]]; len(last.props.slots) != 2 {
				t.Fatalf("%q: last row has %d properties, want 2", q.cons, len(last.props.slots))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if dst, err = tr.queryWire(context.Background(), "S", q.cons, "min LoadAvg", q.rows, dst); err != nil {
			t.Fatal(err)
		}
		checkScratchClear(t, q.cons, sc)
	}
}

// checkScratchClear fails unless every element of sc's slices that can
// hold a pointer is zero up to the slice's capacity. names holds only the
// query's own names, which the parse caches keep anyway.
func checkScratchClear(t *testing.T, cons string, sc *queryScratch) {
	t.Helper()
	v := reflect.ValueOf(sc).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if name == "names" || f.Kind() != reflect.Slice || !hasPointers(f.Type().Elem()) {
			continue
		}
		if name == "slotNames" {
			if !f.IsNil() {
				t.Errorf("%q: slotNames still set", cons)
			}
			continue
		}
		all := f.Slice(0, f.Cap())
		for j := 0; j < all.Len(); j++ {
			if !all.Index(j).IsZero() {
				t.Errorf("%q: %s[%d] of %d holds %v", cons, name, j, f.Cap(), all.Index(j))
			}
		}
	}
}

// hasPointers reports whether a value of type typ can hold a pointer.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
