package trading

import (
	"context"
	"sync"
	"testing"

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
