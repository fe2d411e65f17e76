package trading

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// stubResolver serves dynamic property values from a map keyed by
// "endpoint/key#aspect". The trader may resolve concurrently, so the call
// counter is atomic.
type stubResolver struct {
	values map[string]wire.Value
	calls  atomic.Int64
}

func (s *stubResolver) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	s.calls.Add(1)
	v, ok := s.values[ref.String()+"#"+aspect]
	if !ok {
		return wire.Nil(), errors.New("unreachable monitor")
	}
	return v, nil
}

func serverRef(i int) wire.ObjRef {
	return wire.ObjRef{Endpoint: fmt.Sprintf("inproc|host-%d", i), Key: "server"}
}

func monitorRef(i int) wire.ObjRef {
	return wire.ObjRef{Endpoint: fmt.Sprintf("inproc|host-%d", i), Key: "monitor"}
}

// newLoadedTrader builds a trader with the paper's load-sharing offer
// layout: N servers, each with a dynamic LoadAvg property and a dynamic
// LoadAvgIncreasing aspect property.
func newLoadedTrader(loads []float64, increasing []bool) (*Trader, *stubResolver) {
	res := &stubResolver{values: map[string]wire.Value{}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "LoadShared", Interface: "Service",
		Props: []string{"LoadAvg", "LoadAvgIncreasing"}})
	for i := range loads {
		res.values[monitorRef(i).String()+"#"] = wire.Number(loads[i])
		word := "no"
		if increasing[i] {
			word = "yes"
		}
		res.values[monitorRef(i).String()+"#Increasing"] = wire.String(word)
		_, err := tr.Export("LoadShared", serverRef(i), map[string]PropValue{
			"LoadAvg":           {Dynamic: monitorRef(i)},
			"LoadAvgIncreasing": {Dynamic: monitorRef(i), Aspect: "Increasing"},
		})
		if err != nil {
			panic(err)
		}
	}
	return tr, res
}

// TestPropValueSize pins an offer's per-property slot at the compact
// value plus its dynamic ref and aspect: 32 + 32 + 16 bytes.
func TestPropValueSize(t *testing.T) {
	if got := unsafe.Sizeof(PropValue{}); got > 80 {
		t.Errorf("unsafe.Sizeof(PropValue{}) = %d, want <= 80", got)
	}
}

func TestExportRequiresKnownType(t *testing.T) {
	tr := NewTrader(nil)
	_, err := tr.Export("Nope", serverRef(0), nil)
	if !errors.Is(err, ErrUnknownServiceType) {
		t.Fatalf("err = %v, want ErrUnknownServiceType", err)
	}
}

// TestFreshNamesKeepOfferStorageBounded: every name an
// export invents takes a new slot, and an offer stores only the slots it
// uses, so offers whose names were numbered late cost no more than early
// ones — heap per offer stays flat instead of growing with the slot table.
func TestFreshNamesKeepOfferStorageBounded(t *testing.T) {
	const n = 1000
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S", Props: []string{"a"}})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		props := map[string]PropValue{fmt.Sprint("p", i): {Static: wire.Int(i)}}
		if _, err := tr.Export("S", serverRef(i), props); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perOffer := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(tr)
	if perOffer > 2<<10 {
		t.Fatalf("heap per offer = %d B after %d exports with fresh names, want <= 2 KiB", perOffer, n)
	}
}

func TestWithdrawAndModify(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	id, err := tr.Export("S", serverRef(0), map[string]PropValue{"x": {Static: wire.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.OfferCount() != 1 {
		t.Fatalf("OfferCount = %d", tr.OfferCount())
	}
	if err := tr.Modify(id, map[string]PropValue{"x": {Static: wire.Int(9)}}); err != nil {
		t.Fatal(err)
	}
	rs, err := tr.Query(context.Background(), "S", "x == 9", "", 0)
	if err != nil || len(rs) != 1 {
		t.Fatalf("query after modify = %v, %v", rs, err)
	}
	if err := tr.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("double withdraw err = %v", err)
	}
	if err := tr.Modify(id, nil); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("modify after withdraw err = %v", err)
	}
	if tr.OfferCount() != 0 {
		t.Fatalf("OfferCount after withdraw = %d", tr.OfferCount())
	}
}

func TestQueryPaperScenario(t *testing.T) {
	// Three servers: idle+steady, loaded+rising, mid+steady.
	tr, _ := newLoadedTrader([]float64{20, 80, 45}, []bool{false, true, false})
	rs, err := tr.Query(context.Background(), "LoadShared",
		"LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("matched %d offers, want 2", len(rs))
	}
	if rs[0].Offer.Ref != serverRef(0) {
		t.Fatalf("best offer = %v, want host-0", rs[0].Offer.Ref)
	}
	if rs[0].Snapshot["LoadAvg"].Num() != 20 {
		t.Fatalf("snapshot LoadAvg = %v", rs[0].Snapshot["LoadAvg"])
	}
}

func TestQueryFallbackSortOnly(t *testing.T) {
	// Paper §V: "If no offer suits the imposed restriction, the smart proxy
	// issues an alternative query, where it specifies only offer sorting,
	// and no filtering."
	tr, _ := newLoadedTrader([]float64{90, 80, 95}, []bool{true, true, true})
	rs, err := tr.Query(context.Background(), "LoadShared",
		"LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("constrained query matched %d, want 0", len(rs))
	}
	rs, err = tr.Query(context.Background(), "LoadShared", "", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 || rs[0].Offer.Ref != serverRef(1) {
		t.Fatalf("fallback query = %v", rs)
	}
}

func TestQueryMaxResults(t *testing.T) {
	tr, _ := newLoadedTrader([]float64{10, 20, 30, 40}, []bool{false, false, false, false})
	rs, err := tr.Query(context.Background(), "LoadShared", "", "min LoadAvg", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Offer.Ref != serverRef(0) || rs[1].Offer.Ref != serverRef(1) {
		t.Fatalf("limited query = %+v", rs)
	}
}

func TestQueryUnknownType(t *testing.T) {
	tr := NewTrader(nil)
	if _, err := tr.Query(context.Background(), "Nope", "", "", 0); !errors.Is(err, ErrUnknownServiceType) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryBadConstraintOrPreference(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	if _, err := tr.Query(context.Background(), "S", "x ==", "", 0); err == nil {
		t.Fatal("bad constraint accepted")
	}
	if _, err := tr.Query(context.Background(), "S", "", "upside-down", 0); err == nil {
		t.Fatal("bad preference accepted")
	}
}

func TestUnreachableDynamicPropertySkipsOffer(t *testing.T) {
	tr, res := newLoadedTrader([]float64{10, 20}, []bool{false, false})
	// Make host-0's monitor unreachable.
	delete(res.values, monitorRef(0).String()+"#")
	rs, err := tr.Query(context.Background(), "LoadShared", "LoadAvg < 100", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Offer.Ref != serverRef(1) {
		t.Fatalf("query with dead monitor = %+v", rs)
	}
	// But a sort-only query still returns it (missing key sorts last).
	rs, err = tr.Query(context.Background(), "LoadShared", "", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[1].Offer.Ref != serverRef(0) {
		t.Fatalf("sort-only with dead monitor = %+v", rs)
	}
}

func TestNilResolverTreatsDynamicAsMissing(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	_, err := tr.Export("S", serverRef(0), map[string]PropValue{
		"LoadAvg": {Dynamic: monitorRef(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tr.Query(context.Background(), "S", "exist LoadAvg", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatal("dynamic property resolved without a resolver")
	}
}

func TestPreferenceForms(t *testing.T) {
	tr, _ := newLoadedTrader([]float64{30, 10, 20}, []bool{false, true, false})
	ctx := context.Background()

	rs, _ := tr.Query(ctx, "LoadShared", "", "min LoadAvg", 0)
	if rs[0].Snapshot["LoadAvg"].Num() != 10 {
		t.Fatalf("min order wrong: %v", rs[0].Snapshot["LoadAvg"])
	}
	rs, _ = tr.Query(ctx, "LoadShared", "", "max LoadAvg", 0)
	if rs[0].Snapshot["LoadAvg"].Num() != 30 {
		t.Fatalf("max order wrong: %v", rs[0].Snapshot["LoadAvg"])
	}
	rs, _ = tr.Query(ctx, "LoadShared", "", "first", 0)
	if rs[0].Offer.Ref != serverRef(0) {
		t.Fatalf("first order wrong: %v", rs[0].Offer.Ref)
	}
	rs, _ = tr.Query(ctx, "LoadShared", "", "with LoadAvgIncreasing == no", 0)
	if rs[2].Snapshot["LoadAvgIncreasing"].Str() != "yes" {
		t.Fatalf("with order wrong: rising server should sort last")
	}
	// random is deterministic for a fixed offer set.
	r1, _ := tr.Query(ctx, "LoadShared", "", "random", 0)
	r2, _ := tr.Query(ctx, "LoadShared", "", "random", 0)
	for i := range r1 {
		if r1[i].Offer.ID != r2[i].Offer.ID {
			t.Fatal("random preference is not deterministic across queries")
		}
	}
}

func TestPreferenceParseErrors(t *testing.T) {
	for _, src := range []string{"minLoadAvg", "min", "max ", "with", "sideways x"} {
		if _, err := ParsePreference(src); err == nil {
			t.Errorf("ParsePreference(%q) succeeded", src)
		}
	}
}

func TestPreferenceMinUnevaluableSortsLast(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	if _, err := tr.Export("S", serverRef(0), map[string]PropValue{"rank": {Static: wire.String("oops")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("S", serverRef(1), map[string]PropValue{"rank": {Static: wire.Number(5)}}); err != nil {
		t.Fatal(err)
	}
	rs, err := tr.Query(context.Background(), "S", "", "min rank", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Offer.Ref != serverRef(1) {
		t.Fatalf("unevaluable preference should sort last: %+v", rs)
	}
}

// TestPreferenceSortAllocsIndependentOfRows is the alloc guard of Sort, the
// shard merge's ordering: it allocates per call, not per row, whatever the
// kind of the values its expression reads.
func TestPreferenceSortAllocsIndependentOfRows(t *testing.T) {
	home := wire.Ref(wire.ObjRef{Endpoint: "inproc|host", Key: "home"})
	for _, src := range []string{"min LoadAvg / Weight", "with Home == Home and Tags != Tags"} {
		pref, err := ParsePreference(src)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(n int) float64 {
			rows := make([]QueryResult, n)
			for i := range rows {
				rows[i] = QueryResult{Offer: Offer{ID: fmt.Sprintf("offer-%d", i)}, Snapshot: map[string]wire.Value{
					"LoadAvg": wire.Int((i * 37) % n), "Weight": wire.Int(2), "Home": home,
					"Tags": wire.TableVal(wire.NewList(wire.Int(i))),
				}}
			}
			return testing.AllocsPerRun(50, func() {
				if err := pref.Sort(rows); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := measure(1), measure(100); one != many {
			t.Errorf("%q: Sort allocates %.0f for 1 row, %.0f for 100; want equal", src, one, many)
		}
	}
}

// TestTraderOverORB runs the full remote path: trader servant on an inproc
// server, exports and queries through the Lookup wrapper, with dynamic
// properties resolved through real ORB callbacks to a monitor-like servant.
func TestTraderOverORB(t *testing.T) {
	n := orb.NewInprocNetwork()
	resolverClient := orb.NewClient(n)
	defer resolverClient.Close()

	tr := NewTrader(ClientResolver{Client: resolverClient})
	tr.AddType(ServiceType{Name: "LoadShared", Interface: "Service"})

	traderSrv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "trader-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer traderSrv.Close()
	traderRef := traderSrv.Register(DefaultObjectKey, "", NewServant(tr))

	// A host server exposing a fake load monitor and a service object.
	hostSrv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "host-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer hostSrv.Close()
	load := 17.0
	monRef := hostSrv.Register("monitor", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case "getValue":
			return []wire.Value{wire.Number(load)}, nil
		case "getAspectValue":
			return []wire.Value{wire.String("no")}, nil
		default:
			return nil, orb.Appf("bad op %q", op)
		}
	}))
	svcRef := hostSrv.Register("service", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return []wire.Value{wire.String("served")}, nil
	}))

	client := orb.NewClient(n)
	defer client.Close()
	lookup := NewLookup(client, traderRef)
	ctx := context.Background()

	id, err := lookup.Export(ctx, "LoadShared", svcRef, map[string]PropValue{
		"LoadAvg":           {Dynamic: monRef},
		"LoadAvgIncreasing": {Dynamic: monRef, Aspect: "Increasing"},
		"Host":              {Static: wire.String("host-a")},
	})
	if err != nil {
		t.Fatalf("Export: %v", err)
	}
	if id == "" {
		t.Fatal("empty offer id")
	}

	rs, err := lookup.Query(ctx, "LoadShared", "LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg", 0)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("matched %d offers, want 1", len(rs))
	}
	if rs[0].Offer.Ref != svcRef {
		t.Fatalf("offer ref = %v, want %v", rs[0].Offer.Ref, svcRef)
	}
	if rs[0].Snapshot["LoadAvg"].Num() != 17 {
		t.Fatalf("snapshot = %v", rs[0].Snapshot)
	}
	if rs[0].Snapshot["Host"].Str() != "host-a" {
		t.Fatalf("static prop missing from snapshot: %v", rs[0].Snapshot)
	}

	// Load spikes; the same query now excludes the offer.
	load = 90
	rs, err = lookup.Query(ctx, "LoadShared", "LoadAvg < 50", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatal("offer still matches after load spike — dynamic property not re-read")
	}

	// Remote modify and withdraw.
	if err := lookup.Modify(ctx, id, map[string]PropValue{"Host": {Static: wire.String("b")}}); err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if err := lookup.Withdraw(ctx, id); err != nil {
		t.Fatalf("Withdraw: %v", err)
	}
	if err := lookup.Withdraw(ctx, id); err == nil {
		t.Fatal("double withdraw succeeded remotely")
	}

	// AddType + listTypes round trip.
	if err := lookup.AddType(ctx, ServiceType{Name: "Another", Interface: "X", Props: []string{"p"}}); err != nil {
		t.Fatalf("AddType: %v", err)
	}
	names := tr.TypeNames()
	if len(names) != 2 || names[0] != "Another" {
		t.Fatalf("TypeNames = %v", names)
	}
}

func TestServantBadArguments(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	sv := NewServant(tr)
	cases := []struct {
		op   string
		args []wire.Value
	}{
		{"query", nil},
		{"export", nil},
		{"export", []wire.Value{wire.String("S"), wire.String("not-a-ref")}},
		{"withdraw", nil},
		{"modify", []wire.Value{wire.String("x")}},
		{"addType", nil},
		{"nosuch", nil},
		{"export", []wire.Value{wire.String("S"), wire.Ref(serverRef(0)), wire.String("not-a-table")}},
	}
	for _, c := range cases {
		if _, err := sv.Invoke(c.op, c.args); err == nil {
			t.Errorf("Invoke(%s) with bad args succeeded", c.op)
		}
	}
}

func TestPropsWireRoundTrip(t *testing.T) {
	in := map[string]PropValue{
		"static":  {Static: wire.Number(4)},
		"dynamic": {Dynamic: monitorRef(3)},
		"aspect":  {Dynamic: monitorRef(3), Aspect: "Increasing"},
	}
	out, err := propsFromWire(PropsToWire(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("round trip size = %d", len(out))
	}
	if !out["static"].Static.Equal(wire.Number(4)) {
		t.Fatal("static prop lost")
	}
	if out["dynamic"].Dynamic != monitorRef(3) || out["dynamic"].Aspect != "" {
		t.Fatalf("dynamic prop = %+v", out["dynamic"])
	}
	if out["aspect"].Aspect != "Increasing" {
		t.Fatalf("aspect prop = %+v", out["aspect"])
	}
}

// TestResultsFromWireErrors: the reference reader and the direct one
// refuse a reply of the wrong shape alike.
func TestResultsFromWireErrors(t *testing.T) {
	bad := wire.NewTable()
	bad.Append(wire.String("not-a-table"))
	noRef := wire.NewTable()
	entry := wire.NewTable()
	entry.SetString("id", wire.String("offer-1"))
	noRef.Append(wire.TableVal(entry))
	for _, v := range []wire.Value{wire.String("x"), wire.TableVal(bad), wire.TableVal(noRef)} {
		if _, err := ResultsFromWire(v); err == nil {
			t.Fatalf("reply %v accepted", v)
		}
		b, err := wire.EncodeValue(v)
		if err != nil {
			t.Fatal(err)
		}
		checkRead(t, b)
	}
}

// TestQueryMemoizesIdenticalMonitorCalls verifies that within one query,
// offers whose dynamic properties point at the same (object, aspect) share
// a single monitor interrogation — and that the memo does NOT outlive the
// query, so a repeat query observes fresh values.
func TestQueryMemoizesIdenticalMonitorCalls(t *testing.T) {
	res := &stubResolver{values: map[string]wire.Value{}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	// Four offers on the same host share one monitor: 4 offers x 2 props,
	// but only 2 distinct (ref, aspect) keys.
	shared := monitorRef(0)
	res.values[shared.String()+"#"] = wire.Number(1)
	res.values[shared.String()+"#Increasing"] = wire.String("no")
	for i := 0; i < 4; i++ {
		_, err := tr.Export("S", serverRef(i), map[string]PropValue{
			"LoadAvg":           {Dynamic: shared},
			"LoadAvgIncreasing": {Dynamic: shared, Aspect: "Increasing"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rs, err := tr.Query(context.Background(), "S",
		"LoadAvg < 5 and LoadAvgIncreasing == no", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("matched %d offers, want 4", len(rs))
	}
	if got := res.calls.Load(); got != 2 {
		t.Fatalf("resolver calls = %d, want 2 (memoized per distinct key)", got)
	}
	// Freshness: a second query re-resolves instead of reusing the memo.
	res.values[shared.String()+"#"] = wire.Number(4)
	rs, err = tr.Query(context.Background(), "S", "LoadAvg == 4", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("second query matched %d offers, want 4 (stale memo?)", len(rs))
	}
	if got := res.calls.Load(); got != 3 {
		t.Fatalf("resolver calls after second query = %d, want 3", got)
	}
}

// TestDemandDrivenSnapshotSkipsUnreferencedDynamics verifies the trader
// only interrogates monitors for dynamic properties the constraint or
// preference actually references; unreferenced dynamics are absent from
// the snapshot while statics are always present.
func TestDemandDrivenSnapshotSkipsUnreferencedDynamics(t *testing.T) {
	res := &stubResolver{values: map[string]wire.Value{}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	res.values[monitorRef(0).String()+"#"] = wire.Number(2)
	res.values[monitorRef(1).String()+"#"] = wire.Number(9)
	_, err := tr.Export("S", serverRef(0), map[string]PropValue{
		"LoadAvg": {Dynamic: monitorRef(0)},
		"MemFree": {Dynamic: monitorRef(1)}, // never referenced below
		"Region":  {Static: wire.String("lab-1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tr.Query(context.Background(), "S", "LoadAvg < 5", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("matched %d offers", len(rs))
	}
	snap := rs[0].Snapshot
	if _, present := snap["MemFree"]; present {
		t.Fatal("unreferenced dynamic property was resolved into the snapshot")
	}
	if snap["Region"].Str() != "lab-1" {
		t.Fatalf("static property missing from snapshot: %v", snap)
	}
	if snap["LoadAvg"].Num() != 2 {
		t.Fatalf("referenced dynamic property = %v", snap["LoadAvg"])
	}
	if got := res.calls.Load(); got != 1 {
		t.Fatalf("resolver calls = %d, want 1 (MemFree should not be fetched)", got)
	}
	// A preference reference also counts as demand.
	rs, err = tr.Query(context.Background(), "S", "", "min MemFree", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Snapshot["MemFree"].Num() != 9 {
		t.Fatalf("preference-referenced dynamic not resolved: %v", rs[0].Snapshot)
	}
}

// TestQueryResolvesInParallel drives the resolver slow enough to exhaust
// the serial warm-up budget and checks that resolutions then overlap.
func TestQueryResolvesInParallel(t *testing.T) {
	var inflight, peak atomic.Int64
	res := &slowResolver{inflight: &inflight, peak: &peak}
	tr := NewTrader(res)
	tr.SetResolveParallel(8)
	tr.AddType(ServiceType{Name: "S"})
	for i := 0; i < 32; i++ {
		_, err := tr.Export("S", serverRef(i), map[string]PropValue{
			"LoadAvg": {Dynamic: monitorRef(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rs, err := tr.Query(context.Background(), "S", "LoadAvg >= 0", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 32 {
		t.Fatalf("matched %d offers, want 32", len(rs))
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrent resolutions = %d, want >= 2", peak.Load())
	}
}

// slowResolver takes ~1ms per call and records peak concurrency.
type slowResolver struct {
	inflight, peak *atomic.Int64
}

func (s *slowResolver) ResolveDynamic(context.Context, wire.ObjRef, string) (wire.Value, error) {
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	return wire.Number(1), nil
}

// TestQueryDuringModifyNoRace hammers Query concurrently with Modify,
// Export and Withdraw. Under -race this exercises the snapshot/Modify
// race the value-copy capture fixes (a snapshot must never observe a
// Props map mid-swap).
func TestQueryDuringModifyNoRace(t *testing.T) {
	tr, _ := newLoadedTrader([]float64{10, 20, 30, 40}, []bool{false, false, false, false})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("offer-%d", 1+i%4)
			_ = tr.Modify(id, map[string]PropValue{
				"LoadAvg":           {Static: wire.Number(float64(i % 100))},
				"LoadAvgIncreasing": {Static: wire.String("no")},
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := tr.Export("LoadShared", serverRef(100+i), map[string]PropValue{
				"LoadAvg": {Static: wire.Number(50)},
			})
			if err == nil {
				_ = tr.Withdraw(id)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rs, err := tr.Query(context.Background(), "LoadShared",
				"LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg", 0)
			if err != nil {
				panic(err)
			}
			for _, r := range rs {
				// Touch the snapshot and offer props: a torn map would
				// trip the race detector here.
				_ = r.Snapshot["LoadAvg"]
				_ = len(r.Offer.Props)
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestCompiledQueryCaching verifies the compile-once cache: the same
// constraint and preference sources reuse one compiled object, and parse
// failures are reported every time rather than cached.
func TestCompiledQueryCaching(t *testing.T) {
	c1, err := cachedConstraint("LoadAvg < 50 and LoadAvgIncreasing == no")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cachedConstraint("LoadAvg < 50 and LoadAvgIncreasing == no")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("same constraint source compiled twice")
	}
	p1, err := cachedPreference("min LoadAvg")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cachedPreference("min LoadAvg")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same preference source compiled twice")
	}
	if _, err := cachedConstraint("x =="); err == nil {
		t.Fatal("bad constraint cached as success")
	}
	if _, err := cachedConstraint("x =="); err == nil {
		t.Fatal("bad constraint accepted on second lookup")
	}
}

// TestPropRefs checks the referenced-name sets the demand-driven snapshot
// machinery relies on.
func TestPropRefs(t *testing.T) {
	c, err := ParseConstraint("LoadAvg < 50 and not (exist Down or Mem + 1 > 2)")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Down", "LoadAvg", "Mem"}
	if got := c.refs; !slices.Equal(got, want) {
		t.Fatalf("constraint PropRefs = %v, want %v", got, want)
	}
	p, err := ParsePreference("min LoadAvg / Weight")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.refs; !slices.Equal(got, []string{"LoadAvg", "Weight"}) {
		t.Fatalf("preference PropRefs = %v", got)
	}
	for _, src := range []string{"", "first", "random"} {
		p, err := ParsePreference(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.refs; len(got) != 0 {
			t.Fatalf("PropRefs(%q) = %v, want empty", src, got)
		}
	}
}

// TestSlotNamesBounded: a type numbers every property name its
// offers ever used, withdrawn offers' included, up to maxTypeNames. Past
// that, Export and Modify refuse an offer with a name the type has not seen
// (ErrTooManyNames), before anything changes; names it has seen still go.
func TestSlotNamesBounded(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S", Props: []string{"Load"}})
	one := PropValue{Static: wire.Int(1)}
	for i := 1; i < maxTypeNames; i++ {
		id, err := tr.Export("S", serverRef(i), map[string]PropValue{"Load": one, fmt.Sprint("name", i): one})
		if err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
		if err := tr.Withdraw(id); err != nil {
			t.Fatal(err)
		}
	}
	id, err := tr.Export("S", serverRef(0), map[string]PropValue{"Load": one, "name7": one})
	if err != nil {
		t.Fatalf("export with seen names: %v", err)
	}
	rt := tr.types["S"]
	before, next := tr.Stats(), tr.nextID
	if _, err := tr.Export("S", serverRef(1), map[string]PropValue{"Load": one, "fresh": one}); !errors.Is(err, ErrTooManyNames) {
		t.Fatalf("export with a fresh name past the bound: %v, want ErrTooManyNames", err)
	}
	if err := tr.Modify(id, map[string]PropValue{"fresh": one}); !errors.Is(err, ErrTooManyNames) {
		t.Fatalf("modify with a fresh name past the bound: %v, want ErrTooManyNames", err)
	}
	after := tr.Stats()
	if len(rt.names) != maxTypeNames || len(rt.slots) != maxTypeNames || tr.nextID != next ||
		after.Exports != before.Exports || after.Offers != 1 {
		t.Fatalf("refusals changed the trader: %d names, %d slots, next id %d (was %d), stats %+v (was %+v)",
			len(rt.names), len(rt.slots), tr.nextID, next, after, before)
	}
	rs, err := tr.Query(context.Background(), "S", "exist name7", "", 0)
	if err != nil || len(rs) != 1 || rs[0].Offer.ID != id {
		t.Fatalf("the refused Modify changed the offer: %v, %v", rs, err)
	}
	if err := tr.Modify(id, map[string]PropValue{"name9": one}); err != nil {
		t.Fatalf("modify with a seen name: %v", err)
	}
}
