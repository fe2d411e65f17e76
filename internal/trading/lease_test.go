package trading

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

var leaseEpoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

// newLeasedTrader builds a trader on a simulated clock with a 30s lease
// TTL and one static-prop offer per name.
func newLeasedTrader(t *testing.T, names ...string) (*Trader, *clock.Sim, []string) {
	t.Helper()
	sim := clock.NewSim(leaseEpoch)
	tr := NewTrader(nil)
	tr.SetClock(sim)
	tr.SetLeaseTTL(30 * time.Second)
	tr.AddType(ServiceType{Name: "S"})
	ids := make([]string, len(names))
	for i, n := range names {
		id, err := tr.Export("S", serverRef(i), map[string]PropValue{"Name": {Static: wire.String(n)}})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return tr, sim, ids
}

func queryNames(t *testing.T, tr *Trader) []string {
	t.Helper()
	rs, err := tr.Query(context.Background(), "S", "", "first", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Snapshot["Name"].Str()
	}
	return out
}

func TestLeaseExpiryExcludesOffer(t *testing.T) {
	tr, sim, _ := newLeasedTrader(t, "a", "b")
	if got := queryNames(t, tr); len(got) != 2 {
		t.Fatalf("fresh offers matched = %v", got)
	}
	sim.Advance(29 * time.Second)
	if got, n := queryNames(t, tr), tr.OfferCount(); len(got) != 2 || n != 2 {
		t.Fatalf("at 29s: matches=%v count=%d, want both live", got, n)
	}
	// Expiry is lazy: the instant the lease is past due, Query and
	// OfferCount ignore the offer even though no reaper ran.
	sim.Advance(time.Second)
	if got, n := queryNames(t, tr), tr.OfferCount(); len(got) != 0 || n != 0 {
		t.Fatalf("at 30s: matches=%v count=%d, want none", got, n)
	}
}

func TestRenewExtendsAndResurrects(t *testing.T) {
	tr, sim, ids := newLeasedTrader(t, "a")
	sim.Advance(20 * time.Second)
	if err := tr.Renew(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Renewed at 20s: alive until 50s, not just the original 30s.
	sim.Advance(25 * time.Second)
	if n := tr.OfferCount(); n != 1 {
		t.Fatalf("at 45s after renew: count=%d", n)
	}
	// Let it expire, then renew again: an expired-but-unreaped offer is
	// resurrected deterministically, same ID and properties.
	sim.Advance(10 * time.Second)
	if n := tr.OfferCount(); n != 0 {
		t.Fatalf("at 55s: count=%d, want expired", n)
	}
	if err := tr.Renew(ids[0]); err != nil {
		t.Fatalf("resurrecting renew: %v", err)
	}
	if got := queryNames(t, tr); len(got) != 1 || got[0] != "a" {
		t.Fatalf("after resurrection: %v", got)
	}
}

func TestReapRemovesExpired(t *testing.T) {
	tr, sim, ids := newLeasedTrader(t, "a", "b")
	if err := tr.Renew(ids[1]); err != nil { // offer b stays fresh longer? no — same TTL from now
		t.Fatal(err)
	}
	sim.Advance(30 * time.Second)
	// a expired at 30s; b was renewed at 0s so it also expires at 30s.
	if n := tr.Reap(); n != 2 {
		t.Fatalf("reaped %d, want 2", n)
	}
	// Reaped offers are gone for good: renewing now fails and the
	// exporter must re-export.
	if err := tr.Renew(ids[0]); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("renew after reap = %v, want ErrUnknownOffer", err)
	}
}

func TestWithdrawModifyLeaseAware(t *testing.T) {
	tr, sim, ids := newLeasedTrader(t, "a")
	sim.Advance(31 * time.Second)
	// Modify on an expired offer fails but leaves the record intact...
	if err := tr.Modify(ids[0], map[string]PropValue{"Name": {Static: wire.String("z")}}); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("modify expired = %v, want ErrUnknownOffer", err)
	}
	// ...so Renew resurrects it with the pre-expiry properties and Modify
	// works again.
	if err := tr.Renew(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Modify(ids[0], map[string]PropValue{"Name": {Static: wire.String("z")}}); err != nil {
		t.Fatal(err)
	}
	if got := queryNames(t, tr); len(got) != 1 || got[0] != "z" {
		t.Fatalf("after modify: %v", got)
	}
	// Withdraw on an expired offer reports unknown and removes the record.
	sim.Advance(31 * time.Second)
	if err := tr.Withdraw(ids[0]); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("withdraw expired = %v, want ErrUnknownOffer", err)
	}
	if err := tr.Renew(ids[0]); !errors.Is(err, ErrUnknownOffer) {
		t.Fatalf("renew after expired withdraw = %v, want ErrUnknownOffer", err)
	}
}

func TestStartReaperCollectsOnSimClock(t *testing.T) {
	tr, sim, _ := newLeasedTrader(t, "a")
	stop := tr.StartReaper(10 * time.Second)
	defer stop()
	sim.Advance(30 * time.Second) // fires the reaper's first 10s timer
	deadline := time.Now().Add(2 * time.Second)
	for {
		tr.mu.RLock()
		n := len(tr.offers)
		tr.mu.RUnlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reaper never collected the expired offer")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// flakyResolver fails all resolutions while fail is set.
type flakyResolver struct {
	mu   sync.Mutex
	fail bool
	v    wire.Value
}

func (f *flakyResolver) setFail(b bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fail = b
}

func (f *flakyResolver) ResolveDynamic(context.Context, wire.ObjRef, string) (wire.Value, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return wire.Nil(), errors.New("monitor unreachable")
	}
	return f.v, nil
}

func newFlakyTrader(t *testing.T) (*Trader, *flakyResolver, string) {
	t.Helper()
	res := &flakyResolver{v: wire.Number(0.5)}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	id, err := tr.Export("S", serverRef(0), map[string]PropValue{
		"Load": {Dynamic: monitorRef(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res, id
}

func queryLoad(t *testing.T, tr *Trader) int {
	t.Helper()
	rs, err := tr.Query(context.Background(), "S", "Load < 10", "min Load", 0)
	if err != nil {
		t.Fatal(err)
	}
	return len(rs)
}

func TestQuarantineAfterConsecutiveResolveFailures(t *testing.T) {
	tr, res, id := newFlakyTrader(t)
	res.setFail(true)
	// While failing, the offer never matches (missing property), but it
	// only becomes quarantined at the third consecutive failure.
	for i := 1; i <= 3; i++ {
		if n := queryLoad(t, tr); n != 0 {
			t.Fatalf("query %d matched %d offers while monitor down", i, n)
		}
		if q := tr.Quarantined(id); q != (i >= 3) {
			t.Fatalf("after query %d: quarantined=%v", i, q)
		}
	}
	// Quarantined offers still count as registered.
	if n := tr.OfferCount(); n != 1 {
		t.Fatalf("OfferCount with quarantined offer = %d", n)
	}
	// The monitor recovers. The next query still excludes the offer but
	// probes its properties, which succeeds and rehabilitates it...
	res.setFail(false)
	if n := queryLoad(t, tr); n != 0 {
		t.Fatalf("query during probe matched %d offers", n)
	}
	if tr.Quarantined(id) {
		t.Fatal("successful probe did not rehabilitate")
	}
	// ...so the query after that sees the offer again.
	if n := queryLoad(t, tr); n != 1 {
		t.Fatalf("query after rehabilitation matched %d offers", n)
	}
}

func TestSingleFailureDoesNotQuarantine(t *testing.T) {
	tr, res, id := newFlakyTrader(t)
	res.setFail(true)
	queryLoad(t, tr)
	queryLoad(t, tr)
	res.setFail(false)
	queryLoad(t, tr) // success resets the consecutive-failure count
	res.setFail(true)
	queryLoad(t, tr)
	queryLoad(t, tr)
	if tr.Quarantined(id) {
		t.Fatal("non-consecutive failures quarantined the offer")
	}
}

func TestRenewLiftsQuarantine(t *testing.T) {
	tr, res, id := newFlakyTrader(t)
	res.setFail(true)
	for i := 0; i < 3; i++ {
		queryLoad(t, tr)
	}
	if !tr.Quarantined(id) {
		t.Fatal("offer not quarantined")
	}
	// The exporter renews (its heartbeat is alive even if the monitor
	// path glitched): quarantine lifts immediately.
	if err := tr.Renew(id); err != nil {
		t.Fatal(err)
	}
	if tr.Quarantined(id) {
		t.Fatal("renew did not lift quarantine")
	}
	res.setFail(false)
	if n := queryLoad(t, tr); n != 1 {
		t.Fatalf("query after renew matched %d offers", n)
	}
}

func TestMapOfferErrReconstructsSentinel(t *testing.T) {
	// Across the servant/Lookup wire boundary the sentinel identity is
	// reconstructed from the APP_ERROR message, so agents can errors.Is.
	re := &orb.RemoteError{Code: "APP_ERROR", Msg: `renew: trading: unknown offer "offer-404"`}
	if !errors.Is(mapOfferErr(re), ErrUnknownOffer) {
		t.Fatal("unknown-offer RemoteError not mapped to sentinel")
	}
	other := &orb.RemoteError{Code: "APP_ERROR", Msg: "renew: something else"}
	if errors.Is(mapOfferErr(other), ErrUnknownOffer) {
		t.Fatal("unrelated RemoteError mapped to sentinel")
	}
	if mapOfferErr(nil) != nil {
		t.Fatal("nil error mapped")
	}
}
