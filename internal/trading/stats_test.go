package trading

import (
	"context"
	"testing"
	"time"

	"autoadapt/internal/strikes"
	"autoadapt/internal/wire"
)

// TestQueryHealthySkipsWriteLock pins the hot-read-path guarantee: a query
// whose dynamic resolutions all succeed against offers with clean
// quarantine state records nothing, so it must complete while another
// goroutine holds the trader's read lock — taking the write lock would
// deadlock behind our RLock and trip the timeout.
func TestQueryHealthySkipsWriteLock(t *testing.T) {
	tr, _ := newLoadedTrader([]float64{0.5, 1.5}, []bool{false, false})

	// Prime once so any initial strikes are settled.
	if _, err := tr.Query(context.Background(), "LoadShared", "LoadAvg < 99", "min LoadAvg", 0); err != nil {
		t.Fatal(err)
	}

	tr.mu.RLock()
	defer tr.mu.RUnlock()
	done := make(chan error, 1)
	go func() {
		_, err := tr.Query(context.Background(), "LoadShared", "LoadAvg < 99", "min LoadAvg", 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("query under external RLock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query blocked on the write lock despite having nothing to record")
	}
}

// TestQueryFailureStillQuarantines proves the RLock-first rewrite still
// upgrades when there is something to record.
func TestQueryFailureStillQuarantines(t *testing.T) {
	res := &stubResolver{values: map[string]wire.Value{}}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	id, err := tr.Export("S", serverRef(0), map[string]PropValue{
		"LoadAvg": {Dynamic: monitorRef(0)}, // not in res.values: resolution fails
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < strikes.Limit; i++ {
		if _, err := tr.Query(context.Background(), "S", "LoadAvg < 1", "", 0); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.Quarantined(id) {
		t.Fatalf("offer %s not quarantined after %d failing queries", id, strikes.Limit)
	}
}

func TestTraderStats(t *testing.T) {
	tr, _ := newLoadedTrader([]float64{0.5, 1.5}, []bool{false, false})
	before := tr.Stats()
	if before.Exports != 2 || before.Offers != 2 {
		t.Fatalf("exports/offers = %d/%d, want 2/2", before.Exports, before.Offers)
	}
	for i := 0; i < 5; i++ {
		if _, err := tr.Query(context.Background(), "LoadShared", "", "min LoadAvg", 0); err != nil {
			t.Fatal(err)
		}
	}
	after := tr.Stats()
	if after.Queries-before.Queries != 5 {
		t.Fatalf("queries delta = %d, want 5", after.Queries-before.Queries)
	}
	if after.QueryNanos <= before.QueryNanos {
		t.Fatalf("query nanos did not advance: %d -> %d", before.QueryNanos, after.QueryNanos)
	}
}

func TestStatsWireRoundTrip(t *testing.T) {
	in := TraderStats{Queries: 7, Exports: 3, QueryNanos: 12345, Offers: 9, Scanned: 350, Candidates: 340}
	out, err := statsFromWire(statsToWire(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestStatsFromOldShapeReply: a trader from before Scanned/Candidates sends
// four keys; the new ones must read as 0, not fail the poll that doubles as
// the shard router's liveness probe.
func TestStatsFromOldShapeReply(t *testing.T) {
	old := wire.NewTable()
	old.SetString("queries", wire.Int(7))
	old.SetString("exports", wire.Int(3))
	old.SetString("querynanos", wire.Int(12345))
	old.SetString("offers", wire.Int(9))
	out, err := statsFromWire(wire.TableVal(old))
	if err != nil {
		t.Fatal(err)
	}
	if want := (TraderStats{Queries: 7, Exports: 3, QueryNanos: 12345, Offers: 9}); out != want {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}
