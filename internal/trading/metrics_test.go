package trading

import (
	"context"
	"strings"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/metrics"
)

// TestTraderMetricsQueryPath drives the instrumented query path through
// success, resolution failure, quarantine, and rehabilitation, and checks
// every counter lands where the lifecycle says it should.
func TestTraderMetricsQueryPath(t *testing.T) {
	tr, res, id := newFlakyTrader(t)
	reg := metrics.NewRegistry()
	tr.SetMetrics(reg)

	// One healthy query: latency and resolve fan-out observed, no errors.
	if n := queryLoad(t, tr); n != 1 {
		t.Fatalf("healthy query matched %d offers", n)
	}
	if got := reg.Histogram("trading_query_us").Snapshot().Count; got != 1 {
		t.Errorf("query latency samples = %d, want 1", got)
	}
	if got := reg.Histogram("trading_resolve_tasks").Snapshot().Count; got != 1 {
		t.Errorf("resolve fan-out samples = %d, want 1", got)
	}
	if got := reg.Counter("trading_resolve_errors").Value(); got != 0 {
		t.Errorf("resolve errors = %d, want 0", got)
	}

	// Three failing queries quarantine the offer; each counts its failed
	// resolution, the transition counts once.
	res.setFail(true)
	for i := 0; i < 3; i++ {
		queryLoad(t, tr)
	}
	if got := reg.Counter("trading_resolve_errors").Value(); got != 3 {
		t.Errorf("resolve errors = %d, want 3", got)
	}
	if got := reg.Counter("trading_quarantined").Value(); got != 1 {
		t.Errorf("quarantined = %d, want 1", got)
	}

	// Recovery probe rehabilitates.
	res.setFail(false)
	queryLoad(t, tr)
	if got := reg.Counter("trading_rehabilitated").Value(); got != 1 {
		t.Errorf("rehabilitated = %d, want 1", got)
	}
	if tr.Quarantined(id) {
		t.Fatal("offer still quarantined after probe")
	}

	// A query against an unknown type is a query error.
	if _, err := tr.Query(context.Background(), "NoSuchType", "", "", 0); err == nil {
		t.Fatal("expected unknown-type error")
	}
	if got := reg.Counter("trading_query_errors").Value(); got != 1 {
		t.Errorf("query errors = %d, want 1", got)
	}

	// The registered gauges see the live trader.
	text := reg.Text()
	if !strings.Contains(text, "trading_offers 1\n") {
		t.Errorf("exposition missing trading_offers 1:\n%s", text)
	}
	// Five queries each visited the type's one record and took it as a
	// candidate (quarantine is not a scan filter).
	for _, want := range []string{"trading_scanned 5\n", "trading_candidates 5\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestTraderMetricsLeaseChurn checks renewals, reaping, and withdrawals.
func TestTraderMetricsLeaseChurn(t *testing.T) {
	tr := NewTrader(nil)
	reg := metrics.NewRegistry()
	tr.SetMetrics(reg)
	clk := clock.NewSim(time.Unix(0, 0))
	tr.SetClock(clk)
	tr.SetLeaseTTL(time.Minute)
	tr.AddType(ServiceType{Name: "S"})

	id1, err := tr.Export("S", serverRef(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tr.Export("S", serverRef(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Renew(id1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("trading_renewals").Value(); got != 1 {
		t.Errorf("renewals = %d, want 1", got)
	}
	if err := tr.Withdraw(id2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("trading_withdrawals").Value(); got != 1 {
		t.Errorf("withdrawals = %d, want 1", got)
	}
	clk.Advance(2 * time.Minute) // id1's renewed lease is also past due
	if n := tr.Reap(); n != 1 {
		t.Fatalf("reaped %d offers, want 1", n)
	}
	if got := reg.Counter("trading_reaped").Value(); got != 1 {
		t.Errorf("reaped counter = %d, want 1", got)
	}
	// Detach: subsequent activity must not move the counters.
	tr.SetMetrics(nil)
	id3, err := tr.Export("S", serverRef(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Renew(id3); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("trading_renewals").Value(); got != 1 {
		t.Errorf("renewals after detach = %d, want 1", got)
	}
}

// TestServantMetricsOp pins the wire surface: the trader servant answers
// the metrics operation with the registry text when attached and an app
// error when not.
func TestServantMetricsOp(t *testing.T) {
	tr := NewTrader(nil)
	reg := metrics.NewRegistry()
	tr.SetMetrics(reg)
	reg.Counter("trading_test_marker").Add(7)

	s := NewServant(tr)
	if _, err := s.Invoke("metrics", nil); err == nil {
		t.Fatal("metrics op without WithMetricsText should fail")
	}
	s.WithMetricsText(reg.Text)
	rs, err := s.Invoke("metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	text, ok := rs[0].AsString()
	if !ok {
		t.Fatalf("metrics op reply is not a string: %v", rs[0])
	}
	if !strings.Contains(text, "trading_test_marker 7\n") {
		t.Errorf("metrics op reply missing marker:\n%s", text)
	}
}
