package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// TestSmartProxySurvivesDroppedConnection is the PR's acceptance scenario:
// with the fault-injecting network dropping the first connection, a
// smart-proxy invocation still succeeds via the client's retry/backoff
// within its deadline.
func TestSmartProxySurvivesDroppedConnection(t *testing.T) {
	inner := orb.NewInprocNetwork()
	fnet := orb.NewFaultNetwork(inner)

	srv, err := orb.NewServer(orb.ServerOptions{Network: inner, Address: "ft-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("service", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return []wire.Value{wire.String("ok")}, nil
	}))

	client := orb.NewClientOpts(orb.ClientOptions{
		Networks: []orb.Network{fnet},
		Retry:    orb.RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, Jitter: 0.2},
	})
	defer client.Close()

	sp, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.BindTo(context.Background(), trading.QueryResult{
		Offer: trading.Offer{ID: "offer-ft", Ref: ref},
	}); err != nil {
		t.Fatal(err)
	}

	fnet.FailNextDials(1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("smart-proxy invoke across dropped connection: %v", err)
	}
	if rs[0].Str() != "ok" {
		t.Fatalf("result = %v", rs[0])
	}
	if n := fnet.Dials(); n != 2 {
		t.Fatalf("dials = %d, want 2 (drop + retry)", n)
	}
}

// TestFailoverBacksOffAcrossReselects exercises the policy-driven failover
// loop: the bound server is dead, re-selection keeps returning it for a
// while, and the proxy must keep trying (with backoff) until a healthy
// offer appears, instead of giving up after one shot.
func TestFailoverBacksOffAcrossReselects(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{
		Failover: true,
		Retry:    orb.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatalf("bound to %v", ref)
	}
	_ = w.hosts[0].Close()
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("failover invoke: %v", err)
	}
	if rs[0].Str() != "hello from host-1" {
		t.Fatalf("failover answered %q", rs[0].Str())
	}
}

// TestFailoverSkipsDeadLeasedOffer crashes the preferred server while its
// offer stays listed (static properties, lease not yet run out): failover
// must pass over the ref that just failed instead of re-binding it, and a
// plain client still aimed at the dead ref follows the proxy through the
// redirector.
func TestFailoverSkipsDeadLeasedOffer(t *testing.T) {
	w := newWorld(t, 0)
	var hosts []*orb.Server
	var refs []wire.ObjRef
	for i, name := range []string{"h1", "h2"} {
		srv, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		ref := srv.Register("service", "", orb.ServantFunc(func(string, []wire.Value) ([]wire.Value, error) {
			return []wire.Value{wire.String("hello from " + name)}, nil
		}))
		if _, err := w.trader.Export("LoadShared", ref, map[string]trading.PropValue{
			"Rank": {Static: wire.Int(i + 1)},
		}); err != nil {
			t.Fatal(err)
		}
		hosts, refs = append(hosts, srv), append(refs, ref)
	}
	sp := w.newProxy(Options{Constraint: "Rank > 0", Preference: "min Rank", Failover: true})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if cur, _ := sp.Current(); cur != refs[0] {
		t.Fatalf("bound to %v, want h1", cur)
	}
	_ = hosts[0].Close()
	if n := w.trader.OfferCount(); n != 2 {
		t.Fatalf("offers after crash = %d, want 2 (dead offer still listed)", n)
	}
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("invocation lost in the crash: %v", err)
	}
	if rs[0].Str() != "hello from h2" {
		t.Fatalf("failover answered %q, want h2", rs[0].Str())
	}
	if st := sp.Stats(); st.Switches != 1 {
		t.Fatalf("stats = %+v, want exactly one switch", st)
	}

	ic := orb.NewInterceptingClient(w.client)
	ic.Use(NewRedirector(sp))
	rs, err = ic.Invoke(ctx, refs[0], "hello")
	if err != nil {
		t.Fatalf("redirected invoke: %v", err)
	}
	if rs[0].Str() != "hello from h2" {
		t.Fatalf("redirected reply = %q, want h2", rs[0].Str())
	}
}

// TestFailoverLeavesCallerDeadlineAlone checks that a call the caller
// already gave up on fails with the caller's own error and never costs a
// trader query: cancellation says nothing about the bound server.
func TestFailoverLeavesCallerDeadlineAlone(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{Failover: true})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := sp.Stats().Selections
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sp.Invoke(ctx, "hello"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := sp.Stats().Selections; got != before {
		t.Fatalf("selections %d -> %d: a cancelled call re-queried the trader", before, got)
	}
	if cur, _ := sp.Current(); cur != hostRef(0) {
		t.Fatalf("binding moved to %v", cur)
	}
}
