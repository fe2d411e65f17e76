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

// rankedHosts starts one hello server per name on w's network and exports
// each as a LoadShared offer whose static Rank is its position (1 first);
// operation "boom" answers with an application error.
func rankedHosts(t *testing.T, w *testWorld, names ...string) (srvs []*orb.Server, refs []wire.ObjRef, ids []string) {
	t.Helper()
	for i, name := range names {
		srv, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: name})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		ref := srv.Register("service", "", orb.ServantFunc(func(op string, _ []wire.Value) ([]wire.Value, error) {
			if op == "boom" {
				return nil, orb.Appf("boom from %s", name)
			}
			return []wire.Value{wire.String("hello from " + name)}, nil
		}))
		id, err := w.trader.Export("LoadShared", ref, map[string]trading.PropValue{
			"Rank": {Static: wire.Int(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		srvs, refs, ids = append(srvs, srv), append(refs, ref), append(ids, id)
	}
	return srvs, refs, ids
}

// rankedProxy is a failover proxy bound to the best-ranked offer.
func rankedProxy(t *testing.T, w *testWorld) *SmartProxy {
	t.Helper()
	sp := install(t, w.newProxy(Options{Constraint: "Rank > 0", Preference: "min Rank"}), EventFailed, FailoverStrategy)
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestFailoverSkipsDeadLeasedOffer crashes the preferred server while its
// offer stays listed (static properties, lease not yet run out): failover
// must pass over the ref that just failed instead of re-binding it.
func TestFailoverSkipsDeadLeasedOffer(t *testing.T) {
	w := newWorld(t, 0)
	hosts, refs, _ := rankedHosts(t, w, "h1", "h2")
	sp := rankedProxy(t, w)
	ctx := context.Background()
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
}

// TestFailoverReselectsOnce pins the paper's failover: with the bound
// server dead and its offer still listed, an invocation makes exactly one
// re-selection and answers from, or fails with the fault of, the server it
// lands on. It never goes on to a third server, even a live one.
func TestFailoverReselectsOnce(t *testing.T) {
	for _, c := range []struct {
		name string
		dead []int // indexes into h1, h2, h3; h1 (Rank 1) is bound
		want string
	}{
		{"next is dead", []int{0, 1}, ""},
		{"next is live", []int{0, 2}, "hello from h2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 0)
			hosts, refs, _ := rankedHosts(t, w, "h1", "h2", "h3")
			sp := rankedProxy(t, w)
			for _, i := range c.dead {
				_ = hosts[i].Close()
			}
			before := sp.Stats()
			rs, err := sp.Invoke(context.Background(), "hello")
			if st := sp.Stats(); st.Selections != before.Selections+1 || st.Switches != before.Switches+1 {
				t.Fatalf("stats %+v -> %+v, want one re-selection and one switch", before, st)
			}
			if cur, _ := sp.Current(); cur != refs[1] {
				t.Fatalf("bound to %v after failover, want h2", cur)
			}
			switch {
			case c.want == "" && !indictsBinding(err):
				t.Fatalf("err = %v, want h2's transport fault", err)
			case c.want != "" && (err != nil || rs[0].Str() != c.want):
				t.Fatalf("invoke = %v, %v, want %q", rs, err, c.want)
			}
		})
	}
}

// TestRebindsToSurvivorOnDeadServer: a bound server crashes with its offer
// still registered; the invocation in flight is not lost, the proxy moves to
// the survivor once and stays there.
func TestRebindsToSurvivorOnDeadServer(t *testing.T) {
	w := newWorld(t, 0)
	hosts, refs, _ := rankedHosts(t, w, "h1", "h2")
	sp := rankedProxy(t, w)
	ctx := context.Background()
	if cur, _ := sp.Current(); cur != refs[0] {
		t.Fatalf("bound to %v, want h1 (min Rank)", cur)
	}
	if rs, err := sp.Invoke(ctx, "hello"); err != nil || rs[0].Str() != "hello from h1" {
		t.Fatalf("first invoke = %v, %v", rs, err)
	}
	_ = hosts[0].Close()
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("invoke across crash: %v", err)
	}
	if rs[0].Str() != "hello from h2" {
		t.Fatalf("rebound reply = %q", rs[0].Str())
	}
	if cur, _ := sp.Current(); cur != refs[1] {
		t.Fatalf("current = %v, want h2", cur)
	}
	if st := sp.Stats(); st.Switches != 1 || st.Invocations != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if rs, err := sp.Invoke(ctx, "hello"); err != nil || rs[0].Str() != "hello from h2" {
		t.Fatalf("steady state = %v, %v", rs, err)
	}
}

// TestStaleFallbackExhausted: with no offer left and the bound server dead,
// the invocation fails with the transport fault and the proxy keeps its
// binding, since the trader offers nothing new.
func TestStaleFallbackExhausted(t *testing.T) {
	w := newWorld(t, 0)
	hosts, refs, ids := rankedHosts(t, w, "h1")
	sp := rankedProxy(t, w)
	ctx := context.Background()
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := w.trader.Withdraw(ids[0]); err != nil {
		t.Fatal(err)
	}
	_ = hosts[0].Close()
	before := sp.Stats()
	_, err := sp.Invoke(ctx, "hello")
	var re *orb.RemoteError
	if err == nil || errors.As(err, &re) {
		t.Fatalf("err = %v, want a transport fault", err)
	}
	st := sp.Stats()
	if st.Selections != before.Selections+1 || st.Switches != before.Switches {
		t.Fatalf("stats %+v -> %+v, want one re-selection and no switch", before, st)
	}
	if cur, _ := sp.Current(); cur != refs[0] {
		t.Fatalf("binding moved to %v", cur)
	}
}

// TestApplicationErrorsPassThrough: a servant-level error is an answer, not
// a fault, so it causes no re-selection.
func TestApplicationErrorsPassThrough(t *testing.T) {
	w := newWorld(t, 0)
	_, refs, _ := rankedHosts(t, w, "h1", "h2")
	sp := rankedProxy(t, w)
	before := sp.Stats()
	_, err := sp.Invoke(context.Background(), "boom")
	var re *orb.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if st := sp.Stats(); st.Switches != 0 || st.Selections != before.Selections {
		t.Fatalf("app error caused rebinding: %+v", st)
	}
	if cur, _ := sp.Current(); cur != refs[0] {
		t.Fatalf("binding moved to %v", cur)
	}
}

// TestFailoverLeavesCallerDeadlineAlone checks that a call the caller
// already gave up on fails with the caller's own error and never costs a
// trader query: cancellation says nothing about the bound server.
func TestFailoverLeavesCallerDeadlineAlone(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := install(t, w.newProxy(Options{}), EventFailed, FailoverStrategy)
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
