// Package rebind holds the rebinding regression tests: a client bound to a
// service type through the trader keeps working when its server dies. The
// healing itself is core.SmartProxy's failover (Options.Failover); these
// tests drive it end to end over an inproc network with ranked servers.
package rebind

import (
	"context"
	"errors"
	"testing"

	"autoadapt/internal/core"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// world is a trader plus ranked hello servers on one inproc network.
type world struct {
	net    *orb.InprocNetwork
	trader *trading.Trader
	lookup *trading.Lookup
	client *orb.Client
	srvs   map[string]*orb.Server
	refs   map[string]wire.ObjRef
	ids    map[string]string
}

func newWorld(t *testing.T, hosts ...string) *world {
	t.Helper()
	w := &world{
		net:  orb.NewInprocNetwork(),
		srvs: map[string]*orb.Server{},
		refs: map[string]wire.ObjRef{},
		ids:  map[string]string{},
	}
	w.trader = trading.NewTrader(nil)
	w.trader.AddType(trading.ServiceType{Name: "Hello"})
	tsrv, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: "trader"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tsrv.Close() })
	tref := tsrv.Register(trading.DefaultObjectKey, "", trading.NewServant(w.trader))
	w.client = orb.NewClient(w.net)
	t.Cleanup(func() { _ = w.client.Close() })
	w.lookup = trading.NewLookup(w.client, tref)
	for i, h := range hosts {
		w.startHost(t, h, i+1)
	}
	return w
}

// startHost brings up a named hello server and exports its offer with the
// given rank (lower rank = preferred).
func (w *world) startHost(t *testing.T, name string, rank int) {
	t.Helper()
	srv, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ref := srv.Register("svc", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "boom" {
			return nil, orb.Appf("boom from %s", name)
		}
		return []wire.Value{wire.String("hello from " + name)}, nil
	}))
	id, err := w.trader.Export("Hello", ref, map[string]trading.PropValue{
		"Rank": {Static: wire.Int(rank)},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.srvs[name], w.refs[name], w.ids[name] = srv, ref, id
}

// bound returns a failover proxy bound to the best-ranked offer.
func (w *world) bound(t *testing.T) *core.SmartProxy {
	t.Helper()
	sp, err := core.New(core.Options{
		Client:      w.client,
		Lookup:      w.lookup,
		ServiceType: "Hello",
		Preference:  "min Rank",
		Failover:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sp
}

func current(sp *core.SmartProxy) wire.ObjRef {
	ref, _ := sp.Current()
	return ref
}

func TestRebindsToSurvivorOnDeadServer(t *testing.T) {
	w := newWorld(t, "h1", "h2")
	sp := w.bound(t)
	ctx := context.Background()
	if current(sp) != w.refs["h1"] {
		t.Fatalf("bound to %v, want h1 (min Rank)", current(sp))
	}
	if rs, err := sp.Invoke(ctx, "hello"); err != nil || rs[0].Str() != "hello from h1" {
		t.Fatalf("first invoke = %v, %v", rs, err)
	}
	// h1 crashes. Its offer is still registered (lease not yet expired) —
	// the proxy must skip the ref that just failed and route to h2,
	// without losing the invocation.
	_ = w.srvs["h1"].Close()
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("invoke across crash: %v", err)
	}
	if rs[0].Str() != "hello from h2" {
		t.Fatalf("rebound reply = %q", rs[0].Str())
	}
	if current(sp) != w.refs["h2"] {
		t.Fatalf("current = %v, want h2", current(sp))
	}
	st := sp.Stats()
	if st.Switches != 1 || st.Invocations != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Subsequent invocations stay on the survivor.
	if rs, err := sp.Invoke(ctx, "hello"); err != nil || rs[0].Str() != "hello from h2" {
		t.Fatalf("steady state = %v, %v", rs, err)
	}
}

func TestStaleFallbackExhausted(t *testing.T) {
	w := newWorld(t, "h1")
	sp := w.bound(t)
	ctx := context.Background()
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	// Everything is gone: no offers, and the bound server is dead too. The
	// invocation fails with the transport fault, and the proxy keeps its
	// binding because the trader offers nothing new.
	if err := w.trader.Withdraw(w.ids["h1"]); err != nil {
		t.Fatal(err)
	}
	_ = w.srvs["h1"].Close()
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
	if current(sp) != w.refs["h1"] {
		t.Fatalf("binding moved to %v", current(sp))
	}
}

func TestApplicationErrorsPassThrough(t *testing.T) {
	w := newWorld(t, "h1", "h2")
	sp := w.bound(t)
	ctx := context.Background()
	before := sp.Stats()
	// A servant-level error is an answer, not a fault: no rebinding.
	_, err := sp.Invoke(ctx, "boom")
	var re *orb.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if st := sp.Stats(); st.Switches != 0 || st.Selections != before.Selections {
		t.Fatalf("app error caused rebinding: %+v", st)
	}
	if current(sp) != w.refs["h1"] {
		t.Fatalf("binding moved to %v", current(sp))
	}
}

func TestInterceptorRedirectsAbandonedRef(t *testing.T) {
	w := newWorld(t, "h1", "h2")
	sp := w.bound(t)
	ctx := context.Background()
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	_ = w.srvs["h1"].Close()
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	// A plain client still holding h1's ref goes through the redirector
	// and lands on the proxy's current binding instead.
	ic := orb.NewInterceptingClient(w.client)
	ic.Use(core.NewRedirector(sp))
	rs, err := ic.Invoke(ctx, w.refs["h1"], "hello")
	if err != nil {
		t.Fatalf("intercepted invoke: %v", err)
	}
	if rs[0].Str() != "hello from h2" {
		t.Fatalf("intercepted reply = %q, want redirect to h2", rs[0].Str())
	}
}
