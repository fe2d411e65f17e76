package core

import (
	"context"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

func TestRouteOperationSendsOpToItsOwnServer(t *testing.T) {
	w := newWorld(t, 3)
	w.setLoad(0, 10, 15, 15) // least loaded: main selection
	w.setLoad(1, 20, 25, 25)
	w.setLoad(2, 30, 35, 35) // most loaded
	sp := w.newProxy(Options{})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	// Route "hello" to the MOST loaded server (max preference) just to
	// prove the route is independent of the main selection.
	if err := sp.RouteOperation(ctx, "hello", "LoadAvg > 25", "max LoadAvg"); err != nil {
		t.Fatal(err)
	}
	if got := sp.RouteTarget("hello"); got != hostRef(2) {
		t.Fatalf("route target = %v, want host-2", got)
	}
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Str() != "hello from host-2" {
		t.Fatalf("routed op answered %q", rs[0].Str())
	}
	if main, _ := sp.Current(); main != hostRef(0) {
		t.Fatalf("main selection disturbed: %v", main)
	}
	// Removing the route restores main-selection dispatch.
	if err := sp.RouteOperation(ctx, "hello", "", ""); err != nil {
		t.Fatal(err)
	}
	rs, err = sp.Invoke(ctx, "hello")
	if err != nil || rs[0].Str() != "hello from host-0" {
		t.Fatalf("after route removal: %v, %v", rs, err)
	}
}

func TestRouteOperationNoMatch(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	if err := sp.RouteOperation(context.Background(), "x", "LoadAvg > 999", ""); err == nil {
		t.Fatal("impossible route constraint accepted")
	}
}

func TestRouteOperationWithoutLookup(t *testing.T) {
	client := orb.NewClient(orb.NewInprocNetwork())
	defer client.Close()
	sp, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.RouteOperation(context.Background(), "x", "true", ""); err == nil {
		t.Fatal("routing without a lookup accepted")
	}
	if !sp.RouteTarget("x").IsZero() {
		t.Fatal("phantom route installed")
	}
}

func TestRoutedInvokeFailsOverWhenRouteDies(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := install(t, w.newProxy(Options{}), EventFailed, FailoverStrategy)
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.RouteOperation(ctx, "hello", "LoadAvg < 50", "min LoadAvg"); err != nil {
		t.Fatal(err)
	}
	if got := sp.RouteTarget("hello"); got != hostRef(0) {
		t.Fatalf("route = %v", got)
	}
	_ = w.hosts[0].Close() // the routed server dies
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("routed failover: %v", err)
	}
	if rs[0].Str() != "hello from host-1" {
		t.Fatalf("routed failover answered %q", rs[0].Str())
	}
	if got := sp.RouteTarget("hello"); got != hostRef(1) {
		t.Fatalf("route not re-selected: %v", got)
	}
}

// versionedServant implements only the old operation name.
func versionedServant(oldOp, label string) orb.Servant {
	return orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == oldOp {
			return []wire.Value{wire.String(label)}, nil
		}
		return nil, orb.Appf("no such operation %q", op)
	})
}

func TestAlternativeOperationFallsBack(t *testing.T) {
	net := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "alt-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// An old server implementing only "hello" (not "greet").
	ref := srv.Register("svc", "", versionedServant("hello", "legacy reply"))
	client := orb.NewClient(net)
	defer client.Close()
	sp, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.BindTo(context.Background(), trading.QueryResult{
		Offer: trading.Offer{ID: "offer-1", Ref: ref},
	}); err != nil {
		t.Fatal(err)
	}
	// Without the alternative, "greet" fails.
	if _, err := sp.Invoke(context.Background(), "greet"); err == nil {
		t.Fatal("unknown op succeeded without alternative")
	}
	// With it, the proxy silently falls back to the old method.
	sp.SetAlternativeOp("greet", "hello")
	rs, err := sp.Invoke(context.Background(), "greet")
	if err != nil {
		t.Fatalf("alternative fallback: %v", err)
	}
	if rs[0].Str() != "legacy reply" {
		t.Fatalf("fallback reply = %q", rs[0].Str())
	}
	// Removing the alternative restores the error.
	sp.SetAlternativeOp("greet", "")
	if _, err := sp.Invoke(context.Background(), "greet"); err == nil {
		t.Fatal("alternative not removed")
	}
}

func TestAlternativeNotUsedForTransportErrors(t *testing.T) {
	net := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "alt-dead"})
	if err != nil {
		t.Fatal(err)
	}
	ref := srv.Register("svc", "", versionedServant("hello", "x"))
	client := orb.NewClient(net)
	defer client.Close()
	sp, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.BindTo(context.Background(), trading.QueryResult{
		Offer: trading.Offer{ID: "offer-1", Ref: ref},
	}); err != nil {
		t.Fatal(err)
	}
	sp.SetAlternativeOp("greet", "hello")
	_ = srv.Close() // server gone: a transport error, not BAD_OPERATION
	if _, err := sp.Invoke(context.Background(), "greet"); err == nil {
		t.Fatal("alternative masked a transport failure")
	}
}

func TestRoutesAndMainSelectionStatsSeparate(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.RouteOperation(ctx, "hello", "LoadAvg < 50", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sp.Invoke(ctx, "hello"); err != nil {
			t.Fatal(err)
		}
	}
	if got := sp.Stats().Invocations; got != 3 {
		t.Fatalf("invocations = %d", got)
	}
}
