package baseline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// fixture: trader + N servers over inproc, each with a static LoadAvg.
type fixture struct {
	client *orb.Client
	lookup *trading.Lookup
	refs   []wire.ObjRef
	served []int
}

func newFixture(t *testing.T, loads []float64) *fixture {
	t.Helper()
	net := orb.NewInprocNetwork()
	f := &fixture{served: make([]int, len(loads))}

	tr := trading.NewTrader(nil)
	tr.AddType(trading.ServiceType{Name: "S"})
	traderSrv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "trader"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = traderSrv.Close() })
	traderRef := traderSrv.Register(trading.DefaultObjectKey, "", trading.NewServant(tr))

	f.client = orb.NewClient(net)
	t.Cleanup(func() { _ = f.client.Close() })
	f.lookup = trading.NewLookup(f.client, traderRef)

	for i, load := range loads {
		srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: fmt.Sprintf("h-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		idx := i
		ref := srv.Register("svc", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
			f.served[idx]++
			return []wire.Value{wire.Int(idx)}, nil
		}))
		f.refs = append(f.refs, ref)
		if _, err := tr.Export("S", ref, map[string]trading.PropValue{
			"LoadAvg": {Static: wire.Number(load)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestStaticBindsLeastLoadedAndSticks(t *testing.T) {
	f := newFixture(t, []float64{3, 1, 2})
	c := NewStatic(f.client, f.lookup, "S", "")
	ctx := context.Background()
	if err := c.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if c.proxy.Ref() != f.refs[1] {
		t.Fatalf("bound to %v, want least-loaded h-1", c.proxy.Ref())
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Invoke(ctx, "op"); err != nil {
			t.Fatal(err)
		}
	}
	if f.served[1] != 5 || f.served[0] != 0 || f.served[2] != 0 {
		t.Fatalf("served = %v, static client should stick", f.served)
	}
}

func TestStaticUnboundInvokeFails(t *testing.T) {
	f := newFixture(t, []float64{1})
	c := NewStatic(f.client, f.lookup, "S", "")
	if _, err := c.Invoke(context.Background(), "op"); err == nil {
		t.Fatal("unbound invoke succeeded")
	}
	if c.proxy != nil {
		t.Fatal("unbound client holds a proxy")
	}
}

func TestStaticNoOffers(t *testing.T) {
	f := newFixture(t, nil)
	c := NewStatic(f.client, f.lookup, "S", "")
	if err := c.Bind(context.Background()); !errors.Is(err, ErrNoOffers) {
		t.Fatalf("err = %v, want ErrNoOffers", err)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	f := newFixture(t, []float64{1, 2, 3})
	c := NewRoundRobin(f.client, f.lookup, "S")
	ctx := context.Background()
	if err := c.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := c.Invoke(ctx, "op"); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range f.served {
		if n != 3 {
			t.Fatalf("server %d served %d, want 3 (served=%v)", i, n, f.served)
		}
	}
}

func TestRoundRobinUnbound(t *testing.T) {
	f := newFixture(t, []float64{1})
	c := NewRoundRobin(f.client, f.lookup, "S")
	if _, err := c.Invoke(context.Background(), "op"); !errors.Is(err, ErrNoOffers) {
		t.Fatalf("err = %v", err)
	}
}

func TestRandomIsSeededAndCoversServers(t *testing.T) {
	f := newFixture(t, []float64{1, 2, 3})
	ctx := context.Background()

	run := func(seed int64) []int {
		for i := range f.served {
			f.served[i] = 0
		}
		c := NewRandom(f.client, f.lookup, "S", seed)
		if err := c.Bind(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			if _, err := c.Invoke(ctx, "op"); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]int, len(f.served))
		copy(out, f.served)
		return out
	}

	a := run(42)
	b := run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different distributions: %v vs %v", a, b)
		}
	}
	// Every server gets some traffic over 30 calls.
	for i, n := range a {
		if n == 0 {
			t.Fatalf("server %d starved: %v", i, a)
		}
	}
}

func TestRandomUnbound(t *testing.T) {
	f := newFixture(t, []float64{1})
	c := NewRandom(f.client, f.lookup, "S", 1)
	if _, err := c.Invoke(context.Background(), "op"); !errors.Is(err, ErrNoOffers) {
		t.Fatalf("err = %v", err)
	}
}

func TestBindAgainstUnknownTypeFails(t *testing.T) {
	f := newFixture(t, []float64{1})
	c := NewStatic(f.client, f.lookup, "Nope", "")
	if err := c.Bind(context.Background()); err == nil {
		t.Fatal("bind against unknown type succeeded")
	}
	rr := NewRoundRobin(f.client, f.lookup, "Nope")
	if err := rr.Bind(context.Background()); err == nil {
		t.Fatal("rr bind against unknown type succeeded")
	}
}
