package agent

import (
	"context"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

var epoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	net    *orb.InprocNetwork
	trader *trading.Trader
	lookup *trading.Lookup
	client *orb.Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{net: orb.NewInprocNetwork()}
	resolver := orb.NewClient(f.net)
	t.Cleanup(func() { _ = resolver.Close() })
	f.trader = trading.NewTrader(trading.ClientResolver{Client: resolver})
	f.trader.AddType(trading.ServiceType{Name: "LoadShared"})
	srv, err := orb.NewServer(orb.ServerOptions{Network: f.net, Address: "trader"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ref := srv.Register(trading.DefaultObjectKey, "", trading.NewServant(f.trader))
	f.client = orb.NewClient(f.net)
	t.Cleanup(func() { _ = f.client.Close() })
	f.lookup = trading.NewLookup(f.client, ref)
	return f
}

func steadyLoad(one, five, fifteen float64) monitor.LoadSource {
	return monitor.LoadSourceFunc(func() (float64, float64, float64, error) {
		return one, five, fifteen, nil
	})
}

func helloServant(name string) orb.Servant {
	return orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return []wire.Value{wire.String("hello from " + name)}, nil
	})
}

func startAgent(t *testing.T, f *fixture, addr string, opts func(*Options)) *Agent {
	t.Helper()
	o := Options{
		Network:     f.net,
		Address:     addr,
		Lookup:      f.lookup,
		ServiceType: "LoadShared",
		Servant:     helloServant(addr),
		LoadSource:  steadyLoad(0.5, 0.6, 0.7),
		Clock:       clock.NewSim(epoch),
		StaticProps: map[string]wire.Value{"Host": wire.String(addr)},
	}
	if opts != nil {
		opts(&o)
	}
	a, err := Start(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close(context.Background()) })
	return a
}

func TestStartExportsOfferWithDynamicProps(t *testing.T) {
	f := newFixture(t)
	a := startAgent(t, f, "host-a", nil)
	if a.OfferID() == "" {
		t.Fatal("no offer id")
	}
	if f.trader.OfferCount() != 1 {
		t.Fatalf("offers = %d", f.trader.OfferCount())
	}
	// Snapshots are demand-driven: reference LoadAvgIncreasing in the
	// constraint so its value is resolved and lands in the snapshot.
	rs, err := f.lookup.Query(context.Background(), "LoadShared", "LoadAvg < 1 and LoadAvgIncreasing == no", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("query matched %d offers", len(rs))
	}
	if rs[0].Snapshot["LoadAvg"].Num() != 0.5 {
		t.Fatalf("LoadAvg snapshot = %v", rs[0].Snapshot["LoadAvg"])
	}
	if rs[0].Snapshot["Host"].Str() != "host-a" {
		t.Fatalf("Host snapshot = %v", rs[0].Snapshot["Host"])
	}
	// Increasing aspect present and "no" (0.5 < 0.6).
	if rs[0].Snapshot["LoadAvgIncreasing"].Str() != "no" {
		t.Fatalf("Increasing = %v", rs[0].Snapshot["LoadAvgIncreasing"])
	}
	// The service itself is callable through the offer's reference.
	out, err := f.client.Invoke(context.Background(), rs[0].Offer.Ref, "anything")
	if err != nil || out[0].Str() != "hello from host-a" {
		t.Fatalf("service call = %v, %v", out, err)
	}
}

func TestCloseWithdrawsOffer(t *testing.T) {
	f := newFixture(t)
	a := startAgent(t, f, "host-b", nil)
	if err := a.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.trader.OfferCount() != 0 {
		t.Fatalf("offer not withdrawn: %d", f.trader.OfferCount())
	}
	// Idempotent-ish: closing again does not withdraw twice or fail hard.
	if err := a.Close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestConfigScriptPrimitives(t *testing.T) {
	f := newFixture(t)
	a := startAgent(t, f, "host-c", func(o *Options) {
		o.ConfigScript = `
			log("configuring host-c")
			setprop("Region", "lab-3")
			defineaspect("Load15", [[function(self, v, mon) return v[3] end]])
			exportaspect("LoadAvg15", "Load15")
		`
	})
	// Reference the script-exported aspect so the demand-driven snapshot
	// resolves it.
	rs, err := f.lookup.Query(context.Background(), "LoadShared", "Region == 'lab-3'", "min LoadAvg15", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("static prop from script not exported: %d matches", len(rs))
	}
	if got := rs[0].Snapshot["LoadAvg15"].Num(); got != 0.7 {
		t.Fatalf("script-exported dynamic aspect = %v, want 0.7", got)
	}
	_ = a
}

func TestConfigScriptErrors(t *testing.T) {
	f := newFixture(t)
	o := Options{
		Network:      f.net,
		Address:      "host-err",
		Lookup:       f.lookup,
		ServiceType:  "LoadShared",
		Servant:      helloServant("x"),
		LoadSource:   steadyLoad(0, 0, 0),
		Clock:        clock.NewSim(epoch),
		ConfigScript: "this is not valid syntax (",
	}
	if _, err := Start(context.Background(), o); err == nil {
		t.Fatal("bad config script accepted")
	}
	// The failed agent must not leak its inproc address.
	if _, err := f.net.Listen("host-err"); err != nil {
		t.Fatalf("address leaked after failed start: %v", err)
	}
}

func TestStartValidation(t *testing.T) {
	f := newFixture(t)
	base := Options{
		Network: f.net, Address: "x", Lookup: f.lookup,
		ServiceType: "LoadShared", Servant: helloServant("x"),
		LoadSource: steadyLoad(0, 0, 0),
	}
	cases := []func(o *Options){
		func(o *Options) { o.Network = nil },
		func(o *Options) { o.Lookup = nil },
		func(o *Options) { o.ServiceType = "" },
		func(o *Options) { o.Servant = nil },
		func(o *Options) { o.LoadSource = nil },
	}
	for i, mutate := range cases {
		o := base
		mutate(&o)
		if _, err := Start(context.Background(), o); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestExportFailureCleansUp(t *testing.T) {
	f := newFixture(t)
	o := Options{
		Network: f.net, Address: "host-x", Lookup: f.lookup,
		ServiceType: "UnknownType", Servant: helloServant("x"),
		LoadSource: steadyLoad(0, 0, 0), Clock: clock.NewSim(epoch),
	}
	if _, err := Start(context.Background(), o); err == nil {
		t.Fatal("export against unknown type succeeded")
	}
	if _, err := f.net.Listen("host-x"); err != nil {
		t.Fatalf("address leaked after failed export: %v", err)
	}
}

// TestAgentEndToEndWithSmartProxy is the full Fig. 6 stack through the
// public pieces: two agents, a trader, and a smart proxy client.
func TestAgentEndToEndWithSmartProxy(t *testing.T) {
	f := newFixture(t)
	loadA := 0.3
	a1 := startAgent(t, f, "host-1", func(o *Options) {
		// Five-minute average pinned at 0.4: steady while loadA is low,
		// "increasing" once loadA spikes above it.
		o.LoadSource = monitor.LoadSourceFunc(func() (float64, float64, float64, error) {
			return loadA, 0.4, 0.4, nil
		})
	})
	startAgent(t, f, "host-2", func(o *Options) {
		o.LoadSource = steadyLoad(1.5, 1.6, 1.7)
	})

	sp, err := core.New(core.Options{
		Client:      f.client,
		Lookup:      f.lookup,
		ServiceType: "LoadShared",
		Constraint:  "LoadAvg < 2 and LoadAvgIncreasing == no",
		Preference:  "min LoadAvg",
		Watches: []core.Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(1),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	sp.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *core.SmartProxy) error {
		_, err := p.Select(ctx, "LoadAvg < 2 and LoadAvgIncreasing == no")
		return err
	})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	ref, _ := sp.Current()
	if ref != a1.ServiceRef() {
		t.Fatalf("bound to %v, want host-1", ref)
	}
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil || rs[0].Str() != "hello from host-1" {
		t.Fatalf("invoke = %v, %v", rs, err)
	}

	// host-1's load spikes above the watch limit and rises.
	loadA = 2.5
	if err := a1.Monitor().Tick(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sp.PendingEvents()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watch never fired")
		}
		time.Sleep(time.Millisecond)
	}
	rs, err = sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Str() != "hello from host-2" {
		t.Fatalf("after adaptation: %q", rs[0].Str())
	}
}
