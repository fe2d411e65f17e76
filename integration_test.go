package autoadapt

// Integration tests: the paper's Fig. 6 architecture assembled entirely
// through the public facade — trader daemon, service agents, client
// platform, smart proxy — over both transports, with IDL checking enabled.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/monitor"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

type dialSource struct{ v atomic.Value }

func newDialSource(x float64) *dialSource {
	d := &dialSource{}
	d.v.Store(x)
	return d
}

func (d *dialSource) set(x float64) { d.v.Store(x) }

func (d *dialSource) LoadAvg() (float64, float64, float64, error) {
	return d.v.Load().(float64), 0.4, 0.4, nil
}

func deployment(t *testing.T, network Network, addr func(role string) string) (*TraderHandle, *Platform, []*dialSource, []*Agent) {
	t.Helper()
	trader, err := StartTrader(TraderOptions{
		Network:  network,
		Address:  addr("trader"),
		Types:    []ServiceType{{Name: "Hello", Props: []string{"LoadAvg", "LoadAvgIncreasing", "Host"}}},
		CheckIDL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = trader.Close() })

	platform, err := Connect(network, trader.Ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = platform.Close() })

	dials := []*dialSource{newDialSource(0.2), newDialSource(0.3)}
	var agents []*Agent
	for i, d := range dials {
		name := fmt.Sprintf("srv-%d", i)
		ag, err := StartAgent(context.Background(), AgentOptions{
			Network:       network,
			Address:       addr(name),
			Lookup:        platform.Lookup,
			ServiceType:   "Hello",
			Servant:       helloServant(name),
			LoadSource:    d,
			MonitorPeriod: 25 * time.Millisecond,
			StaticProps:   map[string]wire.Value{"Host": wire.String(name)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ag.Close(context.Background()) })
		agents = append(agents, ag)
	}
	return trader, platform, dials, agents
}

func helloServant(name string) Servant {
	return ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op != "hello" {
			return nil, fmt.Errorf("no such operation %q", op)
		}
		return []wire.Value{wire.String(name)}, nil
	})
}

func runFullStack(t *testing.T, network Network, addr func(string) string) {
	t.Helper()
	_, platform, dials, agents := deployment(t, network, addr)
	ctx := context.Background()

	proxy, err := platform.NewSmartProxy(ProxyOptions{
		ServiceType:      "Hello",
		Constraint:       "LoadAvg < 1 and LoadAvgIncreasing == no",
		Preference:       "min LoadAvg",
		FallbackSortOnly: true,
		Watches: []Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(1),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *SmartProxy) error {
		_, err := p.Select(ctx, "LoadAvg < 1 and LoadAvgIncreasing == no")
		return err
	})
	if err := proxy.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	rs, err := proxy.Invoke(ctx, "hello")
	if err != nil || rs[0].Str() != "srv-0" {
		t.Fatalf("initial call = %v, %v", rs, err)
	}

	// Spike srv-0; the agent's timer-driven monitor notices and notifies.
	dials[0].set(5.0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rs, err := proxy.Invoke(ctx, "hello")
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Str() == "srv-1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy never adapted to the load spike")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := proxy.Stats(); st.Switches == 0 {
		t.Fatalf("stats = %+v", st)
	}
	_ = agents
}

func TestFullStackOverTCP(t *testing.T) {
	runFullStack(t, TCP(), func(string) string { return "127.0.0.1:0" })
}

func TestFullStackInproc(t *testing.T) {
	n := NewInprocNetwork()
	runFullStack(t, n, func(role string) string { return "it-" + role })
}

func TestTraderIDLCheckRejectsBadCalls(t *testing.T) {
	n := NewInprocNetwork()
	trader, err := StartTrader(TraderOptions{
		Network:  n,
		Address:  "idl-trader",
		Types:    []ServiceType{{Name: "S"}},
		CheckIDL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trader.Close()
	platform, err := Connect(n, trader.Ref)
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	// "query" with a numeric service type violates the Trader IDL.
	_, err = platform.Client.Invoke(context.Background(), trader.Ref, "query", wire.Number(42))
	if err == nil {
		t.Fatal("IDL-checked trader accepted a numeric service type")
	}
	// A well-typed call passes.
	if _, err := platform.Lookup.Query(context.Background(), "S", "", "", 0); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	// listTypes (inherited through Trader : Lookup, Register) works.
	rs, err := platform.Client.Invoke(context.Background(), trader.Ref, "listTypes")
	if err != nil {
		t.Fatalf("listTypes rejected: %v", err)
	}
	if tb, ok := rs[0].AsTable(); !ok || tb.Len() != 1 {
		t.Fatalf("listTypes = %v", rs[0])
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := StartTrader(TraderOptions{}); err == nil {
		t.Fatal("StartTrader without network succeeded")
	}
	if _, err := Connect(nil, ObjRef{}); err == nil {
		t.Fatal("Connect without network succeeded")
	}
}

func TestAgentOfferVisibleThroughFacadeLookup(t *testing.T) {
	n := NewInprocNetwork()
	_, platform, _, agents := deployment(t, n, func(role string) string { return "vis-" + role })
	rs, err := platform.Lookup.Query(context.Background(), "Hello", "exist Host", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("query matched %d offers, want 2", len(rs))
	}
	// Offers carry the monitors for watch installation.
	if _, ok := rs[0].Offer.MonitorFor("LoadAvg"); !ok {
		t.Fatal("offer lacks its LoadAvg monitor reference")
	}
	if rs[0].Offer.Ref != agents[0].ServiceRef() && rs[0].Offer.Ref != agents[1].ServiceRef() {
		t.Fatalf("offer ref %v does not match any agent", rs[0].Offer.Ref)
	}
}

// TestRemoteDefineAspectThroughFacade reproduces the paper's run-time
// extensibility end to end: a client ships a brand-new aspect to a running
// agent's monitor and immediately uses it as a trader constraint property.
func TestRemoteDefineAspectThroughFacade(t *testing.T) {
	n := NewInprocNetwork()
	_, platform, _, agents := deployment(t, n, func(role string) string { return "ext-" + role })
	ctx := context.Background()

	monRef := agents[0].MonitorRef()
	// Ship a new aspect: the 15-minute average.
	_, err := platform.Client.Invoke(ctx, monRef, "defineAspect",
		wire.String("Load15"), wire.String(`function(self, v, mon) return v[3] end`))
	if err != nil {
		t.Fatal(err)
	}
	if err := agents[0].Monitor().Tick(); err != nil {
		t.Fatal(err)
	}
	rs, err := platform.Client.Invoke(ctx, monRef, "getAspectValue", wire.String("Load15"))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Num() != 0.4 {
		t.Fatalf("shipped aspect value = %v, want 0.4", rs[0])
	}

	// And the trader can serve it as a dynamic property at query time.
	id, err := platform.Lookup.Export(ctx, "Hello", agents[0].ServiceRef(), map[string]PropValue{
		"Load15": {Dynamic: monRef, Aspect: "Load15"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := platform.Lookup.Withdraw(ctx, id); err != nil {
			t.Errorf("withdraw: %v", err)
		}
	}()
	qr, err := platform.Lookup.Query(ctx, "Hello", "Load15 < 1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr) == 0 {
		t.Fatal("query against the shipped aspect matched nothing")
	}
}

// TestFig6MessageFlow counts the architecture's message paths end to end
// on one adaptation cycle, asserting every arrow of Fig. 6 is exercised:
// export (agent→trader), query (client→trader), dynamic property resolve
// (trader→monitor), attach (client→monitor), notify (monitor→client),
// request (client→server).
func TestFig6MessageFlow(t *testing.T) {
	n := NewInprocNetwork()
	_, platform, dials, agents := deployment(t, n, func(role string) string { return "f6-" + role })
	ctx := context.Background()

	proxy, err := platform.NewSmartProxy(ProxyOptions{
		ServiceType: "Hello",
		Constraint:  "LoadAvg < 1",
		Preference:  "min LoadAvg",
		Watches: []Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(1),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *SmartProxy) error {
		_, err := p.Select(ctx, "LoadAvg < 1")
		return err
	})

	if err := proxy.Bind(ctx); err != nil { // query + attach
		t.Fatal(err)
	}
	if agents[0].Monitor().ObserverCount() != 1 { // attach happened
		t.Fatal("observer not attached")
	}
	if _, err := proxy.Invoke(ctx, "hello"); err != nil { // request
		t.Fatal(err)
	}
	dials[0].set(9)
	deadline := time.Now().Add(10 * time.Second)
	for len(proxy.PendingEvents()) == 0 { // notify happened
		if time.Now().After(deadline) {
			t.Fatal("notification never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := proxy.Invoke(ctx, "hello"); err != nil { // adapt + request
		t.Fatal(err)
	}
	if cur, _ := proxy.Current(); cur != agents[1].ServiceRef() {
		t.Fatalf("adaptation landed on %v", cur)
	}
	// The trading arrows: the agents exported, the proxy queried.
	if got := proxy.Stats().Selections; got < 2 {
		t.Fatalf("selections = %d, want >= 2", got)
	}
	_ = trading.DefaultObjectKey // document the well-known key this flow used
}
