package experiment

import (
	"context"
	"errors"
	"testing"
	"time"

	"autoadapt/internal/agent"
	"autoadapt/internal/clock"
	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

var e11Epoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

// e11Servant answers hello with its host name, so the test can see which
// replica served each invocation.
func e11Servant(name string) orb.Servant {
	return orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "hello" {
			return []wire.Value{wire.String("hello from " + name)}, nil
		}
		return nil, orb.Appf("no such operation %q", op)
	})
}

// e11Settle advances the simulated clock by d and waits until the world's
// goroutines (trader reaper, host-2's monitor and heartbeat) have re-armed
// their timers, so sim-driven state is stable before asserting.
func e11Settle(t *testing.T, sim *clock.Sim, d time.Duration, timers int) {
	t.Helper()
	sim.Advance(d)
	deadline := time.Now().Add(5 * time.Second)
	for sim.PendingTimers() != timers {
		if time.Now().After(deadline) {
			t.Fatalf("pending timers stuck at %d, want %d", sim.PendingTimers(), timers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE11CrashFailover is experiment E11: an agent crashes mid-load (its
// connection is severed by the fault injector and its process is gone), and
// the liveness layer heals around it end to end —
//
//   - the failover smart proxy re-queries the trader, skips the dead
//     replica's still-registered offer, and completes the invocation on the
//     survivor (no invocation lost);
//   - the crashed agent's offer, never renewed, drops out of Query and
//     OfferCount within one lease TTL and is reaped;
//   - the circuit breaker answers further invocations of the dead endpoint
//     in a fraction of the retry/backoff path's time, without dialing.
func TestE11CrashFailover(t *testing.T) {
	ctx := context.Background()
	sim := clock.NewSim(e11Epoch)
	base := orb.NewInprocNetwork()
	fnet := orb.NewFaultNetwork(base)

	// Trader on the simulated clock: 30s offer leases, reaped every 10s.
	resolver := orb.NewClient(base)
	defer resolver.Close()
	tr := trading.NewTrader(trading.ClientResolver{Client: resolver})
	tr.SetClock(sim)
	tr.SetLeaseTTL(30 * time.Second)
	tr.AddType(trading.ServiceType{Name: ServiceTypeName, Interface: "Service"})
	stopReaper := tr.StartReaper(10 * time.Second)
	defer stopReaper()
	trSrv, err := orb.NewServer(orb.ServerOptions{Network: base, Address: "trader"})
	if err != nil {
		t.Fatal(err)
	}
	defer trSrv.Close()
	trRef := trSrv.Register(trading.DefaultObjectKey, "", trading.NewServant(tr))

	// Control plane (trader queries, exports) on a clean client.
	ctl := orb.NewClient(base)
	defer ctl.Close()
	lookup := trading.NewLookup(ctl, trRef)

	// host-1: the replica that will crash. Its offer carries a static (low)
	// LoadAvg, making it the preferred replica — and, once crashed, nothing
	// renews its lease.
	h1, err := orb.NewServer(orb.ServerOptions{Network: base, Address: "host-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	ref1 := h1.Register("service", "", e11Servant("host-1"))
	if _, err := tr.Export(ServiceTypeName, ref1, map[string]trading.PropValue{
		"LoadAvg": {Static: wire.Number(0.2)},
		"Host":    {Static: wire.String("host-1")},
	}); err != nil {
		t.Fatal(err)
	}

	// host-2: a live agent whose heartbeat keeps its lease renewed.
	ag, err := agent.Start(ctx, agent.Options{
		Network:     base,
		Address:     "host-2",
		Lookup:      lookup,
		ServiceType: ServiceTypeName,
		Servant:     e11Servant("host-2"),
		LoadSource: monitor.LoadSourceFunc(func() (float64, float64, float64, error) {
			return 1.5, 1.5, 1.5, nil
		}),
		Clock:       sim,
		LeaseTTL:    30 * time.Second,
		StaticProps: map[string]wire.Value{"Host": wire.String("host-2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close(context.Background())
	ref2 := ag.ServiceRef()

	// Data plane: the failover proxy invokes through the fault injector
	// with retry/backoff and a per-endpoint circuit breaker.
	cli := orb.NewClientOpts(orb.ClientOptions{
		Networks: []orb.Network{fnet},
		Retry:    orb.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Millisecond},
		Breaker:  orb.BreakerPolicy{Threshold: 3, Cooldown: time.Hour},
	})
	defer cli.Close()
	sp := e11Proxy(t, cli, lookup)
	if cur, _ := sp.Current(); cur != ref1 {
		t.Fatalf("initial binding = %v, want the preferred host-1", cur)
	}

	// Steady load against host-1; its connection is armed to be severed
	// after the third reply — the crash happens mid-load.
	fnet.SeverNextConnAfterFrames(3)
	for i := 0; i < 3; i++ {
		rs, err := sp.Invoke(ctx, "hello")
		if err != nil || rs[0].Str() != "hello from host-1" {
			t.Fatalf("warm invoke %d = %v, %v", i, rs, err)
		}
	}

	// The crash: the in-flight connection is dead (sever) and so is the
	// process (server closed). The trader still lists host-1's offer — its
	// lease has not expired — so the proxy must skip the ref that just
	// failed, not trust the trader blindly.
	_ = h1.Close()
	if n := tr.OfferCount(); n != 2 {
		t.Fatalf("offers right after crash = %d, want 2 (lease not yet expired)", n)
	}
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("invocation lost in the crash: %v", err)
	}
	if rs[0].Str() != "hello from host-2" {
		t.Fatalf("post-crash reply = %q, want the survivor", rs[0].Str())
	}
	if st := sp.Stats(); st.Switches != 1 {
		t.Fatalf("stats after failover = %+v, want exactly one switch", st)
	}

	// Breaker criterion, measured on a fresh client so the attempt count
	// is deterministic: the first invocation of the dead endpoint burns
	// the full retry/backoff path (3 dials, 20ms+40ms backoff) and trips
	// the breaker; the second fails fast without touching the network.
	cli2 := orb.NewClientOpts(orb.ClientOptions{
		Networks: []orb.Network{fnet},
		Retry:    orb.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Millisecond},
		Breaker:  orb.BreakerPolicy{Threshold: 3, Cooldown: time.Hour},
	})
	defer cli2.Close()
	start := time.Now()
	if _, err := cli2.Invoke(ctx, ref1, "hello"); err == nil {
		t.Fatal("invoking the crashed host succeeded")
	}
	d1 := time.Since(start)
	if d1 < 60*time.Millisecond {
		t.Fatalf("retry path took %v, want >= 60ms of backoff", d1)
	}
	if state := cli2.BreakerState(ref1.Endpoint); state != orb.BreakerOpen {
		t.Fatalf("breaker after retry path = %s, want open", state)
	}
	dialsBefore := fnet.Dials()
	start = time.Now()
	_, err = cli2.Invoke(ctx, ref1, "hello")
	d2 := time.Since(start)
	if !errors.Is(err, orb.ErrCircuitOpen) {
		t.Fatalf("fast-fail err = %v, want ErrCircuitOpen", err)
	}
	if fnet.Dials() != dialsBefore {
		t.Fatal("breaker fast-fail dialed the dead endpoint")
	}
	if d2 > d1/4 {
		t.Fatalf("fast-fail took %v vs retry path %v; want <= 1/4", d2, d1)
	}
	t.Logf("E11 latency: retry/backoff path %v, breaker fast-fail %v", d1, d2)

	// Lease criterion: within one TTL of the crash, the dead offer stops
	// matching while host-2's heartbeat keeps the survivor registered.
	// Steady sim timers: trader reaper + host-2 monitor + host-2 heartbeat.
	for i := 0; i < 7; i++ { // 35 simulated seconds in 5s steps
		e11Settle(t, sim, 5*time.Second, 3)
	}
	if n := tr.OfferCount(); n != 1 {
		t.Fatalf("offers one TTL after crash = %d, want only the survivor", n)
	}
	results, err := lookup.Query(ctx, ServiceTypeName, "", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Offer.Ref != ref2 {
		t.Fatalf("query one TTL after crash = %v, want only host-2", results)
	}

	// A client binding fresh now never even sees the dead replica.
	if cur, _ := e11Proxy(t, cli, lookup).Current(); cur != ref2 {
		t.Fatalf("fresh binding = %v, want host-2", cur)
	}
}

// e11Proxy binds a failover smart proxy to the least-loaded replica.
func e11Proxy(t *testing.T, cli *orb.Client, lookup trading.Directory) *core.SmartProxy {
	t.Helper()
	sp, err := core.New(core.Options{
		Client:      cli,
		Lookup:      lookup,
		ServiceType: ServiceTypeName,
		Preference:  "min LoadAvg",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	if err := sp.SetScriptStrategy(core.EventFailed, core.FailoverStrategy); err != nil {
		t.Fatal(err)
	}
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	return sp
}
