package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// testWorld wires up the paper's Fig. 6 architecture in-process: a trader,
// N server hosts (each a service servant + a push-fed LoadAvg monitor with
// the Increasing aspect), and a client.
type testWorld struct {
	t        *testing.T
	net      *orb.InprocNetwork
	client   *orb.Client
	lookup   *trading.Lookup
	trader   *trading.Trader
	monitors []*monitor.Monitor
	hosts    []*orb.Server
	served   []*atomic.Int64
}

func newWorld(t *testing.T, n int) *testWorld {
	t.Helper()
	w := &testWorld{t: t, net: orb.NewInprocNetwork()}

	resolver := orb.NewClient(w.net)
	t.Cleanup(func() { _ = resolver.Close() })
	w.trader = trading.NewTrader(trading.ClientResolver{Client: resolver})
	w.trader.AddType(trading.ServiceType{Name: "LoadShared", Interface: "Service"})
	traderSrv, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: "trader"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = traderSrv.Close() })
	traderRef := traderSrv.Register(trading.DefaultObjectKey, "", trading.NewServant(w.trader))

	w.client = orb.NewClient(w.net)
	t.Cleanup(func() { _ = w.client.Close() })
	w.lookup = trading.NewLookup(w.client, traderRef)

	for i := 0; i < n; i++ {
		host, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: fmt.Sprintf("host-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = host.Close() })
		w.hosts = append(w.hosts, host)

		m, err := monitor.New(monitor.Options{Name: "LoadAvg"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if err := m.DefineAspect("Increasing", monitor.IncreasingAspectSrc); err != nil {
			t.Fatal(err)
		}
		if err := m.DefineAspect(monitor.Load1Aspect, monitor.Load1AspectSrc); err != nil {
			t.Fatal(err)
		}
		w.monitors = append(w.monitors, m)
		monRef := host.Register("monitor/LoadAvg", "", monitor.NewServant(m))

		served := &atomic.Int64{}
		w.served = append(w.served, served)
		hostIdx := i
		svcRef := host.Register("service", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
			if op != "hello" {
				return nil, orb.Appf("no such operation %q", op)
			}
			served.Add(1)
			return []wire.Value{wire.String(fmt.Sprintf("hello from host-%d", hostIdx))}, nil
		}))

		_, err = w.trader.Export("LoadShared", svcRef, map[string]trading.PropValue{
			"LoadAvg":           {Dynamic: monRef, Aspect: monitor.Load1Aspect},
			"LoadAvgIncreasing": {Dynamic: monRef, Aspect: "Increasing"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// setLoad pushes load averages to host i's monitor and ticks it.
func (w *testWorld) setLoad(i int, one, five, fifteen float64) {
	w.t.Helper()
	v := wire.TableVal(wire.NewList(wire.Number(one), wire.Number(five), wire.Number(fifteen)))
	if err := w.monitors[i].SetValue(v); err != nil {
		w.t.Fatal(err)
	}
	if err := w.monitors[i].Tick(); err != nil {
		w.t.Fatal(err)
	}
}

func (w *testWorld) newProxy(opts Options) *SmartProxy {
	w.t.Helper()
	opts.Client = w.client
	opts.Lookup = w.lookup
	opts.ServiceType = "LoadShared"
	if opts.Constraint == "" {
		opts.Constraint = "LoadAvg < 50 and LoadAvgIncreasing == no"
	}
	if opts.Preference == "" {
		opts.Preference = "min LoadAvg"
	}
	sp, err := New(opts)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(sp.Close)
	return sp
}

// install installs the shipped strategy src for event on sp.
func install(t *testing.T, sp *SmartProxy, event, src string) *SmartProxy {
	t.Helper()
	if err := sp.SetScriptStrategy(event, src); err != nil {
		t.Fatal(err)
	}
	return sp
}

func hostRef(i int) wire.ObjRef {
	return wire.ObjRef{Endpoint: fmt.Sprintf("inproc|host-%d", i), Key: "service"}
}

func TestBindSelectsLeastLoaded(t *testing.T) {
	w := newWorld(t, 3)
	w.setLoad(0, 40, 45, 45) // ok but not best
	w.setLoad(1, 10, 15, 15) // best
	w.setLoad(2, 70, 60, 50) // excluded: over limit and rising
	sp := w.newProxy(Options{})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, _ := sp.Current()
	if ref != hostRef(1) {
		t.Fatalf("bound to %v, want host-1", ref)
	}
}

func TestBindExcludesRisingHosts(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 20, 10, 10) // least loaded but rising (20 > 10)
	w.setLoad(1, 30, 35, 35) // steady
	sp := w.newProxy(Options{})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, _ := sp.Current()
	if ref != hostRef(1) {
		t.Fatalf("bound to %v, want the non-rising host-1", ref)
	}
}

func TestBindFallbackSortOnly(t *testing.T) {
	// Every host violates the constraint: the fallback query picks the
	// least loaded anyway (paper §V).
	w := newWorld(t, 3)
	w.setLoad(0, 90, 50, 50)
	w.setLoad(1, 60, 50, 50)
	w.setLoad(2, 80, 50, 50)
	sp := install(t, w.newProxy(Options{}), EventNoMatch, SortOnlyStrategy)
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, _ := sp.Current()
	if ref != hostRef(1) {
		t.Fatalf("fallback bound to %v, want host-1", ref)
	}
}

func TestBindNoOfferWithoutFallback(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 90, 50, 50)
	sp := w.newProxy(Options{})
	if err := sp.Bind(context.Background()); !errors.Is(err, ErrNoOffer) {
		t.Fatalf("err = %v, want ErrNoOffer", err)
	}
}

func TestInvokeForwardsToSelected(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 5, 5, 5)
	w.setLoad(1, 40, 40, 40)
	sp := w.newProxy(Options{})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	rs, err := sp.Invoke(context.Background(), "hello")
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Str() != "hello from host-0" {
		t.Fatalf("reply = %q", rs[0].Str())
	}
	if w.served[0].Load() != 1 || w.served[1].Load() != 0 {
		t.Fatalf("served = %d/%d", w.served[0].Load(), w.served[1].Load())
	}
}

func TestInvokeUnboundFails(t *testing.T) {
	w := newWorld(t, 1)
	sp := w.newProxy(Options{})
	if _, err := sp.Invoke(context.Background(), "hello"); !errors.Is(err, ErrNotBound) {
		t.Fatalf("err = %v, want ErrNotBound", err)
	}
}

func TestEventQueuedAndHandledBeforeNextInvocation(t *testing.T) {
	// The paper's full §V loop with a Go strategy: watch LoadIncrease,
	// queue the notification, and switch servers on the next invocation.
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{
		Watches: []Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(50),
		}},
	})
	strategyRuns := 0
	sp.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *SmartProxy) error {
		strategyRuns++
		_, err := p.Select(ctx, "LoadAvg < 50 and LoadAvgIncreasing == no")
		return err
	})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	ref, _ := sp.Current()
	if ref != hostRef(0) {
		t.Fatalf("initial binding = %v", ref)
	}
	if w.monitors[0].ObserverCount() != 1 {
		t.Fatalf("observer not attached to host-0 monitor")
	}

	// Load on host-0 spikes and rises: the monitor notifies the proxy.
	w.setLoad(0, 60, 30, 20)
	waitFor(t, func() bool { return len(sp.PendingEvents()) == 1 })
	if strategyRuns != 0 {
		t.Fatal("strategy ran before the next invocation (should be postponed)")
	}

	// Next invocation adapts first, then lands on host-1.
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if strategyRuns != 1 {
		t.Fatalf("strategy runs = %d, want 1", strategyRuns)
	}
	if rs[0].Str() != "hello from host-1" {
		t.Fatalf("post-adaptation reply = %q", rs[0].Str())
	}
	ref, _ = sp.Current()
	if ref != hostRef(1) {
		t.Fatalf("current = %v, want host-1", ref)
	}
	// Observations moved: host-0's monitor no longer has our observer,
	// host-1's does.
	waitFor(t, func() bool { return w.monitors[0].ObserverCount() == 0 })
	if w.monitors[1].ObserverCount() != 1 {
		t.Fatal("observer not attached to new server's monitor")
	}
	st := sp.Stats()
	if st.Switches != 1 || st.EventsHandled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWatchFallsBackToOnewayObserver covers monitors that predate push: a
// servant without EventSource refuses Subscribe, and the proxy still binds,
// skipping the watch rather than falling back to a oneway observer.
func TestWatchFallsBackToOnewayObserver(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)

	// Re-register host-0's monitor behind a plain Servant wrapper: same
	// operations, but no Subscribe.
	inner := monitor.NewServant(w.monitors[0])
	w.hosts[0].Register("monitor/LoadAvg", "", orb.ServantFunc(inner.Invoke))

	sp := w.newProxy(Options{
		Watches: []Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(50),
		}},
	})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatalf("bound to %v", ref)
	}
	if n := w.monitors[0].ObserverCount(); n != 0 {
		t.Fatalf("refused watch left %d observers on the monitor", n)
	}
}

func TestDuplicateEventsCollapse(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	sp.OnEvent("E")
	sp.OnEvent("E")
	sp.OnEvent("F")
	if got := sp.PendingEvents(); len(got) != 2 {
		t.Fatalf("pending = %v, want [E F]", got)
	}
}

func TestImmediateModeRunsStrategyInUpcall(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{Immediate: true})
	ran := make(chan struct{}, 1)
	sp.SetStrategy("E", func(ctx context.Context, p *SmartProxy) error {
		ran <- struct{}{}
		return nil
	})
	sp.OnEvent("E")
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("immediate strategy did not run in upcall")
	}
	if len(sp.PendingEvents()) != 0 {
		t.Fatal("immediate mode queued the event")
	}
}

func TestExplicitAdapt(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	runs := 0
	sp.SetStrategy("E", func(ctx context.Context, p *SmartProxy) error {
		runs++
		return nil
	})
	sp.OnEvent("E")
	if err := sp.Adapt(context.Background()); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("runs = %d", runs)
	}
	// Queue drained.
	if err := sp.Adapt(context.Background()); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatal("Adapt re-ran a drained event")
	}
}

func TestStrategyErrorDoesNotBreakInvocation(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	sp.SetStrategy("E", func(ctx context.Context, p *SmartProxy) error {
		return errors.New("strategy exploded")
	})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	sp.OnEvent("E")
	if _, err := sp.Invoke(context.Background(), "hello"); err != nil {
		t.Fatalf("invocation failed because of strategy error: %v", err)
	}
}

func TestKeepServerWhenRequeryFindsNothing(t *testing.T) {
	// Fig. 7 lines 9-17: if _select finds no better server, keep the
	// current one (and the strategy may relax the watch threshold).
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 80, 70, 60)
	sp := w.newProxy(Options{})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	// Now both hosts get loaded; re-selection finds nothing.
	w.setLoad(0, 90, 60, 50)
	ok, err := sp.Select(ctx, "LoadAvg < 50 and LoadAvgIncreasing == no")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("select reported success with every host loaded")
	}
	ref, _ := sp.Current()
	if ref != hostRef(0) {
		t.Fatalf("proxy abandoned its server: %v", ref)
	}
}

func TestRebindSameServerKeepsObservations(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{
		Watches: []Watch{{Prop: "LoadAvg", Event: "E", Predicate: "function() return false end"}},
	})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if w.monitors[0].ObserverCount() != 1 {
		t.Fatal("observer not attached")
	}
	// Re-select the same host: no detach/re-attach churn.
	if _, err := sp.Select(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if w.monitors[0].ObserverCount() != 1 {
		t.Fatalf("observer count after same-server rebind = %d", w.monitors[0].ObserverCount())
	}
	st := sp.Stats()
	if st.Switches != 0 {
		t.Fatalf("switches = %d, want 0", st.Switches)
	}
}

func TestCloseDetachesAndRejects(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{
		Watches: []Watch{{Prop: "LoadAvg", Event: "E", Predicate: "function() return false end"}},
	})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	sp.Close()
	sp.Close() // idempotent
	// The monitor-side detach rides the unsubscribe frame, so it lands
	// asynchronously.
	waitFor(t, func() bool { return w.monitors[0].ObserverCount() == 0 })
	if _, err := sp.Invoke(context.Background(), "hello"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke after close = %v", err)
	}
	if _, err := sp.Select(context.Background(), ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Select after close = %v", err)
	}
}

// fig7Strategies is the paper's Fig. 7 adaptation strategy, adapted only in
// its comment syntax: on LoadIncrease, look for an alternative server; if
// none exists, keep the current one and relax the performance requirement
// from 50 to 70.
const fig7Strategies = `{
	LoadIncrease = function(self)
		-- get the current load average
		self._loadavg = self._loadavgmon:getValue()
		-- look for an alternative server
		local query
		query = "LoadAvg < 50 and LoadAvgIncreasing == no"
		if not self:_select(query) then
			self._loadavgmon:attachEventObserver(
				self._observer,
				"LoadIncrease",
				[[function(observer, value, monitor)
					local incr
					incr = monitor:getAspectValue("Increasing")
					return value[1] > 70 and incr == "yes"
				end]])
		end
	end
}`

// TestPaperFig7ScriptStrategy runs fig7Strategies through the script
// strategy bridge: first a switch, then a relaxation.
func TestPaperFig7ScriptStrategy(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{
		Watches: []Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(50),
		}},
	})
	if err := sp.SetScriptStrategiesTable(fig7Strategies); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	ref, _ := sp.Current()
	if ref != hostRef(0) {
		t.Fatalf("initial binding = %v", ref)
	}

	// Case 1: host-0 spikes, host-1 is fine → strategy switches servers.
	w.setLoad(0, 60, 30, 20)
	waitFor(t, func() bool { return len(sp.PendingEvents()) == 1 })
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	ref, _ = sp.Current()
	if ref != hostRef(1) {
		t.Fatalf("after adaptation: current = %v, want host-1", ref)
	}

	// Case 2: both hosts loaded → strategy keeps host-1 and relaxes the
	// threshold to 70 by re-subscribing with the laxer predicate (the old
	// subscription closes, so the count settles back at one).
	before := w.monitors[1].ObserverCount()
	w.setLoad(0, 90, 50, 40)
	w.setLoad(1, 60, 30, 20) // rising and over 50: fires the watch
	waitFor(t, func() bool { return len(sp.PendingEvents()) == 1 })
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	ref, _ = sp.Current()
	if ref != hostRef(1) {
		t.Fatalf("strategy abandoned host-1 for %v", ref)
	}
	waitFor(t, func() bool { return w.monitors[1].ObserverCount() == before })

	// The relaxed predicate ignores load 60 (old threshold exceeded, new
	// one not) but fires at 75. Predicate evaluation happens inside Tick,
	// so "no event" is deterministic here; only delivery is asynchronous.
	w.setLoad(1, 60, 30, 20)
	if n := len(sp.PendingEvents()); n != 0 {
		t.Fatalf("relaxed watch fired below its limit: %d pending", n)
	}
	w.setLoad(1, 75, 40, 30)
	waitFor(t, func() bool { return len(sp.PendingEvents()) >= 1 })
}

// TestFig7RearmResubscribes follows one relaxed watch through its life on a
// proxy built like the benchmark's (client, lookup and watches only): the
// re-arm replaces the strict subscription, the relaxed predicate fires at
// 75 and not at 60, and a later switch closes it.
func TestFig7RearmResubscribes(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 90, 80, 70) // excluded until it cools down
	sp, err := New(Options{
		Client:      w.client,
		Lookup:      w.lookup,
		ServiceType: "LoadShared",
		Constraint:  "LoadAvg < 50 and LoadAvgIncreasing == no",
		Preference:  "min LoadAvg",
		Watches: []Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(50),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	if err := sp.SetScriptStrategiesTable(fig7Strategies); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	mon := w.monitors[0]
	if n := mon.ObserverCount(); n != 1 {
		t.Fatalf("observers after bind = %d, want 1", n)
	}

	// host-0 crosses 50 with nowhere to go: the strategy relaxes to 70.
	w.setLoad(0, 60, 30, 20)
	waitFor(t, func() bool { return len(sp.PendingEvents()) == 1 })
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatalf("strategy abandoned host-0 for %v", ref)
	}
	waitFor(t, func() bool { return mon.ObserverCount() == 1 })

	w.setLoad(0, 60, 30, 20)
	if n := len(sp.PendingEvents()); n != 0 {
		t.Fatalf("relaxed watch fired at 60: %d pending", n)
	}
	w.setLoad(0, 75, 40, 30)
	waitFor(t, func() bool { return len(sp.PendingEvents()) == 1 })

	// host-1 cools down, so the next activation switches: the relaxed
	// subscription on host-0 closes and the strict watch opens on host-1.
	w.setLoad(1, 10, 15, 15)
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatal(err)
	}
	if ref, _ := sp.Current(); ref != hostRef(1) {
		t.Fatalf("after relief: current = %v, want host-1", ref)
	}
	waitFor(t, func() bool { return mon.ObserverCount() == 0 })
	if n := w.monitors[1].ObserverCount(); n != 1 {
		t.Fatalf("observers on host-1 = %d, want 1", n)
	}
}

// TestStrategyDeadlineBoundsRemoteCalls: a strategy's remote calls run
// under the invocation's context, so a strategy stuck on a wedged server
// cannot hold Invoke past the caller's deadline.
func TestStrategyDeadlineBoundsRemoteCalls(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	release := make(chan struct{})
	w.hosts[0].Register("wedge", "", orb.ServantFunc(func(string, []wire.Value) ([]wire.Value, error) {
		<-release
		return nil, nil
	}))
	t.Cleanup(func() { close(release) }) // runs before the host closes
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Stall", `function(self)
		orb.invoke(orb.ref("inproc|host-0/wedge"), "hang")
	end`); err != nil {
		t.Fatal(err)
	}
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	sp.OnEvent("Stall")

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := sp.Invoke(ctx, "hello")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Invoke = %v, want the caller's deadline", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Invoke still blocked 3s after a 200ms deadline")
	}
}

func TestScriptStrategyCompileErrors(t *testing.T) {
	w := newWorld(t, 1)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("E", "not valid ("); err == nil {
		t.Fatal("malformed strategy accepted")
	}
	if err := sp.SetScriptStrategy("E", "42"); err == nil {
		t.Fatal("non-function strategy accepted")
	}
	if err := sp.SetScriptStrategiesTable("42"); err == nil {
		t.Fatal("non-table strategies accepted")
	}
	if err := sp.SetScriptStrategiesTable("{ E = 42 }"); err == nil {
		t.Fatal("non-function table entry accepted")
	}
	if err := sp.SetScriptStrategiesTable("syntax error ("); err == nil {
		t.Fatal("malformed table accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("missing client accepted")
	}
	client := orb.NewClient(orb.NewInprocNetwork())
	defer client.Close()
	sp, err := New(Options{Client: client, Watches: []Watch{{}}})
	if err != nil {
		t.Fatalf("watches rejected: %v", err)
	}
	sp.Close()
}

func TestSelectWithoutLookup(t *testing.T) {
	client := orb.NewClient(orb.NewInprocNetwork())
	defer client.Close()
	sp, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if _, err := sp.Select(context.Background(), ""); err == nil {
		t.Fatal("select without lookup succeeded")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScriptStrategyUsesORBAndTraderBindings verifies strategies have the
// full LuaCorba/LuaTrading surface: arbitrary invocations and direct
// trader queries, not just the curated self object.
func TestScriptStrategyUsesORBAndTraderBindings(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{})
	err := sp.SetScriptStrategy("Probe", `function(self)
		-- Query the trader directly and invoke the best offer via orb.
		local offers = trader.query("LoadShared", "", "min LoadAvg", 1)
		assert(#offers == 1, "expected one offer")
		probe_reply = orb.invoke(offers[1].ref, "hello")
	end`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	sp.OnEvent("Probe")
	if _, err := sp.Invoke(context.Background(), "hello"); err != nil {
		t.Fatal(err)
	}
	// The strategy stored its reply in a script global; fish it out.
	vs, err := sp.in.Eval("check", "return probe_reply")
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Str() != "hello from host-0" {
		t.Fatalf("strategy's orb.invoke result = %q", vs[0].Str())
	}
}

// TestScriptSelfSharesOneMonitorObject: the Fig. 6 offer serves LoadAvg and
// LoadAvgIncreasing from one monitor, so every name self binds for them is
// the same object, and its getAspectValues reads both in one call.
func TestScriptSelfSharesOneMonitorObject(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	err := sp.SetScriptStrategy("Probe", `function(self)
		assert(self._loadavgmon == self._loadavgincreasingmon, "two objects for one monitor")
		assert(self._monitor_LoadAvg == self._loadavgmon and self._monitor_LoadAvgIncreasing == self._loadavgmon)
		probe_load, probe_incr, probe_value = self._loadavgmon:getAspectValues("Load1", "Increasing", "")
	end`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	sp.OnEvent("Probe")
	if err := sp.Adapt(context.Background()); err != nil {
		t.Fatal(err)
	}
	vs, err := sp.in.Eval("check", "return probe_load, probe_incr, probe_value[2]")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0].Num() != 10 || vs[1].Str() != "no" || vs[2].Num() != 15 {
		t.Fatalf("getAspectValues from a strategy = %v", vs)
	}
}

func TestFailoverReselectsOnServerCrash(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := install(t, w.newProxy(Options{}), EventFailed, FailoverStrategy)
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatalf("bound to %v", ref)
	}
	// host-0 crashes: its server (service + monitor) goes away entirely.
	_ = w.hosts[0].Close()
	rs, err := sp.Invoke(ctx, "hello")
	if err != nil {
		t.Fatalf("failover invoke: %v", err)
	}
	if rs[0].Str() != "hello from host-1" {
		t.Fatalf("failover answered %q", rs[0].Str())
	}
	if ref, _ := sp.Current(); ref != hostRef(1) {
		t.Fatalf("current after failover = %v", ref)
	}
	st := sp.Stats()
	if st.FailedInvokes == 0 || st.Switches == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailoverDoesNotRetryApplicationErrors(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := install(t, w.newProxy(Options{}), EventFailed, FailoverStrategy)
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	// "explode" is an unknown operation: the servant's application error
	// must surface unchanged, with no server switch.
	if _, err := sp.Invoke(ctx, "explode"); err == nil {
		t.Fatal("application error swallowed by failover")
	}
	if ref, _ := sp.Current(); ref != hostRef(0) {
		t.Fatal("failover switched servers on an application error")
	}
}

func TestFailoverLastServerGivesUp(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := install(t, w.newProxy(Options{}), EventFailed, FailoverStrategy)
	install(t, sp, EventNoMatch, SortOnlyStrategy)
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	_ = w.hosts[0].Close()
	if _, err := sp.Invoke(ctx, "hello"); err == nil {
		t.Fatal("invoke succeeded with the only server dead")
	}
}

// TestConcurrentInvocationsAndEvents hammers one proxy from several client
// goroutines while notifications stream in, exercising the locking between
// Invoke, Adapt, OnEvent and Select (run under -race in CI).
func TestConcurrentInvocationsAndEvents(t *testing.T) {
	w := newWorld(t, 3)
	for i := 0; i < 3; i++ {
		w.setLoad(i, float64(10+i), float64(15+i), float64(15+i))
	}
	sp := w.newProxy(Options{})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	sp.SetStrategy("Churn", func(ctx context.Context, p *SmartProxy) error {
		_, err := p.Select(ctx, "LoadAvg < 50")
		return err
	})

	const workers = 4
	const callsEach = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < callsEach; j++ {
				if _, err := sp.Invoke(ctx, "hello"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			sp.OnEvent("Churn")
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := sp.Stats()
	if st.Invocations != workers*callsEach {
		t.Fatalf("invocations = %d, want %d", st.Invocations, workers*callsEach)
	}
	if st.EventsQueued != 100 {
		t.Fatalf("events queued = %d", st.EventsQueued)
	}
	// Drain whatever is still pending; the proxy must stay consistent.
	if err := sp.Adapt(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		t.Fatalf("proxy wedged after stress: %v", err)
	}
}
