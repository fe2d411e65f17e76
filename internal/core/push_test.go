package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/monitor"
)

// loadWatch is the §V watch on LoadAvg.
var loadWatch = []Watch{{
	Prop:      "LoadAvg",
	Event:     monitor.LoadIncreaseEvent,
	Predicate: monitor.LoadIncreasePredicateSrc(50),
}}

// TestRebindStartsNoGoroutine: a rebind opens a push subscription on the
// new server's monitor, and its events go from the connection's reader
// straight into the proxy's queue. N rebinds between two servers leave the
// goroutine count where it was before the first, once both connections
// have their readers.
func TestRebindStartsNoGoroutine(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	ctx := context.Background()
	offers, err := w.lookup.Query(ctx, "LoadShared", "", "min LoadAvg", 2)
	if err != nil || len(offers) != 2 {
		t.Fatalf("query: %v, %d offers", err, len(offers))
	}
	// A first proxy subscribes on both monitors, so both connections have
	// carried a push stream and keep their readers (see orb's
	// needsBackground), then closes.
	warm := w.newProxy(Options{Watches: loadWatch})
	for _, o := range offers {
		if err := warm.BindTo(ctx, o); err != nil {
			t.Fatal(err)
		}
	}
	warm.Close()
	waitFor(t, func() bool { return w.monitors[0].ObserverCount()+w.monitors[1].ObserverCount() == 0 })
	base := settledGoroutines(t)

	sp := w.newProxy(Options{Watches: loadWatch})
	const rebinds = 20
	for i := 0; i < rebinds; i++ {
		if err := sp.BindTo(ctx, offers[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	if st := sp.Stats(); st.Switches != rebinds-1 {
		t.Fatalf("Switches = %d, want %d", st.Switches, rebinds-1)
	}
	if n := settledGoroutines(t); n > base {
		t.Fatalf("%d goroutines after %d rebinds, %d before", n, rebinds, base)
	}
}

// settledGoroutines returns the goroutine count once it has held for 20
// reads a millisecond apart: goroutines that are ending have ended.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n, same := runtime.NumGoroutine(), 0
	for same < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (%d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestImmediateStrategyCallsPushingServer: in Immediate mode a strategy
// that calls the server whose monitor pushed the event completes. Run on
// the connection's reader, it would wait for a reply only that reader can
// read.
func TestImmediateStrategyCallsPushingServer(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{Watches: loadWatch, Immediate: true})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	replied := make(chan error, 1)
	sp.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *SmartProxy) error {
		// Bounded, so that a call that cannot complete fails the test
		// rather than wedging the connection for good.
		ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		rs, err := p.Invoke(ctx, "hello")
		if err == nil && rs[0].Str() != "hello from host-0" {
			t.Errorf("strategy's call answered %q", rs[0].Str())
		}
		replied <- err
		return err
	})
	w.setLoad(0, 60, 30, 20)
	select {
	case err := <-replied:
		if err != nil {
			t.Fatalf("strategy's call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the strategy's call to the pushing server never completed")
	}
	if n := len(sp.PendingEvents()); n != 0 {
		t.Fatalf("immediate mode queued %d events", n)
	}
}

// TestImmediatePushedEventsShareOneGoroutine: events pushed while an
// Immediate strategy runs wait for it on the proxy's one drainer, their
// duplicates collapsed, not on a goroutine each.
func TestImmediatePushedEventsShareOneGoroutine(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{Watches: loadWatch, Immediate: true})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var runs atomic.Int64
	sp.SetStrategy(monitor.LoadIncreaseEvent, func(context.Context, *SmartProxy) error {
		if runs.Add(1) == 1 {
			<-gate
		}
		return nil
	})
	w.setLoad(0, 60, 30, 20)
	waitFor(t, func() bool { return runs.Load() == 1 })
	base := settledGoroutines(t)
	const more = 20
	for i := 1; i <= more; i++ {
		w.setLoad(0, 60+float64(i), 30, 20) // a new sample: one more event
	}
	waitFor(t, func() bool { return w.client.Stats().EventsPushed == more+1 })
	if n := settledGoroutines(t); n > base {
		t.Errorf("%d goroutines with %d events waiting on a strategy, %d before", n, more, base)
	}
	close(gate)
	waitFor(t, func() bool { return runs.Load() == 2 })
	settledGoroutines(t)
	if n := runs.Load(); n != 2 {
		t.Fatalf("strategy ran %d times, want 2: the waiting events are one", n)
	}
}
