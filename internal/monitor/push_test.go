package monitor

import (
	"context"
	"errors"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/strikes"
	"autoadapt/internal/wire"
)

const overPredicateSrc = `function(observer, value, monitor)
	return value > 50
end`

// TestPushObserverStreamsWithoutTick is the acceptance check for push
// delivery: a client subscribes to the monitor servant over the ORB and
// receives a detection the moment SetValue crosses the predicate — no Tick
// ever runs, so the event cannot have been poll-delivered.
func TestPushObserverStreamsWithoutTick(t *testing.T) {
	m, err := New(Options{Name: "LoadAvg"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv, err := orb.NewServer(orb.ServerOptions{Network: orb.TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("monitor", "EventMonitor", NewServant(m))
	client := orb.NewClient(orb.TCPNetwork{})
	defer client.Close()

	sub, err := client.Subscribe(context.Background(), ref, "Overload", wire.String(overPredicateSrc))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	// Below the limit: no detection.
	if err := m.SetValue(wire.Number(10)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("event %v for a value under the limit", ev)
	case <-time.After(50 * time.Millisecond):
	}

	// Crossing the limit streams the detection immediately.
	if err := m.SetValue(wire.Number(60)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.Events():
		if len(ev) != 2 || ev[0].Str() != "Overload" || ev[1].Num() != 60 {
			t.Fatalf("event = %v, want [Overload 60]", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pushed detection never arrived")
	}
	if tickCount(m) != 0 {
		t.Fatalf("Ticks = %d, want 0 (delivery must not depend on polling)", tickCount(m))
	}

	// Unsubscribing detaches the push observer from the monitor.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ObserverCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ObserverCount = %d after unsubscribe, want 0", m.ObserverCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuarantineDetachesDeadObserver drives a timer-ticked monitor on the
// sim clock against a notifier that always fails: after
// strikes.Limit consecutive failed deliveries the observer is
// quarantined (detached) and delivery work stops.
func TestQuarantineDetachesDeadObserver(t *testing.T) {
	sim := clock.NewSim(epoch)
	failing := NotifierFunc(func(wire.ObjRef, string) error {
		return errors.New("observer unreachable")
	})
	m, err := NewLoadAverage(LoadSourceFunc(func() (float64, float64, float64, error) {
		return 90, 20, 30, nil // high and rising: fires every tick
	}), Options{Clock: sim, Period: time.Minute, Notifier: failing})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AttachObserver(obsRef("dead"), LoadIncreaseEvent, LoadIncreasePredicateSrc(50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < strikes.Limit; i++ {
		if m.ObserverCount() != 1 {
			t.Fatalf("observer detached after %d failures, want %d", i, strikes.Limit)
		}
		waitForTimer(t, sim)
		sim.Advance(time.Minute)
		waitForTicks(t, m, i+1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.ObserverCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ObserverCount = %d after %d failed deliveries, want 0",
				m.ObserverCount(), strikes.Limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQuarantineResetsOnSuccess verifies the counter tracks *consecutive*
// failures: a delivery success in between keeps a flaky observer attached.
func TestQuarantineResetsOnSuccess(t *testing.T) {
	calls := 0
	flaky := NotifierFunc(func(wire.ObjRef, string) error {
		calls++
		if calls%strikes.Limit == 0 {
			return nil // one strike short of the limit, then a success
		}
		return errors.New("transient")
	})
	m, err := New(Options{Name: "x", Notifier: flaky})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AttachObserver(obsRef("flaky"), "E", "function() return true end"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValue(wire.Int(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*strikes.Limit; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m.ObserverCount() != 1 {
		t.Fatal("flaky-but-recovering observer was quarantined")
	}
}

// closedSink always reports its subscription gone.
type closedSink struct{}

func (closedSink) Push(...wire.Value) error { return orb.ErrSubscriptionClosed }

// TestPushObserverDetachedWhenSubscriptionGone: a sink whose subscription
// has died is detached on the first delivery, not after N failures — there
// is no point retrying a connection that no longer exists.
func TestPushObserverDetachedWhenSubscriptionGone(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AttachPushObserver("E", "function() return true end", closedSink{}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValue(wire.Int(1)); err != nil {
		t.Fatal(err)
	}
	if got := m.ObserverCount(); got != 0 {
		t.Fatalf("ObserverCount = %d after push onto a dead subscription, want 0", got)
	}
}
