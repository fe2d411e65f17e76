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

// eventQueue is a test orb.EventReader: each event's values, decoded, go
// onto the channel.
type eventQueue chan []wire.Value

func (q eventQueue) ReadEvent(d *wire.Decoder, n int) error {
	vals := make([]wire.Value, n)
	for i := range vals {
		v, err := d.Value()
		if err != nil {
			return err
		}
		vals[i] = v
	}
	q <- vals
	return nil
}

func (q eventQueue) EndEvents(error) {}

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

	events := make(eventQueue, 8)
	sub, err := client.Subscribe(context.Background(), ref, "Overload", events, wire.String(overPredicateSrc))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	// Below the limit: no detection.
	if err := m.SetValue(wire.Number(10)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("event %v for a value under the limit", ev)
	case <-time.After(50 * time.Millisecond):
	}

	// Crossing the limit streams the detection immediately.
	if err := m.SetValue(wire.Number(60)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
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

// recordSink keeps what is pushed on it: as values through Push, or as
// the bytes PushEncoded is given, decoded here.
type recordSink struct{ events [][]wire.Value }

func (s *recordSink) Push(vals ...wire.Value) error {
	s.events = append(s.events, vals)
	return nil
}

func (s *recordSink) PushEncoded(n int, enc []byte) error {
	d := wire.NewDecoder(enc)
	vals := make([]wire.Value, n)
	for i := range vals {
		v, err := d.Value()
		if err != nil {
			return err
		}
		vals[i] = v
	}
	if d.Remaining() != 0 {
		return errors.New("trailing bytes in an encoded event")
	}
	return s.Push(vals...)
}

// plainSink takes values only.
type plainSink struct{ r *recordSink }

func (s plainSink) Push(vals ...wire.Value) error { return s.r.Push(vals...) }

// TestPushedSampleIsItsWireValue: a fired sample reaches a sink as (event
// id, the value set), whether the sink takes the event encoded, as the
// ORB's sinks do, or as values.
func TestPushedSampleIsItsWireValue(t *testing.T) {
	rec := wire.NewTable()
	rec.SetString("a", wire.Int(1))
	samples := []wire.Value{
		wire.Number(7),
		wire.TableVal(wire.NewList(wire.Number(60), wire.Number(40), wire.Number(30))),
		wire.TableVal(rec),
		wire.String("hot"),
	}
	encoded, plain := &recordSink{}, &recordSink{}
	m, err := New(Options{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, sink := range []orb.EventSink{encoded, plainSink{plain}} {
		if _, err := m.AttachPushObserver("Fired", "function() return true end", sink); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range samples {
		if err := m.SetValue(v); err != nil {
			t.Fatal(err)
		}
	}
	for name, sink := range map[string]*recordSink{"encoded": encoded, "plain": plain} {
		if len(sink.events) != len(samples) {
			t.Fatalf("%s sink: %d events, want %d", name, len(sink.events), len(samples))
		}
		for i, ev := range sink.events {
			if len(ev) != 2 || ev[0].Str() != "Fired" || !ev[1].Equal(samples[i]) {
				t.Errorf("%s sink: event %d = %v, want [Fired %v]", name, i, ev, samples[i])
			}
		}
	}
}
