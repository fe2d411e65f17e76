package core

import (
	"context"
	"testing"

	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
)

// TestRedirectorMakesStandardClientAdaptive exercises the §VI extension: a
// plain client holding a FIXED reference (host-0's service) is routed by
// the interceptor to whatever server the smart proxy currently selects —
// "plug our dynamic adaptation support into standard CORBA applications".
func TestRedirectorMakesStandardClientAdaptive(t *testing.T) {
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
	sp.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *SmartProxy) error {
		_, err := p.Select(ctx, "LoadAvg < 50 and LoadAvgIncreasing == no")
		return err
	})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}

	// The "standard application": it only knows host-0's reference and
	// invokes through an intercepting client.
	ic := orb.NewInterceptingClient(w.client)
	ic.Use(NewRedirector(sp))
	fixedRef := hostRef(0)

	rs, err := ic.Invoke(ctx, fixedRef, "hello")
	if err != nil || rs[0].Str() != "hello from host-0" {
		t.Fatalf("initial call = %v, %v", rs, err)
	}

	// host-0 spikes; the shipped predicate notifies the proxy; the very
	// next invocation of the standard client is redirected to host-1 —
	// without the client changing its reference.
	w.setLoad(0, 60, 30, 20)
	waitFor(t, func() bool { return len(sp.PendingEvents()) == 1 })
	rs, err = ic.Invoke(ctx, fixedRef, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Str() != "hello from host-1" {
		t.Fatalf("redirected call = %q, want host-1", rs[0].Str())
	}
	if got, _ := sp.Current(); got != hostRef(1) {
		t.Fatalf("proxy current = %v", got)
	}
}

// TestRedirectorWithUnboundProxyPassesThrough ensures the interceptor is
// harmless before the proxy has selected anything.
func TestRedirectorWithUnboundProxyPassesThrough(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	ic := orb.NewInterceptingClient(w.client)
	ic.Use(NewRedirector(sp))
	rs, err := ic.Invoke(context.Background(), hostRef(0), "hello")
	if err != nil || rs[0].Str() != "hello from host-0" {
		t.Fatalf("pass-through = %v, %v", rs, err)
	}
}
