package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestScriptFailedStrategyChoosesServer: a script EventFailed strategy is
// policy like any other. This one skips the next-ranked server the shipped
// default would take and lands on h3, in one re-selection.
func TestScriptFailedStrategyChoosesServer(t *testing.T) {
	w := newWorld(t, 0)
	hosts, refs, _ := rankedHosts(t, w, "h1", "h2", "h3")
	sp := install(t, w.newProxy(Options{Constraint: "Rank > 0", Preference: "min Rank"}),
		EventFailed, `function(self)
			probe_constraint = self._constraint
			self:_select("Rank > 2")
		end`)
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = hosts[0].Close()
	before := sp.Stats()
	rs, err := sp.Invoke(context.Background(), "hello")
	if err != nil || rs[0].Str() != "hello from h3" {
		t.Fatalf("invoke = %v, %v, want h3's answer", rs, err)
	}
	if cur, _ := sp.Current(); cur != refs[2] {
		t.Fatalf("bound to %v, want h3", cur)
	}
	if st := sp.Stats(); st.Selections != before.Selections+1 || st.Switches != before.Switches+1 || st.EventsHandled != 0 {
		t.Fatalf("stats %+v -> %+v, want one re-selection, one switch, no event handled", before, st)
	}
	if got := global(t, sp, "probe_constraint").Str(); got != "Rank > 0" {
		t.Fatalf("self._constraint = %q, want the main route's constraint", got)
	}
	if v := sp.self.tbl.GetString("_constraint"); !v.IsNil() {
		t.Fatalf("self._constraint after the activation = %v, want nil", v)
	}
}

// TestGoFailedStrategy: a Go EventFailed strategy's Select acts on the
// route being repaired and passes over the server that failed, although
// its constraint still matches that server's listed offer.
func TestGoFailedStrategy(t *testing.T) {
	w := newWorld(t, 0)
	hosts, refs, _ := rankedHosts(t, w, "h1", "h2")
	sp := w.newProxy(Options{Constraint: "Rank > 0", Preference: "min Rank"})
	runs := 0
	sp.SetStrategy(EventFailed, func(ctx context.Context, p *SmartProxy) error {
		runs++
		_, err := p.Select(ctx, "Rank > 0")
		return err
	})
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = hosts[0].Close()
	rs, err := sp.Invoke(context.Background(), "hello")
	if err != nil || rs[0].Str() != "hello from h2" {
		t.Fatalf("invoke = %v, %v, want h2's answer", rs, err)
	}
	if cur, _ := sp.Current(); cur != refs[1] || runs != 1 {
		t.Fatalf("bound to %v after %d runs, want h2 after 1", cur, runs)
	}
}

// TestConcurrentFailuresReselectOnce: two invocations fail on one dead
// server. The first runs EventFailed; the second waits for it, finds the
// route moved, skips the strategy and retries on the new server. The
// strategy holds until both have failed, so the two really overlap.
func TestConcurrentFailuresReselectOnce(t *testing.T) {
	w := newWorld(t, 0)
	hosts, refs, _ := rankedHosts(t, w, "h1", "h2")
	sp := w.newProxy(Options{Constraint: "Rank > 0", Preference: "min Rank"})
	var mu sync.Mutex
	runs := 0
	sp.SetStrategy(EventFailed, func(ctx context.Context, p *SmartProxy) error {
		mu.Lock()
		runs++
		mu.Unlock()
		for deadline := time.Now().Add(5 * time.Second); p.Stats().FailedInvokes < 2; {
			if time.Now().After(deadline) {
				return errors.New("second invocation never failed")
			}
			time.Sleep(time.Millisecond)
		}
		_, err := p.Select(ctx, "Rank > 0")
		return err
	})
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	_ = hosts[0].Close()
	before := sp.Stats()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := sp.Invoke(ctx, "hello")
			if err == nil && rs[0].Str() != "hello from h2" {
				err = errors.New("answered by " + rs[0].Str())
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := sp.Stats()
	if st.Selections != before.Selections+1 || st.Switches != before.Switches+1 || runs != 1 {
		t.Fatalf("stats %+v -> %+v after %d strategy runs, want one re-selection, one switch, one run", before, st, runs)
	}
	if cur, _ := sp.Current(); cur != refs[1] {
		t.Fatalf("bound to %v, want h2", cur)
	}
}

// TestNoMatchOnRouteOperation: a route whose constraint matches nothing is
// bound by EventNoMatch with the route's own preference, and the main
// route stays where it was.
func TestNoMatchOnRouteOperation(t *testing.T) {
	w := newWorld(t, 3)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	w.setLoad(2, 30, 35, 35)
	sp := install(t, w.newProxy(Options{}), EventNoMatch,
		`function(self)
			probe_constraint = self._constraint
			self:_select("")
		end`)
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sp.RouteOperation(ctx, "hello", "LoadAvg > 999", "max LoadAvg"); err != nil {
		t.Fatalf("route with a no-match strategy: %v", err)
	}
	if got := sp.RouteTarget("hello"); got != hostRef(2) {
		t.Fatalf("route target = %v, want host-2 (max LoadAvg)", got)
	}
	if got := global(t, sp, "probe_constraint").Str(); got != "LoadAvg > 999" {
		t.Fatalf("self._constraint = %q, want the route's constraint", got)
	}
	if main, _ := sp.Current(); main != hostRef(0) {
		t.Fatalf("main route moved to %v", main)
	}
	// A strategy that binds nothing leaves the route uninstalled.
	sp.SetStrategy(EventNoMatch, func(context.Context, *SmartProxy) error { return nil })
	if err := sp.RouteOperation(ctx, "other", "LoadAvg > 999", ""); !errors.Is(err, ErrNoOffer) {
		t.Fatalf("err = %v, want ErrNoOffer", err)
	}
	if !sp.RouteTarget("other").IsZero() {
		t.Fatal("unbound route installed")
	}
}

// TestRouteWithoutFailedStrategyKeepsServer: like the main route, a
// per-operation route fails over only through an EventFailed strategy.
func TestRouteWithoutFailedStrategyKeepsServer(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{})
	ctx := context.Background()
	if err := sp.RouteOperation(ctx, "hello", "LoadAvg < 50", "min LoadAvg"); err != nil {
		t.Fatal(err)
	}
	_ = w.hosts[0].Close()
	before := sp.Stats().Selections
	if _, err := sp.Invoke(ctx, "hello"); !indictsBinding(err) {
		t.Fatalf("err = %v, want host-0's transport fault", err)
	}
	if got := sp.RouteTarget("hello"); got != hostRef(0) || sp.Stats().Selections != before {
		t.Fatalf("route moved to %v or re-queried without a strategy", got)
	}
}
