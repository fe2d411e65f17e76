package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// One binding model: a proxy holds selections, routes, and policy reacts
// to events (Fig. 7). The main route, from Options, serves every operation
// without a route of its own and carries the Watches. RouteOperation gives
// op its own route (§IV-A: "choice of different components for different
// requested operations"); SetAlternativeOp names a method to retry when the
// server does not know op ("use of alternative methods").
//
// EventNoMatch fires when Bind's or RouteOperation's constraint matches
// nothing, EventFailed when an invocation's fault indicts its route's
// server. Their strategies run at once, under adaptMu, on the route that
// needs repair (see Select). Without one, Bind and RouteOperation fail with
// ErrNoOffer and the invocation fails with its fault.
const (
	EventFailed  = "_failed"
	EventNoMatch = "_nomatch"

	// FailoverStrategy, the shipped default for EventFailed, treats
	// availability as a nonfunctional requirement: re-select with the
	// route's constraint, passing over the server that failed.
	FailoverStrategy = `function(self) self:_select(self._constraint) end`
	// SortOnlyStrategy, the shipped default for EventNoMatch, is the
	// paper's degraded query (§V): re-query with no constraint.
	SortOnlyStrategy = `function(self) self:_select("") end`
)

// route is one selection the proxy holds. The first three fields never
// change; the binding, after them, is guarded by the proxy's mu.
type route struct {
	constraint string
	preference string
	watches    []Watch // the main route's: Options.Watches
	result     trading.QueryResult
	proxy      *orb.Proxy // nil while unbound
	subs       []watchSub // watches' subscriptions on proxy's monitors
}

// repair is the route an EventFailed or EventNoMatch activation acts on.
// It rides the activation's context, so Select finds it.
type repair struct {
	route  *route
	failed []wire.ObjRef // servers that failed during this invocation
	picked bool          // a Select during the activation bound a server
}

type repairKey struct{}

// Bind selects the main route with the configured constraint.
func (sp *SmartProxy) Bind(ctx context.Context) error {
	return sp.bind(ctx, &sp.main)
}

// RouteOperation installs a per-operation route: op is dispatched to a
// component selected with constraint/preference (preference "" uses the
// proxy's configured preference). Pass constraint "" to remove the route.
func (sp *SmartProxy) RouteOperation(ctx context.Context, op, constraint, preference string) error {
	if constraint == "" {
		sp.mu.Lock()
		delete(sp.routes, op)
		sp.mu.Unlock()
		return nil
	}
	if preference == "" {
		preference = sp.opts.Preference
	}
	r := &route{constraint: constraint, preference: preference}
	if err := sp.bind(ctx, r); err != nil {
		return err
	}
	sp.mu.Lock()
	if sp.routes == nil {
		sp.routes = map[string]*route{}
	}
	sp.routes[op] = r
	sp.mu.Unlock()
	return nil
}

// bind selects r with its own constraint; when that matches nothing, the
// EventNoMatch strategy may bind it otherwise.
func (sp *SmartProxy) bind(ctx context.Context, r *route) error {
	ok, err := sp.selectRoute(ctx, r, r.constraint, nil)
	if err != nil || ok {
		return err
	}
	rp := &repair{route: r}
	sp.adaptMu.Lock()
	err = sp.activate(context.WithValue(ctx, repairKey{}, rp), EventNoMatch, false)
	sp.adaptMu.Unlock()
	if err == nil && !rp.picked {
		err = ErrNoOffer
	}
	return err
}

// repairFailed runs r's EventFailed strategy after its server dead failed,
// and returns the server to retry on: nil when r is still on dead. An
// invocation that finds r already moved off dead — a concurrent one
// repaired it while this one waited for the lock — skips the strategy.
func (sp *SmartProxy) repairFailed(ctx context.Context, r *route, dead wire.ObjRef) *orb.Proxy {
	sp.adaptMu.Lock()
	defer sp.adaptMu.Unlock()
	if sp.server(r).Ref() == dead {
		rp := &repair{route: r, failed: []wire.ObjRef{dead}}
		if err := sp.activate(context.WithValue(ctx, repairKey{}, rp), EventFailed, false); err != nil {
			sp.logf("core: after %s failed: %v", dead, err)
		}
	}
	if next := sp.server(r); next.Ref() != dead {
		return next
	}
	return nil
}

// server is r's server; a route that served an invocation stays bound.
func (sp *SmartProxy) server(r *route) *orb.Proxy {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return r.proxy
}

// Select queries the trader with the given constraint (and the route's
// preference), switching to the best offer if one is found. It reports
// whether a server was selected. Keeping the current server when the query
// comes back empty is the paper's Fig. 7 behaviour. Select acts on the
// main route, except inside an EventFailed or EventNoMatch activation
// (given its context): there it acts on the route being repaired and
// passes over the servers that failed during the invocation.
func (sp *SmartProxy) Select(ctx context.Context, constraint string) (bool, error) {
	if rp, _ := ctx.Value(repairKey{}).(*repair); rp != nil {
		ok, err := sp.selectRoute(ctx, rp.route, constraint, rp.failed)
		rp.picked = rp.picked || (ok && err == nil)
		return ok, err
	}
	return sp.selectRoute(ctx, &sp.main, constraint, nil)
}

// selectRoute is the one trader lookup behind Bind, Select and
// RouteOperation. It asks for the best len(failed)+1 offers and points r at
// the first whose server has not already failed during this invocation, so
// a dead server whose lease has not yet run out is passed over. With
// nothing failed it is a plain best-1 query.
func (sp *SmartProxy) selectRoute(ctx context.Context, r *route, constraint string, failed []wire.ObjRef) (bool, error) {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return false, ErrClosed
	}
	sp.stats.Selections++
	sp.mu.Unlock()
	if sp.opts.Lookup == nil {
		return false, errors.New("core: no trading lookup configured")
	}
	results, err := sp.opts.Lookup.Query(ctx, sp.opts.ServiceType, constraint, r.preference, len(failed)+1)
	if err != nil {
		return false, fmt.Errorf("core: select: %w", err)
	}
	for _, res := range results {
		if !slices.Contains(failed, res.Offer.Ref) {
			return true, sp.point(ctx, r, res)
		}
	}
	return false, nil
}

// BindTo binds the main route directly to a query result (bypassing the
// trader), installing watches. Exposed for tests and static baselines.
func (sp *SmartProxy) BindTo(ctx context.Context, res trading.QueryResult) error {
	return sp.point(ctx, &sp.main, res)
}

// point binds r to the offer in res. It subscribes r's watches on the new
// server's monitors before switching, so no event window is lost; a rebind
// to the same server keeps them.
func (sp *SmartProxy) point(ctx context.Context, r *route, res trading.QueryResult) error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return ErrClosed
	}
	if r.proxy != nil && r.proxy.Ref() == res.Offer.Ref {
		r.result = res
		sp.gen++
		sp.mu.Unlock()
		return nil
	}
	sp.mu.Unlock()

	var subs []watchSub
	for _, w := range r.watches {
		mon, ok := res.Offer.MonitorFor(w.Prop)
		if !ok {
			sp.logf("core: offer %s has no monitor for property %q", res.Offer.ID, w.Prop)
			continue
		}
		sub, err := sp.opts.Client.Subscribe(ctx, mon, w.Event, (*pushReader)(sp), wire.String(w.Predicate))
		if err != nil { // a monitor that refuses leaves its watch unserved
			sp.logf("core: subscribe %q on %s: %v; watch skipped", w.Event, mon, err)
			continue
		}
		subs = append(subs, watchSub{monitor: mon, sub: sub})
	}
	proxy := sp.opts.Client.NewProxy(res.Offer.Ref)

	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		closeSubs(subs)
		return ErrClosed
	}
	if r.proxy != nil {
		sp.stats.Switches++
	}
	old := r.subs
	r.result, r.proxy, r.subs = res, proxy, subs
	sp.gen++
	sp.mu.Unlock()
	closeSubs(old)
	return nil
}

// RouteTarget reports the server currently serving a routed operation
// (zero if op has no route).
func (sp *SmartProxy) RouteTarget(op string) wire.ObjRef {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if r := sp.routes[op]; r != nil {
		return r.proxy.Ref()
	}
	return wire.ObjRef{}
}

// SetAlternativeOp registers alt as the fallback method for op: if the
// server rejects op as unknown, the same invocation is retried as alt.
func (sp *SmartProxy) SetAlternativeOp(op, alt string) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.altOps == nil {
		sp.altOps = map[string]string{}
	}
	if alt == "" {
		delete(sp.altOps, op)
		return
	}
	sp.altOps[op] = alt
}

// tryAlternative retries op as its registered alternative when the failure
// says the operation is unknown to the server.
func (sp *SmartProxy) tryAlternative(ctx context.Context, proxy *orb.Proxy, op string, args []wire.Value, err error) ([]wire.Value, bool) {
	if !orb.IsRemoteCode(err, orb.CodeBadOperation, orb.CodeApp) {
		return nil, false
	}
	sp.mu.Lock()
	alt := sp.altOps[op]
	sp.mu.Unlock()
	if alt == "" {
		return nil, false
	}
	rs, aerr := proxy.Call(ctx, alt, args...)
	if aerr != nil {
		return nil, false
	}
	sp.logf("core: operation %q unavailable, served by alternative %q", op, alt)
	return rs, true
}
