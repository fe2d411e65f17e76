package core

import (
	"context"
	"sync"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// The paper (§IV-A) lists smart-proxy behaviors beyond whole-service
// substitution: "choice of different components for different requested
// operations, use of alternative methods". This file implements both.
//
//   - RouteOperation(op, constraint, preference): invocations of op are
//     served by a component selected with its own trader query, independent
//     of the proxy's main selection. A read-mostly operation can go to a
//     replica chosen by "min LoadAvg" while writes stay on the primary.
//
//   - SetAlternativeOp(op, alt): when the selected server rejects op as
//     unknown (BAD_OPERATION / APP_ERROR), the proxy retries with alt on
//     the same server — the paper's "use of alternative methods", which
//     lets clients exploit newer service interfaces while tolerating older
//     implementations.

type opRoute struct {
	constraint string
	preference string

	mu    sync.Mutex
	proxy *orb.Proxy
}

// RouteOperation installs a per-operation route: op is dispatched to a
// component selected with constraint/preference (preference "" uses the
// proxy's configured preference). Selection happens now and again whenever
// the route's server fails. Pass constraint "" to remove the route.
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
	r := &opRoute{constraint: constraint, preference: preference}
	if err := sp.selectRoute(ctx, r, nil); err != nil {
		return err
	}
	sp.mu.Lock()
	if sp.routes == nil {
		sp.routes = map[string]*opRoute{}
	}
	sp.routes[op] = r
	sp.mu.Unlock()
	return nil
}

// selectRoute points r at the best offer for its constraint that is not in
// failed.
func (sp *SmartProxy) selectRoute(ctx context.Context, r *opRoute, failed []wire.ObjRef) error {
	res, ok, err := sp.pick(ctx, r.constraint, r.preference, failed)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNoOffer
	}
	r.mu.Lock()
	r.proxy = sp.opts.Client.NewProxy(res.Offer.Ref)
	r.mu.Unlock()
	return nil
}

// RouteTarget reports the server currently serving a routed operation
// (zero if op has no route).
func (sp *SmartProxy) RouteTarget(op string) wire.ObjRef {
	sp.mu.Lock()
	r := sp.routes[op]
	sp.mu.Unlock()
	if r == nil {
		return wire.ObjRef{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proxy.Ref()
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

// routedInvoke handles a routed operation, re-selecting away from the
// route's server and retrying once when the fault indicts it.
func (sp *SmartProxy) routedInvoke(ctx context.Context, r *opRoute, op string, args []wire.Value) ([]wire.Value, error) {
	r.mu.Lock()
	proxy := r.proxy
	r.mu.Unlock()
	rs, err := proxy.Call(ctx, op, args...)
	if err == nil {
		return rs, nil
	}
	if rs2, ok := sp.tryAlternative(ctx, proxy, op, args, err); ok {
		return rs2, nil
	}
	if !indictsBinding(err) {
		return nil, err
	}
	// The routed server died: re-select away from it and retry once.
	if serr := sp.selectRoute(ctx, r, []wire.ObjRef{proxy.Ref()}); serr != nil {
		return nil, err
	}
	r.mu.Lock()
	proxy = r.proxy
	r.mu.Unlock()
	return proxy.Call(ctx, op, args...)
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
