// Package core implements the paper's primary contribution: the smart
// proxy (§IV, §IV-A, Fig. 5).
//
// A smart proxy represents a *type* of service, not a specific server. It
// selects the component that best suits the application's nonfunctional
// requirements through the trading service, subscribes to events on the
// monitors associated with the selected offer, queues
// incoming notifications, and — immediately before the next service
// invocation — activates the adaptation strategy associated with each
// pending event ("the postponement of event handling avoids conflicts with
// ongoing traffic when a reconfiguration is done"). Adaptation strategies
// are ordinary Go functions or AdaptScript functions (the paper's Fig. 7
// `strategies` table), kept entirely outside the application's functional
// code.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/scriptbind"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Errors reported by smart proxies.
var (
	// ErrNoOffer is returned when selection finds no acceptable offer and
	// no fallback succeeds.
	ErrNoOffer = errors.New("core: no offer satisfies the requirements")
	// ErrNotBound is returned by Invoke before any server is selected.
	ErrNotBound = errors.New("core: smart proxy is not bound to a server")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: smart proxy closed")
)

// Strategy is an adaptation strategy: it runs with the proxy's adaptation
// lock held, just before the invocation that triggered its activation.
type Strategy func(ctx context.Context, sp *SmartProxy) error

// Watch declares one event subscription installed on every server the
// proxy binds to: on the monitor serving dynamic property Prop, register
// interest in Event with the shipped Predicate (AdaptScript source,
// evaluated at the monitor — the paper's Fig. 4). The proxy opens a push
// subscription (orb.Subscribe) so detections stream back the moment the
// monitor fires. A monitor that refuses Subscribe leaves the watch unserved.
type Watch struct {
	Prop      string
	Event     string
	Predicate string
}

// Options configures a smart proxy.
type Options struct {
	// Client performs all outbound invocations. Required.
	Client *orb.Client
	// Lookup reaches the trading service. Required unless every binding
	// is made explicitly with BindTo.
	Lookup trading.Directory
	// ServiceType is the traded service type to represent.
	ServiceType string
	// Constraint is the selection constraint (paper §V: the proxy
	// "selects the server component that has the least load average",
	// "eliminating the components hosted on the system that show a
	// tendency for load increase").
	Constraint string
	// Preference orders matching offers; the first is chosen.
	Preference string
	// FallbackSortOnly enables the paper's degraded query: when no offer
	// satisfies Constraint, re-query with no constraint, preference only.
	FallbackSortOnly bool
	// Watches are installed on each newly selected server's monitors.
	Watches []Watch
	// Immediate disables the paper's postponed event handling: strategies
	// run in the notification upcall instead of before the next
	// invocation. This is ablation A1 (experiment E3).
	Immediate bool
	// Logger receives adaptation diagnostics; nil discards.
	Logger *log.Logger
	// MaxScriptSteps bounds script strategy execution.
	MaxScriptSteps int
	// ScriptWallBudget bounds each strategy activation by wall clock;
	// ScriptMemBudget bounds its accounted allocation. Zero leaves the
	// corresponding bound off. Strategies are shipped code (Fig. 7 arrives
	// over the wire), so a hostile or buggy one must not be able to wedge
	// the adaptation path.
	ScriptWallBudget time.Duration
	ScriptMemBudget  int64
	// Failover treats availability as a nonfunctional requirement: when an
	// invocation fails with a transport-level error (server crashed,
	// connection lost — not application errors, not the caller's own
	// cancellation or deadline), the proxy re-selects with its configured
	// constraint, passing over every server that already failed during the
	// invocation, and retries it, governed by Retry.
	Failover bool
	// Retry shapes the failover path: MaxAttempts bounds the total number
	// of invocation attempts (the first included) and Backoff spaces the
	// re-selections. The zero value keeps the paper's behaviour of a
	// single immediate retry.
	Retry orb.RetryPolicy
}

// watchSub is one live push subscription serving a Watch, remembered with
// the monitor it streams from so re-armed watches (rearm) and rebinds can
// tear it down.
type watchSub struct {
	monitor wire.ObjRef
	sub     *orb.Subscription
}

type selection struct {
	result trading.QueryResult
	proxy  *orb.Proxy
	subs   []watchSub
}

// Stats counts proxy activity for the experiment harness.
type Stats struct {
	Invocations   int64
	Selections    int64
	Switches      int64
	EventsQueued  int64
	EventsHandled int64
	FailedInvokes int64
	// QuarantinedStrategies counts script strategies uninstalled after
	// strikes.Limit consecutive budget-exhaustion aborts.
	QuarantinedStrategies int64
}

// SmartProxy is the paper's smart proxy.
type SmartProxy struct {
	opts Options

	mu         sync.Mutex // guards selection, strategies, queue, stats
	sel        *selection
	gen        uint64 // bumped with every change to sel, so self can follow it
	strategies map[string]Strategy
	queue      []string
	closed     bool
	stats      Stats

	adaptMu sync.Mutex // serializes adaptation passes

	scriptMu sync.Mutex     // guards in and self: strategy compilation and execution
	in       *script.Interp // strategy scripts
	self     scriptSelf     // the strategies' self object

	interceptors []Interceptor

	// §IV-A behaviors: per-operation routes and alternative methods
	// (see routing.go). Guarded by mu.
	routes map[string]*opRoute
	altOps map[string]string
}

// Interceptor observes every invocation passing through the proxy (the
// paper's "trivial implementation of service invocation interceptors").
// Returning an error aborts the invocation.
type Interceptor func(op string, args []wire.Value) error

// New creates an unbound smart proxy. Call Bind (or BindTo) before Invoke.
func New(opts Options) (*SmartProxy, error) {
	if opts.Client == nil {
		return nil, errors.New("core: Options.Client is required")
	}
	sp := &SmartProxy{
		opts:       opts,
		strategies: make(map[string]Strategy),
		in: script.New(script.Options{
			MaxSteps:   opts.MaxScriptSteps,
			WallBudget: opts.ScriptWallBudget,
			MemBudget:  opts.ScriptMemBudget,
			Clock:      clock.Real{}, // §VI time-of-day context for strategies
		}),
	}
	// Script strategies get the full LuaCorba/LuaTrading surface: they can
	// invoke arbitrary objects and query the trader directly, beyond the
	// curated `self` object (paper §IV-A: "the full power of a programming
	// language").
	scriptbind.InstallORB(sp.in, opts.Client)
	if opts.Lookup != nil {
		scriptbind.InstallTrading(sp.in, opts.Lookup)
	}
	return sp, nil
}

func (sp *SmartProxy) logf(format string, args ...any) {
	if sp.opts.Logger != nil {
		sp.opts.Logger.Printf(format, args...)
	}
}

// OnEvent receives an event notification. In the default (postponed) mode
// it enqueues the event for handling at the next invocation; duplicate
// pending events collapse. In Immediate mode the strategy runs here.
func (sp *SmartProxy) OnEvent(event string) {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	sp.stats.EventsQueued++
	if sp.opts.Immediate {
		sp.mu.Unlock()
		// Immediate mode: adapt in the upcall (ablation A1).
		if err := sp.runStrategies(context.Background(), []string{event}); err != nil {
			sp.logf("core: immediate strategy for %q: %v", event, err)
		}
		return
	}
	for _, e := range sp.queue {
		if e == event {
			sp.mu.Unlock()
			return // collapse duplicates
		}
	}
	sp.queue = append(sp.queue, event)
	sp.mu.Unlock()
}

// PendingEvents returns the queued event ids (diagnostics).
func (sp *SmartProxy) PendingEvents() []string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]string, len(sp.queue))
	copy(out, sp.queue)
	return out
}

// SetStrategy installs a Go adaptation strategy for event.
func (sp *SmartProxy) SetStrategy(event string, s Strategy) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.strategies[event] = s
}

// Stats returns a snapshot of activity counters.
func (sp *SmartProxy) Stats() Stats {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.stats
}

// AddInterceptor appends an invocation interceptor.
func (sp *SmartProxy) AddInterceptor(i Interceptor) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.interceptors = append(sp.interceptors, i)
}

// Current returns the currently selected server's reference (zero if
// unbound) and the offer it came from.
func (sp *SmartProxy) Current() (wire.ObjRef, trading.QueryResult) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.sel == nil {
		return wire.ObjRef{}, trading.QueryResult{}
	}
	return sp.sel.result.Offer.Ref, sp.sel.result
}

// Bind performs initial selection with the configured constraint,
// applying the sort-only fallback if enabled (paper §V).
func (sp *SmartProxy) Bind(ctx context.Context) error {
	ok, err := sp.Select(ctx, sp.opts.Constraint)
	if err != nil {
		return err
	}
	if ok {
		return nil
	}
	if sp.opts.FallbackSortOnly {
		ok, err = sp.Select(ctx, "")
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	return ErrNoOffer
}

// Select queries the trader with the given constraint (and the proxy's
// configured preference), switching to the best offer if one is found.
// It reports whether a server was selected. Keeping the current server
// when the query comes back empty is the paper's Fig. 7 behaviour.
func (sp *SmartProxy) Select(ctx context.Context, constraint string) (bool, error) {
	return sp.selectSkipping(ctx, constraint, nil)
}

// selectSkipping is Select that never binds a server in failed.
func (sp *SmartProxy) selectSkipping(ctx context.Context, constraint string, failed []wire.ObjRef) (bool, error) {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return false, ErrClosed
	}
	sp.stats.Selections++
	sp.mu.Unlock()
	r, ok, err := sp.pick(ctx, constraint, sp.opts.Preference, failed)
	if !ok {
		return false, err
	}
	return true, sp.bindResult(ctx, r)
}

// pick is the one trader lookup behind Select, failover and operation
// routes. It asks for the best len(failed)+1 offers and returns the first
// whose server has not already failed during this invocation, so a dead
// server whose lease has not yet run out is passed over. With nothing
// failed it is a plain best-1 query.
func (sp *SmartProxy) pick(ctx context.Context, constraint, preference string, failed []wire.ObjRef) (trading.QueryResult, bool, error) {
	if sp.opts.Lookup == nil {
		return trading.QueryResult{}, false, errors.New("core: no trading lookup configured")
	}
	results, err := sp.opts.Lookup.Query(ctx, sp.opts.ServiceType, constraint, preference, len(failed)+1)
	if err != nil {
		return trading.QueryResult{}, false, fmt.Errorf("core: select: %w", err)
	}
	for _, r := range results {
		if !slices.Contains(failed, r.Offer.Ref) {
			return r, true, nil
		}
	}
	return trading.QueryResult{}, false, nil
}

// BindTo binds the proxy directly to a query result (bypassing the
// trader), installing watches. Exposed for tests and static baselines.
func (sp *SmartProxy) BindTo(ctx context.Context, r trading.QueryResult) error {
	return sp.bindResult(ctx, r)
}

func (sp *SmartProxy) bindResult(ctx context.Context, r trading.QueryResult) error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return ErrClosed
	}
	old := sp.sel
	if old != nil && old.result.Offer.Ref == r.Offer.Ref {
		// Same server: keep existing observations.
		sp.sel.result = r
		sp.gen++
		sp.mu.Unlock()
		return nil
	}
	sp.mu.Unlock()

	// Subscribe on the new server's monitors before switching, so no event
	// window is lost. A monitor that refuses leaves its watch unserved.
	newSel := &selection{result: r, proxy: sp.opts.Client.NewProxy(r.Offer.Ref)}
	for _, w := range sp.opts.Watches {
		mon, ok := r.Offer.MonitorFor(w.Prop)
		if !ok {
			sp.logf("core: offer %s has no monitor for property %q", r.Offer.ID, w.Prop)
			continue
		}
		sub, err := sp.subscribe(ctx, mon, w.Event, w.Predicate)
		if err != nil {
			sp.logf("core: subscribe %q on %s: %v; watch skipped", w.Event, mon, err)
			continue
		}
		newSel.subs = append(newSel.subs, watchSub{monitor: mon, sub: sub})
	}

	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		teardown(newSel)
		return ErrClosed
	}
	sp.sel = newSel
	sp.gen++
	if old != nil {
		sp.stats.Switches++
	}
	sp.mu.Unlock()

	teardown(old)
	return nil
}

// subscribe ships predicate to mon as a push subscription for event and
// starts feeding what it pushes into the proxy's event queue.
func (sp *SmartProxy) subscribe(ctx context.Context, mon wire.ObjRef, event, predicate string) (*orb.Subscription, error) {
	sub, err := sp.opts.Client.Subscribe(ctx, mon, event, wire.String(predicate))
	if err != nil {
		return nil, err
	}
	go sp.drainSub(sub)
	return sub, nil
}

// drainSub feeds one subscription's pushed events — (eventID, value)
// pairs — into the proxy's event queue. The goroutine ends when the
// subscription closes: on rebind, re-arm, Close, or connection death.
func (sp *SmartProxy) drainSub(sub *orb.Subscription) {
	for ev := range sub.Events() {
		if len(ev) == 0 {
			continue
		}
		sp.OnEvent(ev[0].Str())
	}
	if err := sub.Err(); err != nil {
		sp.logf("core: event subscription ended: %v", err)
	}
}

// teardown closes a selection's push subscriptions, which cancels the
// monitor-side observers.
func teardown(sel *selection) {
	if sel != nil {
		closeSubs(sel.subs)
	}
}

func closeSubs(subs []watchSub) {
	for _, ws := range subs {
		_ = ws.sub.Close()
	}
}

// rearm is Fig. 7's relaxation (lines 10-17): it subscribes event with the
// new predicate on mon and closes the proxy's earlier subscriptions there,
// so the old predicate stops firing and a rebind or Close still tears the
// new one down.
func (sp *SmartProxy) rearm(ctx context.Context, mon wire.ObjRef, event, predicate string) error {
	sub, err := sp.subscribe(ctx, mon, event, predicate)
	if err != nil {
		return err
	}
	fresh := watchSub{monitor: mon, sub: sub}
	var stale []watchSub
	sp.mu.Lock()
	if sp.sel == nil { // closed meanwhile: nothing owns the new subscription
		stale = append(stale, fresh)
	} else {
		kept := sp.sel.subs[:0]
		for _, ws := range sp.sel.subs {
			if ws.monitor == mon {
				stale = append(stale, ws)
			} else {
				kept = append(kept, ws)
			}
		}
		sp.sel.subs = append(kept, fresh)
	}
	sp.mu.Unlock()
	closeSubs(stale)
	return nil
}

// Invoke forwards op to the currently selected server, first handling any
// pending events by activating their adaptation strategies (paper §IV-A).
func (sp *SmartProxy) Invoke(ctx context.Context, op string, args ...wire.Value) ([]wire.Value, error) {
	if err := sp.Adapt(ctx); err != nil {
		// Adaptation failures must not break the functional path; the
		// paper's strategies degrade (keep current server, relax).
		sp.logf("core: adaptation before %q: %v", op, err)
	}
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return nil, ErrClosed
	}
	sel := sp.sel
	route := sp.routes[op]
	interceptors := sp.interceptors
	sp.stats.Invocations++
	sp.mu.Unlock()
	for _, ic := range interceptors {
		if err := ic(op, args); err != nil {
			return nil, fmt.Errorf("core: interceptor rejected %q: %w", op, err)
		}
	}
	// Per-operation routing (paper §IV-A: "choice of different components
	// for different requested operations").
	if route != nil {
		return sp.routedInvoke(ctx, route, op, args)
	}
	if sel == nil {
		return nil, ErrNotBound
	}
	rs, err := sel.proxy.Call(ctx, op, args...)
	if err == nil {
		return rs, nil
	}
	sp.mu.Lock()
	sp.stats.FailedInvokes++
	sp.mu.Unlock()
	if rs, ok := sp.tryAlternative(ctx, sel.proxy, op, args, err); ok {
		return rs, nil
	}
	if sp.opts.Failover && indictsBinding(err) {
		return sp.failover(ctx, sel.result.Offer.Ref, op, args, err)
	}
	return nil, err
}

// indictsBinding is the proxy's one fault rule (see orb.Fault): err says
// the bound server, or the path to it, is unusable. The server's own answer,
// the caller's cancellation and a request the client cannot send are not,
// as another server would not cure them.
func indictsBinding(err error) bool {
	return orb.FaultOf(err).In(orb.Refused, orb.Unreachable, orb.Lost, orb.Unknown)
}

// failover re-selects away from every server that failed during this
// invocation and retries, spacing attempts with the configured retry
// policy's backoff. With a zero-value policy it performs a single immediate
// retry (the paper's behaviour). When the trader offers nothing new the
// proxy keeps its binding and the invocation fails with the last fault.
func (sp *SmartProxy) failover(ctx context.Context, dead wire.ObjRef, op string, args []wire.Value, cause error) ([]wire.Value, error) {
	sp.logf("core: failover: %s unreachable, re-selecting", dead)
	policy := sp.opts.Retry
	attempts := max(policy.MaxAttempts, 2) // the original call was attempt 1; retry at least once
	failed := []wire.ObjRef{dead}
	for attempt := 2; attempt <= attempts; attempt++ {
		if attempt > 2 && orb.SleepBackoff(ctx, policy.Backoff(attempt-1)) != nil {
			break
		}
		ok, err := sp.selectSkipping(ctx, sp.opts.Constraint, failed)
		if err == nil && !ok && sp.opts.FallbackSortOnly {
			ok, err = sp.selectSkipping(ctx, "", failed)
		}
		if err != nil {
			sp.logf("core: failover re-selection: %v", err)
			break
		}
		sp.mu.Lock()
		sel := sp.sel
		sp.mu.Unlock()
		if !ok || sel == nil || slices.Contains(failed, sel.result.Offer.Ref) {
			continue
		}
		rs, err := sel.proxy.Call(ctx, op, args...)
		if err == nil || !indictsBinding(err) {
			return rs, err
		}
		cause = err
		failed = append(failed, sel.result.Offer.Ref) // this server failed too; keep hunting
	}
	return nil, cause
}

// Adapt drains the event queue and runs the strategy for each pending
// event. Applications may call it explicitly ("a smart proxy can also
// explicitly activate the adaptation strategies that it implements,
// independently of received events").
func (sp *SmartProxy) Adapt(ctx context.Context) error {
	sp.mu.Lock()
	if len(sp.queue) == 0 {
		sp.mu.Unlock()
		return nil
	}
	events := sp.queue
	sp.queue = nil
	sp.mu.Unlock()
	return sp.runStrategies(ctx, events)
}

func (sp *SmartProxy) runStrategies(ctx context.Context, events []string) error {
	sp.adaptMu.Lock()
	defer sp.adaptMu.Unlock()
	var firstErr error
	for _, e := range events {
		sp.mu.Lock()
		s := sp.strategies[e]
		sp.stats.EventsHandled++
		sp.mu.Unlock()
		if s == nil {
			sp.logf("core: no strategy for event %q", e)
			continue
		}
		if err := s(ctx, sp); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: strategy %q: %w", e, err)
		}
	}
	return firstErr
}

// Close closes the proxy's subscriptions; later calls fail with ErrClosed.
func (sp *SmartProxy) Close() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	sp.closed = true
	sel := sp.sel
	sp.sel = nil
	sp.gen++
	sp.mu.Unlock()
	teardown(sel)
}
