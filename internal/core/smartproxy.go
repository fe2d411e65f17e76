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
	// ErrNoOffer is returned when a route's constraint matches nothing and
	// no EventNoMatch strategy binds it otherwise.
	ErrNoOffer = errors.New("core: no offer satisfies the requirements")
	// ErrNotBound is returned by Invoke before any server is selected.
	ErrNotBound = errors.New("core: smart proxy is not bound to a server")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: smart proxy closed")
)

// Strategy is an adaptation strategy. It runs with the proxy's adaptation
// lock held: for a notification, just before the next invocation; for
// EventFailed, inside the invocation that failed.
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
	// Watches are installed on each server the main route binds to.
	Watches []Watch
	// Immediate disables the paper's postponed event handling: strategies
	// run as soon as the notification arrives instead of before the next
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
}

// watchSub is one live push subscription serving a Watch, remembered with
// the monitor it streams from so re-armed watches (rearm) and rebinds can
// tear it down.
type watchSub struct {
	monitor wire.ObjRef
	sub     *orb.Subscription
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

	mu         sync.Mutex // guards the routes' bindings, strategies, queue, stats
	main       route      // serves every operation without a route of its own
	gen        uint64     // bumped with every change of binding, so self can follow main
	strategies map[string]Strategy
	queue      []string
	immediate  []string // Immediate mode's events, for drainImmediate
	draining   bool     // a drainImmediate goroutine runs
	closed     bool
	stats      Stats

	adaptMu sync.Mutex // serializes adaptation passes

	scriptMu sync.Mutex     // guards in and self: strategy compilation and execution
	in       *script.Interp // strategy scripts
	self     scriptSelf     // the strategies' self object

	// §IV-A behaviors: per-operation routes and alternative methods
	// (see routing.go). Guarded by mu.
	routes map[string]*route
	altOps map[string]string
}

// New creates an unbound smart proxy. Call Bind (or BindTo) before Invoke.
func New(opts Options) (*SmartProxy, error) {
	if opts.Client == nil {
		return nil, errors.New("core: Options.Client is required")
	}
	sp := &SmartProxy{
		opts:       opts,
		main:       route{constraint: opts.Constraint, preference: opts.Preference, watches: opts.Watches},
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
// pending events collapse. In Immediate mode the strategy runs at once, on
// the proxy's one drainer goroutine (drainImmediate), never the caller's:
// for a pushed event that is the connection's reader, and a strategy that
// called the server that pushed the event would wait for a reply only that
// reader can read.
func (sp *SmartProxy) OnEvent(event string) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return
	}
	sp.stats.EventsQueued++
	q := &sp.queue
	if sp.opts.Immediate {
		q = &sp.immediate
	}
	if !slices.Contains(*q, event) { // duplicates collapse
		*q = append(*q, event)
	}
	if sp.opts.Immediate && !sp.draining {
		sp.draining = true
		go sp.drainImmediate()
	}
}

// drainImmediate runs the strategies of Immediate mode's events one after
// another until none is left (ablation A1): one goroutine, however fast
// events come.
func (sp *SmartProxy) drainImmediate() {
	sp.mu.Lock()
	for len(sp.immediate) > 0 && !sp.closed {
		event := sp.immediate[0]
		sp.immediate = sp.immediate[1:]
		sp.mu.Unlock()
		if err := sp.runStrategies(context.Background(), []string{event}); err != nil {
			sp.logf("core: immediate strategy for %q: %v", event, err)
		}
		sp.mu.Lock()
	}
	sp.draining = false
	sp.mu.Unlock()
}

// pushReader is the proxy as the orb.EventReader of its watches'
// subscriptions: a pushed event, (eventID, value), goes from the
// connection's reader straight to OnEvent.
type pushReader SmartProxy

// ReadEvent implements orb.EventReader: it reads the event id and skips the
// value.
func (r *pushReader) ReadEvent(d *wire.Decoder, n int) error {
	if n == 0 {
		return nil
	}
	id, err := d.Value()
	for i := 1; i < n && err == nil; i++ {
		err = d.Skip(0)
	}
	if err == nil {
		(*SmartProxy)(r).OnEvent(id.Str())
	}
	return err
}

// EndEvents implements orb.EventReader.
func (r *pushReader) EndEvents(err error) {
	(*SmartProxy)(r).logf("core: event subscription ended: %v", err)
}

// PendingEvents returns the queued event ids (diagnostics).
func (sp *SmartProxy) PendingEvents() []string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return slices.Clone(sp.queue)
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

// Current returns the main route's server reference (zero if unbound) and
// the offer it came from.
func (sp *SmartProxy) Current() (wire.ObjRef, trading.QueryResult) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.main.result.Offer.Ref, sp.main.result
}

// closeSubs closes push subscriptions, which cancels the monitor-side
// observers.
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
	sub, err := sp.opts.Client.Subscribe(ctx, mon, event, (*pushReader)(sp), wire.String(predicate))
	if err != nil {
		return err
	}
	fresh := watchSub{monitor: mon, sub: sub}
	var stale []watchSub
	sp.mu.Lock()
	if sp.closed { // closed meanwhile: nothing owns the new subscription
		stale = append(stale, fresh)
	} else {
		kept := sp.main.subs[:0]
		for _, ws := range sp.main.subs {
			if ws.monitor == mon {
				stale = append(stale, ws)
			} else {
				kept = append(kept, ws)
			}
		}
		sp.main.subs = append(kept, fresh)
	}
	sp.mu.Unlock()
	closeSubs(stale)
	return nil
}

// Invoke forwards op to the server of its route — its own (RouteOperation)
// or the main one — first handling any pending events by activating their
// adaptation strategies (paper §IV-A).
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
	r := sp.routes[op]
	if r == nil {
		r = &sp.main
	}
	proxy := r.proxy
	sp.stats.Invocations++
	sp.mu.Unlock()
	if proxy == nil {
		return nil, ErrNotBound
	}
	rs, err := proxy.Call(ctx, op, args...)
	if err == nil {
		return rs, nil
	}
	return sp.invokeFailed(ctx, r, proxy, op, args, err)
}

// invokeFailed is the invoke path after proxy, r's server, failed op with
// cause: it tries op's alternative method and, when cause indicts the
// server, runs r's _failed strategy. If that leaves r on another server,
// the invocation is retried there once, and that answer or fault is the
// invocation's; otherwise it fails with cause and r keeps its server.
func (sp *SmartProxy) invokeFailed(ctx context.Context, r *route, proxy *orb.Proxy, op string, args []wire.Value, cause error) ([]wire.Value, error) {
	sp.mu.Lock()
	sp.stats.FailedInvokes++
	sp.mu.Unlock()
	if rs, ok := sp.tryAlternative(ctx, proxy, op, args, cause); ok {
		return rs, nil
	}
	if !indictsBinding(cause) {
		return nil, cause
	}
	if next := sp.repairFailed(ctx, r, proxy.Ref()); next != nil {
		return next.Call(ctx, op, args...)
	}
	return nil, cause
}

// indictsBinding is the proxy's one fault rule (see orb.Fault): err says
// the bound server, or the path to it, is unusable. The server's own answer,
// the caller's cancellation and a request the client cannot send are not,
// as another server would not cure them.
func indictsBinding(err error) bool {
	return orb.FaultOf(err).In(orb.Refused, orb.Unreachable, orb.Lost, orb.Unknown)
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
		if err := sp.activate(ctx, e, true); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// activate runs event's strategy, if one is installed. The caller holds
// adaptMu. Only a notification counts in EventsHandled: EventFailed and
// EventNoMatch are the proxy's own events, not queued ones.
func (sp *SmartProxy) activate(ctx context.Context, event string, notification bool) error {
	sp.mu.Lock()
	s := sp.strategies[event]
	if notification {
		sp.stats.EventsHandled++
	}
	sp.mu.Unlock()
	if s == nil {
		sp.logf("core: no strategy for event %q", event)
		return nil
	}
	if err := s(ctx, sp); err != nil {
		return fmt.Errorf("core: strategy %q: %w", event, err)
	}
	return nil
}

// Close closes the proxy's subscriptions; later calls fail with ErrClosed.
func (sp *SmartProxy) Close() {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return
	}
	sp.closed = true
	subs := sp.main.subs
	sp.main.subs = nil
	sp.mu.Unlock()
	closeSubs(subs)
}
