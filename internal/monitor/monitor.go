// Package monitor implements the paper's extensible monitoring mechanism
// (LuaMonitor, §III): monitor objects that observe a single property,
// run-time defined *aspects* computed by shipped script code (Fig. 1), and
// event monitors that evaluate shipped event-diagnosing predicates at the
// monitor and notify observers through oneway callbacks (Fig. 2).
//
// A monitor owns one AdaptScript interpreter; all script evaluation —
// update functions, aspect evaluators, event predicates — happens under the
// monitor's lock, so shipped code sees a consistent snapshot and the
// interpreter's single-goroutine constraint is respected.
package monitor

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/scriptbind"
	"autoadapt/internal/wire"
)

// IDL is the monitor interface family exactly as the paper defines it
// (Figs. 1 and 2), in the repository's IDL subset.
const IDL = `
typedef any PropertyValue;
typedef string AspectName;
typedef sequence<string> AspectList;
typedef string LuaCode;
typedef string EventID;
typedef double EventObserverID;

interface AspectsManager {
    PropertyValue getAspectValue(in AspectName name);
    AspectList definedAspects();
    void defineAspect(in AspectName name, in LuaCode updatef);
};

interface BasicMonitor : AspectsManager {
    any getValue();
    void setValue(in any v);
};

interface EventObserver {
    oneway void notifyEvent(in EventID evid);
};

interface EventMonitor : BasicMonitor {
    EventObserverID attachEventObserver(in EventObserver obj, in EventID evid, in LuaCode notifyf);
    void detachEventObserver(in EventObserverID id);
};
`

// Errors returned by monitors.
var (
	// ErrNoSuchAspect is returned by AspectValue for undefined aspects.
	ErrNoSuchAspect = errors.New("monitor: no such aspect")
	// ErrClosed is returned by operations on a closed monitor.
	ErrClosed = errors.New("monitor: closed")
)

// UpdateFunc produces the property's current value (e.g. by reading
// /proc/loadavg or a simulated host).
type UpdateFunc func() (wire.Value, error)

// Notifier delivers event notifications to observers. The production
// implementation wraps an orb.Client oneway call; tests may record. The
// returned error feeds the monitor's quarantine: after
// Options.MaxNotifyFailures consecutive failures an observer is detached,
// so one dead observer cannot burn delivery work on every tick forever.
type Notifier interface {
	Notify(observer wire.ObjRef, eventID string) error
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(observer wire.ObjRef, eventID string) error

// Notify implements Notifier.
func (f NotifierFunc) Notify(observer wire.ObjRef, eventID string) error {
	return f(observer, eventID)
}

// DefaultMaxNotifyFailures is the consecutive-failure quarantine threshold
// applied when Options.MaxNotifyFailures is zero.
const DefaultMaxNotifyFailures = 3

// DefaultMaxScriptFailures is the consecutive budget-abort threshold at
// which a shipped aspect evaluator or event predicate is quarantined
// (removed) when Options.MaxScriptFailures is zero. Ordinary script errors
// (a typo'd field, a type error) do not count — only resource aborts
// (step/wall/memory budget, cancellation), which mark the code as hostile
// or runaway: each evaluation burns the full budget, so keeping it would
// tax every tick forever.
const DefaultMaxScriptFailures = 3

// Options configures a monitor.
type Options struct {
	// Name identifies the monitored property ("LoadAvg").
	Name string
	// Update computes the property value on each tick. Exactly one of
	// Update and UpdateScript must be set for a timer-driven monitor;
	// both may be empty for a push-style monitor fed through SetValue.
	Update UpdateFunc
	// UpdateScript is AdaptScript source evaluating to a zero-argument
	// function — the paper's Fig. 3 pattern, where the update function is
	// itself shipped code.
	UpdateScript string
	// Period is the update interval (the paper's Fig. 3 uses 60s). Zero
	// disables the internal timer; Tick may still be called manually.
	Period time.Duration
	// Clock drives the timer; defaults to the real clock.
	Clock clock.Clock
	// Notifier delivers event notifications. Nil drops them.
	Notifier Notifier
	// Logger receives script errors from shipped code. Nil discards.
	Logger *log.Logger
	// MaxNotifyFailures detaches an observer after this many consecutive
	// failed notifications (a successful delivery resets the count). Zero
	// means DefaultMaxNotifyFailures; negative disables the quarantine.
	MaxNotifyFailures int
	// MaxScriptSteps bounds each shipped-code evaluation (see script
	// package). Zero applies script.DefaultMaxSteps.
	MaxScriptSteps int
	// ScriptWallBudget bounds each shipped-code evaluation's wall-clock
	// time (checked against Clock, so sim-clock tests are deterministic).
	// Zero disables the bound.
	ScriptWallBudget time.Duration
	// ScriptMemBudget bounds each shipped-code evaluation's accounted
	// allocation in bytes. Zero disables the bound.
	ScriptMemBudget int64
	// MaxScriptFailures quarantines (removes) an aspect or event predicate
	// after this many consecutive budget aborts. Zero means
	// DefaultMaxScriptFailures; negative disables the quarantine.
	MaxScriptFailures int
	// ScriptEngine selects the AdaptScript execution engine for shipped
	// code (update functions, aspects, event predicates): the default
	// bytecode VM, or the tree-walking reference interpreter
	// (script.EngineTreeWalk).
	ScriptEngine script.Engine
	// SelfRef is the monitor's own object reference, passed to predicates
	// that want to hand it onward. May be zero.
	SelfRef wire.ObjRef
	// Client, when set, gives shipped code (update functions, aspects,
	// event predicates) the LuaCorba client API (`orb.invoke`, `orb.proxy`)
	// so it can consult OTHER monitors — the paper's §III composite
	// properties and events: "both the code for evaluating a property and
	// the code for diagnosing an event can contain references to other
	// monitors, thus allowing the construction of arbitrarily complex
	// composite properties and events."
	//
	// Shipped code must reach its OWN monitor through the `monitor`
	// argument, never through orb.invoke on its own reference: scripts run
	// under the monitor's lock, so a self-directed remote call would
	// deadlock.
	Client *orb.Client
}

type aspect struct {
	name  string
	fn    script.Value // function(self, currval, monitor)
	self  script.Value // persistent state table
	value script.Value // last computed value
	// budgetFails counts consecutive budget aborts (script quarantine).
	budgetFails int
}

type observer struct {
	id      int
	ref     wire.ObjRef
	eventID string
	fn      script.Value // function(observer, value, monitor)

	// sink, when non-nil, makes this a push observer: detections stream to
	// the subscriber as ORB events instead of oneway notifyEvent calls.
	sink orb.EventSink
	// failures counts consecutive failed notifications (quarantine).
	failures int
	// budgetFails counts consecutive budget aborts of the predicate
	// (script quarantine, independent of delivery failures).
	budgetFails int
	// notifiedVersion is the value version this push observer last fired
	// at. Detection may run more than once per sample (SetValue streams
	// immediately, then the next Tick re-detects the same value); push
	// observers fire at most once per version so subscribers see one event
	// per sample. Classic observers stay level-triggered per tick.
	notifiedVersion uint64
}

// Monitor observes one property. It implements the paper's BasicMonitor,
// AspectsManager and EventMonitor interfaces; expose it over the ORB with
// NewServant.
type Monitor struct {
	opts Options

	mu        sync.Mutex
	in        *script.Interp
	value     script.Value
	version   uint64       // bumped whenever value is (re)set; starts at 1
	updateFn  script.Value // compiled UpdateScript, if any
	aspects   []*aspect    // ordered by name, the order each sample evaluates them in
	observers []*observer  // ordered by id, likewise
	nextObsID int
	selfTable script.Value // table exposing monitor methods to shipped code
	closed    bool
	ticks     int

	stop chan struct{}
	done chan struct{}
}

// New constructs a monitor. If Period > 0, the internal timer starts
// immediately (the paper's "internal timing mechanism").
func New(opts Options) (*Monitor, error) {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	m := &Monitor{
		opts: opts,
		in: script.New(script.Options{
			MaxSteps:   opts.MaxScriptSteps,
			Clock:      opts.Clock,
			WallBudget: opts.ScriptWallBudget,
			MemBudget:  opts.ScriptMemBudget,
			Engine:     opts.ScriptEngine,
		}),
		version: 1,
	}
	if opts.Client != nil {
		scriptbind.InstallORB(m.in, opts.Client)
	}
	if opts.UpdateScript != "" {
		if opts.Update != nil {
			return nil, errors.New("monitor: set Update or UpdateScript, not both")
		}
		fn, err := m.compileFunction("update:"+opts.Name, opts.UpdateScript)
		if err != nil {
			return nil, err
		}
		m.updateFn = fn
	}
	m.selfTable = m.buildSelfTable()
	if opts.Period > 0 {
		m.stop = make(chan struct{})
		m.done = make(chan struct{})
		go m.run()
	}
	return m, nil
}

// Name returns the monitored property's name.
func (m *Monitor) Name() string { return m.opts.Name }

// Interp exposes the monitor's interpreter so hosts can inject primitives
// (e.g. the simulated /proc/loadavg reader) before shipped code runs.
// Callers must not retain it across goroutines.
func (m *Monitor) Interp() *script.Interp {
	return m.in
}

// compileFunction evaluates src, which must yield a function value, e.g.
// "function(a, b) ... end" or "return function(a, b) ... end".
func (m *Monitor) compileFunction(chunk, src string) (script.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compileFunctionLocked(chunk, src)
}

func (m *Monitor) compileFunctionLocked(chunk, src string) (script.Value, error) {
	// CompileFunction accepts both expression ("function() ... end") and
	// chunk forms, and compiles through the interpreter's chunk cache — a
	// predicate attached to N events or re-shipped on reconnect parses once.
	fn, err := m.in.CompileFunction(chunk, src)
	if err != nil {
		return script.Nil(), fmt.Errorf("monitor: compile %s: %w", chunk, err)
	}
	return fn, nil
}

// buildSelfTable creates the script-visible monitor object handed to
// aspect evaluators and event predicates: a table with getValue and
// getAspectValue methods, mirroring the paper's "reference to the monitor
// implementation, through which we can obtain the values of any aspect".
func (m *Monitor) buildSelfTable() script.Value {
	t := script.NewTable()
	t.SetString("name", script.String(m.opts.Name))
	if !m.opts.SelfRef.IsZero() {
		t.SetString("ref", script.Ref(m.opts.SelfRef))
	}
	// Methods are invoked as monitor:getValue() — arg 0 is the table.
	t.SetString("getValue", script.Func("monitor.getValue", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		// Called with m.mu held (scripts only run under the lock).
		return []script.Value{m.value}, nil
	}))
	t.SetString("getAspectValue", script.Func("monitor.getAspectValue", func(_ *script.Interp, args []script.Value) ([]script.Value, error) {
		if len(args) < 2 {
			return nil, errors.New("getAspectValue: aspect name required")
		}
		i, ok := m.findAspect(args[1].Str())
		if !ok {
			return []script.Value{script.Nil()}, nil
		}
		return []script.Value{m.aspects[i].value}, nil
	}))
	return script.TableVal(t)
}

func (m *Monitor) logf(format string, args ...any) {
	if m.opts.Logger != nil {
		m.opts.Logger.Printf(format, args...)
	}
}

// run is the internal timing mechanism: it triggers updates of the
// property value and activates event detection (paper §III).
func (m *Monitor) run() {
	defer close(m.done)
	for {
		ch, stopTimer := m.opts.Clock.After(m.opts.Period)
		select {
		case <-m.stop:
			stopTimer()
			return
		case <-ch:
			if err := m.Tick(); err != nil && !errors.Is(err, ErrClosed) {
				m.logf("monitor %s: tick: %v", m.opts.Name, err)
			}
		}
	}
}

// Close stops the timer and rejects further operations.
func (m *Monitor) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	if m.stop != nil {
		close(m.stop)
		<-m.done
	}
}

// Tick performs one update cycle: refresh the property value, recompute
// every aspect, then evaluate every observer's predicate and send
// notifications for those that fire. Notifications are delivered outside
// the monitor lock.
func (m *Monitor) Tick() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.ticks++
	// 1. Update the property value.
	switch {
	case m.opts.Update != nil:
		v, err := m.opts.Update()
		if err != nil {
			m.mu.Unlock()
			return fmt.Errorf("monitor %s: update: %w", m.opts.Name, err)
		}
		m.value = script.FromWire(v)
		m.version++
	case m.updateFn.IsFunction():
		vs, err := m.in.Call(m.updateFn, nil)
		if err != nil {
			m.mu.Unlock()
			return fmt.Errorf("monitor %s: update script: %w", m.opts.Name, err)
		}
		if len(vs) > 0 {
			m.value = vs[0]
			m.version++
		}
	}
	toNotify, val := m.detectLocked()
	m.mu.Unlock()

	m.deliver(toNotify, val)
	return nil
}

// findAspect returns where the aspect called name is in m.aspects, or
// where it would be inserted. Caller holds m.mu.
func (m *Monitor) findAspect(name string) (int, bool) {
	return slices.BinarySearchFunc(m.aspects, name, func(a *aspect, name string) int {
		return strings.Compare(a.name, name)
	})
}

// findObserver is findAspect for m.observers and an observer id.
func (m *Monitor) findObserver(id int) (int, bool) {
	return slices.BinarySearchFunc(m.observers, id, func(o *observer, id int) int { return o.id - id })
}

// detectLocked recomputes every aspect and evaluates every observer's
// predicate (in name and id order, for determinism), returning the
// observers whose events fired plus a wire snapshot of the property value
// to push with them. Caller holds m.mu.
func (m *Monitor) detectLocked() ([]*observer, wire.Value) {
	// Recompute aspects.
	for i := 0; i < len(m.aspects); i++ {
		a := m.aspects[i]
		vs, err := m.in.Call(a.fn, []script.Value{a.self, m.value, m.selfTable})
		if err != nil {
			m.logf("monitor %s: aspect %s: %v", m.opts.Name, a.name, err)
			if script.IsBudgetError(err) {
				a.budgetFails++
				if limit := m.maxScriptFailures(); limit > 0 && a.budgetFails >= limit {
					m.aspects = slices.Delete(m.aspects, i, i+1)
					i--
					m.logf("monitor %s: quarantined aspect %s after %d budget aborts",
						m.opts.Name, a.name, a.budgetFails)
				}
			}
			continue
		}
		a.budgetFails = 0
		if len(vs) > 0 {
			a.value = vs[0]
		} else {
			a.value = script.Nil()
		}
	}
	// Event detection.
	var toNotify []*observer
	for i := 0; i < len(m.observers); i++ {
		o := m.observers[i]
		if o.sink != nil && o.notifiedVersion == m.version {
			// Push observer already streamed this sample (SetValue runs
			// detection immediately; a following Tick re-detects the same
			// value). Don't push a duplicate event.
			continue
		}
		obsArg := script.Nil()
		if !o.ref.IsZero() {
			obsArg = script.Ref(o.ref)
		}
		vs, err := m.in.Call(o.fn, []script.Value{obsArg, m.value, m.selfTable})
		if err != nil {
			m.logf("monitor %s: predicate for %s: %v", m.opts.Name, o.eventID, err)
			if script.IsBudgetError(err) {
				o.budgetFails++
				if limit := m.maxScriptFailures(); limit > 0 && o.budgetFails >= limit {
					m.observers = slices.Delete(m.observers, i, i+1)
					i--
					m.logf("monitor %s: quarantined predicate for %s (observer %d) after %d budget aborts",
						m.opts.Name, o.eventID, o.id, o.budgetFails)
				}
			}
			continue
		}
		o.budgetFails = 0
		if len(vs) > 0 && vs[0].Truthy() {
			if o.sink != nil {
				o.notifiedVersion = m.version
			}
			toNotify = append(toNotify, o)
		}
	}
	val := wire.Nil()
	if len(toNotify) > 0 {
		if v, err := m.value.ToWire(); err == nil {
			val = v
		}
	}
	return toNotify, val
}

// hasPushObserversLocked reports whether any observer streams through a
// subscription sink. Caller holds m.mu.
func (m *Monitor) hasPushObserversLocked() bool {
	for _, o := range m.observers {
		if o.sink != nil {
			return true
		}
	}
	return false
}

// maxNotifyFailures resolves the quarantine threshold (0 = disabled).
func (m *Monitor) maxNotifyFailures() int {
	switch {
	case m.opts.MaxNotifyFailures > 0:
		return m.opts.MaxNotifyFailures
	case m.opts.MaxNotifyFailures < 0:
		return 0
	default:
		return DefaultMaxNotifyFailures
	}
}

// maxScriptFailures resolves the script-quarantine threshold (0 = disabled).
func (m *Monitor) maxScriptFailures() int {
	switch {
	case m.opts.MaxScriptFailures > 0:
		return m.opts.MaxScriptFailures
	case m.opts.MaxScriptFailures < 0:
		return 0
	default:
		return DefaultMaxScriptFailures
	}
}

// AspectCount reports installed aspects (diagnostics; quarantine tests).
func (m *Monitor) AspectCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.aspects)
}

// deliver sends the fired events outside the monitor lock — pushed onto
// each observer's subscription sink, or (classic observers) through the
// configured Notifier — then applies quarantine bookkeeping: a delivery
// failure bumps the observer's consecutive-failure count and detaches it
// at the threshold (immediately when its subscription is gone), a success
// resets the count.
func (m *Monitor) deliver(toNotify []*observer, val wire.Value) {
	if len(toNotify) == 0 {
		return
	}
	type outcome struct {
		id  int
		err error
	}
	outcomes := make([]outcome, 0, len(toNotify))
	for _, o := range toNotify {
		var err error
		switch {
		case o.sink != nil:
			err = o.sink.Push(wire.String(o.eventID), val)
		case m.opts.Notifier != nil:
			err = m.opts.Notifier.Notify(o.ref, o.eventID)
		default:
			continue
		}
		outcomes = append(outcomes, outcome{id: o.id, err: err})
	}
	limit := m.maxNotifyFailures()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, oc := range outcomes {
		i, ok := m.findObserver(oc.id)
		if !ok {
			continue // detached while we were delivering
		}
		o := m.observers[i]
		if oc.err == nil {
			o.failures = 0
			continue
		}
		o.failures++
		gone := errors.Is(oc.err, orb.ErrSubscriptionClosed)
		if gone || (limit > 0 && o.failures >= limit) {
			m.observers = slices.Delete(m.observers, i, i+1)
			m.logf("monitor %s: detached observer %d for %s after %d failed notifications: %v",
				m.opts.Name, oc.id, o.eventID, o.failures, oc.err)
		}
	}
}

// Ticks reports how many update cycles have run.
func (m *Monitor) Ticks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks
}

// Value returns the current property value (getValue).
func (m *Monitor) Value() (wire.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return wire.Nil(), ErrClosed
	}
	return m.value.ToWire()
}

// SetValue overrides the property value (setValue) — the push-style feed.
// When push observers are attached, event detection runs immediately: a
// value fed into the monitor streams its consequences to subscribers right
// away instead of waiting for the next timer tick. (Without push
// observers SetValue just stores the value, preserving the paper's
// poll-on-tick semantics.)
func (m *Monitor) SetValue(v wire.Value) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.value = script.FromWire(v)
	m.version++
	var toNotify []*observer
	val := wire.Nil()
	if m.hasPushObserversLocked() {
		toNotify, val = m.detectLocked()
	}
	m.mu.Unlock()
	m.deliver(toNotify, val)
	return nil
}

// DefineAspect installs (or replaces) an aspect whose evaluator is shipped
// script source: function(self, currval, monitor) ... end. The evaluator
// runs on every tick; its return value becomes the aspect's value.
func (m *Monitor) DefineAspect(name, evaluatorSrc string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	fn, err := m.compileFunctionLocked("aspect:"+name, evaluatorSrc)
	if err != nil {
		return err
	}
	a := &aspect{
		name: name,
		fn:   fn,
		self: script.TableVal(script.NewTable()),
	}
	if i, ok := m.findAspect(name); ok {
		m.aspects[i] = a
	} else {
		m.aspects = slices.Insert(m.aspects, i, a)
	}
	return nil
}

// aspectLocked returns the last computed value of the aspect called name.
// Caller holds m.mu.
func (m *Monitor) aspectLocked(name string) (script.Value, error) {
	i, ok := m.findAspect(name)
	if !ok {
		return script.Nil(), fmt.Errorf("%w: %q", ErrNoSuchAspect, name)
	}
	return m.aspects[i].value, nil
}

// AspectValue returns the last computed value of an aspect
// (getAspectValue).
func (m *Monitor) AspectValue(name string) (wire.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return wire.Nil(), ErrClosed
	}
	v, err := m.aspectLocked(name)
	if err != nil {
		return wire.Nil(), err
	}
	return v.ToWire()
}

// AspectValues returns, position for position, the last computed value of
// each named aspect, "" naming the property value itself
// (getAspectValues). They are read under one hold of the monitor's lock, so
// all of them belong to one sample; separate AspectValue calls can straddle
// a Tick. One undefined name fails the whole call.
func (m *Monitor) AspectValues(names ...string) ([]wire.Value, error) {
	out := make([]wire.Value, len(names))
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	for i, name := range names {
		v, err := m.value, error(nil)
		if name != "" {
			v, err = m.aspectLocked(name)
		}
		if err == nil {
			out[i], err = v.ToWire()
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DefinedAspects lists aspect names, sorted (definedAspects).
func (m *Monitor) DefinedAspects() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.aspects))
	for i, a := range m.aspects {
		out[i] = a.name
	}
	return out
}

// AttachObserver registers an event observer (attachEventObserver): ref
// will be sent notifyEvent(eventID) whenever predicateSrc — shipped code,
// evaluated here at the monitor — returns true on a tick. It returns the
// observer id for detachEventObserver.
func (m *Monitor) AttachObserver(ref wire.ObjRef, eventID, predicateSrc string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	fn, err := m.compileFunctionLocked("predicate:"+eventID, predicateSrc)
	if err != nil {
		return 0, err
	}
	m.nextObsID++
	id := m.nextObsID
	// Ids only grow, so appending keeps the list ordered.
	m.observers = append(m.observers, &observer{id: id, ref: ref, eventID: eventID, fn: fn})
	return id, nil
}

// AttachPushObserver registers a push observer: whenever predicateSrc
// fires, (eventID, value) is pushed onto sink — a streamed notification on
// the subscriber's connection, replacing the Tick-polled oneway callback.
// The observer is detached automatically when the sink reports its
// subscription closed, or by the quarantine after repeated push failures.
func (m *Monitor) AttachPushObserver(eventID, predicateSrc string, sink orb.EventSink) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	fn, err := m.compileFunctionLocked("predicate:"+eventID, predicateSrc)
	if err != nil {
		return 0, err
	}
	m.nextObsID++
	id := m.nextObsID
	m.observers = append(m.observers, &observer{id: id, eventID: eventID, fn: fn, sink: sink})
	return id, nil
}

// DetachObserver removes an observer (detachEventObserver). Unknown ids
// are ignored, matching the idempotent CORBA semantics.
func (m *Monitor) DetachObserver(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.findObserver(id); ok {
		m.observers = slices.Delete(m.observers, i, i+1)
	}
}

// ObserverCount reports registered observers (diagnostics).
func (m *Monitor) ObserverCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.observers)
}
