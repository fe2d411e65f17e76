// Package metrics is the stdlib-only observability core: lock-cheap
// counters and gauges, bounded streaming histograms with quantile
// snapshots, and a registry with a sorted plain-text exposition format.
//
// The design goals, in order:
//
//  1. Hot-path cost: Counter.Inc and Histogram.Observe are a handful of
//     atomic operations and never allocate, so they can sit inside the
//     ORB's invoke path without moving its alloc guards.
//  2. Feedback: snapshots difference cleanly (Snapshot.Sub), so a
//     windowed p99 or error rate can be re-exported as a monitor aspect
//     or trader dynamic property (see SLOFeed) — the paper's adaptation
//     loop closed over measured SLO data instead of simulated load.
//  3. Zero dependencies: exposition is a plain "name value" text format,
//     one metric per line, sorted — diffable in tests and greppable from
//     `adaptctl metrics`.
//
// A process-wide Default registry exists for commands; libraries take a
// *Registry (nil disables instrumentation entirely).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter (the disabled-registry path).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value. Safe on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Get-or-create lookups are guarded by a
// RWMutex — callers cache the returned handle and pay only atomics on
// the hot path. A nil *Registry is a valid "disabled" registry: the
// getters return nil and the With* helpers no-op, so instrumented code
// needs no branches beyond a nil check.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	funcs  map[string]func() float64
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		funcs:  make(map[string]func() float64),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = new(Counter)
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers fn as a gauge evaluated at exposition time — the
// bridge for pre-existing atomic stats structs (orb.ClientStats and
// friends) that already count without the registry. Re-registering a
// name replaces the function. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// WriteText writes every metric as "name value\n", sorted by name.
// Histograms expand to name_count, name_sum, name_p50, name_p95 and
// name_p99. Gauge functions that panic are skipped rather than taking
// the exposition down with them.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	type line struct {
		name string
		val  string
	}
	var lines []line
	add := func(name, val string) { lines = append(lines, line{name, val}) }

	r.mu.RLock()
	for name, c := range r.counts {
		add(name, fmt.Sprintf("%d", c.Value()))
	}
	for name, g := range r.gauges {
		add(name, fmt.Sprintf("%d", g.Value()))
	}
	for name, fn := range r.funcs {
		if v, ok := safeEval(fn); ok {
			add(name, formatFloat(v))
		}
	}
	for name, h := range r.hists {
		s := h.Snapshot()
		add(name+"_count", fmt.Sprintf("%d", s.Count))
		add(name+"_sum", fmt.Sprintf("%d", s.Sum))
		add(name+"_p50", formatFloat(s.Quantile(0.50)))
		add(name+"_p95", formatFloat(s.Quantile(0.95)))
		add(name+"_p99", formatFloat(s.Quantile(0.99)))
	}
	r.mu.RUnlock()

	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.val); err != nil {
			return err
		}
	}
	return nil
}

// Text returns the exposition as a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	_ = r.WriteText(&sb)
	return sb.String()
}

// safeEval calls fn, recovering a panic into a skipped sample.
func safeEval(fn func() float64) (v float64, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return fn(), true
}

// formatFloat renders integral floats without a trailing ".000..." so
// counters surfaced through GaugeFunc read like counters.
func formatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}
