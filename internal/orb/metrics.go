package orb

import (
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/metrics"
)

// Optional ORB instrumentation.
//
// Both Client and Server accept a *metrics.Registry in their options. A
// nil registry (the default) compiles the instrumentation out of the hot
// path behind one pointer check, so the ORB's alloc and latency guards
// hold unchanged. With a registry attached, every invocation costs two
// time.Now calls plus a handful of atomics: per-endpoint latency
// histograms and outcome-class counters on the client, a dispatch
// latency histogram and per-error-code counters on the server, and the
// pre-existing atomic stats structs surfaced as gauge functions.

// Invocation outcome classes. Coarser than error codes: the classes are
// what an SLO cares about (did it work, did the app refuse, was the
// system saturated, did the caller give up, did the transport fail).
const (
	classOK = iota
	classApp
	classOverloaded
	classDeadline
	classRejected // refused or unsendable before it left the client
	classTransport
	classCount
)

var classNames = [classCount]string{
	"ok", "app", "overloaded", "deadline", "rejected", "transport",
}

// classify maps an invocation outcome to its class by its Fault.
func classify(err error) int { return faultClasses[FaultOf(err)] }

var faultClasses = [...]int{
	NoFault: classOK, Answered: classApp, Overloaded: classOverloaded,
	Expired: classDeadline, Abandoned: classDeadline,
	Unsendable: classRejected, Refused: classRejected,
	Unreachable: classTransport, Lost: classTransport, Unknown: classTransport,
}

// clientMetrics caches per-endpoint instrument handles so the steady
// state is a read-locked map hit — no registry lookups, no allocation.
type clientMetrics struct {
	reg *metrics.Registry

	mu        sync.RWMutex
	endpoints map[string]*endpointMetrics
}

type endpointMetrics struct {
	latency *metrics.Histogram
	classes [classCount]*metrics.Counter
}

func newClientMetrics(reg *metrics.Registry, stats *clientStats) *clientMetrics {
	if reg == nil {
		return nil
	}
	// Surface the existing atomic counters without double-counting them.
	counters := map[string]*atomicU64{
		"orb_client_sync_invokes":   {&stats.syncCalls},
		"orb_client_async_invokes":  {&stats.asyncCalls},
		"orb_client_oneways":        {&stats.oneways},
		"orb_client_late_replies":   {&stats.lateReplies},
		"orb_client_canceled":       {&stats.canceled},
		"orb_client_window_waits":   {&stats.windowWaits},
		"orb_client_batch_flushes":  {&stats.batchFlushes},
		"orb_client_batched_frames": {&stats.batchedFrames},
		"orb_client_events_pushed":  {&stats.eventsPushed},
		"orb_client_events_dropped": {&stats.eventsDropped},
		"orb_client_subscribes":     {&stats.subscribes},
	}
	for name, a := range counters {
		reg.GaugeFunc(name, a.float)
	}
	return &clientMetrics{reg: reg, endpoints: make(map[string]*endpointMetrics)}
}

// forEndpoint returns (creating on first use) the cached handles for one
// endpoint.
func (cm *clientMetrics) forEndpoint(endpoint string) *endpointMetrics {
	cm.mu.RLock()
	em := cm.endpoints[endpoint]
	cm.mu.RUnlock()
	if em != nil {
		return em
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if em = cm.endpoints[endpoint]; em != nil {
		return em
	}
	em = &endpointMetrics{
		latency: cm.reg.Histogram(`orb_client_invoke_us{endpoint=` + endpoint + `}`),
	}
	for class, name := range classNames {
		em.classes[class] = cm.reg.Counter(
			`orb_client_invokes{endpoint=` + endpoint + `,class=` + name + `}`)
	}
	cm.endpoints[endpoint] = em
	return em
}

// observe records one invocation attempt's outcome.
func (cm *clientMetrics) observe(endpoint string, elapsed time.Duration, err error) {
	em := cm.forEndpoint(endpoint)
	em.latency.Observe(elapsed.Microseconds())
	em.classes[classify(err)].Inc()
}

// breakerCounters are the transition counters shared by every endpoint's
// breaker on one client (per-endpoint state is visible via BreakerState).
type breakerCounters struct {
	opened   *metrics.Counter // transitions into BreakerOpen (incl. reopen)
	reclosed *metrics.Counter // half-open probes that closed the circuit
}

func (cm *clientMetrics) breakerCounters() *breakerCounters {
	return &breakerCounters{
		opened:   cm.reg.Counter("orb_client_breaker_opened"),
		reclosed: cm.reg.Counter("orb_client_breaker_reclosed"),
	}
}

// atomicU64 adapts an atomic counter to a GaugeFunc.
type atomicU64 struct{ v *atomic.Uint64 }

func (a atomicU64) float() float64 { return float64(a.v.Load()) }

// serverMetrics instruments the dispatch path. Reply-code counters are
// pre-created in a read-only map so the hot path is a map hit plus
// atomics.
type serverMetrics struct {
	dispatch *metrics.Histogram
	byCode   map[string]*metrics.Counter
	other    *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry, s *Server) *serverMetrics {
	if reg == nil {
		return nil
	}
	sm := &serverMetrics{
		dispatch: reg.Histogram("orb_server_dispatch_us"),
		byCode:   make(map[string]*metrics.Counter),
		other:    reg.Counter(`orb_server_replies{code=OTHER}`),
	}
	codes := []string{"", CodeNoSuchObject, CodeBadOperation, CodeBadParam,
		CodeInternal, CodeApp, CodeDeadline, CodeOverloaded}
	for _, code := range codes {
		name := code
		if name == "" {
			name = "OK"
		}
		sm.byCode[code] = reg.Counter(`orb_server_replies{code=` + name + `}`)
	}
	stats := &s.stats
	for name, a := range map[string]*atomicU64{
		"orb_server_batched_frames":   {&stats.batchedFrames},
		"orb_server_batch_flushes":    {&stats.batchFlushes},
		"orb_server_shed_requests":    {&stats.shedRequests},
		"orb_server_expired_shed":     {&stats.expiredShed},
		"orb_server_spilled_requests": {&stats.spilledRequests},
	} {
		reg.GaugeFunc(name, a.float)
	}
	reg.GaugeFunc("orb_server_queue_depth", func() float64 {
		return float64(len(s.queue))
	})
	reg.GaugeFunc("orb_server_pool_workers", func() float64 {
		return float64(s.poolWorkers.Load())
	})
	return sm
}

// observe records one dispatched reply.
func (sm *serverMetrics) observe(elapsed time.Duration, code string) {
	sm.dispatch.Observe(elapsed.Microseconds())
	if c, ok := sm.byCode[code]; ok {
		c.Inc()
	} else {
		sm.other.Inc()
	}
}
