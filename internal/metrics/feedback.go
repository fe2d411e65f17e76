package metrics

import "sync"

// SLOFeed turns a latency histogram and an error counter into windowed
// SLO samples — the piece that closes the adaptation loop. A servant
// calls ObserveLatency per request; a
// monitor's Update calls Sample once per period and publishes the
// result as aspects/dynamic properties (`p99_ms`, `err_rate`), so a
// smart-proxy constraint can say `p99_ms < 50` over measured data.
//
// Each Sample differs the cumulative histogram against the previous
// snapshot, so quantiles describe only the latest window. An empty
// window — the natural state of a server every client has abandoned —
// decays the previous sample by half instead of holding it forever:
// without decay, a server that once spiked to p99=900ms would never be
// re-admitted by a `p99_ms < 50` constraint even after the load that
// hurt it moved away.
type SLOFeed struct {
	latency *Histogram
	errs    *Counter
	total   *Counter

	mu       sync.Mutex
	prev     HistSnapshot
	prevErrs uint64
	prevReqs uint64
	last     SLOSample
}

// SLOSample is one window's service-level view. Latency quantiles are
// in milliseconds (float — sub-millisecond services report fractions).
type SLOSample struct {
	P50ms   float64
	P95ms   float64
	P99ms   float64
	MeanMs  float64
	ErrRate float64 // errors / requests in the window, 0..1
	Count   uint64  // requests in the window
}

// NewSLOFeed builds a feed whose instruments are registered under
// prefix ("<prefix>_latency_us", "<prefix>_requests", "<prefix>_errors")
// in reg. A nil reg keeps the instruments private to the feed.
func NewSLOFeed(reg *Registry, prefix string) *SLOFeed {
	f := &SLOFeed{}
	if reg != nil {
		f.latency = reg.Histogram(prefix + "_latency_us")
		f.total = reg.Counter(prefix + "_requests")
		f.errs = reg.Counter(prefix + "_errors")
	} else {
		f.latency = NewHistogram()
		f.total = new(Counter)
		f.errs = new(Counter)
	}
	return f
}

// ObserveLatency records one request outcome: its latency in microseconds
// and whether it failed. Safe for concurrent use; never allocates.
func (f *SLOFeed) ObserveLatency(us int64, failed bool) {
	if f == nil {
		return
	}
	f.latency.Observe(us)
	f.total.Inc()
	if failed {
		f.errs.Inc()
	}
}

// Sample closes the current window and returns its SLO view. Empty
// windows halve the previous sample (see type comment) so a constraint
// over p99_ms re-admits recovered servers instead of pinning them to
// their worst moment.
func (f *SLOFeed) Sample() SLOSample {
	if f == nil {
		return SLOSample{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.latency.Snapshot()
	reqs := f.total.Value()
	errs := f.errs.Value()
	win := cur.Sub(f.prev)
	dReqs := reqs - f.prevReqs
	dErrs := errs - f.prevErrs
	f.prev, f.prevReqs, f.prevErrs = cur, reqs, errs

	if win.Count == 0 && dReqs == 0 {
		f.last.P50ms /= 2
		f.last.P95ms /= 2
		f.last.P99ms /= 2
		f.last.MeanMs /= 2
		f.last.ErrRate /= 2
		f.last.Count = 0
		return f.last
	}
	s := SLOSample{
		P50ms:  win.Quantile(0.50) / 1000,
		P95ms:  win.Quantile(0.95) / 1000,
		P99ms:  win.Quantile(0.99) / 1000,
		MeanMs: win.Mean() / 1000,
		Count:  win.Count,
	}
	if dReqs > 0 {
		s.ErrRate = float64(dErrs) / float64(dReqs)
	}
	f.last = s
	return s
}
