package trading

import (
	"autoadapt/internal/metrics"
)

// Trader instrumentation (optional, see internal/metrics).
//
// SetMetrics attaches a registry to the trader: query latency and
// resolve fan-out histograms, error/quarantine/lease-churn counters, and
// the existing load stats as gauges. The handle is stored through an
// atomic pointer so queries in flight during SetMetrics race benignly
// (they see either no instrumentation or all of it), and a trader
// without metrics pays one atomic load per query.

// traderMetrics caches the trader's instrument handles.
type traderMetrics struct {
	queryLatency  *metrics.Histogram // µs per Query call
	queryErrors   *metrics.Counter   // queries rejected (bad type/constraint)
	resolveTasks  *metrics.Histogram // deduped monitor interrogations per query
	resolveErrors *metrics.Counter   // dynamic-property resolutions that failed
	quarantined   *metrics.Counter   // offers entering quarantine
	rehabilitated *metrics.Counter   // offers leaving quarantine (probe or renew)
	renewals      *metrics.Counter   // lease renewals
	reaped        *metrics.Counter   // expired offers garbage-collected
	withdrawals   *metrics.Counter   // explicit withdrawals
}

// SetMetrics instruments the trader with reg. A nil reg detaches
// instrumentation. Safe to call at any time, including concurrently with
// queries.
func (t *Trader) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		t.tm.Store(nil)
		return
	}
	tm := &traderMetrics{
		queryLatency:  reg.Histogram("trading_query_us"),
		queryErrors:   reg.Counter("trading_query_errors"),
		resolveTasks:  reg.Histogram("trading_resolve_tasks"),
		resolveErrors: reg.Counter("trading_resolve_errors"),
		quarantined:   reg.Counter("trading_quarantined"),
		rehabilitated: reg.Counter("trading_rehabilitated"),
		renewals:      reg.Counter("trading_renewals"),
		reaped:        reg.Counter("trading_reaped"),
		withdrawals:   reg.Counter("trading_withdrawals"),
	}
	reg.GaugeFunc("trading_offers", func() float64 { return float64(t.OfferCount()) })
	reg.GaugeFunc("trading_queries", func() float64 { return float64(t.statQueries.Load()) })
	reg.GaugeFunc("trading_exports", func() float64 { return float64(t.statExports.Load()) })
	reg.GaugeFunc("trading_scanned", func() float64 { return float64(t.statScanned.Load()) })
	reg.GaugeFunc("trading_candidates", func() float64 { return float64(t.statCandidates.Load()) })
	t.tm.Store(tm)
}
