package experiment

import (
	"context"
	"fmt"
	"time"

	"autoadapt/internal/hostenv"
	"autoadapt/internal/metrics"
	"autoadapt/internal/monitor"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Experiment E16 — SLO-driven selection: latency-aware vs load-average
// routing under a bursty workload with a latency fault.
//
// Each server feeds its request outcomes into a metrics.SLOFeed whose
// windowed percentiles an SLO monitor publishes as the trader dynamic
// property p99_ms (internal/monitor/slo.go). Clients then select servers
// two ways:
//
//	loadavg — the paper's signal: preference "min LoadAvg" over the
//	          kernel-style damped 1-minute load average.
//	p99     — the metrics-core feedback loop: constraint "p99_ms < L"
//	          plus preference "min p99_ms" over the last window's p99.
//
// Mid-run one server suffers a latency fault that leaves its CPU load
// untouched — an IO stall, lock contention, a slow dependency. The load
// average is structurally blind to it (load measures run-queue depth, not
// service time) and damped besides, so "min LoadAvg" keeps routing to the
// slow server; the windowed p99 moves one monitor period after the fault
// and routes around it. When the fault clears, the SLOFeed's decay-on-
// empty (each empty window halves the remembered sample) lets the
// excluded server fall back under the constraint and win probe traffic
// again — no operator reset required.

// E16 policy names.
const (
	PolicyLoadAvgRoute = "loadavg"
	PolicyP99Route     = "p99"
)

// faultServer is the server E16's latency fault strikes.
const faultServer = 0

// SLORouteConfig sizes experiment E16.
type SLORouteConfig struct {
	Servers  int           // default 3
	Duration time.Duration // simulated run length (default 120s)
	Step     time.Duration // driver step = SLO monitor period (default 1s)
	// The latency fault: server faultServer's service time becomes
	// FaultLatency (instead of BaseLatency) between FaultAt and FaultOff.
	FaultAt      time.Duration // default 30s
	FaultOff     time.Duration // default 90s
	BaseLatency  time.Duration // healthy service time (default 5ms)
	FaultLatency time.Duration // faulty service time (default 80ms)
	// P99Limit is the constraint bound in ms for the p99 policy
	// ("p99_ms < P99Limit"); default 50.
	P99Limit float64
	// Demand is the per-request CPU demand accounted on the simulated
	// host — what the load average can see (default 10ms).
	Demand time.Duration
	// Bursty open-loop arrivals: BurstLow requests per step for the first
	// half of each BurstPeriod steps, BurstHigh for the second half
	// (defaults 12, 48, 10).
	BurstLow, BurstHigh int
	BurstPeriod         int
}

func (c *SLORouteConfig) fillDefaults() {
	if c.Servers == 0 {
		c.Servers = 3
	}
	if c.Duration == 0 {
		c.Duration = 120 * time.Second
	}
	if c.Step == 0 {
		c.Step = time.Second
	}
	if c.FaultAt == 0 {
		c.FaultAt = 30 * time.Second
	}
	if c.FaultOff == 0 {
		c.FaultOff = 90 * time.Second
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 5 * time.Millisecond
	}
	if c.FaultLatency == 0 {
		c.FaultLatency = 80 * time.Millisecond
	}
	if c.P99Limit == 0 {
		c.P99Limit = 50
	}
	if c.Demand == 0 {
		c.Demand = 10 * time.Millisecond
	}
	if c.BurstLow == 0 {
		c.BurstLow = 12
	}
	if c.BurstHigh == 0 {
		c.BurstHigh = 48
	}
	if c.BurstPeriod == 0 {
		c.BurstPeriod = 10
	}
}

// SLORouteResult summarizes one policy's E16 run.
type SLORouteResult struct {
	Policy   string
	Requests int64
	// Client-observed latency, overall and during the fault window (a
	// two-step grace after FaultAt lets the first SLO window close).
	P50Ms, P99Ms           float64
	FaultP50Ms, FaultP99Ms float64
	// FaultShareFaulty is the fraction of fault-window requests routed to
	// the faulty server.
	FaultShareFaulty float64
	// RecoveryFaulty counts requests the faulty server won back after the
	// fault cleared and the decayed p99 re-admitted it.
	RecoveryFaulty int64
	PerServer      []int64
}

// monitorResolver resolves trader dynamic properties directly against
// in-process monitors — E16 needs no wire hops, only the selection logic.
type monitorResolver map[string]*monitor.Monitor

func (r monitorResolver) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	m, ok := r[ref.Endpoint+"/"+ref.Key]
	if !ok {
		return wire.Nil(), fmt.Errorf("experiment: no monitor at %s", ref)
	}
	return m.AspectValue(aspect)
}

// SLORouting runs E16 for one policy and returns its result row.
func SLORouting(cfg SLORouteConfig, policy string) (*SLORouteResult, error) {
	cfg.fillDefaults()
	var constraint, preference string
	switch policy {
	case PolicyLoadAvgRoute:
		constraint, preference = "", "min LoadAvg"
	case PolicyP99Route:
		constraint = fmt.Sprintf("p99_ms < %g", cfg.P99Limit)
		preference = "min p99_ms"
	default:
		return nil, fmt.Errorf("experiment: unknown E16 policy %q", policy)
	}

	resolver := monitorResolver{}
	tr := trading.NewTrader(resolver)
	tr.AddType(trading.ServiceType{Name: ServiceTypeName, Interface: "Service",
		Props: []string{"LoadAvg", "p99_ms", "slo_n", "Host"}})

	hosts := make([]*hostenv.Host, cfg.Servers)
	sloMons := make([]*monitor.Monitor, cfg.Servers)
	loadMons := make([]*monitor.Monitor, cfg.Servers)
	feeds := make([]*metrics.SLOFeed, cfg.Servers)
	refByEndpoint := make(map[string]int, cfg.Servers)
	defer func() {
		for _, m := range sloMons {
			if m != nil {
				m.Close()
			}
		}
		for _, m := range loadMons {
			if m != nil {
				m.Close()
			}
		}
	}()
	for i := 0; i < cfg.Servers; i++ {
		host := hostenv.New(fmt.Sprintf("host-%d", i))
		hosts[i] = host
		lm, err := monitor.New(monitor.Options{
			Name: "LoadAvg",
			Update: func() (wire.Value, error) {
				one, five, fifteen, err := host.LoadAvg()
				if err != nil {
					return wire.Nil(), err
				}
				return wire.TableVal(wire.NewList(
					wire.Number(one), wire.Number(five), wire.Number(fifteen))), nil
			},
		})
		if err != nil {
			return nil, err
		}
		loadMons[i] = lm
		if err := lm.DefineAspect(monitor.Load1Aspect, monitor.Load1AspectSrc); err != nil {
			return nil, err
		}
		feeds[i] = metrics.NewSLOFeed(nil, fmt.Sprintf("srv%d", i))
		sm, err := monitor.NewSLO(feeds[i], nil, 0, nil)
		if err != nil {
			return nil, err
		}
		// The window's sample count, so clients can tell a measured p99
		// from a decayed ghost of one (see pick below).
		if err := sm.DefineAspect("n", "function(self, currval, monitor)\n\treturn currval.count\nend"); err != nil {
			return nil, err
		}
		sloMons[i] = sm

		ep := fmt.Sprintf("sim|host-%d", i)
		loadRef := wire.ObjRef{Endpoint: ep, Key: "monitor/LoadAvg"}
		sloRef := wire.ObjRef{Endpoint: ep, Key: "monitor/SLO"}
		svcRef := wire.ObjRef{Endpoint: ep, Key: "service"}
		resolver[loadRef.Endpoint+"/"+loadRef.Key] = lm
		resolver[sloRef.Endpoint+"/"+sloRef.Key] = sm
		refByEndpoint[svcRef.Endpoint] = i

		if _, err := tr.Export(ServiceTypeName, svcRef, map[string]trading.PropValue{
			"LoadAvg": {Dynamic: loadRef, Aspect: monitor.Load1Aspect},
			"p99_ms":  {Dynamic: sloRef, Aspect: monitor.P99Aspect},
			"slo_n":   {Dynamic: sloRef, Aspect: "n"},
			"Host":    {Static: wire.String(host.Name())},
		}); err != nil {
			return nil, err
		}
	}

	tick := func() error {
		for i := range loadMons {
			if err := loadMons[i].Tick(); err != nil {
				return err
			}
			if err := sloMons[i].Tick(); err != nil {
				return err
			}
		}
		return nil
	}
	// Prime so every dynamic property resolves before the first query.
	if err := tick(); err != nil {
		return nil, err
	}

	ctx := context.Background()
	res := &SLORouteResult{Policy: policy, PerServer: make([]int64, cfg.Servers)}
	var all, fault []float64
	var faultTotal, faultFaulty int64
	grace := 2 * cfg.Step
	// Deterministic LCG for jitter and band selection.
	rng := uint32(12345)
	next := func() uint32 {
		rng = rng*1664525 + 1013904223
		return rng >> 16
	}
	// Multiplicative latency jitter in [0.85, 1.15).
	jitter := func() float64 { return 0.85 + 0.3*float64(next()&1023)/1024 }
	// pick spreads load among the preference-sorted offers whose ranked
	// value sits within a tolerance band of the best (v <= 2*best + eps):
	// strict argmin routing would herd every request of a step onto one
	// server — in particular onto a re-admitted server whose decayed p99
	// briefly undercuts the healthy ones — where real clients jitter
	// across comparable choices. A p99 based on zero samples (slo_n == 0:
	// the feed's decay of an abandoned server, not a measurement) is only
	// *probed* — at most one request per step — until it earns a real
	// window again.
	rankProp := "LoadAvg"
	if policy == PolicyP99Route {
		rankProp = "p99_ms"
	}
	probed := make([]bool, cfg.Servers)
	pick := func(qrs []trading.QueryResult) trading.QueryResult {
		best, _ := qrs[0].Snapshot[rankProp].AsNumber()
		var pool, ghosts []trading.QueryResult
		for _, qr := range qrs {
			v, ok := qr.Snapshot[rankProp].AsNumber()
			if !ok || v > 2*best+2 {
				break // sorted: everything after is worse
			}
			cnt, _ := qr.Snapshot["slo_n"].AsNumber()
			i := refByEndpoint[qr.Offer.Ref.Endpoint]
			if policy == PolicyP99Route && cnt == 0 {
				if !probed[i] {
					ghosts = append(ghosts, qr)
				}
				continue
			}
			pool = append(pool, qr)
		}
		pool = append(pool, ghosts...)
		if len(pool) == 0 {
			pool = qrs[:1] // every candidate probed already: take the best
		}
		qr := pool[int(next())%len(pool)]
		i := refByEndpoint[qr.Offer.Ref.Endpoint]
		if cnt, _ := qr.Snapshot["slo_n"].AsNumber(); cnt == 0 {
			probed[i] = true
		}
		return qr
	}

	steps := int(cfg.Duration / cfg.Step)
	for s := 0; s < steps; s++ {
		now := time.Duration(s) * cfg.Step
		faultOn := now >= cfg.FaultAt && now < cfg.FaultOff
		for i := range probed {
			probed[i] = false
		}
		n := cfg.BurstLow
		if s%cfg.BurstPeriod >= cfg.BurstPeriod/2 {
			n = cfg.BurstHigh
		}
		for r := 0; r < n; r++ {
			qrs, err := tr.Query(ctx, ServiceTypeName, constraint, preference, 0)
			if err != nil {
				return nil, fmt.Errorf("query at %v: %w", now, err)
			}
			if len(qrs) == 0 {
				// Every server over the SLO bound: degrade gracefully to
				// unconstrained latency ranking rather than failing.
				qrs, err = tr.Query(ctx, ServiceTypeName, "", preference, 0)
				if err != nil || len(qrs) == 0 {
					return nil, fmt.Errorf("fallback query at %v matched nothing: %v", now, err)
				}
			}
			i := refByEndpoint[pick(qrs).Offer.Ref.Endpoint]
			res.PerServer[i]++
			res.Requests++

			lat := cfg.BaseLatency
			if faultOn && i == faultServer {
				lat = cfg.FaultLatency
			}
			latMs := float64(lat) / float64(time.Millisecond) * jitter()
			feeds[i].ObserveLatency(int64(latMs*1000), false)
			hosts[i].RecordWork(cfg.Demand)

			all = append(all, latMs)
			if now >= cfg.FaultAt+grace && now < cfg.FaultOff {
				fault = append(fault, latMs)
				faultTotal++
				if i == faultServer {
					faultFaulty++
				}
			}
			if now >= cfg.FaultOff+grace && i == faultServer {
				res.RecoveryFaulty++
			}
		}
		for _, h := range hosts {
			h.SampleWindow(cfg.Step)
		}
		if err := tick(); err != nil {
			return nil, err
		}
	}

	res.P50Ms = Percentile(all, 50)
	res.P99Ms = Percentile(all, 99)
	res.FaultP50Ms = Percentile(fault, 50)
	res.FaultP99Ms = Percentile(fault, 99)
	if faultTotal > 0 {
		res.FaultShareFaulty = float64(faultFaulty) / float64(faultTotal)
	}
	return res, nil
}

// SLORoutingTable runs E16 for both policies and renders the comparison.
func SLORoutingTable(cfg SLORouteConfig) (*Table, []*SLORouteResult, error) {
	t := NewTable(
		"E16 — SLO-driven selection: windowed p99 vs damped load average under a latency fault",
		"policy", "requests", "p50", "p99", "fault p50", "fault p99", "fault share->faulty", "readmitted")
	var results []*SLORouteResult
	for _, p := range []string{PolicyP99Route, PolicyLoadAvgRoute} {
		r, err := SLORouting(cfg, p)
		if err != nil {
			return nil, nil, fmt.Errorf("policy %s: %w", p, err)
		}
		results = append(results, r)
		t.AddRow(r.Policy, I(r.Requests), F(r.P50Ms), F(r.P99Ms),
			F(r.FaultP50Ms), F(r.FaultP99Ms), F(r.FaultShareFaulty), I(r.RecoveryFaulty))
	}
	return t, results, nil
}
