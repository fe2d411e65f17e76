package experiment

import (
	"context"
	"fmt"
	"time"

	"autoadapt/internal/baseline"
	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/wire"
)

// Experiment E1 — the paper's §V load-sharing example, quantified.
//
// K closed-loop clients share N stateless servers. The *adaptive* policy is
// the paper's smart proxy: constraint-filtered trader selection, a shipped
// LoadIncrease predicate evaluated at each server's monitor, postponed
// event handling, and a re-selection strategy. The *static* policy is the
// Badidi et al. [20] baseline the paper contrasts itself against: one
// trader query at bind time, then no further adaptation. Round-robin and
// random are load-oblivious controls.
//
// Time is discrete: every Step the driver runs due client requests
// (accounted on simulated hosts with windowed load-average updates), and
// every MonitorPeriod it ticks the monitors, which fire shipped predicates
// and push the events on each adaptive proxy's subscription; a proxy
// handles an event at its first invocation after the event arrives.
// Mid-run, background load is
// injected on the most-loaded host, reproducing the disturbance that makes
// one-shot selection "become unbalanced".

// Policy names accepted by LoadSharing.
const (
	PolicyAdaptive   = "adaptive"
	PolicyStatic     = "static"
	PolicyRoundRobin = "roundrobin"
	PolicyRandom     = "random"
	PolicyRebind     = "rebind"
)

// AllPolicies lists every selection policy in report order. rebind is
// static selection plus failure-driven rebinding (a smart proxy with
// Failover and no watches): under E1's fault-free load it behaves like
// static, and E11 exercises its self-healing path.
var AllPolicies = []string{PolicyAdaptive, PolicyStatic, PolicyRebind, PolicyRoundRobin, PolicyRandom}

// LoadShareConfig parameterizes experiment E1.
type LoadShareConfig struct {
	Servers       int
	Clients       int
	Duration      time.Duration // simulated run length
	Step          time.Duration // accounting window (default 5s)
	MonitorPeriod time.Duration // monitor tick interval (default 60s)
	Think         time.Duration // client think time (default 2s)
	Demand        time.Duration // base request CPU demand (default 500ms)
	Threshold     float64       // LoadAvg limit in constraints (default 3)
	// Background injects external load: at BackgroundAt, BackgroundLoad
	// runnable tasks appear on the host currently serving the most
	// clients, and disappear at BackgroundOff (0 = never).
	BackgroundLoad float64
	BackgroundAt   time.Duration
	BackgroundOff  time.Duration
}

func (c *LoadShareConfig) fillDefaults() {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Duration == 0 {
		c.Duration = 20 * time.Minute
	}
	if c.Step == 0 {
		c.Step = 5 * time.Second
	}
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = time.Minute
	}
	if c.Think == 0 {
		c.Think = 2 * time.Second
	}
	if c.Demand == 0 {
		c.Demand = 500 * time.Millisecond
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
}

// LoadShareResult summarizes one policy's run.
type LoadShareResult struct {
	Policy        string
	Requests      int64
	MeanRespSec   float64
	P95RespSec    float64
	ImbalanceCoV  float64 // CoV of per-server busy time
	MaxOverMean   float64 // max/mean of per-server busy time
	Switches      int64   // server changes across all clients
	TraderQueries int64
	PerServer     []int64 // served requests per server
}

// LoadSharing runs E1 for one policy and returns its result row.
func LoadSharing(cfg LoadShareConfig, policy string) (*LoadShareResult, error) {
	cfg.fillDefaults()
	w, err := NewWorld(WorldConfig{Servers: cfg.Servers})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	ctx := context.Background()
	// Prime monitors so offers have live property values before binding.
	if err := w.TickMonitors(); err != nil {
		return nil, err
	}

	constraint := fmt.Sprintf("LoadAvg < %g and LoadAvgIncreasing == no", cfg.Threshold)

	// Build one invoker per client.
	invokers := make([]baseline.Invoker, cfg.Clients)
	var proxies []*core.SmartProxy
	for i := 0; i < cfg.Clients; i++ {
		switch policy {
		case PolicyAdaptive:
			sp, err := core.New(core.Options{
				Client:           w.Client,
				Lookup:           w.Lookup,
				ServiceType:      ServiceTypeName,
				Constraint:       constraint,
				Preference:       "min LoadAvg",
				FallbackSortOnly: true,
				Watches: []core.Watch{{
					Prop:      "LoadAvg",
					Event:     monitor.LoadIncreaseEvent,
					Predicate: monitor.LoadIncreasePredicateSrc(cfg.Threshold),
				}},
			})
			if err != nil {
				return nil, err
			}
			sp.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *core.SmartProxy) error {
				_, err := p.Select(ctx, constraint)
				return err
			})
			defer sp.Close()
			if err := sp.Bind(ctx); err != nil {
				return nil, fmt.Errorf("bind adaptive client %d: %w", i, err)
			}
			proxies = append(proxies, sp)
			invokers[i] = sp
		case PolicyStatic:
			c := baseline.NewStatic(w.Client, w.Lookup, ServiceTypeName, "min LoadAvg")
			if err := c.Bind(ctx); err != nil {
				return nil, err
			}
			invokers[i] = c
		case PolicyRebind:
			sp, err := core.New(core.Options{
				Client:      w.Client,
				Lookup:      w.Lookup,
				ServiceType: ServiceTypeName,
				Preference:  "min LoadAvg",
				Failover:    true,
			})
			if err != nil {
				return nil, err
			}
			defer sp.Close()
			if err := sp.Bind(ctx); err != nil {
				return nil, err
			}
			proxies = append(proxies, sp)
			invokers[i] = sp
		case PolicyRoundRobin:
			c := baseline.NewRoundRobin(w.Client, w.Lookup, ServiceTypeName)
			if err := c.Bind(ctx); err != nil {
				return nil, err
			}
			invokers[i] = c
		case PolicyRandom:
			c := baseline.NewRandom(w.Client, w.Lookup, ServiceTypeName, int64(i)+1)
			if err := c.Bind(ctx); err != nil {
				return nil, err
			}
			invokers[i] = c
		default:
			return nil, fmt.Errorf("experiment: unknown policy %q", policy)
		}
	}

	// Closed-loop simulation.
	nextAt := make([]time.Duration, cfg.Clients)
	for i := range nextAt {
		// Stagger starts across one think time so arrivals interleave.
		nextAt[i] = time.Duration(i) * cfg.Think / time.Duration(cfg.Clients)
	}
	var responses []float64
	var requests int64
	demandSec := cfg.Demand.Seconds()
	bgOn := false

	for now := time.Duration(0); now < cfg.Duration; now += cfg.Step {
		// Background disturbance.
		if cfg.BackgroundLoad > 0 && !bgOn && now >= cfg.BackgroundAt {
			w.Hosts[busiestHost(w)].SetBackground(cfg.BackgroundLoad)
			bgOn = true
		}
		if bgOn && cfg.BackgroundOff > 0 && now >= cfg.BackgroundOff {
			for _, h := range w.Hosts {
				h.SetBackground(0)
			}
			bgOn = false
		}
		// Run due client requests within this step.
		for i := range invokers {
			for nextAt[i] <= now {
				rs, err := invokers[i].Invoke(ctx, WorkOp, wire.Number(demandSec))
				if err != nil {
					return nil, fmt.Errorf("client %d at %v: %w", i, now, err)
				}
				resp := rs[0].Num()
				responses = append(responses, resp)
				requests++
				nextAt[i] += cfg.Think + time.Duration(resp*float64(time.Second))
			}
		}
		// Close the accounting window.
		w.SampleHosts(cfg.Step)
		// Monitor ticks on their period (events are pushed asynchronously).
		if now%cfg.MonitorPeriod == 0 && now > 0 {
			if err := w.TickMonitors(); err != nil {
				return nil, err
			}
		}
	}

	res := &LoadShareResult{
		Policy:       policy,
		Requests:     requests,
		MeanRespSec:  Mean(responses),
		P95RespSec:   Percentile(responses, 95),
		ImbalanceCoV: CoV(w.BusySeconds()),
		MaxOverMean:  MaxOverMean(w.BusySeconds()),
		PerServer:    w.ServedCounts(),
	}
	for _, sp := range proxies {
		st := sp.Stats()
		res.Switches += st.Switches
		res.TraderQueries += st.Selections
	}
	if proxies == nil {
		// Every baseline performs exactly one trader query at bind time.
		res.TraderQueries = int64(cfg.Clients)
	}
	return res, nil
}

// busiestHost returns the index of the host with the most completed work.
func busiestHost(w *World) int {
	busy := w.BusySeconds()
	best := 0
	for i, b := range busy {
		if b > busy[best] {
			best = i
		}
	}
	return best
}

// LoadSharingTable runs E1 for every policy and renders the comparison.
func LoadSharingTable(cfg LoadShareConfig) (*Table, []*LoadShareResult, error) {
	t := NewTable(
		"E1 — Load sharing: adaptive smart proxy vs one-shot trader selection (paper §V)",
		"policy", "requests", "mean resp", "p95 resp", "imbalance CoV", "max/mean", "switches", "queries")
	var results []*LoadShareResult
	for _, p := range AllPolicies {
		r, err := LoadSharing(cfg, p)
		if err != nil {
			return nil, nil, fmt.Errorf("policy %s: %w", p, err)
		}
		results = append(results, r)
		t.AddRow(r.Policy, I(r.Requests), Ms(r.MeanRespSec), Ms(r.P95RespSec),
			F(r.ImbalanceCoV), F(r.MaxOverMean), I(r.Switches), I(r.TraderQueries))
	}
	return t, results, nil
}
