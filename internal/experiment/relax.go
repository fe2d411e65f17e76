package experiment

import (
	"context"
	"fmt"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
)

// Experiment E6 — the paper's requirement-relaxation fallback (Fig. 7).
//
// Scenario: every server is loaded beyond the threshold, so re-selection
// cannot succeed. Two strategies are compared over a window in which the
// overload persists for a while and then one *other* server frees up:
//
//   - strict: on every LoadIncrease event, re-query with the original
//     constraint. The watch keeps firing each monitor period, so the proxy
//     keeps paying trader queries, but it recovers the instant any server
//     frees up.
//   - relax (Fig. 7): on failure, keep the current server and re-arm the
//     watch with a higher limit (threshold → 2·threshold). Queries stop —
//     the exact behaviour the paper programs — at the cost of not noticing
//     the freed server until its *own* server worsens past the relaxed
//     limit.
//
// Metrics: trader queries spent during the overload, whether/when the
// proxy migrated after relief, and events handled.

// RelaxConfig parameterizes E6.
type RelaxConfig struct {
	Servers       int           // default 3
	OverloadTicks int           // monitor periods of full overload (default 10)
	ReliefTicks   int           // periods after one server frees (default 10)
	Threshold     float64       // default 3
	MonitorPeriod time.Duration // default 60s (informational)
}

func (c *RelaxConfig) fillDefaults() {
	if c.Servers == 0 {
		c.Servers = 3
	}
	if c.OverloadTicks == 0 {
		c.OverloadTicks = 10
	}
	if c.ReliefTicks == 0 {
		c.ReliefTicks = 10
	}
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.MonitorPeriod == 0 {
		c.MonitorPeriod = time.Minute
	}
}

// RelaxResult is one strategy's row.
type RelaxResult struct {
	Strategy        string
	QueriesOverload int64 // trader queries during the overload phase
	QueriesRelief   int64 // trader queries after relief
	RecoveredAtTick int   // ticks after relief when the proxy migrated (-1: never)
	EventsHandled   int64
}

// RelaxedRequery runs E6 for both strategies.
func RelaxedRequery(cfg RelaxConfig) ([]RelaxResult, error) {
	cfg.fillDefaults()
	var out []RelaxResult
	for _, strategy := range []string{"strict", "relax"} {
		r, err := runRelax(cfg, strategy)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runRelax(cfg RelaxConfig, strategy string) (RelaxResult, error) {
	res := RelaxResult{Strategy: strategy, RecoveredAtTick: -1}
	w, err := NewWorld(WorldConfig{Servers: cfg.Servers})
	if err != nil {
		return res, err
	}
	defer w.Close()
	ctx := context.Background()

	constraint := fmt.Sprintf("LoadAvg < %g and LoadAvgIncreasing == no", cfg.Threshold)

	// Overload everyone; keep loads rising slightly so Increasing == yes
	// and the watch predicate can fire.
	high := cfg.Threshold * 2
	setLoads := func(i int, one, five float64) {
		// Monitors pull from the simulated hosts on each tick.
		w.Hosts[i].SetLoadAvg(one, five, five)
	}
	for i := range w.Monitors {
		setLoads(i, high, high*0.9)
	}
	if err := w.TickMonitors(); err != nil {
		return res, err
	}

	sp, err := core.New(core.Options{
		Client:      w.Client,
		Lookup:      w.Lookup,
		ServiceType: ServiceTypeName,
		Constraint:  constraint,
		Preference:  "min LoadAvg",
		Watches: []core.Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(cfg.Threshold),
		}},
	})
	if err != nil {
		return res, err
	}
	defer sp.Close()
	if err := sp.SetScriptStrategy(core.EventNoMatch, core.SortOnlyStrategy); err != nil {
		return res, err
	}

	switch strategy {
	case "strict":
		sp.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *core.SmartProxy) error {
			_, err := p.Select(ctx, constraint)
			return err
		})
	case "relax":
		// The Fig. 7 strategy, verbatim semantics, through the script
		// bridge: on failure attach a relaxed observer at 2·threshold.
		err := sp.SetScriptStrategiesTable(fmt.Sprintf(`{
			LoadIncrease = function(self)
				self._loadavg = self._loadavgmon:getValue()
				local query
				query = "LoadAvg < %g and LoadAvgIncreasing == no"
				if not self:_select(query) then
					self._loadavgmon:attachEventObserver(
						self._observer,
						"LoadIncrease",
						[[function(observer, value, monitor)
							local incr
							incr = monitor:getAspectValue("Increasing")
							return value[1] > %g and incr == "yes"
						end]])
				end
			end
		}`, cfg.Threshold, cfg.Threshold*2))
		if err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("experiment: unknown relax strategy %q", strategy)
	}

	if err := sp.Bind(ctx); err != nil {
		return res, err
	}
	boundRef, _ := sp.Current()
	boundIdx := -1
	for i, ref := range w.SvcRefs {
		if ref == boundRef {
			boundIdx = i
		}
	}
	if boundIdx < 0 {
		return res, fmt.Errorf("experiment: bound server not found")
	}
	// Relief target: any server other than the bound one.
	freeIdx := (boundIdx + 1) % cfg.Servers

	queriesBefore := sp.Stats().Selections

	tick := func() error {
		if err := w.TickMonitors(); err != nil {
			return err
		}
		if err := w.settle(sp); err != nil {
			return err
		}
		// One invocation per tick drives postponed handling.
		if _, err := sp.Invoke(ctx, "hello"); err != nil {
			return err
		}
		return nil
	}

	// Phase 1: overload.
	for i := 0; i < cfg.OverloadTicks; i++ {
		if err := tick(); err != nil {
			return res, err
		}
	}
	res.QueriesOverload = sp.Stats().Selections - queriesBefore

	// Phase 2: relief — freeIdx drops to an idle, steady load.
	setLoads(freeIdx, 0.2, 0.5)
	queriesAtRelief := sp.Stats().Selections
	for i := 0; i < cfg.ReliefTicks; i++ {
		if err := tick(); err != nil {
			return res, err
		}
		ref, _ := sp.Current()
		if ref == w.SvcRefs[freeIdx] && res.RecoveredAtTick < 0 {
			res.RecoveredAtTick = i + 1
		}
	}
	res.QueriesRelief = sp.Stats().Selections - queriesAtRelief
	res.EventsHandled = sp.Stats().EventsHandled
	return res, nil
}

// RelaxTable renders E6.
func RelaxTable(cfg RelaxConfig) (*Table, []RelaxResult, error) {
	rs, err := RelaxedRequery(cfg)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable(
		"E6 — Requirement relaxation under total overload (paper §V, Fig. 7)",
		"strategy", "queries (overload)", "queries (relief)", "recovered at tick", "events handled")
	for _, r := range rs {
		rec := "never"
		if r.RecoveredAtTick >= 0 {
			rec = fmt.Sprintf("%d", r.RecoveredAtTick)
		}
		t.AddRow(r.Strategy, I(r.QueriesOverload), I(r.QueriesRelief), rec, I(r.EventsHandled))
	}
	return t, rs, nil
}
