package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// Experiment E3 / ablation A1 — postponed vs immediate event handling.
//
// The paper postpones event handling "until the next service invocation"
// because "the postponement of event handling avoids conflicts with
// ongoing traffic when a reconfiguration is done". This experiment
// quantifies the trade-off: a single client issues a steady stream of
// invocations against a slow servant while events arrive asynchronously.
//
//   - postponed: strategies run inside Invoke, before the request — so a
//     reconfiguration can never overlap the client's own in-flight call.
//     Cost: the event waits for the next invocation (handling delay), and
//     that invocation absorbs the strategy's latency.
//   - immediate: strategies run in the notification upcall — zero handling
//     delay, but reconfigurations overlap in-flight traffic.
//
// Metrics: reconfigurations overlapping an in-flight invocation, mean
// event-to-handling delay, and the adaptation latency absorbed by
// invocations.

// PostponeConfig parameterizes E3.
type PostponeConfig struct {
	Events       int           // events injected (default 40)
	ServiceTime  time.Duration // servant latency, real time (default 2ms)
	ThinkTime    time.Duration // client gap between calls (default 1ms)
	StrategyTime time.Duration // simulated reconfiguration work (default 3ms)
}

func (c *PostponeConfig) fillDefaults() {
	if c.Events == 0 {
		c.Events = 40
	}
	if c.ServiceTime == 0 {
		c.ServiceTime = 2 * time.Millisecond
	}
	if c.ThinkTime == 0 {
		c.ThinkTime = time.Millisecond
	}
	if c.StrategyTime == 0 {
		c.StrategyTime = 3 * time.Millisecond
	}
}

// PostponeResult is one mode's row.
type PostponeResult struct {
	Mode                string
	Events              int64
	StrategyRuns        int64
	OverlappedReconfigs int64   // strategy ran while a call was in flight
	MeanHandlingDelayMs float64 // notify → strategy start
}

// PostponedVsImmediate runs E3 for both modes.
func PostponedVsImmediate(cfg PostponeConfig) ([]PostponeResult, error) {
	cfg.fillDefaults()
	var out []PostponeResult
	for _, immediate := range []bool{false, true} {
		r, err := runPostpone(cfg, immediate)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runPostpone(cfg PostponeConfig, immediate bool) (PostponeResult, error) {
	mode := "postponed"
	if immediate {
		mode = "immediate"
	}
	res := PostponeResult{Mode: mode}

	net := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "server"})
	if err != nil {
		return res, err
	}
	defer srv.Close()

	var inflight atomic.Int64
	svcRef := srv.Register("service", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		inflight.Add(1)
		time.Sleep(cfg.ServiceTime)
		inflight.Add(-1)
		return []wire.Value{wire.Bool(true)}, nil
	}))

	client := orb.NewClient(net)
	defer client.Close()

	sp, err := core.New(core.Options{Client: client, Immediate: immediate})
	if err != nil {
		return res, err
	}
	defer sp.Close()
	if err := sp.BindTo(context.Background(), trading.QueryResult{
		Offer: trading.Offer{ID: "offer-1", ServiceType: "S", Ref: svcRef},
	}); err != nil {
		return res, err
	}

	var overlapped, runs atomic.Int64
	var delayTotalNs atomic.Int64
	var lastNotify atomic.Int64 // unix nanos of the pending event's arrival
	sp.SetStrategy("Disturbance", func(ctx context.Context, p *core.SmartProxy) error {
		runs.Add(1)
		if t := lastNotify.Swap(0); t != 0 {
			delayTotalNs.Add(time.Now().UnixNano() - t)
		}
		if inflight.Load() > 0 {
			overlapped.Add(1)
		}
		time.Sleep(cfg.StrategyTime) // reconfiguration work
		return nil
	})

	// Client stream in the main goroutine; events injected from a second.
	// Each gap between events is stretched by a random part of one client
	// period (fixed seed, the same in both modes), so events land at every
	// phase of the client's call/think cycle. Unjittered, strategy plus
	// gap is exactly three client periods at the defaults, and the events
	// can lock onto the think gap: immediate mode then overlaps nothing.
	jitter := rand.New(rand.NewSource(1))
	period := int64(cfg.ServiceTime + cfg.ThinkTime)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < cfg.Events; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lastNotify.Store(time.Now().UnixNano())
			sp.OnEvent("Disturbance")
			res.Events++
			// Space events so each is (usually) handled before the next.
			time.Sleep(cfg.ServiceTime + cfg.StrategyTime + cfg.ThinkTime + time.Duration(jitter.Int63n(period)))
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := sp.Invoke(context.Background(), "work"); err != nil {
			close(stop)
			<-done
			return res, err
		}
		time.Sleep(cfg.ThinkTime)
		select {
		case <-done:
			// Drain any final pending event.
			if err := sp.Adapt(context.Background()); err != nil {
				return res, err
			}
			res.StrategyRuns = runs.Load()
			res.OverlappedReconfigs = overlapped.Load()
			if res.StrategyRuns > 0 {
				res.MeanHandlingDelayMs = float64(delayTotalNs.Load()) / float64(res.StrategyRuns) / 1e6
			}
			return res, nil
		default:
		}
		if time.Now().After(deadline) {
			close(stop)
			<-done
			return res, fmt.Errorf("experiment: E3 %s mode did not finish", mode)
		}
	}
}

// PostponeTable renders E3.
func PostponeTable(cfg PostponeConfig) (*Table, []PostponeResult, error) {
	rs, err := PostponedVsImmediate(cfg)
	if err != nil {
		return nil, nil, err
	}
	t := NewTable(
		"E3 — Postponed vs immediate event handling (paper §IV-A, ablation A1)",
		"mode", "events", "strategy runs", "overlapped reconfigs", "mean handling delay")
	for _, r := range rs {
		t.AddRow(r.Mode, I(r.Events), I(r.StrategyRuns), I(r.OverlappedReconfigs),
			fmt.Sprintf("%.2fms", r.MeanHandlingDelayMs))
	}
	return t, rs, nil
}
