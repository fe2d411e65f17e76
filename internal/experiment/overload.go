package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// E15 — overload protection. A server fronts a capacity-limited resource
// (Slots concurrent executions of ServiceTime each) and is offered
// LoadFactor times its capacity for Duration. The governed mode runs the
// admission-controlled dispatch pool (MaxConcurrent + MaxQueue + deadline
// shedding); the ungoverned baseline is a pool and queue each as large as
// the offered request count, so it admits everything and, its workers
// spawning lazily, runs one goroutine per waiting request. The claim under
// test: the governed server keeps goodput near capacity and latency bounded
// with a flat goroutine count, while the baseline queues itself to death.

// OverloadConfig sizes the E15 overload experiment.
type OverloadConfig struct {
	Slots       int           // concurrent capacity of the backing resource
	ServiceTime time.Duration // time one request occupies a slot
	LoadFactor  float64       // offered load as a multiple of capacity
	Duration    time.Duration // offered-load window
	Deadline    time.Duration // per-request deadline
	// Governed-mode admission knobs.
	MaxConcurrent int
	MaxQueue      int
	// Waiters bounds client-side result collection concurrency.
	Waiters int
}

// OverloadResult is one mode's outcome.
type OverloadResult struct {
	Mode      string
	Offered   int // requests sent
	Good      int // completed within the deadline
	Shed      int // refused at admission (ErrOverloaded)
	Missed    int // admitted but missed the deadline
	SendErrs  int
	Capacity  int     // requests the resource could serve in Duration
	Goodput   float64 // Good / Capacity
	P50Ms     float64 // over admitted requests; misses censored at Deadline
	P99Ms     float64
	MaxGrowth int // peak goroutine growth over the pre-storm baseline
	Stats     orb.ServerStats
}

// Overload runs the governed mode and the ungoverned baseline.
func Overload(cfg OverloadConfig) ([]OverloadResult, error) {
	if cfg.Waiters <= 0 {
		cfg.Waiters = 64
	}
	var out []OverloadResult
	for _, mode := range []string{"governed", "ungoverned"} {
		r, err := runOverload(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("experiment: overload %s: %w", mode, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runOverload(cfg OverloadConfig, mode string) (OverloadResult, error) {
	interval := time.Duration(float64(cfg.ServiceTime) / (float64(cfg.Slots) * cfg.LoadFactor))
	total := int(cfg.Duration / interval)
	capacity := int(float64(cfg.Duration) / float64(cfg.ServiceTime) * float64(cfg.Slots))
	maxConc, maxQ := cfg.MaxConcurrent, cfg.MaxQueue
	if mode == "ungoverned" {
		maxConc, maxQ = total, total
	}
	net := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{
		Network: net, Address: "overload-host",
		MaxConcurrent: maxConc, MaxQueue: maxQ,
	})
	if err != nil {
		return OverloadResult{}, err
	}
	defer srv.Close()

	// The backing resource: Slots semaphore tokens, held ServiceTime each.
	slots := make(chan struct{}, cfg.Slots)
	for i := 0; i < cfg.Slots; i++ {
		slots <- struct{}{}
	}
	ref := srv.Register("svc", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		<-slots
		time.Sleep(cfg.ServiceTime)
		slots <- struct{}{}
		return nil, nil
	}))
	client := orb.NewClient(net)
	defer client.Close()

	type pending struct {
		fut    *orb.Future
		sentAt time.Time
		ctx    context.Context
		cancel context.CancelFunc
	}
	queue := make(chan pending, total)
	var (
		mu        sync.Mutex
		latencies []float64
		r         = OverloadResult{Mode: mode, Capacity: capacity}
	)

	// Bounded waiter pool: in governed mode in-flight work is far below
	// Waiters so latencies are exact; in the ungoverned baseline waiters
	// can fall behind the backlog, which only understates its collapse.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range queue {
				_, err := p.fut.Wait(p.ctx)
				p.cancel()
				lat := time.Since(p.sentAt)
				mu.Lock()
				switch {
				case err == nil:
					r.Good++
					latencies = append(latencies, lat.Seconds()*1e3)
				case orb.FaultOf(err) == orb.Overloaded:
					r.Shed++
				default:
					r.Missed++
					latencies = append(latencies, cfg.Deadline.Seconds()*1e3) // censored
				}
				mu.Unlock()
			}
		}()
	}

	// Goroutine sampler: peak growth over the pre-storm baseline, which
	// already includes the waiter pool and this sampler.
	baseline := runtime.NumGoroutine()
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		for {
			select {
			case <-stopSample:
				return
			case <-time.After(5 * time.Millisecond):
				if g := runtime.NumGoroutine() - baseline; g > r.MaxGrowth {
					r.MaxGrowth = g
				}
			}
		}
	}()

	// Open-loop offered load on an absolute schedule.
	start := time.Now()
	for i := 0; i < total; i++ {
		if next := start.Add(time.Duration(i) * interval); time.Until(next) > 0 {
			time.Sleep(time.Until(next))
		}
		sentAt := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), sentAt.Add(cfg.Deadline))
		fut, err := client.InvokeAsync(ctx, ref, WorkOp)
		r.Offered++
		if err != nil {
			cancel()
			mu.Lock()
			r.SendErrs++
			mu.Unlock()
			continue
		}
		queue <- pending{fut: fut, sentAt: sentAt, ctx: ctx, cancel: cancel}
	}
	close(queue)
	wg.Wait()
	close(stopSample)
	sampleWG.Wait()

	r.Goodput = float64(r.Good) / float64(capacity)
	r.P50Ms = Percentile(latencies, 50)
	r.P99Ms = Percentile(latencies, 99)
	r.Stats = srv.Stats()
	return r, nil
}

// HostileQuarantine measures how many adaptation events a hostile shipped
// script survives before the budget quarantine evicts it: a monitor aspect
// that loops forever is installed next to a healthy one, and the monitor
// is ticked until the offender is gone. Returns the tick count at
// eviction (the quarantine latency in events).
func HostileQuarantine(maxSteps int) (int, error) {
	m, err := monitor.New(monitor.Options{Name: "E15", MaxScriptSteps: maxSteps})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	if err := m.DefineAspect("hostile", `function(self, v, mon) while true do end end`); err != nil {
		return 0, err
	}
	if err := m.DefineAspect("healthy", monitor.IncreasingAspectSrc); err != nil {
		return 0, err
	}
	if err := m.SetValue(wire.TableVal(wire.NewList(
		wire.Number(1), wire.Number(2), wire.Number(3)))); err != nil {
		return 0, err
	}
	for ticks := 1; ; ticks++ {
		if err := m.Tick(); err != nil {
			return 0, err
		}
		if m.AspectCount() == 1 {
			return ticks, nil
		}
		if ticks > 100 {
			return 0, errors.New("experiment: hostile aspect never quarantined")
		}
	}
}
