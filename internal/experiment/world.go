// Package experiment contains the harness that regenerates the paper's
// evaluation: workload generators, the simulated deployment of Fig. 6, the
// metrics, and the table renderers used by cmd/benchall and bench_test.go.
// DESIGN.md §3 maps each experiment (E1-E8) to the functions here.
package experiment

import (
	"fmt"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/hostenv"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// ServiceTypeName is the traded type used by the load-sharing experiments.
const ServiceTypeName = "LoadShared"

// WorkOp is the operation exported by experiment servants: it accounts
// args[0] seconds of CPU demand on the simulated host and returns the
// dilated response time in seconds.
const WorkOp = "work"

// World is the paper's Fig. 6 deployment, assembled in-process: a trader,
// N server hosts (service servant + simulated host + LoadAvg monitor with
// the Fig. 3 aspects), and a client.
type World struct {
	Net      *orb.InprocNetwork
	Trader   *trading.Trader
	Lookup   *trading.Lookup
	Client   *orb.Client
	Hosts    []*hostenv.Host
	Monitors []*monitor.Monitor
	MonRefs  []wire.ObjRef
	SvcRefs  []wire.ObjRef

	servers []*orb.Server
	clients []*orb.Client
}

// WorldConfig sizes a World.
type WorldConfig struct {
	Servers int
}

// NewWorld assembles the deployment. Close releases everything.
func NewWorld(cfg WorldConfig) (*World, error) {
	w := &World{Net: orb.NewInprocNetwork()}
	fail := func(err error) (*World, error) {
		w.Close()
		return nil, err
	}

	resolver := orb.NewClient(w.Net)
	w.clients = append(w.clients, resolver)
	w.Trader = trading.NewTrader(trading.ClientResolver{Client: resolver})
	w.Trader.AddType(trading.ServiceType{Name: ServiceTypeName, Interface: "Service",
		Props: []string{"LoadAvg", "LoadAvgIncreasing", "Host"}})

	traderSrv, err := orb.NewServer(orb.ServerOptions{Network: w.Net, Address: "trader"})
	if err != nil {
		return fail(err)
	}
	w.servers = append(w.servers, traderSrv)
	traderRef := traderSrv.Register(trading.DefaultObjectKey, "", trading.NewServant(w.Trader))

	w.Client = orb.NewClient(w.Net)
	w.clients = append(w.clients, w.Client)
	w.Lookup = trading.NewLookup(w.Client, traderRef)

	for i := 0; i < cfg.Servers; i++ {
		host := hostenv.New(fmt.Sprintf("host-%d", i))
		w.Hosts = append(w.Hosts, host)

		srv, err := orb.NewServer(orb.ServerOptions{Network: w.Net, Address: fmt.Sprintf("host-%d", i)})
		if err != nil {
			return fail(err)
		}
		w.servers = append(w.servers, srv)

		m, err := monitor.New(monitor.Options{
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
			return fail(err)
		}
		w.Monitors = append(w.Monitors, m)
		if err := m.DefineAspect("Increasing", monitor.IncreasingAspectSrc); err != nil {
			return fail(err)
		}
		if err := m.DefineAspect(monitor.Load1Aspect, monitor.Load1AspectSrc); err != nil {
			return fail(err)
		}
		monRef := srv.Register("monitor/LoadAvg", "", monitor.NewServant(m))
		w.MonRefs = append(w.MonRefs, monRef)

		svcRef := srv.Register("service", "", workServant(host))
		w.SvcRefs = append(w.SvcRefs, svcRef)

		_, err = w.Trader.Export(ServiceTypeName, svcRef, map[string]trading.PropValue{
			"LoadAvg":           {Dynamic: monRef, Aspect: monitor.Load1Aspect},
			"LoadAvgIncreasing": {Dynamic: monRef, Aspect: "Increasing"},
			"Host":              {Static: wire.String(host.Name())},
		})
		if err != nil {
			return fail(err)
		}
	}
	return w, nil
}

// workServant serves WorkOp (windowed accounting) and hello.
func workServant(host *hostenv.Host) orb.Servant {
	return orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case WorkOp:
			demand := time.Duration(1e9 * firstNum(args, 0.001))
			resp := host.RecordWork(demand)
			return []wire.Value{wire.Number(resp.Seconds())}, nil
		case "hello":
			return []wire.Value{wire.String("hello from " + host.Name())}, nil
		default:
			return nil, orb.Appf("no such operation %q", op)
		}
	})
}

func firstNum(args []wire.Value, def float64) float64 {
	if len(args) > 0 {
		if n, ok := args[0].AsNumber(); ok {
			return n
		}
	}
	return def
}

// TickMonitors runs one update cycle on every monitor (used instead of the
// internal timer so simulated minutes elapse deterministically).
func (w *World) TickMonitors() error {
	for _, m := range w.Monitors {
		if err := m.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// settle waits until every event the monitors have pushed has landed: in
// the queue of one of sps, or dropped by the client because its
// subscription had closed or its buffer was full. A proxy moves pushed
// events into its queue on a goroutine of its own, so an invocation made
// straight after TickMonitors can run before they arrive. An event that
// has not landed within the bound is lost, and the wait fails.
func (w *World) settle(sps ...*core.SmartProxy) error {
	const bound = 5 * time.Second
	deadline := time.Now().Add(bound)
	for {
		var pushed uint64
		for _, m := range w.Monitors {
			pushed += m.Pushed()
		}
		landed := w.Client.Stats().EventsDropped
		for _, sp := range sps {
			landed += uint64(sp.Stats().EventsQueued)
		}
		if landed >= pushed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: %d of %d pushed events not queued after %v", pushed-landed, pushed, bound)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// SampleHosts closes one accounting window of length dt on every host.
func (w *World) SampleHosts(dt time.Duration) {
	for _, h := range w.Hosts {
		h.SampleWindow(dt)
	}
}

// ServedCounts returns per-host completed request counts.
func (w *World) ServedCounts() []int64 {
	out := make([]int64, len(w.Hosts))
	for i, h := range w.Hosts {
		out[i] = h.Served()
	}
	return out
}

// BusySeconds returns per-host accumulated busy time in seconds.
func (w *World) BusySeconds() []float64 {
	out := make([]float64, len(w.Hosts))
	for i, h := range w.Hosts {
		out[i] = h.BusyTime().Seconds()
	}
	return out
}

// Close tears the world down.
func (w *World) Close() {
	for _, m := range w.Monitors {
		m.Close()
	}
	for _, c := range w.clients {
		_ = c.Close()
	}
	for _, s := range w.servers {
		_ = s.Close()
	}
}
