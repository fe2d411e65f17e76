// Quickstart: the paper's §V HelloWorld application, end to end, over real
// TCP loopback sockets.
//
// One process plays every role of Fig. 6: a trading service, two service
// agents (each exporting a hello server with a live LoadAvg monitor), and
// a client whose smart proxy selects the least-loaded server, ships the
// Fig. 4 event predicate to the selected server's monitor, and switches
// servers when the shipped predicate fires.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync/atomic"
	"time"

	"autoadapt"
	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// spikeLoad is a load source whose 1-minute average we control from main;
// the 5-minute average stays at 0.4 so a spike reads as "increasing".
type spikeLoad struct{ load1 atomic.Value }

func newSpikeLoad(initial float64) *spikeLoad {
	s := &spikeLoad{}
	s.load1.Store(initial)
	return s
}

func (s *spikeLoad) set(v float64) { s.load1.Store(v) }

func (s *spikeLoad) LoadAvg() (float64, float64, float64, error) {
	return s.load1.Load().(float64), 0.4, 0.4, nil
}

func run() error {
	ctx := context.Background()
	network := autoadapt.TCP()
	logger := log.New(os.Stderr, "quickstart ", log.Ltime)

	// 1. Trading service.
	trader, err := autoadapt.StartTrader(autoadapt.TraderOptions{
		Network: network,
		Address: "127.0.0.1:0",
		Types: []autoadapt.ServiceType{{
			Name: "Hello", Interface: "HelloService",
			Props: []string{"LoadAvg", "LoadAvgIncreasing", "Host"},
		}},
	})
	if err != nil {
		return err
	}
	defer trader.Close()
	fmt.Println("trader listening on", trader.Endpoint())

	// 2. Client platform: ORB client + lookup.
	platform, err := autoadapt.Connect(network, trader.Ref)
	if err != nil {
		return err
	}
	defer platform.Close()

	// 3. Two service agents, each a hello server plus a load monitor.
	loads := []*spikeLoad{newSpikeLoad(0.2), newSpikeLoad(0.3)}
	var agents []*autoadapt.Agent
	for i, ld := range loads {
		name := fmt.Sprintf("server-%d", i+1)
		ag, err := autoadapt.StartAgent(ctx, autoadapt.AgentOptions{
			Network:     network,
			Address:     "127.0.0.1:0",
			Lookup:      platform.Lookup,
			ServiceType: "Hello",
			Servant: autoadapt.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
				if op != "hello" {
					return nil, fmt.Errorf("no such operation %q", op)
				}
				return []wire.Value{wire.String("hello from " + name)}, nil
			}),
			LoadSource:    ld,
			MonitorPeriod: 50 * time.Millisecond, // paper: 60s; sped up for the demo
			StaticProps:   map[string]wire.Value{"Host": wire.String(name)},
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		defer ag.Close(ctx)
		agents = append(agents, ag)
		fmt.Printf("%s exporting offer %s from %s\n", name, ag.OfferID(), ag.Endpoint())
	}

	// 4. The smart proxy (the paper's load-sharing proxy).
	proxy, err := platform.NewSmartProxy(autoadapt.ProxyOptions{
		ServiceType: "Hello",
		Constraint:  "LoadAvg < 1 and LoadAvgIncreasing == no",
		Preference:  "min LoadAvg",
		Watches: []autoadapt.Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(1), // Fig. 4, limit 1
		}},
		Logger: logger,
	})
	if err != nil {
		return err
	}
	defer proxy.Close()
	// Paper §V: when nothing satisfies the constraint, degrade to sort-only.
	if err := proxy.SetScriptStrategy(core.EventNoMatch, core.SortOnlyStrategy); err != nil {
		return err
	}
	proxy.SetStrategy(monitor.LoadIncreaseEvent, func(ctx context.Context, p *autoadapt.SmartProxy) error {
		ok, err := p.Select(ctx, "LoadAvg < 1 and LoadAvgIncreasing == no")
		if err == nil && ok {
			ref, _ := p.Current()
			fmt.Println("  [adaptation] switched to", ref)
		}
		return err
	})
	if err := proxy.Bind(ctx); err != nil {
		return err
	}
	ref, _ := proxy.Current()
	fmt.Println("smart proxy bound to", ref)

	// 5. The client loop: call hello repeatedly; spike server-1's load
	// midway and watch the proxy move (paper §V: "the client repeatedly
	// called function hello, so that we could observe the adaptation
	// methods in action").
	for i := 1; i <= 12; i++ {
		if i == 4 {
			fmt.Println("  [load] spiking server-1's load average to 5.0")
			loads[0].set(5.0)
		}
		rs, err := proxy.Invoke(ctx, "hello")
		if err != nil {
			return err
		}
		fmt.Printf("call %2d: %s\n", i, rs[0].Str())
		time.Sleep(60 * time.Millisecond) // > monitor period, so ticks land
	}

	st := proxy.Stats()
	fmt.Printf("\ndone: %d invocations, %d events handled, %d server switch(es)\n",
		st.Invocations, st.EventsHandled, st.Switches)
	if st.Switches == 0 {
		return fmt.Errorf("expected at least one adaptation switch")
	}
	return nil
}
