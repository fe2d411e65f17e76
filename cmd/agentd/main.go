// Command agentd runs a service agent on a host: it serves a demo service
// (hello + work), runs the paper's Fig. 3 LoadAvg monitor against either
// the real /proc/loadavg or a simulated host, and exports an offer with
// dynamic load properties to a trader (cmd/trader).
//
// Usage:
//
//	agentd -listen 127.0.0.1:0 -trader 'tcp|127.0.0.1:9050/Trader' \
//	       -name host-a -load proc            # real /proc/loadavg
//	agentd ... -load sim:2.5                  # simulated constant load
//
// An optional AdaptScript configuration file (-config) customizes the
// monitor and offer at start, the way the paper's Lua agents do.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autoadapt"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agentd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP address to listen on")
		traderRef = flag.String("trader", "tcp|127.0.0.1:9050/Trader", "trader object reference")
		svcType   = flag.String("type", "LoadShared", "service type to export")
		name      = flag.String("name", "", "host name (defaults to the listen endpoint)")
		loadSpec  = flag.String("load", "proc", `load source: "proc", "proc:<path>", or "sim:<value>"`)
		period    = flag.Duration("period", time.Minute, "monitor update period (paper: 60s)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "trader's offer lease TTL; enables the renewal heartbeat (0 disables)")
		config    = flag.String("config", "", "AdaptScript agent configuration file")
		maxConc   = flag.Int("max-concurrent", 0, "dispatch pool size: max concurrently served requests (0 = ORB default)")
		clockBud  = flag.Duration("script-clock-budget", 0, "wall-clock budget per script evaluation (config, aspects, predicates; 0 = unbounded)")
		memBud    = flag.Int64("script-mem-budget", 0, "accounted-allocation budget in bytes per script evaluation (0 = unbounded)")
	)
	flag.Parse()

	ref, err := wire.ParseObjRef(*traderRef)
	if err != nil {
		return err
	}
	source, err := parseLoadSource(*loadSpec)
	if err != nil {
		return err
	}
	var configSrc string
	if *config != "" {
		b, err := os.ReadFile(*config)
		if err != nil {
			return err
		}
		configSrc = string(b)
	}

	network := autoadapt.TCP()
	client := orb.NewClient(network)
	defer client.Close()
	lookup := trading.NewLookup(client, ref)

	hostName := *name
	servant := autoadapt.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case "hello":
			return []wire.Value{wire.String("hello from " + hostName)}, nil
		case "work":
			// Burn the requested CPU demand for real.
			d := time.Duration(1e9 * args[0].Num())
			start := time.Now()
			for time.Since(start) < d {
			}
			return []wire.Value{wire.Number(time.Since(start).Seconds())}, nil
		default:
			return nil, orb.Appf("no such operation %q", op)
		}
	})

	ctx := context.Background()
	ag, err := autoadapt.StartAgent(ctx, autoadapt.AgentOptions{
		Network:          network,
		Address:          *listen,
		Lookup:           lookup,
		ServiceType:      *svcType,
		Servant:          servant,
		LoadSource:       source,
		MonitorPeriod:    *period,
		LeaseTTL:         *leaseTTL,
		ConfigScript:     configSrc,
		MaxConcurrent:    *maxConc,
		ScriptWallBudget: *clockBud,
		ScriptMemBudget:  *memBud,
		StaticProps:      map[string]wire.Value{"Host": wire.String(hostName)},
		Logger:           log.New(os.Stderr, "agentd ", log.LstdFlags),
	})
	if err != nil {
		return err
	}
	if hostName == "" {
		hostName = ag.Endpoint()
	}
	defer func() {
		if err := ag.Close(context.Background()); err != nil {
			log.Printf("agentd: close: %v", err)
		}
	}()

	fmt.Printf("agent ready\n  endpoint: %s\n  service:  %s\n  monitor:  %s\n  offer:    %s\n",
		ag.Endpoint(), ag.ServiceRef(), ag.MonitorRef(), ag.OfferID())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("withdrawing offer and shutting down")
	return nil
}

func parseLoadSource(spec string) (monitor.LoadSource, error) {
	switch {
	case spec == "proc":
		return monitor.ProcFile{}, nil
	case strings.HasPrefix(spec, "proc:"):
		return monitor.ProcFile{Path: spec[len("proc:"):]}, nil
	case strings.HasPrefix(spec, "sim:"):
		v, err := strconv.ParseFloat(spec[len("sim:"):], 64)
		if err != nil {
			return nil, fmt.Errorf("agentd: bad sim load %q", spec)
		}
		return monitor.LoadSourceFunc(func() (float64, float64, float64, error) {
			return v, v, v, nil
		}), nil
	default:
		return nil, fmt.Errorf("agentd: unknown load source %q", spec)
	}
}
