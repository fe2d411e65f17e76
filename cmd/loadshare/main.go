// Command loadshare is the paper's §V load-sharing client, runnable
// against a live deployment (cmd/trader + several cmd/agentd instances).
// It creates a smart proxy with the paper's constraint and Fig. 4 watch,
// installs the Fig. 7 re-selection strategy and the sort-only fallback, and
// calls the service in a loop, printing which server answers.
//
// Usage:
//
//	loadshare -trader 'tcp|127.0.0.1:9050/Trader' -type LoadShared \
//	          -limit 2 -calls 50 -interval 1s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"autoadapt"
	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadshare:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		traderRef = flag.String("trader", "tcp|127.0.0.1:9050/Trader", "trader object reference")
		svcType   = flag.String("type", "LoadShared", "service type to bind")
		limit     = flag.Float64("limit", 2, "LoadAvg limit in the selection constraint")
		calls     = flag.Int("calls", 50, "number of hello calls to make")
		interval  = flag.Duration("interval", time.Second, "delay between calls")
	)
	flag.Parse()

	ref, err := wire.ParseObjRef(*traderRef)
	if err != nil {
		return err
	}
	platform, err := autoadapt.Connect(autoadapt.TCP(), ref)
	if err != nil {
		return err
	}
	defer platform.Close()

	constraint := fmt.Sprintf("LoadAvg < %g and LoadAvgIncreasing == no", *limit)
	proxy, err := platform.NewSmartProxy(autoadapt.ProxyOptions{
		ServiceType: *svcType,
		Constraint:  constraint,
		Preference:  "min LoadAvg",
		Watches: []autoadapt.Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(*limit),
		}},
		Logger: log.New(os.Stderr, "loadshare ", log.Ltime),
	})
	if err != nil {
		return err
	}
	defer proxy.Close()

	// The Fig. 7 strategy and the sort-only fallback as shipped script
	// source, the limits from the command line standing in for 50/70.
	err = proxy.SetScriptStrategiesTable(fmt.Sprintf(`{
		_nomatch = %s,
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
	}`, core.SortOnlyStrategy, *limit, *limit*1.4))
	if err != nil {
		return err
	}

	ctx := context.Background()
	if err := proxy.Bind(ctx); err != nil {
		return err
	}
	cur, _ := proxy.Current()
	fmt.Println("bound to", cur)

	last := cur
	for i := 1; i <= *calls; i++ {
		rs, err := proxy.Invoke(ctx, "hello")
		if err != nil {
			log.Printf("call %d failed: %v", i, err)
			time.Sleep(*interval)
			continue
		}
		now, _ := proxy.Current()
		if now != last {
			fmt.Printf("  [adaptation] switched: %v → %v\n", last, now)
			last = now
		}
		fmt.Printf("call %3d: %s\n", i, rs[0].Str())
		time.Sleep(*interval)
	}
	st := proxy.Stats()
	fmt.Printf("\n%d calls, %d events handled, %d switches, %d trader queries\n",
		st.Invocations, st.EventsHandled, st.Switches, st.Selections)
	return nil
}
