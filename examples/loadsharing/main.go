// Loadsharing: the paper's §V load-sharing example at experiment scale,
// with the Fig. 7 adaptation strategy executed from its *script source*.
//
// This example runs the E1 scenario on simulated hosts — K clients, N
// servers, a mid-run load disturbance — once with the paper's adaptive
// smart proxy and once with the one-shot trader selection of Badidi et
// al. [20] that the paper contrasts itself against, then prints the
// comparison table. It also demonstrates the Fig. 7 strategy shipped as
// text: the same source string the paper lists.
//
// Run:
//
//	go run ./examples/loadsharing
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/experiment"
	"autoadapt/internal/monitor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadsharing:", err)
		os.Exit(1)
	}
}

// fig7Strategy is the paper's Fig. 7 listing, reproduced as shipped script
// source (the limits scaled from the paper's 50/70 to this deployment's
// load range, as §V notes the limits are deployment-specific).
const fig7Strategy = `{
	LoadIncrease = function(self)
		-- get the current load average
		self._loadavg = self._loadavgmon:getValue()

		-- look for an alternative server
		local query
		query = "LoadAvg < 3 and LoadAvgIncreasing == no"
		if not self:_select(query) then
			self._loadavgmon:attachEventObserver(
				self._observer,
				"LoadIncrease",
				[[function(observer, value, monitor)
					local incr
					incr = monitor:getAspectValue("Increasing")
					return value[1] > 6 and incr == "yes"
				end]])
		end
	end
}`

func run() error {
	// Part 1: show the Fig. 7 strategy driving a live proxy.
	fmt.Println("— Fig. 7 strategy, shipped as script source —")
	w, err := experiment.NewWorld(experiment.WorldConfig{Servers: 3})
	if err != nil {
		return err
	}
	defer w.Close()
	ctx := context.Background()

	// Unbalanced start: host-0 idle, others busy.
	w.Hosts[0].SetLoadAvg(0.5, 0.6, 0.6)
	w.Hosts[1].SetLoadAvg(4.0, 3.5, 3.0)
	w.Hosts[2].SetLoadAvg(5.0, 4.5, 4.0)
	if err := w.TickMonitors(); err != nil {
		return err
	}

	sp, err := core.New(core.Options{
		Client:      w.Client,
		Lookup:      w.Lookup,
		ServiceType: experiment.ServiceTypeName,
		Constraint:  "LoadAvg < 3 and LoadAvgIncreasing == no",
		Preference:  "min LoadAvg",
		Watches: []core.Watch{{
			Prop:      "LoadAvg",
			Event:     monitor.LoadIncreaseEvent,
			Predicate: monitor.LoadIncreasePredicateSrc(3),
		}},
	})
	if err != nil {
		return err
	}
	defer sp.Close()
	if err := sp.SetScriptStrategy(core.EventNoMatch, core.SortOnlyStrategy); err != nil {
		return err
	}
	if err := sp.SetScriptStrategiesTable(fig7Strategy); err != nil {
		return err
	}
	if err := sp.Bind(ctx); err != nil {
		return err
	}
	ref, _ := sp.Current()
	fmt.Println("bound to", ref)

	// host-0 gets overloaded; the shipped predicate fires; the script
	// strategy re-selects... and finds nothing (all loaded), so it relaxes.
	w.Hosts[0].SetLoadAvg(5.0, 1.0, 1.0)
	if err := w.TickMonitors(); err != nil {
		return err
	}
	if err := awaitEvent(sp); err != nil {
		return err
	}
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		return err
	}
	ref, _ = sp.Current()
	fmt.Println("after total overload: still on", ref, "(requirements relaxed to limit 6, per Fig. 7)")

	// Load rises past even the relaxed limit while host-1 frees up: now
	// the strategy migrates.
	w.Hosts[0].SetLoadAvg(7.0, 2.0, 2.0)
	w.Hosts[1].SetLoadAvg(0.4, 0.6, 0.6)
	if err := w.TickMonitors(); err != nil {
		return err
	}
	if err := awaitEvent(sp); err != nil {
		return err
	}
	if _, err := sp.Invoke(ctx, "hello"); err != nil {
		return err
	}
	ref, _ = sp.Current()
	fmt.Println("after relaxed watch fired:  moved to", ref)
	fmt.Println()

	// Part 2: the quantitative comparison (E1).
	fmt.Println("— E1: policy comparison over a 12-minute simulated run —")
	table, _, err := experiment.LoadSharingTable(experiment.LoadShareConfig{
		Servers:        4,
		Clients:        8,
		Duration:       12 * time.Minute,
		Threshold:      3,
		BackgroundLoad: 6,
		BackgroundAt:   4 * time.Minute,
	})
	if err != nil {
		return err
	}
	fmt.Println(table.Render())
	return nil
}

// awaitEvent waits until the monitor's pushed event has reached the proxy,
// so the next invocation is the one that runs the strategy.
func awaitEvent(sp *core.SmartProxy) error {
	for deadline := time.Now().Add(5 * time.Second); len(sp.PendingEvents()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("the watch never fired")
		}
	}
	return nil
}
