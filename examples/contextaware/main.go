// Contextaware: the paper's §VI ongoing work, built on the same
// infrastructure — "adaptation strategies that consider not only quality
// of service properties, but also other properties of the application's
// execution environment, such as user location, user activity, and time of
// day" (the Gaia active-space scenario).
//
// A user moves through rooms of an active space. Each room runs a display
// service whose offer carries a static Room property plus a dynamic
// Occupancy property served by a monitor. The user's location is itself a
// monitored property: a shipped predicate fires a UserMoved event whenever
// it changes, and the adaptation strategy re-selects the display in the
// user's current room, preferring the least occupied one.
//
// Run:
//
//	go run ./examples/contextaware
package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"

	"autoadapt"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "contextaware:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	network := autoadapt.NewInprocNetwork()

	trader, err := autoadapt.StartTrader(autoadapt.TraderOptions{
		Network: network,
		Address: "trader",
		Types: []autoadapt.ServiceType{{
			Name: "Display", Interface: "DisplayService",
			Props: []string{"Room", "Occupancy"},
		}},
	})
	if err != nil {
		return err
	}
	defer trader.Close()

	platform, err := autoadapt.Connect(network, trader.Ref)
	if err != nil {
		return err
	}
	defer platform.Close()

	// Room displays: each room exports a display service with a dynamic
	// occupancy property.
	rooms := []string{"lobby", "lab", "auditorium"}
	occupancy := map[string]*atomic.Int64{}
	for _, room := range rooms {
		occ := &atomic.Int64{}
		occupancy[room] = occ
		srv, err := startRoom(network, platform, room, occ)
		if err != nil {
			return err
		}
		defer srv.Close()
	}

	// The display proxy: constraint and strategy are rebuilt per location.
	proxy, err := platform.NewSmartProxy(autoadapt.ProxyOptions{
		ServiceType: "Display",
		Constraint:  "Room == 'lobby'",
		Preference:  "min Occupancy",
	})
	if err != nil {
		return err
	}
	defer proxy.Close()

	// The user's location is a monitored context property on the wearable.
	// The monitor lives beside the proxy, so its notifier hands events to
	// the proxy directly, before the tick that detected them returns.
	location := &atomic.Value{}
	location.Store("lobby")
	locMon, err := monitor.New(monitor.Options{
		Name: "UserLocation",
		Update: func() (wire.Value, error) {
			return wire.String(location.Load().(string)), nil
		},
		Notifier: monitor.NotifierFunc(func(_ wire.ObjRef, eventID string) error {
			proxy.OnEvent(eventID)
			return nil
		}),
	})
	if err != nil {
		return err
	}
	defer locMon.Close()
	proxy.SetStrategy("UserMoved", func(ctx context.Context, p *autoadapt.SmartProxy) error {
		v, err := locMon.Value()
		if err != nil {
			return err
		}
		room := v.Str()
		ok, err := p.Select(ctx, fmt.Sprintf("Room == '%s'", room))
		if err == nil && ok {
			ref, _ := p.Current()
			fmt.Printf("  [context] user entered %s → display is now %v\n", room, ref)
		}
		return err
	})
	if err := proxy.Bind(ctx); err != nil {
		return err
	}

	// A shipped predicate that fires whenever the location changes — the
	// paper's remote-evaluation pattern applied to a context property.
	if _, err := locMon.AttachObserver(wire.ObjRef{}, "UserMoved",
		`function(observer, value, monitor)
			local moved = (monitor.last ~= nil and monitor.last ~= value)
			monitor.last = value
			return moved
		end`); err != nil {
		return err
	}

	show := func(msg string) error {
		rs, err := proxy.Invoke(ctx, "show", wire.String(msg))
		if err != nil {
			return err
		}
		fmt.Println(rs[0].Str())
		return nil
	}

	// The user walks through the building.
	occupancy["auditorium"].Store(40) // a talk is on
	walk := []string{"lobby", "lab", "lab", "auditorium", "lobby"}
	for step, room := range walk {
		location.Store(room)
		if err := locMon.Tick(); err != nil { // location sensor update
			return err
		}
		if err := show(fmt.Sprintf("notification #%d", step+1)); err != nil {
			return err
		}
	}

	st := proxy.Stats()
	fmt.Printf("\ndone: %d notifications shown, %d display switches as the user moved\n",
		st.Invocations, st.Switches)
	if st.Switches < 3 {
		return fmt.Errorf("expected the display to follow the user")
	}
	return nil
}

// startRoom exports one room's display service.
func startRoom(network autoadapt.Network, platform *autoadapt.Platform, room string, occ *atomic.Int64) (closer, error) {
	srv, err := orb.NewServer(orb.ServerOptions{Network: network, Address: "room-" + room})
	if err != nil {
		return nil, err
	}
	occMon, err := monitor.New(monitor.Options{
		Name: "Occupancy",
		Update: func() (wire.Value, error) {
			return wire.Number(float64(occ.Load())), nil
		},
	})
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	if err := occMon.Tick(); err != nil {
		_ = srv.Close()
		return nil, err
	}
	monRef := srv.Register("monitor/Occupancy", "", monitor.NewServant(occMon))
	svcRef := srv.Register("display", "", autoadapt.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op != "show" {
			return nil, fmt.Errorf("no such operation %q", op)
		}
		return []wire.Value{wire.String(fmt.Sprintf("[%s display] %s", room, args[0].Str()))}, nil
	}))
	_, err = platform.Lookup.Export(context.Background(), "Display", svcRef, map[string]autoadapt.PropValue{
		"Room":      {Static: wire.String(room)},
		"Occupancy": {Dynamic: monRef},
	})
	if err != nil {
		occMon.Close()
		_ = srv.Close()
		return nil, err
	}
	return closerFunc(func() error { occMon.Close(); return srv.Close() }), nil
}

type closer interface{ Close() error }

type closerFunc func() error

func (f closerFunc) Close() error { return f() }
