package monitor

import (
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// Composite monitors (paper §III): predicates and aspects that consult
// OTHER monitors through the ORB, building "arbitrarily complex composite
// properties and events".

func TestCompositePredicateAcrossMonitors(t *testing.T) {
	net := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "comp-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A memory monitor, plain.
	memMon, err := New(Options{Name: "MemFree"})
	if err != nil {
		t.Fatal(err)
	}
	defer memMon.Close()
	memRef := srv.Register("monitor/MemFree", "", NewServant(memMon))

	// A CPU monitor whose shipped predicate also consults the memory
	// monitor remotely: fire only when CPU is high AND memory is low.
	client := orb.NewClient(net)
	defer client.Close()
	rec := &recordingNotifier{}
	cpuMon, err := New(Options{Name: "CPU", Notifier: rec, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer cpuMon.Close()
	srv.Register("monitor/CPU", "", NewServant(cpuMon))

	cpuMon.in.SetGlobal("memmon", scriptRef(memRef))
	if _, err := cpuMon.AttachObserver(obsRef("app"), "Pressure", `
		function(observer, value, monitor)
			local memfree = orb.invoke(memmon, "getValue")
			return value > 80 and memfree ~= nil and memfree < 100
		end`); err != nil {
		t.Fatal(err)
	}

	set := func(m *Monitor, v float64) {
		t.Helper()
		if err := m.SetValue(wire.Number(v)); err != nil {
			t.Fatal(err)
		}
	}

	// High CPU, plenty of memory: no event.
	set(memMon, 4000)
	set(cpuMon, 95)
	if err := cpuMon.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 0 {
		t.Fatal("composite fired with memory available")
	}
	// High CPU AND low memory: fire.
	set(memMon, 50)
	if err := cpuMon.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("composite notifications = %d, want 1", rec.count())
	}
	if rec.events[0] != "Pressure" {
		t.Fatalf("event = %q", rec.events[0])
	}
	// Low CPU, low memory: no further event.
	set(cpuMon, 10)
	if err := cpuMon.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatal("composite fired on low CPU")
	}
}

func TestCompositeAspectAcrossMonitors(t *testing.T) {
	net := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "comp2-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	base, err := New(Options{Name: "Base"})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	baseRef := srv.Register("monitor/Base", "", NewServant(base))
	if err := base.SetValue(wire.Number(7)); err != nil {
		t.Fatal(err)
	}

	client := orb.NewClient(net)
	defer client.Close()
	combo, err := New(Options{Name: "Combo", Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer combo.Close()
	combo.in.SetGlobal("basemon", scriptRef(baseRef))
	if err := combo.DefineAspect("sum", `function(self, v, mon)
		local other = orb.invoke(basemon, "getValue")
		return (v or 0) + (other or 0)
	end`); err != nil {
		t.Fatal(err)
	}
	if err := combo.SetValue(wire.Number(3)); err != nil {
		t.Fatal(err)
	}
	if err := combo.Tick(); err != nil {
		t.Fatal(err)
	}
	v, err := combo.AspectValue("sum")
	if err != nil || v.Num() != 10 {
		t.Fatalf("composite aspect = %v, %v (want 10)", v, err)
	}
}

func TestNoORBAccessWithoutClient(t *testing.T) {
	// Without Options.Client the sandbox has no orb table: shipped code
	// cannot reach the network.
	m, err := New(Options{Name: "sealed"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AttachObserver(obsRef("x"), "E",
		`function() return orb ~= nil end`); err != nil {
		t.Fatal(err)
	}
	rec := &recordingNotifier{}
	m.opts.Notifier = rec
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 0 {
		t.Fatal("sealed monitor exposed the orb API")
	}
}
