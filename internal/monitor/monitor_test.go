package monitor

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/idl"
	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/wire"
)

var epoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

// recordingNotifier captures notifications.
type recordingNotifier struct {
	mu     sync.Mutex
	events []string
	refs   []wire.ObjRef
}

func (r *recordingNotifier) Notify(ref wire.ObjRef, eventID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, eventID)
	r.refs = append(r.refs, ref)
	return nil
}

func (r *recordingNotifier) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

func loadsVal(a, b, c float64) wire.Value {
	return wire.TableVal(wire.NewList(wire.Number(a), wire.Number(b), wire.Number(c)))
}

func obsRef(n string) wire.ObjRef {
	return wire.ObjRef{Endpoint: "inproc|client", Key: n}
}

func TestPushMonitorValueRoundTrip(t *testing.T) {
	m, err := New(Options{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.SetValue(wire.Number(42)); err != nil {
		t.Fatal(err)
	}
	v, err := m.Value()
	if err != nil {
		t.Fatal(err)
	}
	if v.Num() != 42 {
		t.Fatalf("Value = %v", v)
	}
}

func TestUpdateFuncOnTick(t *testing.T) {
	calls := 0
	m, err := New(Options{Name: "n", Update: func() (wire.Value, error) {
		calls++
		return wire.Int(calls), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 3; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := m.Value()
	if v.Num() != 3 || m.Ticks() != 3 {
		t.Fatalf("value = %v, ticks = %d", v, m.Ticks())
	}
}

func TestUpdateScript(t *testing.T) {
	m, err := New(Options{Name: "s", UpdateScript: `function()
		counter = (counter or 0) + 10
		return counter
	end`})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Value()
	if v.Num() != 20 {
		t.Fatalf("script-updated value = %v", v)
	}
}

func TestUpdateAndScriptMutuallyExclusive(t *testing.T) {
	_, err := New(Options{
		Name:         "x",
		Update:       func() (wire.Value, error) { return wire.Nil(), nil },
		UpdateScript: "function() return 1 end",
	})
	if err == nil {
		t.Fatal("both update forms accepted")
	}
}

func TestUpdateErrorPropagates(t *testing.T) {
	m, err := New(Options{Name: "e", Update: func() (wire.Value, error) {
		return wire.Nil(), errors.New("sensor offline")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Tick(); err == nil {
		t.Fatal("tick swallowed update error")
	}
}

func TestAspectLifecycle(t *testing.T) {
	m, err := New(Options{Name: "LoadAvg"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("Increasing", IncreasingAspectSrc); err != nil {
		t.Fatal(err)
	}
	names := m.DefinedAspects()
	if len(names) != 1 || names[0] != "Increasing" {
		t.Fatalf("DefinedAspects = %v", names)
	}
	// Aspect computed on tick over the pushed value.
	if err := m.SetValue(loadsVal(2, 1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	v, err := m.AspectValue("Increasing")
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "yes" {
		t.Fatalf("Increasing = %q, want yes", v.Str())
	}
	if err := m.SetValue(loadsVal(0.5, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	v, _ = m.AspectValue("Increasing")
	if v.Str() != "no" {
		t.Fatalf("Increasing = %q, want no", v.Str())
	}
	if _, err := m.AspectValue("Nope"); !errors.Is(err, ErrNoSuchAspect) {
		t.Fatalf("missing aspect err = %v", err)
	}
}

func TestAspectStatePersistsAcrossTicks(t *testing.T) {
	// An aspect that counts how many times it has been evaluated, using
	// its persistent self table.
	m, err := New(Options{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.DefineAspect("count", `function(self, currval, monitor)
		self.n = (self.n or 0) + 1
		return self.n
	end`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := m.AspectValue("count")
	if v.Num() != 4 {
		t.Fatalf("stateful aspect = %v, want 4", v.Num())
	}
}

func TestAspectSeesOtherAspects(t *testing.T) {
	// Composite properties: "the code for evaluating a property... can
	// contain references to other monitors" — here, other aspects through
	// the monitor argument.
	m, err := New(Options{Name: "LoadAvg"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("Increasing", IncreasingAspectSrc); err != nil {
		t.Fatal(err)
	}
	err = m.DefineAspect("Verdict", `function(self, currval, monitor)
		-- Aspects are evaluated in sorted order, so "Increasing" is fresh.
		if monitor:getAspectValue("Increasing") == "yes" then
			return "warn"
		end
		return "ok"
	end`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetValue(loadsVal(3, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	v, _ := m.AspectValue("Verdict")
	if v.Str() != "warn" {
		t.Fatalf("composite aspect = %q", v.Str())
	}
}

func TestBadAspectSourceRejected(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("broken", "this is not a function"); err == nil {
		t.Fatal("malformed aspect accepted")
	}
	if err := m.DefineAspect("notafunc", "return 42"); err == nil {
		t.Fatal("non-function aspect accepted")
	}
}

func TestFailingAspectDoesNotBreakTick(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("bad", `function(self, v, mon) return v.missing.deep end`); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValue(wire.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatalf("tick failed because of one bad aspect: %v", err)
	}
}

func TestEventObserverNotified(t *testing.T) {
	rec := &recordingNotifier{}
	m, err := New(Options{Name: "LoadAvg", Notifier: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("Increasing", IncreasingAspectSrc); err != nil {
		t.Fatal(err)
	}
	id, err := m.AttachObserver(obsRef("proxy-1"), LoadIncreaseEvent, LoadIncreasePredicateSrc(50))
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 || m.ObserverCount() != 1 {
		t.Fatalf("attach: id=%d count=%d", id, m.ObserverCount())
	}
	// Low load: no notification.
	if err := m.SetValue(loadsVal(10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 0 {
		t.Fatal("notified on low load")
	}
	// High and rising: notify once per tick.
	if err := m.SetValue(loadsVal(60, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("notifications = %d, want 1", rec.count())
	}
	if rec.events[0] != LoadIncreaseEvent || rec.refs[0] != obsRef("proxy-1") {
		t.Fatalf("notification = %v %v", rec.events[0], rec.refs[0])
	}
	// High but falling (1min < 5min): no notification.
	if err := m.SetValue(loadsVal(60, 80, 90)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("notifications = %d, want still 1", rec.count())
	}
	// Detach stops notifications.
	m.DetachObserver(id)
	if err := m.SetValue(loadsVal(90, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatal("detached observer still notified")
	}
}

func TestBadPredicateRejectedAtAttach(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AttachObserver(obsRef("o"), "E", "not valid ("); err == nil {
		t.Fatal("malformed predicate accepted")
	}
}

func TestTimerDrivenMonitorWithSimClock(t *testing.T) {
	sim := clock.NewSim(epoch)
	loads := []float64{10, 60, 70}
	idx := 0
	rec := &recordingNotifier{}
	m, err := NewLoadAverage(LoadSourceFunc(func() (float64, float64, float64, error) {
		l := loads[idx%len(loads)]
		idx++
		return l, 20, 30, nil
	}), sim, time.Minute, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.AttachObserver(obsRef("o"), LoadIncreaseEvent, LoadIncreasePredicateSrc(50)); err != nil {
		t.Fatal(err)
	}
	// Advance three minutes of simulated time, one tick each. Wait for
	// the monitor goroutine to register its next timer before advancing.
	for i := 0; i < 3; i++ {
		waitForTimer(t, sim)
		sim.Advance(time.Minute)
		waitForTicks(t, m, i+1)
	}
	// Ticks 2 and 3 exceed the limit with rising load.
	deadline := time.Now().Add(5 * time.Second)
	for rec.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("notifications = %d, want 2", rec.count())
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForTimer(t *testing.T, sim *clock.Sim) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sim.PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("monitor never armed its timer")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForTicks(t *testing.T, m *Monitor, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Ticks() < want {
		if time.Now().After(deadline) {
			t.Fatalf("ticks = %d, want %d", m.Ticks(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseStopsTimerAndRejectsOps(t *testing.T) {
	sim := clock.NewSim(epoch)
	m, err := New(Options{Name: "x", Period: time.Second, Clock: sim,
		Update: func() (wire.Value, error) { return wire.Int(1), nil }})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if _, err := m.Value(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Value after close = %v", err)
	}
	if err := m.SetValue(wire.Int(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("SetValue after close = %v", err)
	}
	if err := m.DefineAspect("a", IncreasingAspectSrc); !errors.Is(err, ErrClosed) {
		t.Fatalf("DefineAspect after close = %v", err)
	}
	if _, err := m.AttachObserver(obsRef("o"), "E", "function() return true end"); !errors.Is(err, ErrClosed) {
		t.Fatalf("AttachObserver after close = %v", err)
	}
	if err := m.Tick(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Tick after close = %v", err)
	}
}

func TestProcFileLoadSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "loadavg")
	if err := os.WriteFile(path, []byte("1.25 0.75 0.50 2/345 6789\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	one, five, fifteen, err := ProcFile{Path: path}.LoadAvg()
	if err != nil {
		t.Fatal(err)
	}
	if one != 1.25 || five != 0.75 || fifteen != 0.5 {
		t.Fatalf("loadavg = %v %v %v", one, five, fifteen)
	}
	if _, _, _, err := (ProcFile{Path: filepath.Join(dir, "missing")}).LoadAvg(); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := (ProcFile{Path: path}).LoadAvg(); err == nil {
		t.Fatal("malformed file accepted")
	}
	if err := os.WriteFile(path, []byte("a b c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := (ProcFile{Path: path}).LoadAvg(); err == nil {
		t.Fatal("non-numeric fields accepted")
	}
}

// TestMonitorOverORB exercises the full remote monitoring path of the
// paper's Fig. 6: a monitor servant on one server, an observer servant on
// another, a shipped predicate evaluated at the monitor, and a oneway
// notifyEvent back to the observer.
func TestMonitorOverORB(t *testing.T) {
	n := orb.NewInprocNetwork()

	// Observer side.
	obsSrv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "client-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer obsSrv.Close()
	notified := make(chan string, 8)
	observerRef := obsSrv.Register("observer", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "notifyEvent" && len(args) > 0 {
			notified <- args[0].Str()
		}
		return nil, nil
	}))

	// Monitor side.
	monClient := orb.NewClient(n)
	defer monClient.Close()
	m, err := New(Options{Name: "LoadAvg", Notifier: ORBNotifier{Client: monClient}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.DefineAspect("Increasing", IncreasingAspectSrc); err != nil {
		t.Fatal(err)
	}
	monSrv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "server-host"})
	if err != nil {
		t.Fatal(err)
	}
	defer monSrv.Close()
	monRef := monSrv.Register("monitor/LoadAvg", "", NewServant(m))

	// Client side: attach through the ORB, shipping the Fig. 4 predicate.
	client := orb.NewClient(n)
	defer client.Close()
	proxy := client.NewProxy(monRef)

	idVal, err := proxy.Call1(nil, "attachEventObserver",
		wire.Ref(observerRef), wire.String(LoadIncreaseEvent),
		wire.String(LoadIncreasePredicateSrc(50)))
	if err != nil {
		t.Fatalf("attachEventObserver: %v", err)
	}

	// Drive the monitor: push a high, rising value and tick.
	if _, err := proxy.Call(nil, "setValue", loadsVal(60, 30, 20)); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-notified:
		if ev != LoadIncreaseEvent {
			t.Fatalf("event = %q", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("observer never notified through the ORB")
	}

	// Read value and aspect remotely.
	v, err := proxy.Call1(nil, "getValue")
	if err != nil {
		t.Fatal(err)
	}
	tb, ok := v.AsTable()
	if !ok || tb.Index(1).Num() != 60 {
		t.Fatalf("remote getValue = %v", v)
	}
	av, err := proxy.Call1(nil, "getAspectValue", wire.String("Increasing"))
	if err != nil || av.Str() != "yes" {
		t.Fatalf("remote getAspectValue = %v, %v", av, err)
	}
	// Both in one round trip, "" naming the value itself.
	both, err := proxy.Call(nil, "getAspectValues", wire.String(""), wire.String("Increasing"))
	if err != nil || len(both) != 2 || both[1].Str() != "yes" {
		t.Fatalf("remote getAspectValues = %v, %v", both, err)
	}
	if tb, ok := both[0].AsTable(); !ok || tb.Index(1).Num() != 60 {
		t.Fatalf("remote getAspectValues value = %v", both[0])
	}
	da, err := proxy.Call1(nil, "definedAspects")
	if err != nil {
		t.Fatal(err)
	}
	if lst, ok := da.AsTable(); !ok || lst.Len() != 1 {
		t.Fatalf("definedAspects = %v", da)
	}

	// Define a new aspect remotely (the paper's dynamic extensibility).
	_, err = proxy.Call(nil, "defineAspect", wire.String("Doubled"),
		wire.String(`function(self, v, mon) return v[1] * 2 end`))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	dv, err := proxy.Call1(nil, "getAspectValue", wire.String("Doubled"))
	if err != nil || dv.Num() != 120 {
		t.Fatalf("remotely defined aspect = %v, %v", dv, err)
	}

	// Detach remotely.
	if _, err := proxy.Call(nil, "detachEventObserver", idVal); err != nil {
		t.Fatal(err)
	}
	if m.ObserverCount() != 0 {
		t.Fatal("observer not detached")
	}
}

func TestServantBadArgs(t *testing.T) {
	m, err := New(Options{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sv := NewServant(m)
	bad := []struct {
		op   string
		args []wire.Value
	}{
		{"setValue", nil},
		{"getAspectValue", nil},
		{"getAspectValue", []wire.Value{wire.String("missing")}},
		{"getAspectValues", nil},
		{"getAspectValues", []wire.Value{wire.String(""), wire.String("missing")}},
		{"getAspectValues", []wire.Value{wire.Int(1)}},
		{"defineAspect", []wire.Value{wire.String("only-name")}},
		{"attachEventObserver", nil},
		{"attachEventObserver", []wire.Value{wire.String("not-ref"), wire.String("E"), wire.String("f")}},
		{"detachEventObserver", nil},
		{"nosuch", nil},
	}
	for _, c := range bad {
		if _, err := sv.Invoke(c.op, c.args); err == nil {
			t.Errorf("Invoke(%s) succeeded with bad args", c.op)
		}
	}
	// name is a diagnostic extra.
	vs, err := sv.Invoke("name", nil)
	if err != nil || vs[0].Str() != "x" {
		t.Fatalf("name = %v, %v", vs, err)
	}
}

func TestHostPrimitiveInjection(t *testing.T) {
	// The Fig. 3 flow with the update function itself written in script,
	// reading through a host-injected primitive — exactly how LuaCorba
	// registers C functions for Lua code.
	m, err := New(Options{Name: "LoadAvg", UpdateScript: `function()
		local nj1, nj5, nj15 = readloadavg()
		return {nj1, nj5, nj15}
	end`})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Interp().SetGlobal("readloadavg", script.Func("readloadavg",
		func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
			return []script.Value{script.Number(1.5), script.Number(1.0), script.Number(0.5)}, nil
		}))
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Value()
	tb, ok := v.AsTable()
	if !ok || tb.Index(1).Num() != 1.5 {
		t.Fatalf("script update via primitive = %v", v)
	}
}

func TestMonitorIDLParses(t *testing.T) {
	repo := idl.NewRepository()
	if err := repo.LoadIDL(IDL); err != nil {
		t.Fatalf("monitor.IDL does not parse: %v", err)
	}
	// The Fig. 1/2 operations resolve with inheritance.
	for _, op := range []string{"getValue", "setValue", "getAspectValue",
		"definedAspects", "defineAspect", "attachEventObserver", "detachEventObserver"} {
		if repo.ResolveOp("EventMonitor", op) == nil {
			t.Errorf("EventMonitor lacks %s", op)
		}
	}
	if got := repo.ResolveOp("EventObserver", "notifyEvent"); got == nil || !got.Oneway {
		t.Error("notifyEvent missing or not oneway")
	}
}

// scriptRef wraps an object reference as a script value for injection.
func scriptRef(r wire.ObjRef) script.Value { return script.Ref(r) }
