package core

import (
	"context"
	"testing"

	"autoadapt/internal/script"
	"autoadapt/internal/testutil"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// monitorRef is host i's LoadAvg monitor, as newWorld registers it.
func monitorRef(i int) wire.ObjRef {
	r := hostRef(i)
	r.Key = "monitor/LoadAvg"
	return r
}

// activate runs event's strategy once, as the next invocation would.
func activate(t *testing.T, sp *SmartProxy, event string) {
	t.Helper()
	sp.OnEvent(event)
	if err := sp.Adapt(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// global reads a script global the strategies left behind.
func global(t *testing.T, sp *SmartProxy, name string) script.Value {
	t.Helper()
	vs, err := sp.in.Eval("check", "return "+name)
	if err != nil {
		t.Fatal(err)
	}
	return vs[0]
}

// TestScriptSelfPersistsAcrossActivations: self is the proxy's object, so a
// count a strategy keeps on it grows from one event to the next and
// survives a switch of server.
func TestScriptSelfPersistsAcrossActivations(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Count", `function(self)
		self.n = (self.n or 0) + 1
		probe_n = self.n
	end`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	activate(t, sp, "Count")
	activate(t, sp, "Count")
	if n := global(t, sp, "probe_n").Num(); n != 2 {
		t.Fatalf("self.n on the second activation = %v, want 2", n)
	}
	w.setLoad(0, 90, 80, 70)
	if ok, err := sp.Select(ctx, sp.opts.Constraint); !ok || err != nil {
		t.Fatalf("Select = %v, %v", ok, err)
	}
	if ref, _ := sp.Current(); ref != hostRef(1) {
		t.Fatalf("rebind went to %v, want host-1", ref)
	}
	activate(t, sp, "Count")
	if n := global(t, sp, "probe_n").Num(); n != 3 {
		t.Fatalf("self.n after a rebind = %v, want 3", n)
	}
}

// TestScriptSelfDropsStaleMonitorKeys: a rebind to an offer without the
// monitored properties takes their monitor objects off self.
func TestScriptSelfDropsStaleMonitorKeys(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Probe", `function(self)
		probe_mon = self._loadavgmon
		probe_named = self._monitor_LoadAvg
		probe_server = self._server
	end`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	activate(t, sp, "Probe")
	if global(t, sp, "probe_mon").IsNil() || global(t, sp, "probe_named").IsNil() {
		t.Fatal("bound to a monitored offer, self has no monitor object")
	}
	bare := trading.QueryResult{Offer: trading.Offer{ID: "bare", Ref: hostRef(1),
		Props: map[string]trading.PropValue{"Host": {Static: wire.String("host-1")}}}}
	if err := sp.BindTo(ctx, bare); err != nil {
		t.Fatal(err)
	}
	activate(t, sp, "Probe")
	if v := global(t, sp, "probe_mon"); !v.IsNil() {
		t.Fatalf("self._loadavgmon after rebinding to an unmonitored offer = %v, want nil", v.ToString())
	}
	if v := global(t, sp, "probe_named"); !v.IsNil() {
		t.Fatalf("self._monitor_LoadAvg after rebinding to an unmonitored offer = %v, want nil", v.ToString())
	}
	if ref, _ := global(t, sp, "probe_server").AsRef(); ref != hostRef(1) {
		t.Fatalf("self._server = %v, want host-1", ref)
	}
}

// TestScriptSelfReservedFieldsRestored: a strategy that clobbers self's
// reserved fields does not break the next activation's self:_select.
func TestScriptSelfReservedFieldsRestored(t *testing.T) {
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Clobber", `function(self)
		self._select = nil
		self._observer = 42
	end`); err != nil {
		t.Fatal(err)
	}
	if err := sp.SetScriptStrategy("Use", `function(self)
		probe_ok = self:_select("")
		probe_observer = type(self._observer)
	end`); err != nil {
		t.Fatal(err)
	}
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	activate(t, sp, "Clobber")
	activate(t, sp, "Use")
	if v := global(t, sp, "probe_ok"); v.Kind() != script.KindBool || !v.Truthy() {
		t.Fatal("self:_select after a strategy cleared it did not select")
	}
	if k := global(t, sp, "probe_observer").Str(); k != "objref" {
		t.Fatalf("self._observer after a strategy overwrote it is a %s, want objref", k)
	}
}

// TestScriptSelfFollowsSelectWithinActivation: after self:_select switches
// servers, self names the new server and its monitor before the strategy
// returns.
func TestScriptSelfFollowsSelectWithinActivation(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Switch", `function(self)
		probe_before = self._server
		probe_ok = self:_select("LoadAvg < 50 and LoadAvgIncreasing == no")
		probe_server = self._server
		probe_mon = self._loadavgmon.ref
	end`); err != nil {
		t.Fatal(err)
	}
	if err := sp.Bind(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.setLoad(0, 90, 80, 70)
	activate(t, sp, "Switch")
	cur, _ := sp.Current()
	if cur != hostRef(1) {
		t.Fatalf("strategy left the proxy on %v, want host-1", cur)
	}
	if ref, _ := global(t, sp, "probe_before").AsRef(); ref != hostRef(0) {
		t.Fatalf("self._server before the switch = %v, want host-0", ref)
	}
	if v := global(t, sp, "probe_ok"); v.Kind() != script.KindBool || !v.Truthy() {
		t.Fatal("self:_select reported no server")
	}
	if ref, _ := global(t, sp, "probe_server").AsRef(); ref != cur {
		t.Fatalf("self._server after self:_select = %v, want %v", ref, cur)
	}
	if ref, _ := global(t, sp, "probe_mon").AsRef(); ref != monitorRef(1) {
		t.Fatalf("self._loadavgmon.ref after self:_select = %v, want %v", ref, monitorRef(1))
	}
}

// TestScriptSelfConcurrentRebind: activations read self while another
// goroutine rebinds the proxy; each sees a whole binding.
func TestScriptSelfConcurrentRebind(t *testing.T) {
	w := newWorld(t, 2)
	w.setLoad(0, 10, 15, 15)
	w.setLoad(1, 20, 25, 25)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Probe", `function(self)
		local mon = self._loadavgmon
		assert(mon and mon.ref and self._server, "self without a binding")
		mon:getValue()
	end`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	results, err := w.lookup.Query(ctx, "LoadShared", "", "min LoadAvg", 2)
	if err != nil || len(results) != 2 {
		t.Fatalf("query = %d offers, %v", len(results), err)
	}
	if err := sp.BindTo(ctx, results[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := sp.BindTo(ctx, results[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		activate(t, sp, "Probe")
	}
	<-done
}

// TestAllocGuardScriptSelfActivation pins an activation that does not
// rebind: self and its monitor objects are reused as they are, so what is
// left is the interpreter call's own. Measured: 1, pinned with no slack.
func TestAllocGuardScriptSelfActivation(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	w := newWorld(t, 1)
	w.setLoad(0, 10, 15, 15)
	sp := w.newProxy(Options{})
	if err := sp.SetScriptStrategy("Probe", `function(self)
		local _ = self._loadavgmon.ref
	end`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sp.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	events := []string{"Probe"}
	if err := sp.runStrategies(ctx, events); err != nil {
		t.Fatal(err) // the first activation builds self
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if err := sp.runStrategies(ctx, events); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("strategy activation without a rebind: %.1f allocs/op, want 1", allocs)
	}
}
