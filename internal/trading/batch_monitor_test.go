package trading_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// opLog wraps a servant and records the operations invoked on it.
type opLog struct {
	orb.Servant
	mu  *sync.Mutex
	ops *[]string
}

func (l opLog) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	l.mu.Lock()
	*l.ops = append(*l.ops, op)
	l.mu.Unlock()
	return l.Servant.Invoke(op, args)
}

// perProperty hides ClientResolver's batch method, leaving the trader the
// one-call-per-property resolution it had before getAspectValues.
type perProperty struct{ trading.DynamicResolver }

// loadMonitors serves n push-fed LoadAvg monitors with the Fig. 3 aspects,
// monitor i holding the load triple {10i, 10i+5, 10i+5}, and returns their
// references and the log of every operation invoked on any of them.
func loadMonitors(t *testing.T, nw orb.Network, n int) ([]wire.ObjRef, func() []string) {
	t.Helper()
	srv, err := orb.NewServer(orb.ServerOptions{Network: nw, Address: "hosts"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	var mu sync.Mutex
	var ops []string
	refs := make([]wire.ObjRef, n)
	for i := range refs {
		m, err := monitor.New(monitor.Options{Name: "LoadAvg"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if err := m.DefineAspect("Increasing", monitor.IncreasingAspectSrc); err != nil {
			t.Fatal(err)
		}
		if err := m.DefineAspect(monitor.Load1Aspect, monitor.Load1AspectSrc); err != nil {
			t.Fatal(err)
		}
		one := float64(10 * i)
		load := wire.TableVal(wire.NewList(wire.Number(one), wire.Number(one+5), wire.Number(one+5)))
		if err := m.SetValue(load); err != nil {
			t.Fatal(err)
		}
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
		refs[i] = srv.Register(fmt.Sprintf("monitor-%d", i), "", opLog{monitor.NewServant(m), &mu, &ops})
	}
	return refs, func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := ops
		ops = nil
		return out
	}
}

// TestQueryInvokesEachMonitorOnce counts monitor invocations under the
// paper's Fig. 6 offer — LoadAvg and LoadAvgIncreasing, two aspects of the
// host's one monitor: a query over 8 such offers makes 8 getAspectValues
// calls where per-property resolution made 16, and two offers that read
// different aspects of one shared monitor cost a single call.
func TestQueryInvokesEachMonitorOnce(t *testing.T) {
	nw := orb.NewInprocNetwork()
	client := orb.NewClient(nw)
	defer client.Close()
	const hosts = 8
	refs, drain := loadMonitors(t, nw, hosts+1)
	ctx := context.Background()
	const cons, pref = "LoadAvg < 50 and LoadAvgIncreasing == no", "min LoadAvg"

	for _, tc := range []struct {
		name     string
		resolver trading.DynamicResolver
		calls    int
		op       string
	}{
		{"batched", trading.ClientResolver{Client: client}, hosts, "getAspectValues"},
		{"per property", perProperty{trading.ClientResolver{Client: client}}, 2 * hosts, "getAspectValue"},
	} {
		tr := trading.NewTrader(tc.resolver)
		tr.SetResolveParallel(1)
		tr.AddType(trading.ServiceType{Name: "LoadShared"})
		for i := 0; i < hosts; i++ {
			_, err := tr.Export("LoadShared", wire.ObjRef{Endpoint: "inproc|hosts", Key: fmt.Sprintf("service-%d", i)},
				map[string]trading.PropValue{
					"LoadAvg":           {Dynamic: refs[i], Aspect: monitor.Load1Aspect},
					"LoadAvgIncreasing": {Dynamic: refs[i], Aspect: "Increasing"},
				})
			if err != nil {
				t.Fatal(err)
			}
		}
		rs, err := tr.Query(ctx, "LoadShared", cons, pref, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Loads 0, 10, ..., 70: five are under 50, coolest first.
		if len(rs) != 5 || rs[0].Snapshot["LoadAvg"].Num() != 0 || rs[4].Snapshot["LoadAvg"].Num() != 40 ||
			rs[0].Snapshot["LoadAvgIncreasing"].Str() != "no" {
			t.Fatalf("%s: %d rows, first %v", tc.name, len(rs), rs[0].Snapshot)
		}
		ops := drain()
		if len(ops) != tc.calls {
			t.Fatalf("%s: %d monitor invocations %v, want %d", tc.name, len(ops), ops, tc.calls)
		}
		for _, op := range ops {
			if op != tc.op {
				t.Fatalf("%s: monitors saw %v, want only %s", tc.name, ops, tc.op)
			}
		}
	}

	// Two offers, one monitor, a different aspect each: the (monitor, aspect)
	// pairs are distinct, the monitor is not.
	shared := refs[hosts]
	tr := trading.NewTrader(trading.ClientResolver{Client: client})
	tr.AddType(trading.ServiceType{Name: "S"})
	for i, aspect := range []string{monitor.Load1Aspect, "Increasing"} {
		_, err := tr.Export("S", wire.ObjRef{Endpoint: "inproc|hosts", Key: fmt.Sprintf("shared-%d", i)},
			map[string]trading.PropValue{"P": {Dynamic: shared, Aspect: aspect}})
		if err != nil {
			t.Fatal(err)
		}
	}
	rs, err := tr.Query(ctx, "S", "exist P", "", 0)
	if err != nil || len(rs) != 2 {
		t.Fatalf("%d rows, err %v", len(rs), err)
	}
	if rs[0].Snapshot["P"].Num() != 80 || rs[1].Snapshot["P"].Str() != "no" {
		t.Fatalf("snapshots %v, %v", rs[0].Snapshot, rs[1].Snapshot)
	}
	if ops := drain(); len(ops) != 1 || ops[0] != "getAspectValues" {
		t.Fatalf("monitor invocations %v, want one getAspectValues", ops)
	}

	// A monitor asked for one thing gets the call it always got.
	for aspect, op := range map[string]string{"": "getValue", "Increasing": "getAspectValue"} {
		tr := trading.NewTrader(trading.ClientResolver{Client: client})
		tr.AddType(trading.ServiceType{Name: "S"})
		if _, err := tr.Export("S", wire.ObjRef{Endpoint: "inproc|hosts", Key: "single"},
			map[string]trading.PropValue{"P": {Dynamic: shared, Aspect: aspect}}); err != nil {
			t.Fatal(err)
		}
		if rs, err := tr.Query(ctx, "S", "exist P", "", 0); err != nil || len(rs) != 1 {
			t.Fatalf("%d rows, err %v", len(rs), err)
		}
		if ops := drain(); len(ops) != 1 || ops[0] != op {
			t.Fatalf("aspect %q: monitor invocations %v, want one %s", aspect, ops, op)
		}
	}
}
