package trading_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/testutil"
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

// TestAllocGuardResolveBatch pins what ClientResolver's round trips to a
// monitor allocate over the in-process transport, client and server
// together. A 2-aspect batch, the shape of the Fig. 6 offer, allocates
// nothing: the monitor writes its values into the reply frame and the
// resolver reads them into the caller's slots, a number and an interned
// string. It was 3: the argument slice, the reply message and the
// monitor's result slice. A getValue of a load triple allocates the table
// it decodes.
func TestAllocGuardResolveBatch(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	nw := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: nw, Address: "hosts"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m, err := monitor.New(monitor.Options{Name: "LoadAvg"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for name, src := range map[string]string{"Increasing": monitor.IncreasingAspectSrc, monitor.Load1Aspect: monitor.Load1AspectSrc} {
		if err := m.DefineAspect(name, src); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetValue(wire.TableVal(wire.NewList(wire.Number(1), wire.Number(5), wire.Number(15)))); err != nil {
		t.Fatal(err)
	}
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	ref := srv.Register("monitor/LoadAvg", "", monitor.NewServant(m))
	client := orb.NewClient(nw)
	defer client.Close()
	r := trading.ClientResolver{Client: client}
	ctx := context.Background()
	for _, tc := range []struct {
		aspects []string
		want    float64
	}{
		{[]string{monitor.Load1Aspect, "Increasing"}, 0},
		{[]string{""}, 1},
	} {
		out := make([]trading.Resolution, len(tc.aspects))
		r.ResolveBatch(ctx, ref, tc.aspects, out) // dials
		allocs := testing.AllocsPerRun(500, func() {
			r.ResolveBatch(ctx, ref, tc.aspects, out)
			for _, res := range out {
				if res.Err != nil || res.Value.IsNil() {
					t.Fatalf("%q: %v", tc.aspects, out)
				}
			}
		})
		if allocs > tc.want {
			t.Fatalf("ResolveBatch(%q): %.1f allocs/op, want <= %.0f", tc.aspects, allocs, tc.want)
		}
	}
}

// TestClientResolverReplyShapes: replies of an unexpected length resolve
// as they did when the resolver decoded a []wire.Value. A batch answered
// with too few or too many values is asked again aspect by aspect; a
// single read takes the first value, and a reply with none reads as nil.
func TestClientResolverReplyShapes(t *testing.T) {
	nw := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: nw, Address: "hosts"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ops []string
	extra := 0 // values added to every reply, or dropped when negative
	ref := srv.Register("mon", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		ops = append(ops, op)
		out := []wire.Value{wire.Int(7)} // the property value
		if op != "getValue" {
			out = out[:0]
			for _, a := range args {
				v := wire.Int(7)
				if a.Str() != "" {
					v = wire.String(op + ":" + a.Str())
				}
				out = append(out, v)
			}
		}
		if extra < 0 {
			return out[:len(out)+extra], nil
		}
		for i := 0; i < extra; i++ {
			out = append(out, wire.Int(99))
		}
		return out, nil
	}))
	client := orb.NewClient(nw)
	defer client.Close()
	r := trading.ClientResolver{Client: client}
	for _, tc := range []struct {
		extra   int
		aspects []string
		want    []string
		ops     []string
	}{
		{0, []string{"A", "", "B"}, []string{`"getAspectValues:A"`, "7", `"getAspectValues:B"`}, []string{"getAspectValues"}},
		{1, []string{"A", "", "B"}, []string{`"getAspectValue:A"`, "7", `"getAspectValue:B"`},
			[]string{"getAspectValues", "getAspectValue", "getValue", "getAspectValue"}},
		{-1, []string{"A", "", "B"}, []string{"nil", "nil", "nil"},
			[]string{"getAspectValues", "getAspectValue", "getValue", "getAspectValue"}},
		{1, []string{""}, []string{"7"}, []string{"getValue"}},
		{-1, []string{"A"}, []string{"nil"}, []string{"getAspectValue"}},
	} {
		extra, ops = tc.extra, nil
		out := make([]trading.Resolution, len(tc.aspects))
		for i := range out {
			out[i].Value = wire.String("stale")
		}
		r.ResolveBatch(context.Background(), ref, tc.aspects, out)
		var got []string
		for _, res := range out {
			if res.Err != nil {
				t.Fatalf("extra %d, %q: %v", tc.extra, tc.aspects, res.Err)
			}
			got = append(got, res.Value.String())
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || fmt.Sprint(ops) != fmt.Sprint(tc.ops) {
			t.Fatalf("extra %d, %q: %v after %v, want %v after %v", tc.extra, tc.aspects, got, ops, tc.want, tc.ops)
		}
	}
}
