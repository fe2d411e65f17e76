package autoadapt

// Benchmark harness: one bench per experiment in DESIGN.md §3.
//
//	E1/E2/E3/E6 — scenario experiments; the same drivers cmd/benchall runs,
//	              at reduced scale so `go test -bench` stays quick.
//	E4          — invocation-path ladder (direct Go → inproc ORB → TCP ORB
//	              → TCP+IDL check → smart proxy).
//	E5          — trader query cost vs offer count and dynamic-property
//	              fraction.
//	E7          — AdaptScript overhead: compile and run the paper's shipped
//	              code vs an equivalent native Go implementation.
//	E8          — the same strategy reused across two service types.
//
// Measured outputs are recorded against the paper's claims in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/experiment"
	"autoadapt/internal/idl"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// ---- E1 ----

func benchLoadSharing(b *testing.B, policy string) {
	cfg := experiment.LoadShareConfig{
		Servers:        4,
		Clients:        6,
		Duration:       6 * time.Minute,
		Threshold:      2,
		BackgroundLoad: 6,
		BackgroundAt:   2 * time.Minute,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiment.LoadSharing(cfg, policy)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanRespSec*1000, "resp-ms")
		b.ReportMetric(r.ImbalanceCoV, "imbalance-CoV")
	}
}

func BenchmarkE1LoadSharingAdaptive(b *testing.B)   { benchLoadSharing(b, experiment.PolicyAdaptive) }
func BenchmarkE1LoadSharingStatic(b *testing.B)     { benchLoadSharing(b, experiment.PolicyStatic) }
func BenchmarkE1LoadSharingRoundRobin(b *testing.B) { benchLoadSharing(b, experiment.PolicyRoundRobin) }
func BenchmarkE1LoadSharingRandom(b *testing.B)     { benchLoadSharing(b, experiment.PolicyRandom) }

// ---- E2 ----

func BenchmarkE2EventVsPolling(b *testing.B) {
	cfg := experiment.EventVsPollingConfig{Duration: 20 * time.Minute}
	for i := 0; i < b.N; i++ {
		rs, err := experiment.EventVsPolling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Mode == "event" {
				b.ReportMetric(float64(r.Interactions), "event-msgs")
			}
			if r.Mode == "poll-5s" {
				b.ReportMetric(float64(r.Interactions), "poll5s-msgs")
			}
		}
	}
}

// ---- E3 ----

func BenchmarkE3PostponedHandling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiment.PostponedVsImmediate(experiment.PostponeConfig{Events: 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Mode == "immediate" {
				b.ReportMetric(float64(r.OverlappedReconfigs), "immediate-overlaps")
			}
		}
	}
}

// ---- E4: invocation path ladder ----

func echoServantBench() orb.Servant {
	return orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return args, nil
	})
}

func BenchmarkE4DirectGoCall(b *testing.B) {
	sv := echoServantBench()
	arg := []wire.Value{wire.Int(42)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Invoke("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4InprocORBCall(b *testing.B) {
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "b4-inproc"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServantBench())
	client := orb.NewClient(n)
	defer client.Close()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(ctx, ref, "echo", wire.Int(42)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTCP(b *testing.B, repo *idl.Repository, iface string) {
	srv, err := orb.NewServer(orb.ServerOptions{Network: orb.TCPNetwork{}, Address: "127.0.0.1:0", Repo: repo})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", iface, echoServantBench())
	client := orb.NewClient(orb.TCPNetwork{})
	defer client.Close()
	ctx := context.Background()
	// Warm the connection.
	if _, err := client.Invoke(ctx, ref, "echo", wire.Int(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(ctx, ref, "echo", wire.Int(42)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4TCPORBCall(b *testing.B) { benchTCP(b, nil, "") }

func BenchmarkE4TCPORBCallTypeChecked(b *testing.B) {
	repo := idl.NewRepository()
	if err := repo.LoadIDL(`interface Echo { any echo(in any v); };`); err != nil {
		b.Fatal(err)
	}
	benchTCP(b, repo, "Echo")
}

func BenchmarkE4SmartProxyCall(b *testing.B) {
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "b4-proxy"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServantBench())
	client := orb.NewClient(n)
	defer client.Close()
	sp, err := core.New(core.Options{Client: client})
	if err != nil {
		b.Fatal(err)
	}
	defer sp.Close()
	ctx := context.Background()
	if err := sp.BindTo(ctx, trading.QueryResult{Offer: trading.Offer{ID: "offer-1", Ref: ref}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Invoke(ctx, "echo", wire.Int(42)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E5: trader query cost ----

type benchResolver struct{ loads map[string]float64 }

func (r benchResolver) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	if aspect == "Increasing" {
		return wire.String("no"), nil
	}
	return wire.Number(r.loads[ref.String()]), nil
}

func benchTrader(b *testing.B, offers int, dynamicFrac float64) {
	res := benchResolver{loads: map[string]float64{}}
	tr := trading.NewTrader(res)
	tr.AddType(trading.ServiceType{Name: "S"})
	for i := 0; i < offers; i++ {
		props := map[string]trading.PropValue{}
		mon := wire.ObjRef{Endpoint: fmt.Sprintf("inproc|h-%d", i), Key: "m"}
		res.loads[mon.String()] = float64(i % 10)
		if float64(i) < dynamicFrac*float64(offers) {
			props["LoadAvg"] = trading.PropValue{Dynamic: mon}
			props["LoadAvgIncreasing"] = trading.PropValue{Dynamic: mon, Aspect: "Increasing"}
		} else {
			props["LoadAvg"] = trading.PropValue{Static: wire.Number(float64(i % 10))}
			props["LoadAvgIncreasing"] = trading.PropValue{Static: wire.String("no")}
		}
		if _, err := tr.Export("S", wire.ObjRef{Endpoint: fmt.Sprintf("inproc|h-%d", i), Key: "svc"}, props); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := tr.Query(ctx, "S", "LoadAvg < 5 and LoadAvgIncreasing == no", "min LoadAvg", 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("no match")
		}
	}
}

func BenchmarkE5TraderQuery10Static(b *testing.B)    { benchTrader(b, 10, 0) }
func BenchmarkE5TraderQuery10Dynamic(b *testing.B)   { benchTrader(b, 10, 1) }
func BenchmarkE5TraderQuery100Static(b *testing.B)   { benchTrader(b, 100, 0) }
func BenchmarkE5TraderQuery100Half(b *testing.B)     { benchTrader(b, 100, 0.5) }
func BenchmarkE5TraderQuery100Dynamic(b *testing.B)  { benchTrader(b, 100, 1) }
func BenchmarkE5TraderQuery1000Static(b *testing.B)  { benchTrader(b, 1000, 0) }
func BenchmarkE5TraderQuery1000Dynamic(b *testing.B) { benchTrader(b, 1000, 1) }

// ---- E10: remote dynamic resolution over TCP-served monitors ----

// e10MonServiceTime simulates the time a monitor spends servicing
// getValue — sampling its sensor plus LAN round-trip time. Localhost TCP
// collapses network latency to syscall cost, so without this the benchmark
// would measure a degenerate zero-RTT network no deployment has.
const e10MonServiceTime = 200 * time.Microsecond

// serviceWait waits d out: it yields until the deadline, so other
// goroutines run meanwhile and concurrent waits overlap, and it ends at the
// deadline. A 200 µs time.Sleep lasts about 1.1 ms on a 2-CPU Linux
// machine, the timer's granularity there.
func serviceWait(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		runtime.Gosched()
	}
}

// benchRemoteQuery measures end-to-end trader query latency when every
// offer's LoadAvg is a dynamic property served by a monitor servant behind
// a real TCP ORB endpoint, as the offer count grows. Monitors are spread
// across `hosts` TCP servers to model a cluster of monitor hosts. workers
// = 1 reproduces the seed's serial resolution loop; workers = 0 keeps the
// trader's default bounded fan-out. With twoAspects every offer also
// carries LoadAvgIncreasing, a second aspect of the same monitor — the
// paper's Fig. 6 offer — and the query references both. withCores adds a
// static Cores property, 1 on every fourth offer, and a leading Cores >= 2
// to the query: the trader never resolves the offers it rejects. The
// monitor round trips per query are reported as roundtrips/op.
func benchRemoteQuery(b *testing.B, offers, hosts, workers int, shape e10Shape) {
	var servers []*orb.Server
	for h := 0; h < hosts; h++ {
		srv, err := orb.NewServer(orb.ServerOptions{Network: orb.TCPNetwork{}, Address: "127.0.0.1:0"})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
	}
	client := orb.NewClient(orb.TCPNetwork{})
	defer client.Close()
	tr := trading.NewTrader(trading.ClientResolver{Client: client})
	if workers > 0 {
		tr.SetResolveParallel(workers)
	}
	tr.AddType(trading.ServiceType{Name: "S"})
	var roundTrips atomic.Int64
	for i := 0; i < offers; i++ {
		load := float64(i % 10)
		read := func(aspect wire.Value) wire.Value {
			if aspect.Str() == "Increasing" {
				return wire.String("no")
			}
			return wire.Number(load)
		}
		monRef := servers[i%hosts].Register(fmt.Sprintf("mon-%d", i), "", orb.ServantFunc(
			func(op string, args []wire.Value) ([]wire.Value, error) {
				var out []wire.Value
				switch {
				case op == "getValue":
					out = []wire.Value{wire.Number(load)}
				case op == "getAspectValue" && len(args) == 1:
					out = []wire.Value{read(args[0])}
				case op == "getAspectValues":
					for _, a := range args {
						out = append(out, read(a))
					}
				default:
					return nil, fmt.Errorf("monitor: no such operation %q", op)
				}
				roundTrips.Add(1)
				serviceWait(e10MonServiceTime)
				return out, nil
			}))
		props := map[string]trading.PropValue{"LoadAvg": {Dynamic: monRef}}
		if shape >= twoAspects {
			props["LoadAvgIncreasing"] = trading.PropValue{Dynamic: monRef, Aspect: "Increasing"}
		}
		if shape == withCores {
			props["Cores"] = trading.PropValue{Static: wire.Int([...]int{1, 2, 4, 8}[i%4])}
		}
		svcRef := wire.ObjRef{Endpoint: fmt.Sprintf("inproc|svc-%d", i), Key: "svc"}
		if _, err := tr.Export("S", svcRef, props); err != nil {
			b.Fatal(err)
		}
	}
	constraint := "LoadAvg < 5"
	if shape >= twoAspects {
		constraint += " and LoadAvgIncreasing == no"
	}
	if shape == withCores {
		constraint = "Cores >= 2 and " + constraint
	}
	ctx := context.Background()
	query := func() {
		rs, err := tr.Query(ctx, "S", constraint, "min LoadAvg", 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("no match")
		}
	}
	query() // warm connections to every monitor host
	roundTrips.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
	}
	b.ReportMetric(float64(roundTrips.Load())/float64(b.N), "roundtrips/op")
}

// e10Shape is what an E10 offer carries and its query reads.
type e10Shape int

const (
	oneAspect  e10Shape = iota // LoadAvg
	twoAspects                 // LoadAvg, LoadAvgIncreasing
	withCores                  // both, and a static Cores
)

func BenchmarkE10RemoteQuery16(b *testing.B)        { benchRemoteQuery(b, 16, 4, 0, oneAspect) }
func BenchmarkE10RemoteQuery64(b *testing.B)        { benchRemoteQuery(b, 64, 4, 0, oneAspect) }
func BenchmarkE10RemoteQuery256(b *testing.B)       { benchRemoteQuery(b, 256, 4, 0, oneAspect) }
func BenchmarkE10RemoteQuery64Serial(b *testing.B)  { benchRemoteQuery(b, 64, 4, 1, oneAspect) }
func BenchmarkE10RemoteQuery256Serial(b *testing.B) { benchRemoteQuery(b, 256, 4, 1, oneAspect) }

func BenchmarkE10RemoteQuery64TwoAspects(b *testing.B) { benchRemoteQuery(b, 64, 4, 0, twoAspects) }
func BenchmarkE10RemoteQuery64TwoAspectsSerial(b *testing.B) {
	benchRemoteQuery(b, 64, 4, 1, twoAspects)
}
func BenchmarkE10RemoteQuery64CoresSerial(b *testing.B) { benchRemoteQuery(b, 64, 4, 1, withCores) }

// ---- E6 ----

func BenchmarkE6RelaxedRequery(b *testing.B) {
	cfg := experiment.RelaxConfig{OverloadTicks: 5, ReliefTicks: 5}
	for i := 0; i < b.N; i++ {
		rs, err := experiment.RelaxedRequery(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Strategy == "relax" {
				b.ReportMetric(float64(r.QueriesOverload), "relax-queries")
			}
		}
	}
}

// ---- E7: script overhead ----

func BenchmarkE7ScriptCompilePredicate(b *testing.B) {
	in := script.New(script.Options{})
	src := "return " + monitor.LoadIncreasePredicateSrc(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Compile("pred", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7ScriptPredicateEval(b *testing.B) {
	in := script.New(script.Options{})
	vs, err := in.Eval("pred", "return "+monitor.LoadIncreasePredicateSrc(50))
	if err != nil {
		b.Fatal(err)
	}
	fn := vs[0]
	mon := script.NewTable()
	mon.SetString("getAspectValue", script.Func("getAspectValue", func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{script.String("yes")}, nil
	}))
	val := script.TableVal(script.NewList(script.Number(60), script.Number(40), script.Number(30)))
	args := []script.Value{script.Nil(), val, script.TableVal(mon)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := in.Call(fn, args)
		if err != nil {
			b.Fatal(err)
		}
		if !out[0].Truthy() {
			b.Fatal("predicate should fire")
		}
	}
}

func BenchmarkE7NativePredicateEval(b *testing.B) {
	// The same predicate hand-written in Go, for the overhead ratio.
	aspect := func() string { return "yes" }
	pred := func(value []float64) bool {
		return value[0] > 50 && aspect() == "yes"
	}
	val := []float64{60, 40, 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !pred(val) {
			b.Fatal("predicate should fire")
		}
	}
}

func BenchmarkE7ScriptFig7Strategy(b *testing.B) {
	in := script.New(script.Options{})
	vs, err := in.Eval("fig7", `return function(self)
		self._loadavg = self._loadavgmon:getValue()
		local query
		query = "LoadAvg < 50 and LoadAvgIncreasing == no"
		if not self:_select(query) then
			return "relaxed"
		end
		return "switched"
	end`)
	if err != nil {
		b.Fatal(err)
	}
	fn := vs[0]
	mon := script.NewTable()
	mon.SetString("getValue", script.Func("getValue", func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{script.TableVal(script.NewList(script.Number(60)))}, nil
	}))
	self := script.NewTable()
	self.SetString("_loadavgmon", script.TableVal(mon))
	self.SetString("_select", script.Func("_select", func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
		return []script.Value{script.Bool(true)}, nil
	}))
	args := []script.Value{script.TableVal(self)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call(fn, args); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E12: strategy event throughput — install-once vs per-event re-parse ----

// e12StrategySrc is a Fig. 7-shaped strategy: it reads the bound monitor
// over the ORB, builds a constraint from thresholds, smooths the load
// history, and branches on the result. Its length is representative of
// the paper's listings — which is what makes per-event re-parsing costly.
const e12StrategySrc = `function(self)
	self._loadavg = self._loadavgmon:getValue()
	local threshold = 50
	local relaxstep = 10
	local history = self._history or {}
	history[#history + 1] = self._loadavg
	if #history > 8 then
		local trimmed = {}
		for i = 2, #history do
			trimmed[i - 1] = history[i]
		end
		history = trimmed
	end
	self._history = history
	local sum = 0
	for i = 1, #history do
		sum = sum + history[i]
	end
	local smoothed = sum / #history
	local query = "LoadAvg < " .. threshold .. " and LoadAvgIncreasing == no"
	if smoothed >= threshold + relaxstep then
		return "overloaded", query
	elseif smoothed >= threshold then
		return "watch", "LoadAvg < " .. (threshold + relaxstep)
	end
	return "ok"
end`

// benchE12Proxy builds a bound smart proxy whose offer carries a dynamic
// LoadAvg property, so script strategies see a live self._loadavgmon.
func benchE12Proxy(b *testing.B) (*core.SmartProxy, *orb.Client, wire.ObjRef) {
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "b12"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	svcRef := srv.Register("svc", "", echoServantBench())
	monRef := srv.Register("mon", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op != "getValue" {
			return nil, fmt.Errorf("monitor: no such operation %q", op)
		}
		return []wire.Value{wire.Number(60)}, nil
	}))
	client := orb.NewClient(n)
	b.Cleanup(func() { client.Close() })
	sp, err := core.New(core.Options{Client: client})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sp.Close)
	err = sp.BindTo(context.Background(), trading.QueryResult{Offer: trading.Offer{
		ID:  "offer-12",
		Ref: svcRef,
		Props: map[string]trading.PropValue{
			"LoadAvg": {Dynamic: monRef},
		},
	}})
	if err != nil {
		b.Fatal(err)
	}
	return sp, client, monRef
}

// BenchmarkE12StrategyEventInstallOnce is the shipped path: the strategy
// source compiles once at SetScriptStrategy time (through the chunk cache)
// and every event activation just Calls the cached closure.
func BenchmarkE12StrategyEventInstallOnce(b *testing.B) {
	sp, _, _ := benchE12Proxy(b)
	if err := sp.SetScriptStrategy("LoadIncrease", e12StrategySrc); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.OnEvent("LoadIncrease")
		if err := sp.Adapt(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12StrategyEventReparse reproduces the pre-cache behavior the
// seed had (scriptstrategy.go evaluated `return <src>` on every event): a
// cache-disabled interpreter re-lexes, re-parses, and re-resolves the
// strategy source per activation before calling it. The self stub mirrors
// what the proxy's self provides — a monitor object whose getValue invokes
// the real monitor servant over the ORB — so the two benchmarks differ
// only in compile work.
func BenchmarkE12StrategyEventReparse(b *testing.B) {
	sp, client, monRef := benchE12Proxy(b)
	in := script.New(script.Options{CacheSize: -1})
	ctx := context.Background()
	sp.SetStrategy("LoadIncrease", func(ctx context.Context, _ *core.SmartProxy) error {
		vs, err := in.Eval("strategy:LoadIncrease", "return "+e12StrategySrc)
		if err != nil {
			return err
		}
		mon := script.NewTable()
		mon.SetString("getValue", script.Func("monitor.getValue", func(_ *script.Interp, _ []script.Value) ([]script.Value, error) {
			rs, err := client.Invoke(ctx, monRef, "getValue")
			if err != nil {
				return nil, err
			}
			out := make([]script.Value, len(rs))
			for i, v := range rs {
				out[i] = script.FromWire(v)
			}
			return out, nil
		}))
		self := script.NewTable()
		self.SetString("_loadavgmon", script.TableVal(mon))
		_, err = in.Call(vs[0], []script.Value{script.TableVal(self)})
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.OnEvent("LoadIncrease")
		if err := sp.Adapt(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E8: strategy reuse across service types ----

func BenchmarkE8ReuseAcrossServices(b *testing.B) {
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "b8"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	helloRef := srv.Register("hello", "", echoServantBench())
	imageRef := srv.Register("image", "", echoServantBench())
	client := orb.NewClient(n)
	defer client.Close()
	ctx := context.Background()

	const strategySrc = `{
		LoadIncrease = function(self)
			-- shared, service-agnostic adaptation code (paper §V)
		end
	}`
	mk := func(ref wire.ObjRef) *core.SmartProxy {
		sp, err := core.New(core.Options{Client: client})
		if err != nil {
			b.Fatal(err)
		}
		if err := sp.SetScriptStrategiesTable(strategySrc); err != nil {
			b.Fatal(err)
		}
		if err := sp.BindTo(ctx, trading.QueryResult{Offer: trading.Offer{ID: "o", Ref: ref}}); err != nil {
			b.Fatal(err)
		}
		return sp
	}
	spHello := mk(helloRef)
	defer spHello.Close()
	spImage := mk(imageRef)
	defer spImage.Close()

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := spHello
		if i%2 == 1 {
			sp = spImage
		}
		sp.OnEvent("LoadIncrease") // queue + collapse
		if _, err := sp.Invoke(ctx, "op", wire.Int(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E9 ----

// BenchmarkE9FaultedInvoke measures the steady-state overhead of the
// fault-tolerance layer (retry policy armed, invocation deadline set,
// fault-injecting network wrapper in the dial path) when no faults occur.
// Compare against BenchmarkE4InprocORBCall, the same call with the layer
// disabled.
func BenchmarkE9FaultedInvoke(b *testing.B) {
	n := orb.NewInprocNetwork()
	fnet := orb.NewFaultNetwork(n)
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "b9-faulted"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServantBench())
	client := orb.NewClientOpts(orb.ClientOptions{
		Networks:      []orb.Network{fnet},
		Retry:         orb.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, Jitter: 0.2},
		InvokeTimeout: 5 * time.Second,
	})
	defer client.Close()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(ctx, ref, "echo", wire.Int(42)); err != nil {
			b.Fatal(err)
		}
	}
}
