package scriptbind

import (
	"strings"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/script"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

type world struct {
	client *orb.Client
	lookup *trading.Lookup
	trader *trading.Trader
	svcRef wire.ObjRef
	monRef wire.ObjRef
}

func newWorld(t *testing.T) *world {
	t.Helper()
	net := orb.NewInprocNetwork()
	w := &world{}

	resolver := orb.NewClient(net)
	t.Cleanup(func() { _ = resolver.Close() })
	w.trader = trading.NewTrader(trading.ClientResolver{Client: resolver})
	w.trader.AddType(trading.ServiceType{Name: "Hello"})

	traderSrv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "trader"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = traderSrv.Close() })
	traderRef := traderSrv.Register(trading.DefaultObjectKey, "", trading.NewServant(w.trader))

	host, err := orb.NewServer(orb.ServerOptions{Network: net, Address: "host"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })
	w.svcRef = host.Register("service", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case "hello":
			return []wire.Value{wire.String("hi")}, nil
		case "add":
			return []wire.Value{wire.Number(args[0].Num() + args[1].Num())}, nil
		default:
			return nil, orb.Appf("no op %q", op)
		}
	}))
	w.monRef = host.Register("monitor", "", orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "getValue" {
			return []wire.Value{wire.Number(0.5)}, nil
		}
		return nil, orb.Appf("no op %q", op)
	}))

	w.client = orb.NewClient(net)
	t.Cleanup(func() { _ = w.client.Close() })
	w.lookup = trading.NewLookup(w.client, traderRef)
	return w
}

func newInterp(t *testing.T, w *world) *script.Interp {
	t.Helper()
	in := script.New(script.Options{})
	InstallORB(in, w.client)
	InstallTrading(in, w.lookup)
	in.SetGlobal("svc", script.Ref(w.svcRef))
	in.SetGlobal("mon", script.Ref(w.monRef))
	return in
}

func TestScriptInvoke(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	vs, err := in.Eval("t", `return orb.invoke(svc, "add", 2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Num() != 5 {
		t.Fatalf("script invoke = %v", vs[0].Num())
	}
}

func TestScriptInvokeErrors(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	for _, src := range []string{
		`return orb.invoke()`,
		`return orb.invoke("not-a-ref", "op")`,
		`return orb.invoke(svc, 42)`,
	} {
		if _, err := in.Eval("t", src); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
	// Remote application errors surface as script errors, catchable with
	// pcall — the paper's interpreted flexibility again.
	vs, err := in.Eval("t", `
		local ok, msg = pcall(function() return orb.invoke(svc, "nosuch") end)
		return ok, msg`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Truthy() {
		t.Fatal("remote error not propagated")
	}
	if !strings.Contains(vs[1].Str(), "nosuch") {
		t.Fatalf("error message = %q", vs[1].Str())
	}
}

func TestScriptOneway(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	if _, err := in.Eval("t", `orb.oneway(svc, "hello")`); err != nil {
		t.Fatal(err)
	}
}

func TestScriptRefParse(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	vs, err := in.Eval("t", `return orb.ref("inproc|host/service")`)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := vs[0].AsRef()
	if !ok || ref.Key != "service" {
		t.Fatalf("orb.ref = %v", vs[0])
	}
	if _, err := in.Eval("t", `return orb.ref("garbage")`); err == nil {
		t.Fatal("bad ref text accepted")
	}
}

func TestScriptProxyCall(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	vs, err := in.Eval("t", `
		local p = orb.proxy(svc)
		return p:call("add", 40, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Num() != 42 {
		t.Fatalf("proxy call = %v", vs[0].Num())
	}
}

func TestProxyBindSugar(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	p := ProxyTable(w.client, w.svcRef)
	pt, _ := p.AsTable()
	NewMethods(w.client, "_ref", "hello", "add").install(pt)
	in.SetGlobal("p", p)
	vs, err := in.Eval("t", `return p:hello(), p:add(1, 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Str() != "hi" || vs[1].Num() != 3 {
		t.Fatalf("bound proxy = %v %v", vs[0].Str(), vs[1].Num())
	}
}

func TestScriptTradingRoundTrip(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	// Export from script — including a dynamic property — then query and
	// inspect from script: the paper's LuaTrading flow.
	vs, err := in.Eval("t", `
		local id = trader.export("Hello", svc, {
			Host = "host-a",
			LoadAvg = { dynamic = mon },
		})
		local offers = trader.query("Hello", "LoadAvg < 1", "min LoadAvg")
		local first = offers[1]
		return id, #offers, first.properties.Host, first.properties.LoadAvg, first.ref`)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Str() == "" || vs[1].Num() != 1 {
		t.Fatalf("export/query = %v %v", vs[0].Str(), vs[1].Num())
	}
	if vs[2].Str() != "host-a" || vs[3].Num() != 0.5 {
		t.Fatalf("offer properties = %v %v", vs[2].Str(), vs[3].Num())
	}
	ref, ok := vs[4].AsRef()
	if !ok || ref != w.svcRef {
		t.Fatalf("offer ref = %v", vs[4])
	}

	// Modify then withdraw, all from script.
	_, err = in.Eval("t2", `
		local offers = trader.query("Hello")
		trader.modify(offers[1].id, { Host = "host-b" })
		local again = trader.query("Hello", "Host == 'host-b'")
		assert(#again == 1, "modify not visible")
		trader.withdraw(again[1].id)
		assert(#trader.query("Hello") == 0, "withdraw not visible")`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestScriptTradingErrors(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	for _, src := range []string{
		`trader.query()`,
		`trader.export("Hello")`,
		`trader.export("Hello", "not-a-ref")`,
		`trader.export("Nope", svc)`,
		`trader.withdraw()`,
		`trader.withdraw("offer-999")`,
		`trader.modify("x")`,
	} {
		if _, err := in.Eval("t", src); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

// TestAgentScriptUsingTrading shows the paper's service-agent shape: an
// agent implemented AS A SCRIPT that exports its host's offer.
func TestAgentScriptUsingTrading(t *testing.T) {
	w := newWorld(t)
	in := newInterp(t, w)
	_, err := in.Eval("agent", `
		-- the paper's agent: create/configure monitors, export the offer
		local props = {}
		props.Host = "scripted-host"
		props.LoadAvg = { dynamic = mon }
		offer_id = trader.export("Hello", svc, props)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if w.trader.OfferCount() != 1 {
		t.Fatal("script agent did not export")
	}
}
