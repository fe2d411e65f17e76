package autoadapt

// End-to-end coverage for the sharded trading service behind the facade:
// the same Fig. 6 deployment as integration_test.go, but with the trader
// replaced by StartShardedTrader — agents and clients must not need any
// change, and the shardStatus introspection op must describe the
// placement.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"autoadapt/internal/core"
	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

func TestShardedTraderFullStack(t *testing.T) {
	network := NewInprocNetwork()
	ctx := context.Background()

	reg := NewMetricsRegistry()
	trader, err := StartShardedTrader(ShardedTraderOptions{
		Network: network,
		Address: "trader",
		Shards:  3,
		Types: []ServiceType{
			{Name: "Hello", Props: []string{"LoadAvg", "LoadAvgIncreasing", "Host"}},
			{Name: "Other", Props: []string{"LoadAvg"}},
		},
		CheckIDL: true,
		LeaseTTL: time.Minute,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = trader.Close() })

	platform, err := Connect(network, trader.Ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = platform.Close() })

	// Agents export through the remote lookup exactly as against a single
	// trader; the servant routes each export to the owning shard.
	dials := []*dialSource{newDialSource(0.2), newDialSource(0.3)}
	for i, d := range dials {
		name := fmt.Sprintf("srv-%d", i)
		ag, err := StartAgent(ctx, AgentOptions{
			Network:       network,
			Address:       name,
			Lookup:        platform.Lookup,
			ServiceType:   "Hello",
			Servant:       helloServant(name),
			LoadSource:    d,
			MonitorPeriod: 25 * time.Millisecond,
			StaticProps:   map[string]wire.Value{"Host": wire.String(name)},
			LeaseTTL:      time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ag.Close(context.Background()) })
	}

	rs, err := platform.Lookup.Query(ctx, "Hello", "", "min LoadAvg", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("query through sharded trader returned %d offers, want 2", len(rs))
	}
	if rs[0].Snapshot["Host"].Str() != "srv-0" {
		t.Fatalf("preference order wrong: best offer from %s", rs[0].Snapshot["Host"])
	}

	// A smart proxy binds and invokes against the sharded trader unchanged.
	proxy, err := platform.NewSmartProxy(ProxyOptions{
		ServiceType: "Hello",
		Preference:  "min LoadAvg",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	if err := proxy.SetScriptStrategy(core.EventNoMatch, core.SortOnlyStrategy); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Bind(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := proxy.Invoke(ctx, "hello")
	if err != nil || out[0].Str() != "srv-0" {
		t.Fatalf("invoke through proxy = %v, %v", out, err)
	}

	// listTypes answers the router's registered types.
	client := orb.NewClient(network)
	t.Cleanup(func() { _ = client.Close() })
	lt, err := client.Invoke(ctx, trader.Ref, "listTypes")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	if tb, ok := lt[0].AsTable(); ok {
		for i := 1; i <= tb.Len(); i++ {
			names[tb.Index(i).Str()] = true
		}
	}
	if !names["Hello"] || !names["Other"] {
		t.Fatalf("listTypes = %v, want Hello and Other", names)
	}

	// shardStatus reports the placement: three live shards, every type
	// owned by exactly one of them.
	st, err := client.Invoke(ctx, trader.Ref, "shardStatus")
	if err != nil {
		t.Fatal(err)
	}
	status, ok := st[0].AsTable()
	if !ok {
		t.Fatalf("shardStatus reply is %s, want table", st[0].Kind())
	}
	shardsTb, ok := status.GetString("shards").AsTable()
	if !ok || shardsTb.Len() != 3 {
		t.Fatalf("shardStatus shards = %v, want 3 entries", status.GetString("shards"))
	}
	ownedTypes := 0
	for i := 1; i <= shardsTb.Len(); i++ {
		sh, _ := shardsTb.Index(i).AsTable()
		if alive, _ := sh.GetString("alive").AsBool(); !alive {
			t.Fatalf("shard %d reported dead", i)
		}
		if owned, ok := sh.GetString("owned").AsTable(); ok {
			ownedTypes += owned.Len()
		}
	}
	if ownedTypes != 2 {
		t.Fatalf("shardStatus places %d types, want 2", ownedTypes)
	}
	routerTb, ok := status.GetString("router").AsTable()
	if !ok || routerTb.GetString("queries").Num() == 0 {
		t.Fatalf("shardStatus router counters = %v", status.GetString("router"))
	}
	if routerTb.GetString("probeFails").Kind() != wire.KindNumber {
		t.Fatalf("shardStatus router counters lack probeFails: %v", status.GetString("router"))
	}

	// The trading_* gauges are sums over the shards: every shard registers
	// per-trader gauges under the same names (GaugeFunc is last-wins), so
	// without the re-registration they would show one shard's slice.
	gauge := func(name string) float64 {
		var v float64
		for _, line := range strings.Split(reg.Text(), "\n") {
			if n, ok := strings.CutPrefix(line, name+" "); ok {
				fmt.Sscanf(n, "%g", &v)
			}
		}
		return v
	}
	if got := gauge("trading_queries"); got < 1 {
		t.Errorf("trading_queries = %g after a query, want >= 1", got)
	}
	if got := gauge("trading_offers"); got != 2 {
		t.Errorf("trading_offers = %g with two exported offers, want 2", got)
	}
	if got := gauge("trading_exports"); got < 2 {
		t.Errorf("trading_exports = %g after two exports, want >= 2", got)
	}
}
