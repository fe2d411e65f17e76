package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/agent"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// TestKillShardMidLoad is the acceptance scenario from the roadmap: sever
// the owning shard while clients are querying and invoking, and require
//
//   - rerouting: queries keep answering from the surviving shards,
//   - zero lost invocations: no query or service call ever fails, and
//   - recovery: the agents' lease heartbeats re-export every offer to the
//     new owner within one lease TTL of the kill, and
//   - rejoin: the shard restarted empty at its old address is noticed by
//     Probe, takes its type back, and the same heartbeats carry every
//     offer home within HandoffGrace — still with nothing lost.
//
// The full stack is real: trader shards behind ORB servers, remote
// Lookups, agents with lease heartbeats, application servants on their
// own servers. Only the trader shard dies — application traffic must not
// notice.
func TestKillShardMidLoad(t *testing.T) {
	const (
		nShards = 3
		nAgents = 4
		ttl     = 2 * time.Second
	)
	net := orb.NewInprocNetwork()
	ctx := context.Background()

	resolver := orb.NewClient(net)
	t.Cleanup(func() { _ = resolver.Close() })
	lookupClient := orb.NewClient(net)
	t.Cleanup(func() { _ = lookupClient.Close() })

	srvs := make([]*orb.Server, nShards)
	shards := make([]trading.Directory, nShards)
	traders := make([]*trading.Trader, nShards)
	// startShard serves a fresh, empty trader at shard i's address.
	startShard := func(i int) wire.ObjRef {
		tr := trading.NewTrader(trading.ClientResolver{Client: resolver})
		tr.SetLeaseTTL(ttl)
		traders[i] = tr
		srv, err := orb.NewServer(orb.ServerOptions{Network: net, Address: fmt.Sprintf("trader-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		srvs[i] = srv
		return srv.Register(trading.DefaultObjectKey, "", trading.NewServant(tr))
	}
	for i := 0; i < nShards; i++ {
		shards[i] = trading.NewLookup(lookupClient, startShard(i))
	}
	const grace = 2 * ttl
	router, err := NewRouter(Options{Shards: shards, HandoffGrace: grace})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.AddType(ctx, trading.ServiceType{Name: "KV", Interface: "Service"}); err != nil {
		t.Fatal(err)
	}

	// Agents export through the router with lease heartbeats: when the
	// owning shard dies, Renew answers ErrUnknownOffer and the heartbeat
	// re-exports — which Export routes to the new owner.
	for i := 0; i < nAgents; i++ {
		name := fmt.Sprintf("agent-%d", i)
		a, err := agent.Start(ctx, agent.Options{
			Network:     net,
			Address:     name,
			Lookup:      router,
			ServiceType: "KV",
			Servant: orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
				return []wire.Value{wire.String(name)}, nil
			}),
			LoadSource: monitor.LoadSourceFunc(func() (float64, float64, float64, error) {
				return 0.5, 0.5, 0.5, nil
			}),
			LeaseTTL: ttl,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = a.Close(context.Background()) })
	}
	if got := len(queryAll(t, router)); got != nAgents {
		t.Fatalf("exported %d offers, want %d", got, nAgents)
	}
	firstOwner := router.Owner("KV")
	if firstOwner < 0 {
		t.Fatal("no owner for KV")
	}

	// Client load: query through the router, track the best offer, invoke
	// it. Every query and every invocation must succeed; an empty query
	// result (the re-export window) keeps the current binding, which is
	// the smart proxy's Fig. 7 behaviour.
	appClient := orb.NewClient(net)
	t.Cleanup(func() { _ = appClient.Close() })
	var (
		stop     atomic.Bool
		failures atomic.Int64
		invokes  atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bound wire.ObjRef
			for !stop.Load() {
				rs, err := router.Query(ctx, "KV", "", "", 0)
				if err != nil {
					t.Errorf("query failed: %v", err)
					failures.Add(1)
					return
				}
				if len(rs) > 0 {
					bound = rs[0].Offer.Ref
				}
				if bound.IsZero() {
					continue
				}
				if _, err := appClient.Invoke(ctx, bound, "get"); err != nil {
					t.Errorf("invoke failed: %v", err)
					failures.Add(1)
					return
				}
				invokes.Add(1)
			}
		}()
	}

	// Let the load establish, then sever the owning shard.
	time.Sleep(100 * time.Millisecond)
	killedAt := time.Now()
	_ = srvs[firstOwner].Close()

	// All offers must reappear at the new owner within one lease TTL.
	deadline := killedAt.Add(ttl)
	for {
		if rs := queryAll(t, router); len(rs) == nAgents {
			break
		}
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("offers not re-exported within one lease TTL (%v): have %d of %d",
				ttl, len(queryAll(t, router)), nAgents)
		}
		time.Sleep(10 * time.Millisecond)
	}
	reexportedIn := time.Since(killedAt)
	newOwner := router.Owner("KV")
	if newOwner == firstOwner {
		t.Fatalf("ownership did not move off the dead shard %d", firstOwner)
	}
	if router.Alive(firstOwner) {
		t.Fatal("dead shard still considered alive")
	}
	if got := countOffers(t, traders[newOwner], "KV"); got != nAgents {
		t.Fatalf("new owner %d holds %d offers, want %d", newOwner, got, nAgents)
	}

	// Rejoin, still under load: the severed shard restarts with no state at
	// its old address. Nothing routes to a dead shard, so only the probe
	// can notice; it must re-register KV there before handing it back.
	startShard(firstOwner)
	router.Probe(ctx)
	rejoinedAt := time.Now()
	if !router.Alive(firstOwner) || router.Owner("KV") != firstOwner {
		t.Fatalf("after restart and Probe: alive=%v owner=%d, want shard %d to own KV again",
			router.Alive(firstOwner), router.Owner("KV"), firstOwner)
	}
	for countOffers(t, traders[firstOwner], "KV") != nAgents {
		if time.Since(rejoinedAt) > grace {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("offers not back on the rejoined owner within HandoffGrace (%v): have %d of %d",
				grace, countOffers(t, traders[firstOwner], "KV"), nAgents)
		}
		time.Sleep(10 * time.Millisecond)
	}
	homeIn := time.Since(rejoinedAt)

	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d invocations lost", failures.Load())
	}
	if invokes.Load() == 0 {
		t.Fatal("load loop performed no invocations")
	}
	if got := countOffers(t, traders[newOwner], "KV"); got != 0 {
		t.Fatalf("interim owner %d still holds %d offers after migration", newOwner, got)
	}
	st := router.Stats()
	if st.Reassigns < 2 || st.ShardStrikes == 0 || st.MigratedRenews != nAgents || st.HandoffMerges == 0 {
		t.Fatalf("stats = %+v, want >=2 reassigns, >0 strikes, %d migrated renews, >0 handoff merges", st, nAgents)
	}
	t.Logf("re-exported %d offers in %v (TTL %v), home again %v after rejoin (grace %v); %d invocations, 0 lost; stats %+v",
		nAgents, reexportedIn, ttl, homeIn, grace, invokes.Load(), st)
}

// queryAll fetches every live KV offer through the router.
func queryAll(t *testing.T, r *Router) []trading.QueryResult {
	t.Helper()
	rs, err := r.Query(context.Background(), "KV", "", "", 0)
	if err != nil {
		t.Fatalf("queryAll: %v", err)
	}
	return rs
}

// TestRebalanceChurnRace exercises the router under simultaneous shard
// death/revival (through Probe), query load and export load. Its assertions
// are deliberately light — the test's job is to let the race detector see
// the router's hot paths (route, noteFault/noteOK, reassign, Probe's
// re-prime) interleave with membership mutation, and to prove the router is
// still consistent once the churn stops.
func TestRebalanceChurnRace(t *testing.T) {
	ctx := context.Background()
	router, traders, flaky := newCluster(t, 3, Options{HandoffGrace: 20 * time.Millisecond})
	types := make([]string, 8)
	for i := range types {
		types[i] = fmt.Sprintf("Churn%d", i)
		if err := router.AddType(ctx, trading.ServiceType{Name: types[i], Interface: "Svc"}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := router.Export(ctx, types[i], svcRef(i*10+j), nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	var (
		stop     atomic.Bool
		exported atomic.Int64
		wg       sync.WaitGroup
	)
	// Queriers: errors are expected while a shard is down (the kill/revive
	// churner below races with rerouting), so they only drive traffic.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				_, _ = router.Query(ctx, types[(w+i)%len(types)], "", "", 0)
			}
		}(w)
	}
	// Exporters: an export either lands on a live shard or fails before
	// reaching a trader, so the successes are exactly the offers added.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := router.Export(ctx, types[(w+i)%len(types)], svcRef(1000*(w+1)+i), nil); err == nil {
					exported.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	// Death churner: kill and revive shard 0, noticed by whichever of the
	// probe and the load's own strikes comes first.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			flaky[0].setDown(true)
			router.Probe(ctx)
			time.Sleep(2 * time.Millisecond)
			flaky[0].setDown(false)
			router.Probe(ctx)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Settled state: every shard live, and every offer ever accepted is
	// still held by some shard.
	router.Probe(ctx)
	for i := 0; i < router.NumShards(); i++ {
		if !router.Alive(i) {
			t.Fatalf("shard %d dead after churn stopped", i)
		}
	}
	total := 0
	for _, tr := range traders {
		for _, st := range types {
			total += countOffers(t, tr, st)
		}
	}
	if want := len(types)*4 + int(exported.Load()); total != want {
		t.Fatalf("offers after churn = %d, want %d", total, want)
	}
	if st := router.Stats(); st.Reassigns == 0 || st.ProbeFails == 0 {
		t.Fatalf("churn never moved ownership or failed a probe: %+v", st)
	}
}
