package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"autoadapt/internal/testutil"
	"autoadapt/internal/trading"
)

// Experiment E14: sharded trader query throughput vs the single trader,
// at 10k offers. When PR 7 wrote it, the single trader scanned its whole
// offer map on every query and four shards each scanned a quarter: 3.24×.
// Since the per-type index (PR 21) a query visits only the 50 offers of
// its type wherever they live, and the three paths cost the same on one
// core. See EXPERIMENTS.md E14, BENCH_7.json and BENCH_21.json.

// 10k offers spread over 200 service types — the trader as the whole
// system's rendezvous point, not one service's.
const (
	benchOffers = 10000
	benchTypes  = 200
)

func benchTypeName(i int) string { return fmt.Sprintf("Bench%d", i%benchTypes) }

// populateDirect loads one trader with the E14 offer population.
func populateDirect(b *testing.B, tr *trading.Trader) {
	b.Helper()
	for i := 0; i < benchTypes; i++ {
		tr.AddType(trading.ServiceType{Name: benchTypeName(i), Interface: "Svc"})
	}
	for i := 0; i < benchOffers; i++ {
		if _, err := tr.Export(benchTypeName(i), svcRef(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// newBenchRouter builds n in-process shards behind a router and exports
// the same 10k-offer population through it.
func newBenchRouter(b *testing.B, n int) *Router {
	b.Helper()
	opts := Options{}
	for i := 0; i < n; i++ {
		opts.Shards = append(opts.Shards, trading.Local{T: trading.NewTrader(nil)})
	}
	r, err := NewRouter(opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < benchTypes; i++ {
		if err := r.AddType(ctx, trading.ServiceType{Name: benchTypeName(i), Interface: "Svc"}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < benchOffers; i++ {
		if _, err := r.Export(ctx, benchTypeName(i), svcRef(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func benchQueries(b *testing.B, dir trading.Directory) {
	b.Helper()
	ctx := context.Background()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			st := benchTypeName(int(seq.Add(1)))
			if _, err := dir.Query(ctx, st, "", "", 10); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkE14SingleTraderQuery10k queries one trader holding all 10k
// offers.
func BenchmarkE14SingleTraderQuery10k(b *testing.B) {
	tr := trading.NewTrader(nil)
	populateDirect(b, tr)
	benchQueries(b, trading.Local{T: tr})
}

// BenchmarkE14Sharded4Query10k partitions the same population across 4
// shards behind the routing client.
func BenchmarkE14Sharded4Query10k(b *testing.B) {
	benchQueries(b, newBenchRouter(b, 4))
}

// BenchmarkE14Sharded1Query10k isolates the router's own overhead: one
// shard, so any delta to the single trader is the routing layer.
func BenchmarkE14Sharded1Query10k(b *testing.B) {
	benchQueries(b, newBenchRouter(b, 1))
}

// TestRouterQueryAllocGuard is the alloc-regression guard from the issue:
// routing a query through the shard layer may cost at most 2 allocations
// over querying the trader directly.
func TestRouterQueryAllocGuard(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under -race, so the count is not stable there")
	}
	ctx := context.Background()
	tr := trading.NewTrader(nil)
	tr.AddType(trading.ServiceType{Name: "Alloc", Interface: "Svc"})
	for i := 0; i < 64; i++ {
		if _, err := tr.Export("Alloc", svcRef(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	direct := trading.Local{T: tr}
	router, err := NewRouter(Options{Shards: []trading.Directory{direct}})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the route record so the steady state is measured.
	if _, err := router.Query(ctx, "Alloc", "", "", 10); err != nil {
		t.Fatal(err)
	}

	base := testing.AllocsPerRun(200, func() {
		if _, err := direct.Query(ctx, "Alloc", "", "", 10); err != nil {
			t.Fatal(err)
		}
	})
	routed := testing.AllocsPerRun(200, func() {
		if _, err := router.Query(ctx, "Alloc", "", "", 10); err != nil {
			t.Fatal(err)
		}
	})
	if routed > base+2 {
		t.Fatalf("router query overhead = %.1f allocs (direct %.1f, routed %.1f), budget 2",
			routed-base, base, routed)
	}
	t.Logf("allocs/query: direct %.1f, routed %.1f", base, routed)
}
