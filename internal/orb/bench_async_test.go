package orb

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

// Experiment E13: pipelined asynchronous invocation vs the blocking
// round-trip path, over real TCP loopback. See EXPERIMENTS.md E13 and
// BENCH_6.json.

// newBenchTCP starts an echo server on loopback and returns its ref.
func newBenchTCP(b *testing.B, opts ServerOptions) (wire.ObjRef, func()) {
	b.Helper()
	opts.Network, opts.Address = TCPNetwork{}, "127.0.0.1:0"
	srv, err := NewServer(opts)
	if err != nil {
		b.Fatal(err)
	}
	ref := srv.Register("echo", "", echoServant())
	return ref, func() { _ = srv.Close() }
}

// BenchmarkE13BlockingSequentialTCP is the baseline: one goroutine, one
// request in flight, every invocation pays a full network round trip.
func BenchmarkE13BlockingSequentialTCP(b *testing.B) {
	ref, stop := newBenchTCP(b, ServerOptions{})
	defer stop()
	client := NewClient(TCPNetwork{})
	defer client.Close()
	ctx := context.Background()
	arg := wire.Int(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13PipelinedWindow64TCP keeps a FIFO window of 64 requests in
// flight on one connection from one goroutine: issue with InvokeAsync,
// retire the oldest future when the window is full. Write batching
// coalesces the bursts into few syscalls, each flushed by the timer window
// or DefaultBatchBytes.
// Acceptance: >= 2x the blocking baseline's throughput.
func BenchmarkE13PipelinedWindow64TCP(b *testing.B) {
	const window = 64
	ref, stop := newBenchTCP(b, ServerOptions{})
	defer stop()
	client := NewClientOpts(ClientOptions{
		Networks:    []Network{TCPNetwork{}},
		MaxInFlight: window,
		BatchWindow: 100 * time.Microsecond,
	})
	defer client.Close()
	ctx := context.Background()
	arg := wire.Int(1)
	futs := make(chan *Future, window-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := client.InvokeAsync(ctx, ref, "echo", arg)
		if err != nil {
			b.Fatal(err)
		}
		select {
		case futs <- f:
		default:
			old := <-futs
			if _, err := old.Result(); err != nil {
				b.Fatal(err)
			}
			futs <- f
		}
	}
	close(futs)
	for f := range futs {
		if _, err := f.Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13OpenLoop10kClients drives 10,000 concurrent client
// goroutines multiplexed over 32 connections and reports p50/p99 request
// latency alongside throughput. The "blocking" variant issues classic
// round trips (each goroutine's write goes straight to the socket); the
// "pipelined" variant issues InvokeAsync through the in-flight window with
// write batching, so frames from the 10k goroutines coalesce. Arrivals are
// open-loop from any single connection's point of view: a goroutine never
// waits for its connection's other 300+ tenants. All 10,000 calls can be
// at the server at once, so its queue admits them all: with the default
// admission it sheds the storm, and the bench fails on any error.
func BenchmarkE13OpenLoop10kClients(b *testing.B) {
	const (
		goroutines = 10_000
		conns      = 32
	)
	run := func(b *testing.B, opts func() ClientOptions, async bool) {
		ref, stop := newBenchTCP(b, ServerOptions{MaxQueue: goroutines})
		defer stop()
		clients := make([]*Client, conns)
		for i := range clients {
			clients[i] = NewClientOpts(opts())
			defer clients[i].Close()
		}
		ctx := context.Background()
		arg := wire.Int(1)
		per := b.N / goroutines
		if per == 0 {
			per = 1
		}
		lats := make([][]time.Duration, goroutines)
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				client := clients[g%conns]
				mine := make([]time.Duration, 0, per)
				for i := 0; i < per; i++ {
					start := time.Now()
					var err error
					if async {
						var f *Future
						if f, err = client.InvokeAsync(ctx, ref, "echo", arg); err == nil {
							_, err = f.Result()
						}
					} else {
						_, err = client.Invoke(ctx, ref, "echo", arg)
					}
					if err != nil {
						b.Error(err)
						return
					}
					mine = append(mine, time.Since(start))
				}
				lats[g] = mine
			}(g)
		}
		wg.Wait()
		b.StopTimer()
		all := make([]time.Duration, 0, goroutines*per)
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		if len(all) > 0 {
			b.ReportMetric(float64(all[len(all)/2].Microseconds()), "p50-us")
			b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99-us")
		}
	}
	b.Run("blocking", func(b *testing.B) {
		run(b, func() ClientOptions {
			return ClientOptions{Networks: []Network{TCPNetwork{}}}
		}, false)
	})
	b.Run("pipelined", func(b *testing.B) {
		run(b, func() ClientOptions {
			return ClientOptions{
				Networks:    []Network{TCPNetwork{}},
				MaxInFlight: 1024,
				BatchWindow: 100 * time.Microsecond,
			}
		}, true)
	})
}
