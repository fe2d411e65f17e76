package orb

import (
	"context"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

func newBatchedEchoServer(t testing.TB, window time.Duration) (*Server, wire.ObjRef) {
	t.Helper()
	srv, err := NewServer(ServerOptions{
		Network: TCPNetwork{}, Address: "127.0.0.1:0",
		BatchWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ref := srv.Register("echo", "", echoServant())
	return srv, ref
}

// TestServerBatchedRepliesRoundTrip proves reply batching is invisible to
// clients: a pipelining client gets every reply, correctly correlated, and
// the server demonstrably coalesced them (fewer flushes than frames).
func TestServerBatchedRepliesRoundTrip(t *testing.T) {
	srv, ref := newBatchedEchoServer(t, 200*time.Microsecond)
	client := NewClientOpts(ClientOptions{
		Networks:    []Network{TCPNetwork{}},
		MaxInFlight: 64,
	})
	defer client.Close()
	ctx := context.Background()

	const n = 500
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		f, err := client.InvokeAsync(ctx, ref, "echo", wire.Int(i))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		vals, err := f.Result()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if len(vals) != 1 || int(vals[0].Num()) != i {
			t.Fatalf("reply %d: got %v", i, vals)
		}
	}
	st := srv.Stats()
	if st.BatchedFrames == 0 {
		t.Fatal("no reply went through the batch")
	}
	if st.BatchFlushes == 0 || st.BatchFlushes >= st.BatchedFrames {
		t.Fatalf("no coalescing: %d flushes for %d frames", st.BatchFlushes, st.BatchedFrames)
	}
}

// TestServerBatchedSequential proves the window flush keeps strict
// request/response traffic working (each reply waits out at most one
// window), and that concurrent connections batch independently.
func TestServerBatchedSequential(t *testing.T) {
	_, ref := newBatchedEchoServer(t, 100*time.Microsecond)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(TCPNetwork{})
			defer client.Close()
			for i := 0; i < 50; i++ {
				vals, err := client.Invoke(ctx, ref, "echo", wire.Int(i))
				if err != nil {
					t.Error(err)
					return
				}
				if len(vals) != 1 || int(vals[0].Num()) != i {
					t.Errorf("got %v, want [%d]", vals, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkE13PipelinedServerBatchedTCP is E13's pipelined window with
// reply batching on BOTH sides: the client coalesces request frames, the
// server coalesces the replies. Compare against
// BenchmarkE13PipelinedWindow64TCP (client-only batching) for the
// server-side delta. See EXPERIMENTS.md E13 and BENCH_7.json.
func BenchmarkE13PipelinedServerBatchedTCP(b *testing.B) {
	const window = 64
	_, ref := newBatchedEchoServer(b, 100*time.Microsecond)
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
