package orb

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// Allocation-regression guards for the invocation paths the pooled-buffer
// overhaul optimized. Ceilings carry a little slack over measured counts
// so runtime noise does not flake them; a real regression (per-call
// buffers, goroutine spawns, reply-channel churn) blows well past slack.
// NOTE: AllocsPerRun counts allocations on ALL goroutines, so the server
// side of an invocation is included.

func echoGuardServant() Servant {
	return ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return args, nil
	})
}

func TestAllocGuardCollocatedInvoke(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "alloc-colloc"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoGuardServant())
	client := NewClient(n)
	defer client.Close()
	client.RegisterLocal(srv)
	ctx := context.Background()
	arg := wire.Int(42)
	// Measured: 3 allocs/op (args slice, results slice, context check).
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("collocated Invoke: %.1f allocs/op, want <= 4", allocs)
	}
}

func TestAllocGuardInprocInvoke(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "alloc-inproc"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoGuardServant())
	client := NewClient(n)
	defer client.Close()
	ctx := context.Background()
	arg := wire.Int(42)
	// Warm the connection so dialing is not measured.
	if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
		t.Fatal(err)
	}
	// Measured: 12 allocs/op across both sides of the full marshal →
	// frame → dispatch → reply path (was 29 before buffer pooling, 14
	// before a decoded message became one allocation).
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 13 {
		t.Fatalf("inproc Invoke: %.1f allocs/op, want <= 13", allocs)
	}
}

// TestAllocGuardPipelinedBulkEcho is a byte budget, not an object count:
// a window of 4 KiB echoes pipelined over TCP with both sides batching —
// the repository benchmark's invoke_bulk shape. Two 4 KiB strings per op
// are the codec's (request decoded on the server, reply on the client);
// the batch buffers come from a pool and must not be regrown per batch,
// which is what cost 45 KiB/op before they were pooled. Measured: 9.3.
func TestAllocGuardPipelinedBulkEcho(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0",
		BatchWindow: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoGuardServant())
	client := NewClientOpts(ClientOptions{Networks: []Network{TCPNetwork{}},
		BatchWindow: 100 * time.Microsecond, MaxInFlight: 64})
	defer client.Close()
	ctx := context.Background()
	arg := wire.String(strings.Repeat("x", 4096))
	const window = 32
	run := func(n int) {
		var futs [window]*Future
		for i := 0; i < n+window; i++ {
			if f := futs[i%window]; f != nil {
				if rs, err := f.Result(); err != nil || len(rs) != 1 || len(rs[0].Str()) != 4096 {
					t.Fatalf("echo %d: %d results, err %v", i-window, len(rs), err)
				}
			}
			futs[i%window] = nil
			if i < n {
				if futs[i%window], err = client.InvokeAsync(ctx, ref, "echo", arg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run(500) // dial, fill the pools
	const ops = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(ops)
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops / 1024
	t.Logf("pipelined 4 KiB echo: %.1f KiB allocated per op", perOp)
	if perOp > 14 {
		t.Fatalf("pipelined 4 KiB echo: %.1f KiB allocated per op, want <= 14", perOp)
	}
}
