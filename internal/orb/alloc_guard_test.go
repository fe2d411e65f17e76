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
// overhaul optimized. The invocation count is pinned at what is measured,
// with no slack: AllocsPerRun averages over 500 runs and rounds
// down, so a rare background allocation does not show, while one more
// object per call (a split message, a heap Reply, a per-call buffer) does.
// The pipelined echo is a byte budget and keeps its slack.
// NOTE: AllocsPerRun counts allocations on ALL goroutines, so the server
// side of an invocation is included.

func echoGuardServant() Servant {
	return ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return args, nil
	})
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
	// Measured: 1 alloc/op across both sides of the full marshal →
	// frame → dispatch → reply path: the decoded reply (one object with
	// its values). The variadic args slice stays on the caller's stack
	// (it was a second allocation while it escaped). The server decodes the
	// request into a recycled message (wire.Borrowed), so its side
	// allocates nothing (TestAllocGuardServerDispatch). The write deadline
	// set on every frame is a stored value in the in-process conn; on
	// net.Pipe it armed a new timer and its channel, 2 more. It was 29
	// before buffer pooling, 14 before a decoded message was one allocation
	// with its body, 8 before it held its values too and the server's Reply
	// left the heap, 5 on net.Pipe, and 3 while the server allocated each
	// request. No slack: one more is a regression. Under -race, sync.Pool
	// drops a quarter of what it is given, so pooled buffers and messages
	// are now and then allocated again; there the test keeps the ceiling of
	// 13 it had before the count was pinned.
	want := 1.0
	if testutil.RaceEnabled {
		want = 13
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > want {
		t.Fatalf("inproc Invoke: %.1f allocs/op, want <= %.0f", allocs, want)
	}
}

// TestAllocGuardPipelinedBulkEcho is a byte budget, not an object count:
// a window of 4 KiB echoes pipelined over TCP with both sides batching —
// the repository benchmark's invoke_bulk shape. One 4 KiB string per op is
// the codec's, the reply decoded on the client; the server's request is a
// view into a pooled read buffer (wire.Borrowed), which was a second copy
// before. The batch buffers come from a pool and must not be regrown per
// batch, which is what cost 45 KiB/op before they were pooled. Measured:
// 4.8 (9.3 while the server copied).
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
	if perOp > 6 {
		t.Fatalf("pipelined 4 KiB echo: %.1f KiB allocated per op, want <= 6", perOp)
	}
}

// TestAllocGuardPoolSpawn: starting a pool worker allocates nothing. The
// pool spawns a worker for a request that finds none idle, about once per
// pipelined request under E13's server-batched load, so a closure built
// per spawn was one allocation per op there. Each run spawns a worker on
// an empty queue and waits for it to retire; the goroutine itself reuses
// a dead one's stack.
func TestAllocGuardPoolSpawn(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: NewInprocNetwork(), Address: "alloc-spawn"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spawn := func() {
		srv.maybeSpawnWorker()
		srv.poolWG.Wait()
	}
	spawn()
	if allocs := testing.AllocsPerRun(500, spawn); allocs != 0 {
		t.Fatalf("pool spawn: %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGuardSubscribeClose pins one subscribe-then-Close cycle on the
// in-process transport: the handshake, the stream's install on both sides,
// the unsubscribe and the servant's cancel. AllocsPerRun counts every
// goroutine, so the server's side is included. Measured: 7 allocs/op. It
// was 9 while each subscription had an event channel of its own. No slack:
// one more is a regression.
func TestAllocGuardSubscribeClose(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	_, _, client, ref := newPushPair(t, NewInprocNetwork(), "alloc-sub")
	ctx := context.Background()
	cycle := func() {
		sub, err := client.Subscribe(ctx, ref, "load", nopEvents{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // dial, and start the connection's background reader
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs > 7 {
		t.Fatalf("Subscribe+Close: %.1f allocs/op, want <= 7", allocs)
	}
}

// nopEvents is an EventReader that skips every event.
type nopEvents struct{}

func (nopEvents) ReadEvent(d *wire.Decoder, n int) error {
	for i := 0; i < n; i++ {
		if err := d.Skip(0); err != nil {
			return err
		}
	}
	return nil
}

func (nopEvents) EndEvents(error) {}
