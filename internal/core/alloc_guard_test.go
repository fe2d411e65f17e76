package core

import (
	"context"
	"testing"

	"autoadapt/internal/orb"
	"autoadapt/internal/testutil"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// TestAllocGuardProxyInvoke pins what a smart-proxy invocation adds to
// orb.Proxy.Call on the success path, with no events pending: nothing.
// AllocsPerRun counts every goroutine, so the server's side is included.
// Measured: 1 alloc/op, the decoded reply. The caller's variadic argument
// slice stays on its stack; it was a second allocation while Invoke handed
// args to a chain of interceptors, which made it escape.
func TestAllocGuardProxyInvoke(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	n := orb.NewInprocNetwork()
	srv, err := orb.NewServer(orb.ServerOptions{Network: n, Address: "alloc-proxy"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", orb.ServantFunc(func(_ string, args []wire.Value) ([]wire.Value, error) {
		return args, nil
	}))
	client := orb.NewClient(n)
	defer client.Close()
	sp, err := New(Options{Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	ctx := context.Background()
	if err := sp.BindTo(ctx, trading.QueryResult{Offer: trading.Offer{ID: "offer-1", Ref: ref}}); err != nil {
		t.Fatal(err)
	}
	arg := wire.Int(42)
	// Warm the connection so dialing is not measured.
	if _, err := sp.Invoke(ctx, "echo", arg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := sp.Invoke(ctx, "echo", arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("SmartProxy.Invoke: %.1f allocs/op, want <= 1", allocs)
	}
}
