package orb

import (
	"context"
	"errors"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/wire"
)

var bkEpoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

func TestBreakerOpensAfterThresholdAndFailsFast(t *testing.T) {
	fnet := NewFaultNetwork(NewInprocNetwork())
	cli := NewClientOpts(ClientOptions{
		Networks: []Network{fnet},
		Breaker:  BreakerPolicy{Threshold: 3, Cooldown: time.Hour},
	})
	defer cli.Close()
	ref := wire.ObjRef{Endpoint: "inproc|nowhere", Key: "svc"}
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		_, err := cli.Invoke(ctx, ref, "op")
		if err == nil {
			t.Fatalf("attempt %d against dead endpoint succeeded", i)
		}
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("attempt %d: circuit open before threshold: %v", i, err)
		}
	}
	if st := cli.BreakerState(ref.Endpoint); st != BreakerOpen {
		t.Fatalf("state after %d failures = %s, want open", 3, st)
	}
	// The open circuit refuses invocations without touching the network.
	before := fnet.Dials()
	_, err := cli.Invoke(ctx, ref, "op")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := fnet.Dials(); got != before {
		t.Fatalf("fast-fail dialed: %d -> %d", before, got)
	}
}

func TestBreakerHalfOpenProbeRecloses(t *testing.T) {
	net := NewInprocNetwork()
	sim := clock.NewSim(bkEpoch)
	cli := NewClientOpts(ClientOptions{
		Networks: []Network{net},
		Breaker:  BreakerPolicy{Threshold: 1, Cooldown: time.Second},
		Now:      sim.Now,
	})
	defer cli.Close()
	ref := wire.ObjRef{Endpoint: "inproc|flaky", Key: "svc"}
	ctx := context.Background()

	// Server down: one classified failure opens the circuit.
	if _, err := cli.Invoke(ctx, ref, "op"); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("first failure = %v", err)
	}
	if _, err := cli.Invoke(ctx, ref, "op"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("during cooldown = %v, want ErrCircuitOpen", err)
	}

	// Server recovers; once the cooldown elapses, the single half-open
	// probe goes through and its success recloses the circuit.
	srv, err := NewServer(ServerOptions{Network: net, Address: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register("svc", "", echoServant())
	sim.Advance(time.Second)
	if _, err := cli.Invoke(ctx, ref, "echo", wire.Int(1)); err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if st := cli.BreakerState(ref.Endpoint); st != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	net := NewInprocNetwork()
	sim := clock.NewSim(bkEpoch)
	cli := NewClientOpts(ClientOptions{
		Networks: []Network{net},
		Breaker:  BreakerPolicy{Threshold: 1, Cooldown: time.Second},
		Now:      sim.Now,
	})
	defer cli.Close()
	ref := wire.ObjRef{Endpoint: "inproc|gone", Key: "svc"}
	ctx := context.Background()

	cli.Invoke(ctx, ref, "op") // opens
	sim.Advance(time.Second)
	// The probe is attempted (a real dial) and fails: the circuit reopens
	// for another full cooldown.
	if _, err := cli.Invoke(ctx, ref, "op"); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe = %v, want a transport fault", err)
	}
	if st := cli.BreakerState(ref.Endpoint); st != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", st)
	}
	if _, err := cli.Invoke(ctx, ref, "op"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after failed probe = %v, want ErrCircuitOpen", err)
	}
}

func TestBreakerIgnoresRemoteErrors(t *testing.T) {
	net := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: net, Address: "appy"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("svc", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return nil, Appf("always angry")
	}))
	cli := NewClientOpts(ClientOptions{
		Networks: []Network{net},
		Breaker:  BreakerPolicy{Threshold: 1, Cooldown: time.Hour},
	})
	defer cli.Close()
	// Application errors are replies: the endpoint is alive, the breaker
	// must never trip on them.
	for i := 0; i < 5; i++ {
		_, err := cli.Invoke(context.Background(), ref, "op")
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("call %d: err = %v, want RemoteError", i, err)
		}
	}
	if st := cli.BreakerState(ref.Endpoint); st != BreakerClosed {
		t.Fatalf("state = %s, want closed", st)
	}
}

func TestBreakerDisabledByZeroPolicy(t *testing.T) {
	cli := NewClient(NewInprocNetwork())
	defer cli.Close()
	ref := wire.ObjRef{Endpoint: "inproc|nowhere", Key: "svc"}
	for i := 0; i < 5; i++ {
		if _, err := cli.Invoke(context.Background(), ref, "op"); errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker tripped with zero policy: %v", err)
		}
	}
	if st := cli.BreakerState("inproc|anywhere"); st != BreakerClosed {
		t.Fatalf("disabled BreakerState = %s, want closed", st)
	}
}

// TestBreakerFastFailBeatsRetryPath pins the acceptance criterion: once
// the circuit is open, a doomed invocation fails in a fraction of the
// time the retry/backoff path burns rediscovering the same dead peer.
func TestBreakerFastFailBeatsRetryPath(t *testing.T) {
	fnet := NewFaultNetwork(NewInprocNetwork())
	cli := NewClientOpts(ClientOptions{
		Networks: []Network{fnet},
		Retry:    RetryPolicy{MaxAttempts: 3, BaseBackoff: 30 * time.Millisecond},
		Breaker:  BreakerPolicy{Threshold: 3, Cooldown: time.Hour},
	})
	defer cli.Close()
	ref := wire.ObjRef{Endpoint: "inproc|dead", Key: "svc"}
	ctx := context.Background()

	// First invocation: three dial attempts with 30ms+60ms backoffs; its
	// three classified failures also open the circuit.
	start := time.Now()
	_, err := cli.Invoke(ctx, ref, "op")
	d1 := time.Since(start)
	if err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("retry-path err = %v", err)
	}
	if d1 < 90*time.Millisecond {
		t.Fatalf("retry path took %v, want >= 90ms of backoff", d1)
	}
	// Second invocation: the open breaker answers without dialing.
	before := fnet.Dials()
	start = time.Now()
	_, err = cli.Invoke(ctx, ref, "op")
	d2 := time.Since(start)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("fast-fail err = %v, want ErrCircuitOpen", err)
	}
	if fnet.Dials() != before {
		t.Fatal("fast-fail touched the network")
	}
	if d2 > d1/4 {
		t.Fatalf("fast-fail took %v vs retry path %v; want <= 1/4", d2, d1)
	}
}
