package orb

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"autoadapt/internal/metrics"
	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// TestClientServerMetrics drives an instrumented client/server pair and
// checks the registry reflects what happened: per-endpoint latency and
// outcome classes on the client, dispatch latency and reply codes on the
// server.
func TestClientServerMetrics(t *testing.T) {
	n := NewInprocNetwork()
	reg := metrics.NewRegistry()
	srv, err := NewServer(ServerOptions{Network: n, Address: "m", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoGuardServant())
	srv.Register("fail", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return nil, Appf("nope")
	}))
	client := NewClientOpts(ClientOptions{Networks: []Network{n}, Metrics: reg})
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := client.Invoke(ctx, ref, "echo", wire.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	failRef := wire.ObjRef{Endpoint: ref.Endpoint, Key: "fail"}
	if _, err := client.Invoke(ctx, failRef, "x"); err == nil {
		t.Fatal("expected app error")
	}

	ep := ref.Endpoint
	if got := reg.Counter(`orb_client_invokes{endpoint=` + ep + `,class=ok}`).Value(); got != 10 {
		t.Errorf("ok invokes = %d, want 10", got)
	}
	if got := reg.Counter(`orb_client_invokes{endpoint=` + ep + `,class=app}`).Value(); got != 1 {
		t.Errorf("app invokes = %d, want 1", got)
	}
	if got := reg.Histogram(`orb_client_invoke_us{endpoint=` + ep + `}`).Snapshot().Count; got != 11 {
		t.Errorf("latency samples = %d, want 11", got)
	}
	if got := reg.Histogram("orb_server_dispatch_us").Snapshot().Count; got != 11 {
		t.Errorf("server dispatch samples = %d, want 11", got)
	}
	if got := reg.Counter(`orb_server_replies{code=OK}`).Value(); got != 10 {
		t.Errorf("server OK replies = %d, want 10", got)
	}
	if got := reg.Counter(`orb_server_replies{code=APP_ERROR}`).Value(); got != 1 {
		t.Errorf("server APP_ERROR replies = %d, want 1", got)
	}
	text := reg.Text()
	for _, want := range []string{"orb_client_sync_invokes 11", "orb_server_queue_depth 0"} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestBreakerTransitionMetrics opens and recloses a circuit and checks
// the transition counters move with it.
func TestBreakerTransitionMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	now := time.Now()
	c := NewClientOpts(ClientOptions{
		Breaker: BreakerPolicy{Threshold: 2, Cooldown: time.Second},
		Now:     func() time.Time { return now },
		Metrics: reg,
	})
	defer c.Close()
	br := c.breakerFor("tcp|10.0.0.1:1")
	fault := &ConnectError{Err: errors.New("refused")}
	for i := 0; i < 2; i++ {
		if _, err := br.allow("ep"); err != nil {
			t.Fatal(err)
		}
		br.record(fault, false)
	}
	if got := reg.Counter("orb_client_breaker_opened").Value(); got != 1 {
		t.Fatalf("opened = %d, want 1", got)
	}
	now = now.Add(2 * time.Second) // cooldown over: probe and succeed
	probe, err := br.allow("ep")
	if err != nil || !probe {
		t.Fatalf("probe allow = %v, %v", probe, err)
	}
	br.record(nil, probe)
	if got := reg.Counter("orb_client_breaker_reclosed").Value(); got != 1 {
		t.Fatalf("reclosed = %d, want 1", got)
	}
	if st := br.snapshot(); st != BreakerClosed {
		t.Fatalf("state %s, want closed", st)
	}
}

// TestClassify pins the outcome classification table.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, classOK},
		{&RemoteError{Code: CodeApp, Msg: "x"}, classApp},
		{&RemoteError{Code: CodeOverloaded, Msg: "x"}, classOverloaded},
		{&RemoteError{Code: CodeDeadline, Msg: "x"}, classDeadline},
		{context.DeadlineExceeded, classDeadline},
		{context.Canceled, classDeadline},
		{ErrCircuitOpen, classRejected},
		{&ConnectError{Err: errors.New("refused")}, classTransport},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, classNames[got], classNames[c.want])
		}
	}
}

// TestAllocGuardInstrumentedInvoke: an instrumented invoke over the
// in-process transport, client and server both with a registry, costs at
// most one allocation more than the uninstrumented one
// (TestAllocGuardInprocInvoke). Measured: 1 allocs/op, the same as without
// metrics. Under -race that guard's ceiling is 13, so this one's is 14.
func TestAllocGuardInstrumentedInvoke(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "alloc-m", Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoGuardServant())
	client := NewClientOpts(ClientOptions{Networks: []Network{n}, Metrics: metrics.NewRegistry()})
	defer client.Close()
	ctx := context.Background()
	arg := wire.Int(42)
	// Warm the connection and the per-endpoint handle cache so their
	// one-time creation is not measured.
	if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
		t.Fatal(err)
	}
	want := 1.0
	if testutil.RaceEnabled {
		want = 14
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := client.Invoke(ctx, ref, "echo", arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > want {
		t.Fatalf("instrumented inproc Invoke: %.1f allocs/op, want <= %.0f", allocs, want)
	}
}
