package orb

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// newGatedPoolPair starts a TCP server with an explicit dispatch-pool
// configuration and a gate servant, plus a plain client. Unlike
// newGatedPair it registers no t.Cleanup closers: admission tests close
// everything explicitly so goroutine-leak checks can run after teardown.
func newGatedPoolPair(t *testing.T, maxConcurrent, maxQueue int) (*gateServant, *Server, *Client, wire.ObjRef) {
	t.Helper()
	srv, err := NewServer(ServerOptions{
		Network: TCPNetwork{}, Address: "127.0.0.1:0",
		MaxConcurrent: maxConcurrent, MaxQueue: maxQueue,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	g := &gateServant{gate: make(chan struct{})}
	ref := srv.Register("gate", "", g)
	client := NewClient(TCPNetwork{})
	return g, srv, client, ref
}

// TestAdmissionStormGoroutineFlat pipelines 128 concurrent requests at a
// server whose dispatch pool is capped at 8 and proves the server absorbs
// the storm with a flat goroutine count: the pre-admission-control design
// spilled one goroutine per overflow request (~127 here), the pool holds
// the whole process under a small constant overhead.
func TestAdmissionStormGoroutineFlat(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t, 2)
	const maxConcurrent, n = 8, 128
	g, srv, client, ref := newGatedPoolPair(t, maxConcurrent, n)
	// LIFO: open the gate before the deferred closes so a mid-test Fatal
	// never wedges srv.Close behind parked dispatches.
	defer srv.Close()
	defer client.Close()
	defer g.open()

	baseline := runtime.NumGoroutine()
	ctx := context.Background()
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := client.InvokeAsync(ctx, ref, "wait")
		if err != nil {
			t.Fatalf("InvokeAsync #%d: %v", i, err)
		}
		futs = append(futs, f)
	}

	// Wait for the storm to be fully admitted: pool saturated, remainder
	// queued (maxConcurrent pool workers are parked in the servant, and so
	// is the reader's rescued dispatch if the first request ran inline, so
	// queue depth settles at n - maxConcurrent - 1 or one above).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth < n-maxConcurrent-1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: stats %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine() - baseline; got > maxConcurrent+16 {
		t.Fatalf("goroutine growth under storm = %d, want <= %d (unbounded spill would be ~%d)",
			got, maxConcurrent+16, n)
	}
	if shed := srv.Stats().ShedRequests; shed != 0 {
		t.Fatalf("ShedRequests = %d during an in-budget storm, want 0", shed)
	}

	g.open()
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("Wait #%d: %v", i, err)
		}
	}
	_ = client.Close()
	_ = srv.Close()
	checkLeaks()
}

// TestAdmissionQueueFullShed saturates a 1-worker/1-slot pool and checks
// the next request is refused at admission with a classified, retryable
// ErrOverloaded instead of being queued behind a wedged servant. It runs
// over TCP and over the in-process conn alike.
func TestAdmissionQueueFullShed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		address string
	}{
		{"tcp", TCPNetwork{}, "127.0.0.1:0"},
		{"inproc", NewInprocNetwork(), "shed"},
	} {
		t.Run(tc.name, func(t *testing.T) { testAdmissionQueueFullShed(t, tc.network, tc.address) })
	}
}

func testAdmissionQueueFullShed(t *testing.T, network Network, address string) {
	// parkServant reports each dispatch entry on entered, so the test can
	// park the reader's inline dispatch, which the watchdog rescues, and the
	// single pool worker one at a time —
	// polling queue depth instead would race the pool worker draining the
	// queue between pipelined sends.
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	srv, err := NewServer(ServerOptions{
		Network: network, Address: address,
		MaxConcurrent: 1, MaxQueue: 1,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ref := srv.Register("park", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "park" {
			entered <- struct{}{}
			<-release
		}
		return args, nil
	}))
	client := NewClient(network)
	var releaseOnce sync.Once
	openRelease := func() { releaseOnce.Do(func() { close(release) }) }
	defer srv.Close()
	defer client.Close()
	defer openRelease()

	ctx := context.Background()
	futs := make([]*Future, 0, 3)
	park := func() {
		t.Helper()
		f, err := client.InvokeAsync(ctx, ref, "park")
		if err != nil {
			t.Fatalf("InvokeAsync: %v", err)
		}
		futs = append(futs, f)
	}
	waitEntered := func(who string) {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never entered the servant: stats %+v", who, srv.Stats())
		}
	}
	park()
	waitEntered("inline dispatch") // #1 parks on the reader until the watchdog rescues it
	park()
	waitEntered("pool worker") // #2 overflows and parks the only pool worker
	park()                     // #3 sits in the queue's single slot
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().QueueDepth < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: stats %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	_, err = client.Invoke(ctx, ref, "echo", wire.String("x"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Invoke on saturated server: err = %v, want ErrOverloaded", err)
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Code != CodeOverloaded {
		t.Fatalf("err = %#v, want RemoteError with CodeOverloaded", err)
	}
	if shed := srv.Stats().ShedRequests; shed == 0 {
		t.Fatal("ShedRequests = 0 after a shed")
	}

	// The shed must not have poisoned the admitted work or the connection.
	openRelease()
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("Wait #%d after shed: %v", i, err)
		}
	}
	if rs, err := client.Invoke(ctx, ref, "echo", wire.String("alive")); err != nil || rs[0].Str() != "alive" {
		t.Fatalf("post-shed invoke = %v, %v", rs, err)
	}
}

// TestServerConnGoroutines: an idle server connection costs its server one
// goroutine, its reader, over TCP and over the in-process conn alike.
func TestServerConnGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		network Network
		address string
	}{
		{"tcp", TCPNetwork{}, "127.0.0.1:0"},
		{"inproc", NewInprocNetwork(), "idle"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testServerConnGoroutines(t, tc.network, tc.address, func(cond func() bool) bool {
				deadline := time.Now().Add(5 * time.Second)
				for !cond() {
					if time.Now().After(deadline) {
						return false
					}
					time.Sleep(time.Millisecond)
				}
				return true
			})
		})
	}
}

// testServerConnGoroutines opens n idle connections to a fresh server and
// checks that they cost n goroutines once await reports cond holds: await
// polls until a deadline, or lets a synctest bubble settle first.
func testServerConnGoroutines(t *testing.T, network Network, address string, await func(cond func() bool) bool) {
	srv, err := NewServer(ServerOptions{Network: network, Address: address})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	_, addr, _ := SplitEndpoint(srv.Endpoint())
	const n = 8
	base := serverConnGoroutines()
	for i := 0; i < n; i++ {
		conn, err := network.Dial(addr)
		if err != nil {
			t.Fatalf("dial #%d: %v", i, err)
		}
		defer conn.Close()
	}
	var accepted, got int
	if !await(func() bool {
		srv.connsMu.Lock()
		accepted = len(srv.conns)
		srv.connsMu.Unlock()
		got = serverConnGoroutines() - base
		return accepted == n && got == n
	}) {
		t.Fatalf("%d idle connections (%d accepted) cost %d goroutines, want %d", n, accepted, got, n)
	}
}

// serverConnGoroutines counts the goroutines that run a server connection's
// code or were started by it. Unlike runtime.NumGoroutine it does not move
// when a goroutine an earlier test left winding down exits.
func serverConnGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("orb.(*serverConn)")) {
			n++
		}
	}
	return n
}

// TestAdmissionExpiredDeadlineShed hand-writes a request frame whose wire
// deadline already passed and checks the server answers DEADLINE_EXCEEDED
// at admission without ever invoking the servant.
func TestAdmissionExpiredDeadlineShed(t *testing.T) {
	var invoked atomic.Int64
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	srv.Register("svc", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		invoked.Add(1)
		return nil, nil
	}))

	conn, err := net.Dial("tcp", srv.Endpoint()[len("tcp|"):])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	payload, err := wire.EncodeRequest(&wire.Request{
		ID: 1, ObjectKey: "svc", Operation: "work",
		Deadline: time.Now().Add(-time.Second).UnixNano(),
	}, false)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	msg, err := wire.DecodeMessage(reply)
	if err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if msg.Type != wire.MsgErrorReply || msg.Rep.ErrCode != CodeDeadline {
		t.Fatalf("reply = %s code %q, want error reply with %q", msg.Type, msg.Rep.ErrCode, CodeDeadline)
	}
	if n := invoked.Load(); n != 0 {
		t.Fatalf("servant invoked %d times for an expired request, want 0", n)
	}
	if st := srv.Stats(); st.ExpiredShed != 1 {
		t.Fatalf("ExpiredShed = %d, want 1", st.ExpiredShed)
	}
}

// TestLegacyUnboundedSpill: the one-goroutine-per-request spill that a
// negative MaxConcurrent used to select is gone. NewServer refuses a
// negative MaxConcurrent or MaxQueue — values that reach it from the
// daemons' -max-concurrent flag — before it binds the address.
func TestLegacyUnboundedSpill(t *testing.T) {
	inproc := NewInprocNetwork()
	for _, opts := range []ServerOptions{
		{MaxConcurrent: -1},
		{MaxQueue: -1},
		{MaxConcurrent: -1, MaxQueue: -1},
	} {
		opts.Network, opts.Address = inproc, "spill"
		if srv, err := NewServer(opts); err == nil {
			srv.Close()
			t.Fatalf("NewServer(MaxConcurrent %d, MaxQueue %d) = nil error, want a rejection",
				opts.MaxConcurrent, opts.MaxQueue)
		}
	}
	srv, err := NewServer(ServerOptions{Network: inproc, Address: "spill"})
	if err != nil {
		t.Fatalf("NewServer after the rejections: %v (a rejected server kept its address)", err)
	}
	srv.Close()
}

// TestOverloadedClassification pins the client-side contract for admission
// sheds: matchable with errors.Is, retryable under RetryPolicy, and
// breaker-neutral (an overload reply proves the peer alive but is no
// evidence it can serve, so it neither trips nor recloses the circuit).
func TestOverloadedClassification(t *testing.T) {
	overload := &RemoteError{Code: CodeOverloaded, Msg: "shed"}
	if !errors.Is(overload, ErrOverloaded) {
		t.Fatal("RemoteError{CodeOverloaded} does not match ErrOverloaded")
	}
	if errors.Is(&RemoteError{Code: CodeApp, Msg: "boom"}, ErrOverloaded) {
		t.Fatal("application RemoteError matches ErrOverloaded")
	}

	p := RetryPolicy{MaxAttempts: 3}
	if !p.Retryable(overload) {
		t.Fatal("overload shed is not retryable")
	}
	if p.Retryable(&RemoteError{Code: CodeApp, Msg: "boom"}) {
		t.Fatal("application error became retryable")
	}

	// Breaker neutrality: a stream of overload replies on a closed breaker
	// must not open it, and one on an open breaker must not reclose it.
	now := time.Now()
	b := newBreaker(BreakerPolicy{Threshold: 2, Cooldown: time.Second}, func() time.Time { return now })
	for i := 0; i < 10; i++ {
		b.record(overload, false)
	}
	if probe, err := b.allow("ep"); err != nil || probe {
		t.Fatalf("breaker opened on overload replies: probe=%v err=%v", probe, err)
	}
	// Two endpoint faults open it.
	b.record(errors.New("dial tcp: connection refused"), false)
	b.record(errors.New("dial tcp: connection refused"), false)
	if _, err := b.allow("ep"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker not open after faults: %v", err)
	}
	now = now.Add(2 * time.Second)
	probe, err := b.allow("ep")
	if err != nil || !probe {
		t.Fatalf("expected half-open probe, got probe=%v err=%v", probe, err)
	}
	// The probe came back "overloaded": release the probe slot but stay
	// half-open rather than reclosing.
	b.record(overload, probe)
	if b.state != BreakerHalfOpen {
		t.Fatalf("breaker state after overloaded probe = %s, want %s", b.state, BreakerHalfOpen)
	}
}
