package orb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

func TestLargePayloadRoundTrip(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "big")
	big := make([]byte, 4<<20) // 4 MiB, inside the 16 MiB frame limit
	for i := range big {
		big[i] = byte(i)
	}
	rs, err := client.Invoke(context.Background(), ref, "echo", wire.Bytes(big))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rs[0].AsBytes()
	if !ok || !bytes.Equal(got, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestOversizedArgumentRejectedClientSide(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "toobig")
	huge := make([]byte, wire.MaxFrameSize+1)
	_, err := client.Invoke(context.Background(), ref, "echo", wire.Bytes(huge))
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// The connection remains usable (the frame never went out).
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1)); err != nil {
		t.Fatalf("connection unusable after oversized reject: %v", err)
	}
}

// TestServerSurvivesGarbageBytes feeds raw garbage to the server's port;
// the server must drop the connection without disturbing other clients.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())

	_, addr, err := SplitEndpoint(srv.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header claiming a modest size followed by undecodable bytes.
	if _, err := raw.Write([]byte{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	// Server should close on us.
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	if _, err := raw.Read(buf); err == nil {
		t.Log("server replied to garbage (tolerated) — must still drop below")
	}
	_ = raw.Close()

	// A real client still works.
	client := NewClient(TCPNetwork{})
	defer client.Close()
	rs, err := client.Invoke(context.Background(), ref, "add", wire.Int(2), wire.Int(2))
	if err != nil || rs[0].Num() != 4 {
		t.Fatalf("healthy client disturbed: %v, %v", rs, err)
	}
}

// TestManyConcurrentClients hammers one server from several clients at
// once to exercise connection bookkeeping.
func TestManyConcurrentClients(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "many"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())

	const clients = 8
	const callsEach = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := NewClient(n)
			defer client.Close()
			for i := 0; i < callsEach; i++ {
				rs, err := client.Invoke(context.Background(), ref, "add", wire.Int(c), wire.Int(i))
				if err != nil {
					errs <- err
					return
				}
				if rs[0].Num() != float64(c+i) {
					errs <- errors.New("wrong result under concurrency")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOnewayStormDoesNotBlockTwoWay interleaves a burst of oneways with a
// two-way call on the same connection.
func TestOnewayStormDoesNotBlockTwoWay(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "storm"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(n)
	defer client.Close()
	for i := 0; i < 200; i++ {
		if err := client.InvokeOneway(ref, "echo", wire.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Invoke(context.Background(), ref, "add", wire.Int(1), wire.Int(1))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("two-way call starved by oneway storm")
	}
}

// ---- Fault-tolerance layer ----

// gateNetwork lets a test make dialing specific addresses hang until a
// gate channel is closed, simulating an unreachable-but-not-refusing peer.
type gateNetwork struct {
	inner *InprocNetwork
	mu    sync.Mutex
	gates map[string]chan struct{}
}

func (g *gateNetwork) Name() string                      { return g.inner.Name() }
func (g *gateNetwork) Listen(a string) (Listener, error) { return g.inner.Listen(a) }
func (g *gateNetwork) Dial(a string) (net.Conn, error) {
	g.mu.Lock()
	gate := g.gates[a]
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.inner.Dial(a)
}

// TestHangingEndpointDoesNotBlockHealthy is the regression test for the
// client-wide dial lock: with one endpoint hanging in Dial, invocations to
// a healthy endpoint must still complete.
func TestHangingEndpointDoesNotBlockHealthy(t *testing.T) {
	inner := NewInprocNetwork()
	gate := make(chan struct{})
	gnet := &gateNetwork{inner: inner, gates: map[string]chan struct{}{"black-hole": gate}}
	defer close(gate) // release the hung dial at test end

	srv, err := NewServer(ServerOptions{Network: inner, Address: "healthy"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())

	client := NewClient(gnet)
	defer client.Close()

	// Start an invocation into the black hole; its dial blocks on the gate.
	hungCtx, cancelHung := context.WithCancel(context.Background())
	defer cancelHung()
	hungDone := make(chan error, 1)
	go func() {
		_, err := client.Invoke(hungCtx, wire.ObjRef{Endpoint: "inproc|black-hole", Key: "x"}, "op")
		hungDone <- err
	}()

	// Give the hung dial time to take whatever lock it takes.
	time.Sleep(20 * time.Millisecond)

	healthyDone := make(chan error, 1)
	go func() {
		_, err := client.Invoke(context.Background(), ref, "add", wire.Int(1), wire.Int(2))
		healthyDone <- err
	}()
	select {
	case err := <-healthyDone:
		if err != nil {
			t.Fatalf("healthy invoke failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy endpoint blocked by hanging dial to another endpoint")
	}

	// The hung invocation must honor cancellation even mid-dial.
	cancelHung()
	select {
	case err := <-hungDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hung invoke err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled invoke still stuck in dial")
	}
}

// countingNetwork counts dials to verify per-endpoint singleflight.
type countingNetwork struct {
	inner *InprocNetwork
	dials atomic.Int64
}

func (c *countingNetwork) Name() string                      { return c.inner.Name() }
func (c *countingNetwork) Listen(a string) (Listener, error) { return c.inner.Listen(a) }
func (c *countingNetwork) Dial(a string) (net.Conn, error) {
	c.dials.Add(1)
	time.Sleep(10 * time.Millisecond) // widen the race window
	return c.inner.Dial(a)
}

func TestConcurrentInvokesShareOneDial(t *testing.T) {
	inner := NewInprocNetwork()
	cnet := &countingNetwork{inner: inner}
	srv, err := NewServer(ServerOptions{Network: inner, Address: "dedup"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(cnet)
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(i)); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := cnet.dials.Load(); n != 1 {
		t.Fatalf("dials = %d, want 1 (singleflight)", n)
	}
}

// firstDialBlocks holds the first Dial until release is closed and lets
// every later one straight through, so a test can abandon one dial while it
// is in flight.
type firstDialBlocks struct {
	inner   *InprocNetwork
	started chan struct{} // closed when the first Dial begins
	release chan struct{}
	dials   atomic.Int64
}

func (f *firstDialBlocks) Name() string                      { return f.inner.Name() }
func (f *firstDialBlocks) Listen(a string) (Listener, error) { return f.inner.Listen(a) }
func (f *firstDialBlocks) Dial(a string) (net.Conn, error) {
	if f.dials.Add(1) == 1 {
		close(f.started)
		<-f.release
	}
	return f.inner.Dial(a)
}

// TestAbandonedDialDoesNotFailWaiters: caller A starts a dial and is
// cancelled while B, whose context is live, waits on the same singleflight
// dial. A's cancellation is A's alone, so B must dial again and get a
// working connection instead of A's context.Canceled.
func TestAbandonedDialDoesNotFailWaiters(t *testing.T) {
	inner := NewInprocNetwork()
	bnet := &firstDialBlocks{inner: inner, started: make(chan struct{}), release: make(chan struct{})}
	defer close(bnet.release) // the abandoned dial then finishes and is reaped
	srv, err := NewServer(ServerOptions{Network: inner, Address: "abandon"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(bnet)
	defer client.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aDone := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctxA, ref, "echo", wire.Int(1))
		aDone <- err
	}()
	<-bnet.started
	bDone := make(chan error, 1)
	go func() {
		_, err := client.Invoke(context.Background(), ref, "echo", wire.Int(2))
		bDone <- err
	}()
	// Let B join A's dial. A B that arrives after the cancel dials for
	// itself, so a slow start can only make the test pass vacuously.
	time.Sleep(20 * time.Millisecond)
	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller err = %v, want context.Canceled", err)
	}
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("waiter failed with the abandoned dial's error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stuck after the dial it joined was abandoned")
	}
	if n := bnet.dials.Load(); n != 2 {
		t.Fatalf("dials = %d, want 2 (the abandoned one and the waiter's own)", n)
	}
}

// firstWriteHeld holds the first Write on any of its connections until
// release is closed, and counts dials.
type firstWriteHeld struct {
	inner   *InprocNetwork
	held    chan struct{} // closed when the first Write begins
	release chan struct{}
	writes  atomic.Int64
	dials   atomic.Int64
}

func (f *firstWriteHeld) Name() string                      { return f.inner.Name() }
func (f *firstWriteHeld) Listen(a string) (Listener, error) { return f.inner.Listen(a) }
func (f *firstWriteHeld) Dial(a string) (net.Conn, error) {
	f.dials.Add(1)
	c, err := f.inner.Dial(a)
	if err != nil {
		return nil, err
	}
	return &heldConn{Conn: c, f: f}, nil
}

type heldConn struct {
	net.Conn
	f *firstWriteHeld
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.f.writes.Add(1) == 1 {
		close(c.f.held)
		<-c.f.release
	}
	return c.Conn.Write(p)
}

// TestExpiredWriteDeadlineSparesSiblings: a caller whose deadline lapses
// while it queues for the write lock behind a slow write fails alone, with
// DeadlineExceeded. Not a byte of its frame went out, so the connection —
// and the call whose write it waited behind — lives on.
func TestExpiredWriteDeadlineSparesSiblings(t *testing.T) {
	inner := NewInprocNetwork()
	hnet := &firstWriteHeld{inner: inner, held: make(chan struct{}), release: make(chan struct{})}
	srv, err := NewServer(ServerOptions{Network: inner, Address: "held-write"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(hnet)
	defer client.Close()

	first := make(chan error, 1)
	go func() {
		_, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1))
		first <- err
	}()
	<-hnet.held // the first call's frame is in Write, under the write lock
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	second := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, ref, "echo", wire.Int(2))
		second <- err
	}()
	<-ctx.Done() // the second caller's deadline lapses while it waits for the lock
	close(hnet.release)
	if err := <-first; err != nil {
		t.Fatalf("the call whose write was held: %v", err)
	}
	if err := <-second; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the expired caller: err = %v, want DeadlineExceeded", err)
	}
	if rs, err := client.Invoke(context.Background(), ref, "echo", wire.Int(3)); err != nil || rs[0].Num() != 3 {
		t.Fatalf("the connection after the expired write: %v, err %v", rs, err)
	}
	if n := hnet.dials.Load(); n != 1 {
		t.Fatalf("dials = %d, want 1: the expired write killed the connection", n)
	}
}

func TestRetrySucceedsAfterDroppedDial(t *testing.T) {
	inner := NewInprocNetwork()
	fnet := NewFaultNetwork(inner)
	srv, err := NewServer(ServerOptions{Network: inner, Address: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())

	client := NewClientOpts(ClientOptions{
		Networks: []Network{fnet},
		Retry:    RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	defer client.Close()

	fnet.FailNextDials(1)
	rs, err := client.Invoke(context.Background(), ref, "add", wire.Int(20), wire.Int(22))
	if err != nil {
		t.Fatalf("invoke with retry: %v", err)
	}
	if rs[0].Num() != 42 {
		t.Fatalf("result = %v", rs[0])
	}
	if n := fnet.Dials(); n != 2 {
		t.Fatalf("dials = %d, want 2 (one dropped, one retried)", n)
	}
}

func TestNoRetryWithoutPolicy(t *testing.T) {
	inner := NewInprocNetwork()
	fnet := NewFaultNetwork(inner)
	srv, err := NewServer(ServerOptions{Network: inner, Address: "flaky-nopolicy"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(fnet)
	defer client.Close()

	fnet.FailNextDials(1)
	if _, err := client.Invoke(context.Background(), ref, "echo"); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want injected fault to surface (no retry policy)", err)
	}
	if n := fnet.Dials(); n != 1 {
		t.Fatalf("dials = %d, want 1", n)
	}
}

// TestMidReplySeverEvictsAndReconnects severs the connection in the middle
// of a reply frame. The pending invocation must fail, and the next one
// must transparently redial rather than reuse the dead connection.
func TestMidReplySeverEvictsAndReconnects(t *testing.T) {
	inner := NewInprocNetwork()
	fnet := NewFaultNetwork(inner)
	srv, err := NewServer(ServerOptions{Network: inner, Address: "sever"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(fnet)
	defer client.Close()

	fnet.SeverNextConnAfterBytes(6) // header + 2 bytes: mid-reply
	if _, err := client.Invoke(context.Background(), ref, "add", wire.Int(1), wire.Int(1)); err == nil {
		t.Fatal("invoke succeeded across a severed connection")
	}
	// The dead conn must be evicted: a fresh invoke redials and succeeds.
	rs, err := client.Invoke(context.Background(), ref, "add", wire.Int(2), wire.Int(3))
	if err != nil {
		t.Fatalf("invoke after sever: %v", err)
	}
	if rs[0].Num() != 5 {
		t.Fatalf("result = %v", rs[0])
	}
	if n := fnet.Dials(); n != 2 {
		t.Fatalf("dials = %d, want 2 (severed conn evicted)", n)
	}
}

// TestSeverMidFlightNotRetried drives the same fault through the retry
// layer: a call whose connection dies after its request was written may
// have run, so even a policy with attempts to spare fails it (Lost) rather
// than send it again. The next call redials.
func TestSeverMidFlightNotRetried(t *testing.T) {
	inner := NewInprocNetwork()
	fnet := NewFaultNetwork(inner)
	srv, err := NewServer(ServerOptions{Network: inner, Address: "sever-retry"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClientOpts(ClientOptions{
		Networks: []Network{fnet},
		Retry:    RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	defer client.Close()

	fnet.SeverNextConnAfterFrames(1) // first reply arrives, then the conn dies
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1)); err != nil {
		t.Fatalf("first invoke: %v", err)
	}
	// The first conn is now severed; this invoke loses it mid-flight.
	_, err = client.Invoke(context.Background(), ref, "add", wire.Int(40), wire.Int(2))
	if f := FaultOf(err); f != Lost {
		t.Fatalf("invoke across sever: %v (%s), want a Lost fault", err, faultNames[f])
	}
	if n := fnet.Dials(); n != 1 {
		t.Fatalf("dials = %d after the lost call, want 1: it was retried", n)
	}
	rs, err := client.Invoke(context.Background(), ref, "add", wire.Int(40), wire.Int(2))
	if err != nil {
		t.Fatalf("invoke after sever: %v", err)
	}
	if rs[0].Num() != 42 {
		t.Fatalf("result = %v", rs[0])
	}
}

func TestDelayedReplyRacesCancellation(t *testing.T) {
	inner := NewInprocNetwork()
	fnet := NewFaultNetwork(inner)
	srv, err := NewServer(ServerOptions{Network: inner, Address: "laggy"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(fnet)
	defer client.Close()

	fnet.SetReadDelay(300 * time.Millisecond) // replies crawl
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Invoke(ctx, ref, "echo", wire.Int(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("cancellation took %v; delayed reply blocked it", elapsed)
	}
}

// TestServerAbortsExpiredDeadline hand-crafts a request whose wire
// deadline has already passed: the server must answer DEADLINE_EXCEEDED
// without dispatching to the servant.
func TestServerAbortsExpiredDeadline(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "deadline"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dispatched atomic.Bool
	srv.Register("echo", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		dispatched.Store(true)
		return args, nil
	}))

	raw, err := n.Dial("deadline")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	payload, err := wire.EncodeRequest(&wire.Request{
		ID: 1, ObjectKey: "echo", Operation: "echo",
		Deadline: time.Now().Add(-time.Second).UnixNano(),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(raw, payload); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := wire.ReadFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.DecodeMessage(reply)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Rep == nil || msg.Rep.ErrCode != CodeDeadline {
		t.Fatalf("reply = %+v, want ErrCode %s", msg.Rep, CodeDeadline)
	}
	if dispatched.Load() {
		t.Fatal("servant dispatched despite expired deadline")
	}
}

// TestCollocatedInvokeHonorsContext covers the fast-path ctx bugs: an
// already-cancelled context must not dispatch, and a deadline must
// interrupt the wait on a slow servant.
func TestCollocatedInvokeHonorsContext(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "colloc"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dispatched atomic.Int64
	ref := srv.Register("svc", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		dispatched.Add(1)
		if op == "slow" {
			time.Sleep(200 * time.Millisecond)
		}
		return nil, nil
	}))
	client := NewClient(n)
	defer client.Close()
	client.RegisterLocal(srv)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Invoke(cancelled, ref, "fast"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dispatched.Load() != 0 {
		t.Fatal("cancelled context still dispatched locally")
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = client.Invoke(ctx, ref, "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("local dispatch ignored deadline (took %v)", elapsed)
	}
}

// TestLocalOnewayWaitedOnClose asserts the collocated oneway fast path's
// goroutines are tracked: Close must not return before they finish.
func TestLocalOnewayWaitedOnClose(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "oneway-track"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var finished atomic.Int64
	ref := srv.Register("svc", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		time.Sleep(50 * time.Millisecond)
		finished.Add(1)
		return nil, nil
	}))
	client := NewClient(n)
	client.RegisterLocal(srv)
	for i := 0; i < 3; i++ {
		if err := client.InvokeOneway(ref, "fire"); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if got := finished.Load(); got != 3 {
		t.Fatalf("Close returned with %d/3 local oneways finished", got)
	}
	// After Close, new local oneways must be refused, not leaked.
	if err := client.InvokeOneway(ref, "fire"); !errors.Is(err, ErrClosed) {
		t.Fatalf("oneway after close: err = %v, want ErrClosed", err)
	}
}

// TestWriteDeadlineUnsticksStuckPeer connects to a listener that accepts
// but never reads: without write deadlines the frame write would block
// writeMu forever. The lapsed write timeout is a transport failure, not the
// caller's deadline: it tears the connection down, so the next call redials.
func TestWriteDeadlineUnsticksStuckPeer(t *testing.T) {
	inner := NewInprocNetwork()
	n := NewFaultNetwork(inner) // no fault armed: it only counts dials
	l, err := inner.Listen("mute")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accepted but never read
		}
	}()

	client := NewClientOpts(ClientOptions{Networks: []Network{n}, WriteTimeout: 50 * time.Millisecond})
	defer client.Close()
	ref := wire.ObjRef{Endpoint: "inproc|mute", Key: "x"}
	for i := 1; i <= 2; i++ {
		start := time.Now()
		_, err = client.Invoke(context.Background(), ref, "op")
		if err == nil {
			t.Fatalf("invoke %d to mute peer succeeded", i)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("invoke %d without a deadline failed with %v", i, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("stuck write held for %v despite write timeout", elapsed)
		}
	}
	if d := n.Dials(); d != 2 {
		t.Fatalf("dials = %d, want 2: the timed-out write left the connection up", d)
	}
}

func TestRegisterReplacesServant(t *testing.T) {
	n := NewInprocNetwork()
	srv, client, ref := newPair(t, n, "replace")
	srv.Register("echo", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return []wire.Value{wire.String("v2")}, nil
	}))
	rs, err := client.Invoke(context.Background(), ref, "anything")
	if err != nil || rs[0].Str() != "v2" {
		t.Fatalf("replacement servant not active: %v, %v", rs, err)
	}
	if _, ok := srv.Lookup("echo"); !ok {
		t.Fatal("Lookup failed for registered key")
	}
	if _, ok := srv.Lookup("ghost"); ok {
		t.Fatal("Lookup succeeded for missing key")
	}
}

// TestServerCloseRacesAccept: a conn the server accepts while it closes is
// closed with the rest, so Close returns instead of waiting on its reader.
func TestServerCloseRacesAccept(t *testing.T) {
	n := NewInprocNetwork()
	for i := range 300 {
		addr := fmt.Sprintf("race-%d", i)
		srv, err := NewServer(ServerOptions{Network: n, Address: addr})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := n.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { _ = srv.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("Close of server %d hung on a conn it had just accepted", i)
		}
		_ = conn.Close()
	}
}
