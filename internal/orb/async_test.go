package orb

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// gateServant blocks designated operations on a gate channel so tests can
// control reply ordering precisely.
type gateServant struct {
	gate     chan struct{}
	openOnce sync.Once
}

// open releases every blocked "wait" dispatch; idempotent so cleanups and
// test bodies can both call it.
func (g *gateServant) open() { g.openOnce.Do(func() { close(g.gate) }) }

func (g *gateServant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	switch op {
	case "wait":
		<-g.gate
		return []wire.Value{wire.String("slow")}, nil
	case "echo":
		return args, nil
	default:
		return nil, Appf("no such operation %q", op)
	}
}

// newGatedPair starts a TCP server with a gate servant plus a client built
// from opts.
func newGatedPair(t *testing.T, opts ClientOptions) (*gateServant, *Client, wire.ObjRef) {
	t.Helper()
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	g := &gateServant{gate: make(chan struct{})}
	t.Cleanup(g.open) // unblock any dispatch still parked so srv.Close can drain
	ref := srv.Register("gate", "", g)
	opts.Networks = append(opts.Networks, TCPNetwork{})
	client := NewClientOpts(opts)
	t.Cleanup(func() { _ = client.Close() })
	return g, client, ref
}

func TestInvokeAsyncBasic(t *testing.T) {
	_, client, ref := newGatedPair(t, ClientOptions{})
	fut, err := client.InvokeAsync(context.Background(), ref, "echo", wire.Int(7))
	if err != nil {
		t.Fatalf("InvokeAsync: %v", err)
	}
	rs, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if len(rs) != 1 || rs[0].Num() != 7 {
		t.Fatalf("results = %v", rs)
	}
	if got := client.Stats().AsyncInvokes; got != 1 {
		t.Fatalf("AsyncInvokes = %d, want 1", got)
	}
}

func TestInvokeAsyncError(t *testing.T) {
	_, client, ref := newGatedPair(t, ClientOptions{})
	fut, err := client.InvokeAsync(context.Background(), ref, "nope")
	if err != nil {
		t.Fatalf("InvokeAsync: %v", err)
	}
	if _, err = fut.Wait(context.Background()); !IsRemoteCode(err, CodeApp) {
		t.Fatalf("err = %v, want APP_ERROR", err)
	}
}

// TestAsyncOutOfOrderReplies is the pipelining core: a slow and a fast
// request share one connection, and the fast one completes while the slow
// one is still outstanding. Run under -race this also exercises the
// pending-map claim discipline.
func TestAsyncOutOfOrderReplies(t *testing.T) {
	g, client, ref := newGatedPair(t, ClientOptions{})
	ctx := context.Background()

	slow, err := client.InvokeAsync(ctx, ref, "wait")
	if err != nil {
		t.Fatalf("InvokeAsync(wait): %v", err)
	}
	fast, err := client.InvokeAsync(ctx, ref, "echo", wire.String("quick"))
	if err != nil {
		t.Fatalf("InvokeAsync(echo): %v", err)
	}

	// The fast reply must land while the slow request is still in flight.
	select {
	case <-fast.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("fast reply did not arrive while slow request was pending")
	}
	select {
	case <-slow.Done():
		t.Fatal("slow request completed before its gate opened")
	default:
	}

	g.open()
	rs, err := slow.Wait(ctx)
	if err != nil || len(rs) != 1 || rs[0].Str() != "slow" {
		t.Fatalf("slow result = %v, %v", rs, err)
	}
	rs, err = fast.Result()
	if err != nil || len(rs) != 1 || rs[0].Str() != "quick" {
		t.Fatalf("fast result = %v, %v", rs, err)
	}
}

// TestAsyncManyInterleaved drives a deeper window: futures issued in order
// complete correctly regardless of delivery interleaving.
func TestAsyncManyInterleaved(t *testing.T) {
	_, client, ref := newGatedPair(t, ClientOptions{MaxInFlight: 64})
	ctx := context.Background()
	const n = 256
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		f, err := client.InvokeAsync(ctx, ref, "echo", wire.Int(i))
		if err != nil {
			t.Fatalf("InvokeAsync #%d: %v", i, err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		rs, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait #%d: %v", i, err)
		}
		if len(rs) != 1 || int(rs[0].Num()) != i {
			t.Fatalf("future %d resolved to %v", i, rs)
		}
	}
}

// TestAsyncCancelStorm abandons a burst of in-flight requests and then
// proves nothing leaked: the pending map drains, goroutine count settles,
// and every abandonment was counted.
func TestAsyncCancelStorm(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t, 2)
	g, client, ref := newGatedPair(t, ClientOptions{})
	const n = 128
	ctx, cancel := context.WithCancel(context.Background())
	futs := make([]*Future, 0, n)
	for i := 0; i < n; i++ {
		f, err := client.InvokeAsync(ctx, ref, "wait")
		if err != nil {
			t.Fatalf("InvokeAsync #%d: %v", i, err)
		}
		futs = append(futs, f)
	}
	cancel()
	for _, f := range futs {
		if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}

	// The pending map must be empty now: every entry was forgotten.
	cc, err := client.conn(context.Background(), ref.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	cc.mu.Lock()
	pending := len(cc.pending)
	cc.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending map holds %d entries after cancel storm", pending)
	}
	if got := client.Stats().Canceled; got != n {
		t.Fatalf("Canceled = %d, want %d", got, n)
	}

	// Unblock the servant; the late replies must be absorbed (counted, not
	// crashed on) and the connection must stay usable.
	g.open()
	rs, err := client.Invoke(context.Background(), ref, "echo", wire.String("alive"))
	if err != nil || len(rs) != 1 || rs[0].Str() != "alive" {
		t.Fatalf("post-storm invoke = %v, %v", rs, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.Stats().LateReplies < n {
		if time.Now().After(deadline) {
			t.Fatalf("LateReplies = %d, want %d", client.Stats().LateReplies, n)
		}
		time.Sleep(time.Millisecond)
	}
	_ = client.Close()
	checkLeaks()
}

// TestSyncCancelCountsLateReply pins down the satellite-2 accounting on
// the blocking path: a canceled round trip whose reply later arrives is
// recorded as exactly one late reply.
func TestSyncCancelCountsLateReply(t *testing.T) {
	g, client, ref := newGatedPair(t, ClientOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, ref, "wait")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the servant
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := client.Stats().Canceled; got != 1 {
		t.Fatalf("Canceled = %d, want 1", got)
	}
	g.open()
	deadline := time.Now().Add(5 * time.Second)
	for client.Stats().LateReplies != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("LateReplies = %d, want 1", client.Stats().LateReplies)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForgetRepoolsWaiter is the satellite-1 alloc guard: a register/forget
// cycle (the cancel path) must recycle its pooled waiter instead of
// leaking the reply channel, so a cancel storm settles at zero
// steady-state allocations.
func TestForgetRepoolsWaiter(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	client := NewClient()
	cc := newClientConn(c1, client)
	defer func() {
		cc.close(ErrClosed)
		<-cc.readerDone
	}()
	allocs := testing.AllocsPerRun(2000, func() {
		_, id, err := cc.register(nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if !cc.forget(id, false) {
			t.Fatal("forget lost a just-registered entry")
		}
	})
	if allocs > 0.5 {
		t.Fatalf("register+forget allocates %.1f objects/op, want 0 (waiter not repooled?)", allocs)
	}
}

func TestAsyncWindowFailFast(t *testing.T) {
	g, client, ref := newGatedPair(t, ClientOptions{MaxInFlight: 1, FailFast: true})
	ctx := context.Background()
	slow, err := client.InvokeAsync(ctx, ref, "wait")
	if err != nil {
		t.Fatalf("InvokeAsync: %v", err)
	}
	if _, err := client.InvokeAsync(ctx, ref, "echo"); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("err = %v, want ErrWindowFull", err)
	}
	if got := client.Stats().WindowRejects; got != 1 {
		t.Fatalf("WindowRejects = %d, want 1", got)
	}
	g.open()
	if _, err := slow.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The slot freed with the reply: the window admits requests again.
	if _, err := client.Invoke(ctx, ref, "echo"); err != nil {
		t.Fatalf("post-release invoke: %v", err)
	}
}

func TestAsyncWindowBlocksAndUnblocks(t *testing.T) {
	g, client, ref := newGatedPair(t, ClientOptions{MaxInFlight: 1})
	ctx := context.Background()
	slow, err := client.InvokeAsync(ctx, ref, "wait")
	if err != nil {
		t.Fatalf("InvokeAsync: %v", err)
	}
	// A second call must block on the window until the first completes.
	second := make(chan error, 1)
	go func() {
		f, err := client.InvokeAsync(ctx, ref, "echo")
		if err == nil {
			_, err = f.Wait(ctx)
		}
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("second call completed while window was full (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	g.open()
	if _, err := slow.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second call: %v", err)
	}
	if got := client.Stats().WindowWaits; got != 1 {
		t.Fatalf("WindowWaits = %d, want 1", got)
	}
}

func TestAsyncWindowBlockedCallerHonorsContext(t *testing.T) {
	_, client, ref := newGatedPair(t, ClientOptions{MaxInFlight: 1})
	ctx := context.Background()
	if _, err := client.InvokeAsync(ctx, ref, "wait"); err != nil {
		t.Fatalf("InvokeAsync: %v", err)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := client.InvokeAsync(short, ref, "echo"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestBatchingDeliversAndCoalesces(t *testing.T) {
	_, client, ref := newGatedPair(t, ClientOptions{
		BatchWindow: 200 * time.Microsecond,
	})
	ctx := context.Background()
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := client.Invoke(ctx, ref, "echo", wire.Int(i))
			if err == nil && (len(rs) != 1 || int(rs[0].Num()) != i) {
				err = errors.New("wrong echo result")
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("batched invoke: %v", err)
		}
	}
	st := client.Stats()
	if st.BatchedFrames != n {
		t.Fatalf("BatchedFrames = %d, want %d", st.BatchedFrames, n)
	}
	if st.BatchFlushes == 0 || st.BatchFlushes > n {
		t.Fatalf("BatchFlushes = %d, want within [1, %d]", st.BatchFlushes, n)
	}
}

// pushSource is a test EventSource: it hands its sink to the test, which
// pushes events on demand.
type pushSource struct {
	mu    sync.Mutex
	sinks map[string]EventSink
}

func newPushSource() *pushSource { return &pushSource{sinks: make(map[string]EventSink)} }

func (p *pushSource) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	return nil, Appf("no such operation %q", op)
}

func (p *pushSource) Subscribe(topic string, args []wire.Value, sink EventSink) (func(), error) {
	if topic == "forbidden" {
		return nil, Appf("subscription refused")
	}
	p.mu.Lock()
	p.sinks[topic] = sink
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		delete(p.sinks, topic)
		p.mu.Unlock()
	}, nil
}

func (p *pushSource) sink(topic string) EventSink {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sinks[topic]
}

func newPushPair(t *testing.T, n Network, addr string) (*pushSource, *Server, *Client, wire.ObjRef) {
	t.Helper()
	srv, err := NewServer(ServerOptions{Network: n, Address: addr})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	src := newPushSource()
	ref := srv.Register("events", "", src)
	client := NewClient(n)
	t.Cleanup(func() { _ = client.Close() })
	return src, srv, client, ref
}

func TestSubscribePushDelivery(t *testing.T) {
	src, _, client, ref := newPushPair(t, TCPNetwork{}, "127.0.0.1:0")
	sub, err := client.Subscribe(context.Background(), ref, "load")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sink := src.sink("load")
	if sink == nil {
		t.Fatal("servant saw no sink after ack")
	}
	for i := 0; i < 3; i++ {
		if err := sink.Push(wire.Int(i)); err != nil {
			t.Fatalf("Push #%d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case ev := <-sub.Events():
			if len(ev) != 1 || int(ev[0].Num()) != i {
				t.Fatalf("event %d = %v", i, ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
	if got := client.Stats().EventsPushed; got != 3 {
		t.Fatalf("EventsPushed = %d, want 3", got)
	}
	if err := sub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The server processes the unsubscribe asynchronously; once it has,
	// pushes fail with ErrSubscriptionClosed and the servant's cancel ran.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := sink.Push(wire.Int(99))
		if errors.Is(err, ErrSubscriptionClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("push after unsubscribe: err = %v, want ErrSubscriptionClosed", err)
		}
		time.Sleep(time.Millisecond)
	}
	if src.sink("load") != nil {
		t.Fatal("servant cancel did not run on unsubscribe")
	}
}

func TestSubscribeRefusedAndMissing(t *testing.T) {
	_, _, client, ref := newPushPair(t, TCPNetwork{}, "127.0.0.1:0")
	if _, err := client.Subscribe(context.Background(), ref, "forbidden"); !IsRemoteCode(err, CodeApp) {
		t.Fatalf("refused subscribe err = %v, want APP_ERROR", err)
	}
	missing := wire.ObjRef{Endpoint: ref.Endpoint, Key: "nope"}
	if _, err := client.Subscribe(context.Background(), missing, "x"); !IsRemoteCode(err, CodeNoSuchObject) {
		t.Fatalf("missing object err = %v, want NO_SUCH_OBJECT", err)
	}
	// Plain servants cannot be subscribed to.
	srv2, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	plain := srv2.Register("echo", "", echoServant())
	if _, err := client.Subscribe(context.Background(), plain, "x"); !IsRemoteCode(err, CodeBadOperation) {
		t.Fatalf("non-source err = %v, want BAD_OPERATION", err)
	}
}

func TestSubscriptionFailsOnConnectionDeath(t *testing.T) {
	src, srv, client, ref := newPushPair(t, TCPNetwork{}, "127.0.0.1:0")
	sub, err := client.Subscribe(context.Background(), ref, "load")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if src.sink("load") == nil {
		t.Fatal("no sink registered")
	}
	_ = srv.Close()
	select {
	case _, ok := <-sub.Events():
		if ok {
			t.Fatal("unexpected event")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not observe connection death")
	}
	if sub.Err() == nil {
		t.Fatal("Err() = nil after connection death")
	}
}

func TestSubscribeCollocatedFastPath(t *testing.T) {
	n := NewInprocNetwork()
	src, srv, client, ref := newPushPair(t, n, "push-local")
	client.RegisterLocal(srv)
	sub, err := client.Subscribe(context.Background(), ref, "load")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sink := src.sink("load")
	if sink == nil {
		t.Fatal("no sink registered")
	}
	if err := sink.Push(wire.String("direct")); err != nil {
		t.Fatalf("Push: %v", err)
	}
	select {
	case ev := <-sub.Events():
		if len(ev) != 1 || ev[0].Str() != "direct" {
			t.Fatalf("event = %v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("collocated event never arrived")
	}
	if err := sub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sink.Push(wire.Int(1)); !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("push after close: %v, want ErrSubscriptionClosed", err)
	}
	if src.sink("load") != nil {
		t.Fatal("cancel did not run on collocated close")
	}
}
