package orb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/idl"
	"autoadapt/internal/wire"
)

// echoServant implements a simple test object.
func echoServant() Servant {
	return ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case "echo":
			return args, nil
		case "add":
			return []wire.Value{wire.Number(args[0].Num() + args[1].Num())}, nil
		case "fail":
			return nil, Appf("deliberate failure")
		case "panic":
			panic("servant exploded")
		case "nothing":
			return nil, nil
		default:
			return nil, Appf("no such operation %q", op)
		}
	})
}

// newPair starts a server (on the given network) with an echo servant and a
// client wired to the same network.
func newPair(t *testing.T, n Network, addr string) (*Server, *Client, wire.ObjRef) {
	t.Helper()
	srv, err := NewServer(ServerOptions{Network: n, Address: addr})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(n)
	t.Cleanup(func() { _ = client.Close() })
	return srv, client, ref
}

func TestTCPInvoke(t *testing.T) {
	_, client, ref := newPair(t, TCPNetwork{}, "127.0.0.1:0")
	got, err := client.Invoke(context.Background(), ref, "add", wire.Int(2), wire.Int(3))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if len(got) != 1 || got[0].Num() != 5 {
		t.Fatalf("add = %v", got)
	}
}

func TestInprocInvoke(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-1")
	got, err := client.Invoke(context.Background(), ref, "echo", wire.String("hi"))
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if len(got) != 1 || got[0].Str() != "hi" {
		t.Fatalf("echo = %v", got)
	}
}

func TestEchoAllValueKinds(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-kinds")
	tb := wire.NewTable()
	tb.SetString("nested", wire.TableVal(wire.NewList(wire.Int(1), wire.Int(2))))
	args := []wire.Value{
		wire.Nil(), wire.Bool(true), wire.Number(2.5), wire.String("s"),
		wire.Bytes([]byte{1, 2, 3}), wire.TableVal(tb),
		wire.Ref(wire.ObjRef{Endpoint: "tcp|x:1", Key: "k"}),
	}
	got, err := client.Invoke(context.Background(), ref, "echo", args...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(args) {
		t.Fatalf("echoed %d values, want %d", len(got), len(args))
	}
	for i := range args {
		if !got[i].Equal(args[i]) {
			t.Fatalf("arg %d: got %v, want %v", i, got[i], args[i])
		}
	}
}

func TestAppErrorCrossesWire(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-err")
	_, err := client.Invoke(context.Background(), ref, "fail")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want RemoteError", err, err)
	}
	if re.Code != CodeApp || re.Msg != "deliberate failure" {
		t.Fatalf("remote error = %+v", re)
	}
	if !IsRemoteCode(err, CodeApp) {
		t.Fatal("IsRemoteCode(CodeApp) = false")
	}
}

func TestServantPanicBecomesInternalError(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-panic")
	_, err := client.Invoke(context.Background(), ref, "panic")
	if !IsRemoteCode(err, CodeInternal) {
		t.Fatalf("err = %v, want INTERNAL", err)
	}
	// The connection and server survive.
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1)); err != nil {
		t.Fatalf("server unusable after panic: %v", err)
	}
}

func TestNoSuchObject(t *testing.T) {
	n := NewInprocNetwork()
	srv, client, _ := newPair(t, n, "server-nso")
	bad := srv.RefFor("ghost")
	_, err := client.Invoke(context.Background(), bad, "echo")
	if !IsRemoteCode(err, CodeNoSuchObject) {
		t.Fatalf("err = %v, want NO_SUCH_OBJECT", err)
	}
}

func TestOnewayDelivered(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-ow"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var count atomic.Int64
	notified := make(chan struct{}, 16)
	ref := srv.Register("obs", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "notifyEvent" {
			count.Add(1)
			notified <- struct{}{}
		}
		return nil, nil
	}))
	client := NewClient(n)
	defer client.Close()
	for i := 0; i < 3; i++ {
		if err := client.InvokeOneway(ref, "notifyEvent", wire.String("LoadIncrease")); err != nil {
			t.Fatalf("oneway %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-notified:
		case <-time.After(5 * time.Second):
			t.Fatalf("oneway %d not delivered", i)
		}
	}
	if count.Load() != 3 {
		t.Fatalf("notify count = %d", count.Load())
	}
}

func TestConcurrentInvocationsMultiplexed(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-mux"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A servant that waits until all requests have arrived, proving
	// requests interleave on one connection rather than serializing.
	const parallel = 8
	var arrived sync.WaitGroup
	arrived.Add(parallel)
	release := make(chan struct{})
	ref := srv.Register("gate", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		arrived.Done()
		<-release
		return []wire.Value{args[0]}, nil
	}))
	client := NewClient(n)
	defer client.Close()

	var wg sync.WaitGroup
	results := make([]float64, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := client.Invoke(context.Background(), ref, "call", wire.Int(i))
			if err == nil && len(rs) == 1 {
				results[i] = rs[0].Num()
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { arrived.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("requests did not interleave on one connection")
	}
	close(release)
	wg.Wait()
	for i := range results {
		if results[i] != float64(i) {
			t.Fatalf("result %d = %v (reply correlation broken)", i, results[i])
		}
	}
}

func TestContextCancellation(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-ctx"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	block := make(chan struct{})
	defer close(block)
	ref := srv.Register("slow", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		<-block
		return nil, nil
	}))
	client := NewClient(n)
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, ref, "hang")
		errCh <- err
	}()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled invoke did not return")
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-close"})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	srvRef := srv.Register("slow", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		started <- struct{}{}
		<-block
		return nil, nil
	}))
	client := NewClient(n)
	defer client.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := client.Invoke(context.Background(), srvRef, "hang")
		errCh <- err
	}()
	<-started
	close(block) // let the handler finish so Close's WaitGroup drains
	_ = srv.Close()
	select {
	case <-errCh:
		// Either a successful reply (handler finished first) or a
		// connection error is acceptable; what matters is no hang.
	case <-time.After(10 * time.Second):
		t.Fatal("pending call hung across server close")
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-cclose"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	block := make(chan struct{})
	defer close(block)
	ref := srv.Register("slow", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		<-block
		return nil, nil
	}))
	client := NewClient(n)
	errCh := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := client.Invoke(context.Background(), ref, "hang")
		errCh <- err
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the request hit the wire
	_ = client.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("pending call succeeded after client close")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending call hung across client close")
	}
}

func TestDialUnknownNetwork(t *testing.T) {
	client := NewClient(TCPNetwork{})
	defer client.Close()
	_, err := client.Invoke(context.Background(), wire.ObjRef{Endpoint: "quic|x:1", Key: "k"}, "op")
	if !errors.Is(err, ErrUnknownNetwork) {
		t.Fatalf("err = %v, want ErrUnknownNetwork", err)
	}
}

func TestDialRefused(t *testing.T) {
	n := NewInprocNetwork()
	client := NewClient(n)
	defer client.Close()
	_, err := client.Invoke(context.Background(), wire.ObjRef{Endpoint: "inproc|nobody", Key: "k"}, "op")
	if err == nil {
		t.Fatal("dialing a non-listening inproc address succeeded")
	}
}

func TestInvokeNilRef(t *testing.T) {
	client := NewClient(TCPNetwork{})
	defer client.Close()
	if _, err := client.Invoke(context.Background(), wire.ObjRef{}, "op"); err == nil {
		t.Fatal("invoke on zero ref succeeded")
	}
	if err := client.InvokeOneway(wire.ObjRef{}, "op"); err == nil {
		t.Fatal("oneway on zero ref succeeded")
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-restart"})
	if err != nil {
		t.Fatal(err)
	}
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(n)
	defer client.Close()
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1)); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	// First call may fail while the dead connection is discovered.
	_, _ = client.Invoke(context.Background(), ref, "echo", wire.Int(2))

	srv2, err := NewServer(ServerOptions{Network: n, Address: "server-restart"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.Register("echo", "", echoServant())
	// The client must detect the dead cached connection and redial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(3)); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected after server restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestIDLCheckedDispatch(t *testing.T) {
	repo := idl.NewRepository()
	if err := repo.LoadIDL(`
		interface Calc {
			double add(in double a, in double b);
			oneway void poke(in string tag);
		};
	`); err != nil {
		t.Fatal(err)
	}
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-idl", Repo: repo})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("calc", "Calc", echoServant())
	client := NewClient(n)
	defer client.Close()

	if _, err := client.Invoke(context.Background(), ref, "add", wire.Int(1), wire.Int(2)); err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}
	_, err = client.Invoke(context.Background(), ref, "add", wire.String("x"), wire.Int(2))
	if !IsRemoteCode(err, CodeBadParam) {
		t.Fatalf("bad param err = %v", err)
	}
	_, err = client.Invoke(context.Background(), ref, "subtract", wire.Int(1))
	if !IsRemoteCode(err, CodeBadOperation) {
		t.Fatalf("bad op err = %v", err)
	}
}

// TestLocalFastPath: a server in the same process answers results and
// application errors over the in-process transport.
func TestLocalFastPath(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-local")
	got, err := client.Invoke(context.Background(), ref, "add", wire.Int(20), wire.Int(22))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Num() != 42 {
		t.Fatalf("in-process add = %v", got[0].Num())
	}
	_, err = client.Invoke(context.Background(), ref, "fail")
	if !IsRemoteCode(err, CodeApp) {
		t.Fatalf("in-process error = %v", err)
	}
}

func TestProxyConvenience(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-proxy")
	p := client.NewProxy(ref)
	if p.Ref() != ref {
		t.Fatal("proxy ref mismatch")
	}
	v, err := p.Call1(context.Background(), "add", wire.Int(1), wire.Int(2))
	if err != nil || v.Num() != 3 {
		t.Fatalf("Call1 = %v, %v", v, err)
	}
	vs, err := p.Call(context.Background(), "echo", wire.Int(1), wire.Int(2))
	if err != nil || len(vs) != 2 {
		t.Fatalf("Call = %v, %v", vs, err)
	}
	v, err = p.Call1(context.Background(), "nothing")
	if err != nil || !v.IsNil() {
		t.Fatalf("Call1(nothing) = %v, %v", v, err)
	}
}

func TestSplitJoinEndpoint(t *testing.T) {
	net, addr, err := SplitEndpoint("tcp|1.2.3.4:99")
	if err != nil || net != "tcp" || addr != "1.2.3.4:99" {
		t.Fatalf("SplitEndpoint = %q %q %v", net, addr, err)
	}
	if _, _, err := SplitEndpoint("garbage"); err == nil {
		t.Fatal("malformed endpoint accepted")
	}
	if _, _, err := SplitEndpoint("|x"); err == nil {
		t.Fatal("empty network accepted")
	}
	if got := JoinEndpoint("tcp", "h:1"); got != "tcp|h:1" {
		t.Fatalf("JoinEndpoint = %q", got)
	}
}

func TestInprocAddressReuse(t *testing.T) {
	n := NewInprocNetwork()
	l1, err := n.Listen("dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("dup"); err == nil {
		t.Fatal("duplicate inproc listen succeeded")
	}
	_ = l1.Close()
	l2, err := n.Listen("dup")
	if err != nil {
		t.Fatalf("listen after close: %v", err)
	}
	_ = l2.Close()
	if _, err := n.Listen(""); err == nil {
		t.Fatal("empty inproc address accepted")
	}
}

func TestRemoteRefRoundTripsThroughServant(t *testing.T) {
	// A servant that returns a reference to another object, exercising the
	// pattern where monitors hand out observer references (paper §III).
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "server-refs"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner := srv.Register("inner", "", echoServant())
	srv.Register("outer", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return []wire.Value{wire.Ref(inner)}, nil
	}))
	client := NewClient(n)
	defer client.Close()
	rs, err := client.Invoke(context.Background(), srv.RefFor("outer"), "getInner")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rs[0].AsRef()
	if !ok {
		t.Fatalf("result = %v, want ref", rs[0])
	}
	// Use the returned reference directly.
	out, err := client.Invoke(context.Background(), got, "add", wire.Int(4), wire.Int(5))
	if err != nil || out[0].Num() != 9 {
		t.Fatalf("call through returned ref = %v, %v", out, err)
	}
}

func TestManySequentialCalls(t *testing.T) {
	n := NewInprocNetwork()
	_, client, ref := newPair(t, n, "server-seq")
	for i := 0; i < 500; i++ {
		rs, err := client.Invoke(context.Background(), ref, "add", wire.Int(i), wire.Int(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if rs[0].Num() != float64(i+1) {
			t.Fatalf("call %d = %v", i, rs[0].Num())
		}
	}
}

func TestServerEndpointFormat(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	net, addr, err := SplitEndpoint(srv.Endpoint())
	if err != nil || net != "tcp" {
		t.Fatalf("endpoint = %q", srv.Endpoint())
	}
	if addr == "127.0.0.1:0" {
		t.Fatal("endpoint did not record the bound port")
	}
}
