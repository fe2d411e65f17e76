package orb

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

// Tests of Proxy.CallDecode, which hands a reply's results to the caller's
// decoder on the goroutine that reads the reply, and of ResultWriter, which
// lets a servant write its results straight into the reply frame.

// numberDecoder reads one number, failing with "wrong shape" on anything
// else; calls counts the replies it was handed.
type numberDecoder struct {
	got   float64
	calls atomic.Int64
}

func (nd *numberDecoder) decode(d *wire.Decoder, n int) error {
	nd.calls.Add(1)
	if n != 1 {
		return errors.New("wrong shape")
	}
	v, err := d.ValueAt(0)
	if err != nil {
		return err
	}
	num, ok := v.AsNumber()
	if !ok {
		return errors.New("wrong shape")
	}
	nd.got = num
	return nil
}

// decodeWorld serves "num" (a number), "str" (a string), "slow" (a number
// once released) and, through a ResultWriter, "raw" (whatever bytes the
// test sets) on one server, on each transport.
type decodeWorld struct {
	nw      Network
	strs    atomic.Int64 // "str" calls served
	srv     *Server
	client  *Client
	proxy   *Proxy
	started chan struct{}
	release chan struct{}
	raw     atomic.Pointer[[]byte]
}

type rawWriter struct {
	ServantFunc
	w *decodeWorld
}

func (rw rawWriter) AppendResults(dst []byte, op string, args []wire.Value) ([]byte, bool, error) {
	switch op {
	case "raw":
		return append(wire.AppendValueCount(dst, 1), *rw.w.raw.Load()...), true, nil
	case "appErr":
		return append(dst, "partial"...), true, Appf("refused")
	case "panic":
		panic("writer panic")
	}
	return dst, false, nil
}

func newDecodeWorld(t *testing.T, nw Network, addr string) *decodeWorld {
	t.Helper()
	w := &decodeWorld{nw: nw, started: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := NewServer(ServerOptions{Network: nw, Address: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ref := srv.Register("obj", "", rawWriter{w: w, ServantFunc: func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case "str":
			w.strs.Add(1)
			return []wire.Value{wire.String("x")}, nil
		case "slow":
			w.started <- struct{}{}
			<-w.release
		}
		return []wire.Value{wire.Int(7)}, nil
	}})
	w.srv, w.client = srv, NewClient(nw)
	t.Cleanup(func() { w.client.Close() })
	w.proxy = w.client.NewProxy(ref)
	return w
}

func (w *decodeWorld) conn() *clientConn {
	w.client.mu.Lock()
	defer w.client.mu.Unlock()
	return w.client.conns[w.proxy.Ref().Endpoint]
}

func forTransports(t *testing.T, run func(t *testing.T, w *decodeWorld)) {
	t.Run("tcp", func(t *testing.T) { run(t, newDecodeWorld(t, TCPNetwork{}, "127.0.0.1:0")) })
	t.Run("inproc", func(t *testing.T) { run(t, newDecodeWorld(t, NewInprocNetwork(), "decode")) })
}

// TestCallDecodeWrongShapeFailsOnlyItsCall: a reply that is valid wire but
// not what the decoder reads fails that call with the decoder's own error,
// and the connection carries the next call. The server answered, so the
// call is not retried and the breaker does not count it.
func TestCallDecodeWrongShapeFailsOnlyItsCall(t *testing.T) {
	forTransports(t, func(t *testing.T, w *decodeWorld) {
		ctx := context.Background()
		var nd numberDecoder
		if err := w.proxy.CallDecode(ctx, "num", nd.decode); err != nil || nd.got != 7 {
			t.Fatalf("num: %v, got %v", err, nd.got)
		}
		cc := w.conn()
		wrong := errors.New("wrong shape")
		refuse := func(*wire.Decoder, int) error { return wrong }
		if err := w.proxy.CallDecode(ctx, "str", nd.decode); err == nil || err.Error() != "wrong shape" {
			t.Fatalf("str: %v, want the decoder's error", err)
		}
		strict := NewClientOpts(ClientOptions{Networks: []Network{w.nw},
			Retry:   RetryPolicy{MaxAttempts: 3},
			Breaker: BreakerPolicy{Threshold: 1, Cooldown: time.Minute}})
		defer strict.Close()
		if err := strict.NewProxy(w.proxy.Ref()).CallDecode(ctx, "str", refuse); err != wrong {
			t.Fatalf("str with retries and a breaker: %v, want the decoder's error itself", err)
		}
		if n := w.strs.Load(); n != 2 {
			t.Fatalf("str served %d times, want 2: a refused reply was retried", n)
		}
		if st := strict.BreakerState(w.proxy.Ref().Endpoint); st != "closed" {
			t.Fatalf("breaker %s after a refused reply, want closed", st)
		}
		nd.got = 0
		if err := w.proxy.CallDecode(ctx, "num", nd.decode); err != nil || nd.got != 7 {
			t.Fatalf("num after a wrong shape: %v, got %v", err, nd.got)
		}
		if w.conn() != cc || cc.isDead() {
			t.Fatal("a wrong-shape reply cost the connection")
		}
	})
}

// TestCallDecodeInvalidWireClosesConnection: a reply that is not valid wire
// fails the call with the protocol error and closes the connection, as it
// does for a call without a decoder.
func TestCallDecodeInvalidWireClosesConnection(t *testing.T) {
	forTransports(t, func(t *testing.T, w *decodeWorld) {
		ctx := context.Background()
		bad := []byte{0xff}
		w.raw.Store(&bad)
		var nd numberDecoder
		if _, err := w.proxy.Call(ctx, "num"); err != nil {
			t.Fatal(err)
		}
		cc := w.conn()
		err := w.proxy.CallDecode(ctx, "raw", nd.decode)
		if err == nil || !strings.Contains(err.Error(), "protocol error: wire: decode result 0: wire: unknown value tag 0xff") {
			t.Fatalf("raw: %v, want the protocol error", err)
		}
		if !cc.isDead() {
			t.Fatal("an invalid reply left the connection up")
		}
		if err := w.proxy.CallDecode(ctx, "num", nd.decode); err != nil || nd.got != 7 {
			t.Fatalf("num on a new connection: %v, got %v", err, nd.got)
		}
	})
}

// TestCallDecodeCancelledInFlight: a call that gives up while its reply is
// in flight returns its context's error at once; the reply, when it lands,
// is counted late and never reaches the decoder, and the connection
// carries the next call.
func TestCallDecodeCancelledInFlight(t *testing.T) {
	forTransports(t, func(t *testing.T, w *decodeWorld) {
		var nd numberDecoder
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.proxy.CallDecode(ctx, "slow", nd.decode) }()
		<-w.started
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call: %v", err)
		}
		close(w.release)
		for deadline := time.Now().Add(5 * time.Second); w.client.Stats().LateReplies == 0; {
			if time.Now().After(deadline) {
				t.Fatal("the abandoned reply was never counted late")
			}
			time.Sleep(time.Millisecond)
		}
		if n := nd.calls.Load(); n != 0 {
			t.Fatalf("the late reply reached the decoder %d times", n)
		}
		if err := w.proxy.CallDecode(context.Background(), "num", nd.decode); err != nil || nd.got != 7 {
			t.Fatalf("num after the late reply: %v, got %v", err, nd.got)
		}
	})
}

// TestCallDecodeCollocated: a collocated call hands the decoder its results
// encoded, as a remote one does, with or without a cancellable context.
func TestCallDecodeCollocated(t *testing.T) {
	w := newDecodeWorld(t, NewInprocNetwork(), "decode-local")
	w.client.RegisterLocal(w.srv)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), ctx} {
		var nd numberDecoder
		if err := w.proxy.CallDecode(ctx, "num", nd.decode); err != nil || nd.got != 7 {
			t.Fatalf("num: %v, got %v", err, nd.got)
		}
		if err := w.proxy.CallDecode(ctx, "str", nd.decode); err == nil || err.Error() != "wrong shape" {
			t.Fatalf("str: %v, want the decoder's error", err)
		}
	}
	if w.conn() != nil {
		t.Fatal("a collocated call dialed")
	}
}

// TestResultWriterErrors: a ResultWriter's error replies are Invoke's — an
// AppError as APP_ERROR, a panic as INTERNAL — and what it appended before
// failing never reaches the wire; an operation it does not handle goes to
// Invoke.
func TestResultWriterErrors(t *testing.T) {
	w := newDecodeWorld(t, NewInprocNetwork(), "decode-errors")
	ctx := context.Background()
	if _, err := w.proxy.Call(ctx, "appErr"); !IsRemoteCode(err, CodeApp) || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("appErr: %v", err)
	}
	if _, err := w.proxy.Call(ctx, "panic"); !IsRemoteCode(err, CodeInternal) || !strings.Contains(err.Error(), "writer panic") {
		t.Fatalf("panic: %v", err)
	}
	rs, err := w.proxy.Call(ctx, "num")
	if err != nil || len(rs) != 1 || rs[0].Num() != 7 {
		t.Fatalf("num: %v, %v", rs, err)
	}
	good := []byte{0x03, 0x40, 0x14, 0, 0, 0, 0, 0, 0} // the number 5
	w.raw.Store(&good)
	if rs, err := w.proxy.Call(ctx, "raw"); err != nil || len(rs) != 1 || rs[0].Num() != 5 {
		t.Fatalf("raw: %v, %v", rs, err)
	}
}
