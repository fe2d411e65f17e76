package orb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

// Lifecycle of the write batcher's pooled buffer: who owns it when, and
// what a dying connection does to it. Everything here is meant for -race.

// sinkConn is a socketless net.Conn for driving a frameBatch directly:
// Write hands the bytes to onWrite (nil discards them) and, while hold is
// non-nil, parks until it is closed — a flush caught inside its Write.
type sinkConn struct {
	net.Conn // nil: only the methods below are ever called
	onWrite  func(p []byte) error
	entered  chan struct{} // receives once per Write, when non-nil
	hold     chan struct{}
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.hold != nil {
		<-c.hold
	}
	if c.onWrite != nil {
		if err := c.onWrite(p); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (c *sinkConn) Close() error                     { return nil }

// newSinkBatch builds a batcher over conn the way newClientConn and
// serveConn do. The hour-long window keeps the timer out of the picture:
// only the byte threshold and explicit calls flush.
func newSinkBatch(conn net.Conn, limit int, onFail func(error)) (*frameBatch, *atomic.Uint64, *atomic.Uint64) {
	var frames, flushes atomic.Uint64
	if onFail == nil {
		onFail = func(error) {}
	}
	w := &connWriter{conn: conn}
	w.batch = &frameBatch{w: w, window: time.Hour, limit: limit, onFail: onFail,
		frames: &frames, flushes: &flushes}
	return w.batch, &frames, &flushes
}

// testFrame is one length-prefixed frame whose payload is seq followed by
// fill bytes, so a reader can tell whose frame it is and that it is whole.
func testFrame(seq uint32, fill byte, size int) []byte {
	f := make([]byte, 4+size)
	binary.BigEndian.PutUint32(f, uint32(size))
	binary.BigEndian.PutUint32(f[4:], seq)
	for i := 8; i < len(f); i++ {
		f[i] = fill
	}
	return f
}

func (b *frameBatch) heldCap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf == nil {
		return 0
	}
	return cap(b.buf.b)
}

// TestFrameBatchHoldsNoBufferWhenIdle: the buffer is borrowed at a batch's
// first frame and is gone again after the flush, after stop, and after a
// failed flush — an idle connection keeps no batch memory.
func TestFrameBatchHoldsNoBufferWhenIdle(t *testing.T) {
	b, frames, flushes := newSinkBatch(&sinkConn{}, 1024, nil)
	if got := b.heldCap(); got != 0 {
		t.Fatalf("fresh batch holds %d bytes", got)
	}
	if err := b.add(testFrame(0, 'a', 100)); err != nil {
		t.Fatal(err)
	}
	if b.heldCap() == 0 {
		t.Fatal("a pending frame must be held somewhere")
	}
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.heldCap(); got != 0 {
		t.Fatalf("after flush the batch holds %d bytes", got)
	}
	// Threshold flush, inline on the adder.
	for i := 0; i < 11; i++ {
		if err := b.add(testFrame(uint32(i), 'b', 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.heldCap(); got == 0 || flushes.Load() != 2 {
		t.Fatalf("10 x 104 B over a 1024 B limit: held %d, flushes %d, want one frame pending after 2 flushes", got, flushes.Load())
	}
	stopErr := errors.New("connection gone")
	b.stop(stopErr)
	b.stop(errors.New("second stop must not replace the first"))
	if got := b.heldCap(); got != 0 {
		t.Fatalf("after stop the batch holds %d bytes", got)
	}
	if err := b.add(testFrame(0, 'c', 100)); err != stopErr {
		t.Fatalf("add after stop = %v, want the stop error", err)
	}
	if err := b.flush(); err != nil {
		t.Fatalf("flush after stop = %v, want a no-op", err)
	}
	if frames.Load() != 12 || flushes.Load() != 2 {
		t.Fatalf("frames %d flushes %d, want 12 and 2", frames.Load(), flushes.Load())
	}

	// A failed Write hands the buffer back too, stops the batch and runs
	// onFail exactly once.
	var failed []error
	writeErr := errors.New("broken pipe")
	b, _, flushes = newSinkBatch(&sinkConn{onWrite: func([]byte) error { return writeErr }}, 1024,
		func(err error) { failed = append(failed, err) })
	if err := b.add(testFrame(0, 'd', 100)); err != nil {
		t.Fatal(err)
	}
	err := b.flush()
	if !errors.Is(err, writeErr) {
		t.Fatalf("flush = %v, want the write error", err)
	}
	if len(failed) != 1 || failed[0] != err {
		t.Fatalf("onFail calls = %v, want exactly the flush error", failed)
	}
	if got := b.heldCap(); got != 0 || flushes.Load() != 1 {
		t.Fatalf("after a failed flush: held %d, flushes %d (the attempt counts)", got, flushes.Load())
	}
	if err2 := b.add(testFrame(1, 'd', 100)); err2 != err {
		t.Fatalf("add after a failed flush = %v, want %v", err2, err)
	}
}

// TestFrameBatchWindowFlushRearms: the one timer is re-armed batch after
// batch, and a threshold flush cancels the pending window flush.
func TestFrameBatchWindowFlushRearms(t *testing.T) {
	wrote := make(chan int, 8)
	b, _, flushes := newSinkBatch(&sinkConn{onWrite: func(p []byte) error { wrote <- len(p); return nil }}, 1024, nil)
	b.window = time.Millisecond
	for round := 0; round < 3; round++ {
		if err := b.add(testFrame(uint32(round), 'w', 50)); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-wrote:
			if n != 54 {
				t.Fatalf("round %d: window flush wrote %d bytes, want 54", round, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: the window never flushed", round)
		}
	}
	b.mu.Lock()
	timer := b.timer
	b.mu.Unlock()
	// Threshold flush with the timer armed: nothing is left for it to do.
	b.window = time.Hour
	for i := 0; i < 10; i++ {
		if err := b.add(testFrame(uint32(i), 'x', 100)); err != nil {
			t.Fatal(err)
		}
	}
	<-wrote
	b.mu.Lock()
	if b.armed || b.timer != timer {
		t.Fatalf("armed=%v after a threshold flush, timer replaced=%v", b.armed, b.timer != timer)
	}
	b.mu.Unlock()
	if flushes.Load() != 4 {
		t.Fatalf("flushes = %d, want 4", flushes.Load())
	}
}

// TestFrameBatchStopDuringFlush parks a flush inside its Write, stops the
// batch under it, and lets adders race both. The in-flight buffer belongs
// to the flush alone: stop must not hand it back a second time. A second,
// healthy batch runs beside it and checks every byte it writes, which is
// where a buffer owned twice would show (as a torn frame, or under -race).
func TestFrameBatchStopDuringFlush(t *testing.T) {
	// The canary: frames 0,1,2,... of one fill byte, verified on Write.
	var next uint32
	canaryConn := &sinkConn{onWrite: func(p []byte) error {
		for len(p) > 0 {
			n := int(binary.BigEndian.Uint32(p))
			if n != 200 || len(p) < 4+n {
				return fmt.Errorf("torn frame: length %d in %d bytes", n, len(p))
			}
			if seq := binary.BigEndian.Uint32(p[4:]); seq != next {
				return fmt.Errorf("frame %d where %d was due", seq, next)
			}
			if want := bytes.Repeat([]byte{'k'}, n-4); !bytes.Equal(p[8:4+n], want) {
				return fmt.Errorf("frame %d carries foreign bytes", next)
			}
			next++
			p = p[4+n:]
		}
		return nil
	}}
	canary, _, _ := newSinkBatch(canaryConn, 2048, func(err error) { t.Errorf("canary: %v", err) })
	stopCanary := make(chan struct{})
	var canaryDone sync.WaitGroup
	canaryDone.Add(1)
	go func() {
		defer canaryDone.Done()
		for seq := uint32(0); ; seq++ {
			select {
			case <-stopCanary:
				return
			default:
			}
			if err := canary.add(testFrame(seq, 'k', 200)); err != nil {
				t.Errorf("canary add: %v", err)
				return
			}
		}
	}()

	stopErr := errors.New("severed")
	for iter := 0; iter < 200; iter++ {
		conn := &sinkConn{entered: make(chan struct{}, 64), hold: make(chan struct{})}
		b, _, _ := newSinkBatch(conn, 512, nil)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := b.add(testFrame(uint32(i), byte('A'+g), 200)); err != nil {
						if err != stopErr {
							t.Errorf("add = %v, want nil or the stop error", err)
						}
						return
					}
				}
			}(g)
		}
		<-conn.entered // a flush owns a buffer and sits in Write
		if iter%2 == 0 {
			runtime.Gosched() // let more frames collect behind it
		}
		b.stop(stopErr)
		close(conn.hold)
		wg.Wait()
		if got := b.heldCap(); got != 0 {
			t.Fatalf("iteration %d: stopped batch holds %d bytes", iter, got)
		}
		if err := b.add(testFrame(0, 'z', 10)); err != stopErr {
			t.Fatalf("iteration %d: add after stop = %v", iter, err)
		}
	}
	close(stopCanary)
	canaryDone.Wait()
	if err := canary.flush(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedConnSeveredMidBatch severs a batching connection with 32
// futures pending and more frames still collecting in the batch. Every
// future completes exactly once with the connection's death error, nothing
// panics, and the buffers that went back to the pool serve the redialed
// connection intact.
func TestBatchedConnSeveredMidBatch(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0",
		BatchWindow: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	g := &gateServant{gate: make(chan struct{})}
	t.Cleanup(g.open)
	ref := srv.Register("gate", "", g)

	fn := NewFaultNetwork(TCPNetwork{})
	fn.SeverNextConnAfterFrames(1)
	client := NewClientOpts(ClientOptions{Networks: []Network{fn},
		MaxInFlight: 64, BatchWindow: time.Millisecond, BatchBytes: 1 << 20})
	t.Cleanup(func() { _ = client.Close() })
	ctx := context.Background()

	// watch counts a future's completions: exactly one is the contract.
	var completions []*atomic.Int32
	watch := func(f *Future) *Future {
		n := new(atomic.Int32)
		completions = append(completions, n)
		f.OnComplete(func([]wire.Value, error) { n.Add(1) })
		return f
	}
	const pending = 32
	futs := make([]*Future, pending)
	for i := range futs {
		f, err := client.InvokeAsync(ctx, ref, "wait")
		if err != nil {
			t.Fatalf("issue %d: %v", i, err)
		}
		futs[i] = watch(f)
	}
	// The first echo reply is the one frame the fault network lets through;
	// the read after it severs the connection. Until that shows, keep
	// frames collecting in the batch (the 64-slot window paces the loop).
	var extra []*Future
	for severed := false; !severed; {
		select {
		case <-futs[0].Done():
			severed = true
		default:
			if f, err := client.InvokeAsync(ctx, ref, "echo", wire.Int(len(extra))); err == nil {
				extra = append(extra, watch(f))
			}
		}
	}
	for i, f := range futs {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("future %d never completed", i)
		}
		// The reader seeing the fault is the usual cause of death; a flush
		// hitting the just-closed socket can beat it to the report.
		if _, err := f.Result(); !errors.Is(err, ErrInjectedFault) && !errors.Is(err, net.ErrClosed) {
			t.Fatalf("future %d: err = %v, want the connection's death", i, err)
		}
	}
	for i, f := range extra {
		select {
		case <-f.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("echo %d issued around the sever never completed", i)
		}
	}
	for i, n := range completions {
		if got := n.Load(); got != 1 {
			t.Fatalf("future %d completed %d times", i, got)
		}
	}

	// The next call redials (the fault was one-shot) and batches again.
	g.open()
	payload := string(bytes.Repeat([]byte("0123456789abcdef"), 256))
	var again [200]*Future
	for i := range again {
		if again[i], err = client.InvokeAsync(ctx, ref, "echo", wire.Int(i), wire.String(payload)); err != nil {
			t.Fatalf("after redial, issue %d: %v", i, err)
		}
	}
	for i, f := range again {
		rs, err := f.Result()
		if err != nil || len(rs) != 2 || int(rs[0].Num()) != i || rs[1].Str() != payload {
			t.Fatalf("after redial, echo %d: %v (err %v)", i, len(rs), err)
		}
	}
	if fn.Dials() != 2 {
		t.Fatalf("dials = %d, want 2 (the severed connection and its replacement)", fn.Dials())
	}
}

// TestOversizedRequestSparesSiblings: a request too large to frame is a
// local encode error. It must not reach the wire or the batch, and the
// multiplexed connection — with a slow call in flight on it — lives on.
func TestOversizedRequestSparesSiblings(t *testing.T) {
	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		t.Run(fmt.Sprintf("BatchWindow=%v", window), func(t *testing.T) {
			srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			g := &gateServant{gate: make(chan struct{})}
			t.Cleanup(g.open)
			ref := srv.Register("gate", "", g)
			fn := NewFaultNetwork(TCPNetwork{}) // no fault armed: it only counts dials
			client := NewClientOpts(ClientOptions{Networks: []Network{fn}, BatchWindow: window})
			t.Cleanup(func() { _ = client.Close() })
			ctx := context.Background()

			slow, err := client.InvokeAsync(ctx, ref, "wait")
			if err != nil {
				t.Fatal(err)
			}
			huge := wire.Bytes(make([]byte, wire.MaxFrameSize+1))
			if _, err := client.Invoke(ctx, ref, "echo", huge); !errors.Is(err, wire.ErrFrameTooLarge) {
				t.Fatalf("oversized Invoke: err = %v, want ErrFrameTooLarge", err)
			}
			if _, err := client.InvokeAsync(ctx, ref, "echo", huge); !errors.Is(err, wire.ErrFrameTooLarge) {
				t.Fatalf("oversized InvokeAsync: err = %v, want ErrFrameTooLarge", err)
			}
			if err := client.InvokeOneway(ref, "echo", huge); !errors.Is(err, wire.ErrFrameTooLarge) {
				t.Fatalf("oversized InvokeOneway: err = %v, want ErrFrameTooLarge", err)
			}
			g.open()
			if rs, err := slow.Result(); err != nil || len(rs) != 1 || rs[0].Str() != "slow" {
				t.Fatalf("the sibling in flight: %v, err %v", rs, err)
			}
			if fn.Dials() != 1 {
				t.Fatalf("dials = %d, want 1: the oversized request killed the connection", fn.Dials())
			}
		})
	}
}

// TestOversizedReplyAnswered: a result the server cannot frame comes back
// as an INTERNAL error reply instead of as silence.
func TestOversizedReplyAnswered(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ref := srv.Register("big", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "huge" {
			return []wire.Value{wire.Bytes(make([]byte, wire.MaxFrameSize+1))}, nil
		}
		return args, nil
	}))
	client := NewClient(TCPNetwork{})
	t.Cleanup(func() { _ = client.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = client.Invoke(ctx, ref, "huge")
	if !IsRemoteCode(err, CodeInternal) {
		t.Fatalf("err = %v, want a RemoteError carrying %s", err, CodeInternal)
	}
	if rs, err := client.Invoke(ctx, ref, "echo", wire.Int(7)); err != nil || len(rs) != 1 || rs[0].Num() != 7 {
		t.Fatalf("connection unusable after the oversized reply: %v, err %v", rs, err)
	}
}

// BenchmarkFrameBatchAddFlush is the batcher's steady state without
// sockets or timers in the way. One op is one whole batch — eight 4 KiB
// frames into a 32 KiB batch over a discarding conn, the eighth flushing
// inline — so a buffer regrown per batch (4 → 8 → 16 → 32 → 64 KiB) shows
// as 5 allocs/op where the pooled buffer costs 0.
func BenchmarkFrameBatchAddFlush(b *testing.B) {
	batch, _, flushes := newSinkBatch(&sinkConn{}, DefaultBatchBytes, nil)
	frame := testFrame(0, 'f', 4096)
	b.SetBytes(8 * int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			if err := batch.add(frame); err != nil {
				b.Fatal(err)
			}
		}
	}
	if got := flushes.Load(); got != uint64(b.N) {
		b.Fatalf("%d flushes for %d batches", got, b.N)
	}
}
