//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package orb

import (
	"context"
	"net"
	"testing"
	"testing/synctest"
	"time"

	"autoadapt/internal/wire"
)

// Tests that run the in-process transport inside a synctest bubble, where
// time is fake and moves only when every goroutine of the bubble is
// durably blocked. The conn waits on channels only, so the bubble sees a
// stalled call as blocked and jumps straight to its deadline. Run them
// with GOEXPERIMENT=synctest (Go 1.24); the go 1.22 language version of
// go.mod needs the asynctimerchan=0 line above for bubbled timers.

// TestBubbleStuckPeerWriteTimesOut: a write to a peer that accepted but
// never reads fails after exactly its 50 ms write timeout of bubble time.
func TestBubbleStuckPeerWriteTimesOut(t *testing.T) {
	synctest.Run(func() {
		n := NewInprocNetwork()
		l, err := n.Listen("mute")
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			if conn, err := l.Accept(); err == nil {
				accepted <- conn // held open, never read
			}
		}()
		client := NewClientOpts(ClientOptions{Networks: []Network{n}, WriteTimeout: 50 * time.Millisecond})
		start := time.Now()
		_, err = client.Invoke(context.Background(), wire.ObjRef{Endpoint: "inproc|mute", Key: "x"}, "op")
		elapsed := time.Since(start)
		if err == nil {
			t.Error("an invoke to a peer that never reads succeeded")
		}
		if elapsed != 50*time.Millisecond {
			t.Errorf("the stuck write failed after %v of bubble time, want exactly 50ms", elapsed)
		}
		_ = client.Close()
		_ = (<-accepted).Close()
		_ = l.Close()
	})
}

// TestBubbleInprocInvokes: 100 in-process invokes under one 1 s context
// deadline all succeed, and nothing is left running when Run returns.
func TestBubbleInprocInvokes(t *testing.T) {
	synctest.Run(func() {
		n := NewInprocNetwork()
		srv, err := NewServer(ServerOptions{Network: n, Address: "bubble"})
		if err != nil {
			t.Fatal(err)
		}
		ref := srv.Register("echo", "", echoServant())
		client := NewClient(n)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		for i := 0; i < 100; i++ {
			rs, err := client.Invoke(ctx, ref, "echo", wire.Int(i))
			if err != nil || len(rs) != 1 || rs[0].Num() != float64(i) {
				t.Errorf("invoke %d = %v, %v", i, rs, err)
				break
			}
		}
		cancel()
		_ = client.Close()
		_ = srv.Close()
	})
}

// TestBubblePipeMatchesNetPipe runs the pipe contract in a bubble, so its
// blocked() sleeps and deadlines run on the fake clock. A call that waited
// on anything but a channel would not count as durably blocked, and the
// bubble's clock would stall with it.
func TestBubblePipeMatchesNetPipe(t *testing.T) {
	for _, tc := range pipeContract {
		t.Run(tc.name, func(t *testing.T) {
			synctest.Run(func() { matchNetPipe(t, tc.run) })
		})
	}
}

// TestBubbleAdmissionQueueFullShed runs the admission test's in-process row
// in a bubble, where its polls and timeouts take no wall time.
func TestBubbleAdmissionQueueFullShed(t *testing.T) {
	synctest.Run(func() { testAdmissionQueueFullShed(t, NewInprocNetwork(), "shed") })
}

// TestBubbleServerConnGoroutines runs the goroutine count's in-process row in
// a bubble: once every goroutine of it is blocked, the count is exact.
func TestBubbleServerConnGoroutines(t *testing.T) {
	synctest.Run(func() {
		testServerConnGoroutines(t, NewInprocNetwork(), "idle", func(cond func() bool) bool {
			synctest.Wait()
			return cond()
		})
	})
}
