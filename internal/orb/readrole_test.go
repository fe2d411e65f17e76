package orb

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// Tests for the two-goroutine round trip: a synchronous caller reads its own
// reply (the client's read role), and the server's reader dispatches a
// request itself when nothing is queued behind it, under the watchdog that
// rescues the connection from a servant that blocks. CI runs them with
// -race -count=20 to shake out handoff races.

// TestReadRoleMixedCallers mixes every kind of waiter on one TCP
// connection: uncancellable callers (which take the read role), cancellable
// ones cancelled at random (which need a background reader), an
// InvokeAsync window, and a subscription opened and closed mid-run. Every
// call must complete exactly once with its own reply.
func TestReadRoleMixedCallers(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t, 0)
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ref := srv.Register("echo", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "slow" {
			time.Sleep(time.Duration(args[0].Num()) % 300 * time.Microsecond)
		}
		return args, nil
	}))
	src := newPushSource()
	events := srv.Register("events", "", src)
	client := NewClient(TCPNetwork{})
	// Dial first: a dial is shared by everyone waiting for it, and one that
	// a cancelled caller abandons fails them all (not what this tests).
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(0)); err != nil {
		t.Fatal(err)
	}

	const callers, rounds = 16, 60
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			check := func(what string, rs []wire.Value, want int) bool {
				if len(rs) != 1 || int(rs[0].Num()) != want {
					errs <- errors.New(what + ": reply belongs to another call")
					return false
				}
				return true
			}
			for r := 0; r < rounds; r++ {
				id := g*1000000 + r*100
				switch g % 4 {
				case 0, 1: // uncancellable: takes the read role when it is free
					rs, err := client.Invoke(context.Background(), ref, "slow", wire.Int(id))
					if err != nil {
						errs <- err
						return
					}
					if !check("sync", rs, id) {
						return
					}
				case 2: // cancellable, cancelled at a random point (no deadline:
					// a write past its deadline would take the connection down)
					ctx, cancel := context.WithCancel(context.Background())
					stop := time.AfterFunc(time.Duration(rng.Intn(400))*time.Microsecond, cancel)
					rs, err := client.Invoke(ctx, ref, "slow", wire.Int(id))
					stop.Stop()
					cancel()
					if err == nil {
						if !check("cancellable", rs, id) {
							return
						}
					} else if !errors.Is(err, context.Canceled) {
						errs <- err
						return
					}
				case 3: // an InvokeAsync window of four
					var futs [4]*Future
					for i := range futs {
						var err error
						if futs[i], err = client.InvokeAsync(context.Background(), ref, "slow", wire.Int(id+i)); err != nil {
							errs <- err
							return
						}
					}
					for i, f := range futs {
						rs, err := f.Result()
						if err != nil {
							errs <- err
							return
						}
						if !check("async", rs, id+i) {
							return
						}
					}
				}
			}
		}(g)
	}

	// A subscription opened and closed while the callers run.
	time.Sleep(5 * time.Millisecond)
	sub, err := client.Subscribe(context.Background(), events, "load")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := src.sink("load").Push(wire.Int(i)); err != nil {
			t.Fatalf("Push #%d: %v", i, err)
		}
		select {
		case ev := <-sub.Events():
			if len(ev) != 1 || int(ev[0].Num()) != i {
				t.Fatalf("event %d = %v", i, ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("event %d never arrived", i)
		}
	}
	if err := sub.Close(); err != nil {
		t.Fatalf("unsubscribe: %v", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	_ = client.Close()
	_ = srv.Close()
	checkLeaks()
}

// TestReadRoleHolderDoesNotBlockCancellable: an uncancellable caller holds
// the read role while the server stalls its call. A cancellable sibling
// whose reply never comes must still return at its deadline, and one whose
// reply does come must get it through the holder.
func TestReadRoleHolderDoesNotBlockCancellable(t *testing.T) {
	g, client, ref := newGatedPair(t, ClientOptions{})
	holder := make(chan error, 1)
	go func() {
		_, err := client.Invoke(context.Background(), ref, "wait")
		holder <- err
	}()
	// Wait until the holder's request is in: the role is its own.
	cc, err := client.conn(context.Background(), ref.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cc.mu.Lock()
		held := cc.reading && len(cc.pending) == 1 && cc.background == 0
		cc.mu.Unlock()
		if held {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the uncancellable caller never took the read role")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := client.Invoke(ctx, ref, "wait"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled cancellable call: err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stalled cancellable call returned after %v, its deadline was 50ms", d)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if rs, err := client.Invoke(ctx2, ref, "echo", wire.String("through the holder")); err != nil ||
		len(rs) != 1 || rs[0].Str() != "through the holder" {
		t.Fatalf("cancellable echo beside the holder = %v, %v", rs, err)
	}
	g.open()
	if err := <-holder; err != nil {
		t.Fatalf("holder: %v", err)
	}
}

// TestReadRoleIdleProbeRacesRegister: an uncancellable caller takes the read
// role of an idle connection while another goroutine looks the connection
// up, which peeks it. The peek must never wait behind the caller's read —
// parked there until a stalled reply came, it would hold up the lookup.
func TestReadRoleIdleProbeRacesRegister(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := make(chan struct{})
	ref := srv.Register("hold", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		<-release
		return args, nil
	}))
	client := NewClient(TCPNetwork{})
	defer client.Close()
	cc, err := client.conn(context.Background(), ref.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cc.mu.Lock()
		cc.idleSince = time.Now().Add(-time.Hour) // the next lookup peeks
		cc.mu.Unlock()
		start := make(chan struct{})
		held, probed := make(chan error, 1), make(chan error, 1)
		go func() {
			<-start
			_, err := client.Invoke(context.Background(), ref, "hold", wire.Int(i))
			held <- err
		}()
		go func() {
			<-start
			_, err := client.conn(context.Background(), ref.Endpoint)
			probed <- err
		}()
		close(start)
		select {
		case err := <-probed:
			if err != nil {
				t.Fatalf("round %d: lookup: %v", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("round %d: the idle peek waited behind the read role's holder", i)
		}
		release <- struct{}{} // lets a stuck peek finish too
		if err := <-held; err != nil {
			t.Fatalf("round %d: holder: %v", i, err)
		}
		if t.Failed() {
			return
		}
	}
}

// TestReadRoleSurvivesFailedSend: an uncancellable caller on an idle
// connection holds the read role before it sends. If the send fails the
// role must move on: to the next caller when the frame was refused
// locally, and to nobody — so Close returns — when the write killed the
// connection.
func TestReadRoleSurvivesFailedSend(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(TCPNetwork{})
	defer client.Close()
	huge := make([]byte, wire.MaxFrameSize+1)
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Bytes(huge)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized call: err = %v, want ErrFrameTooLarge", err)
	}
	if rs, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1)); err != nil || rs[0].Num() != 1 {
		t.Fatalf("call after the refused frame = %v, %v", rs, err)
	}

	// A peer that never reads: the write times out and kills the connection.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		if c, err := l.Accept(); err == nil {
			<-done
			c.Close()
		}
	}()
	stuck := NewClientOpts(ClientOptions{Networks: []Network{TCPNetwork{}}, WriteTimeout: 50 * time.Millisecond})
	mute := wire.ObjRef{Endpoint: "tcp|" + l.Addr().String(), Key: "x"}
	if _, err := stuck.Invoke(context.Background(), mute, "op", wire.Bytes(make([]byte, 8<<20))); err == nil {
		t.Fatal("an 8 MiB write to a peer that never reads succeeded")
	}
	closed := make(chan struct{})
	go func() {
		_ = stuck.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung: the connection died with the read role still handed out")
	}
}

// TestIdleConnectionDeathRedialsBeforeWrite: the server closes an idle
// connection and comes back at the same address. Nobody was reading the
// connection, yet the next call must notice the close before writing into
// it and redial — with no retry policy to paper over a failed attempt.
func TestIdleConnectionDeathRedialsBeforeWrite(t *testing.T) {
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ref := srv.Register("echo", "", echoServant())
	client := NewClient(TCPNetwork{})
	defer client.Close()
	if _, err := client.Invoke(context.Background(), ref, "echo", wire.Int(1)); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	time.Sleep(20 * time.Millisecond) // the connection sits idle, closed by its peer

	srv2, err := NewServer(ServerOptions{Network: TCPNetwork{},
		Address: strings.TrimPrefix(ref.Endpoint, "tcp|")})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	srv2.Register("echo", "", echoServant())
	rs, err := client.Invoke(context.Background(), ref, "echo", wire.Int(2))
	if err != nil || len(rs) != 1 || rs[0].Num() != 2 {
		t.Fatalf("first call after the idle connection died = %v, %v", rs, err)
	}
}

// rescueServant blocks "block" until a "later" request has been dispatched.
type rescueServant struct {
	entered chan struct{}
	later   chan struct{}
}

func (r *rescueServant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	switch op {
	case "block":
		r.entered <- struct{}{}
		<-r.later
	case "later":
		close(r.later)
	}
	return args, nil
}

// TestRescueBlockedInlineDispatch: a servant dispatched inline blocks until
// a later request on the same connection has been dispatched. Only a rescue
// can read that request, and it must come within a tick or two.
func TestRescueBlockedInlineDispatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		nw   Network
		addr string
	}{
		{"tcp", TCPNetwork{}, "127.0.0.1:0"},
		{"inproc", NewInprocNetwork(), "rescue"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := testutil.CheckGoroutines(t, 0)
			srv, err := NewServer(ServerOptions{Network: tc.nw, Address: tc.addr})
			if err != nil {
				t.Fatal(err)
			}
			sv := &rescueServant{entered: make(chan struct{}, 1), later: make(chan struct{})}
			ref := srv.Register("svc", "", sv)
			client := NewClient(tc.nw)
			if _, err := client.Invoke(context.Background(), ref, "noop"); err != nil {
				t.Fatal(err) // dial outside the timed part
			}

			start := time.Now()
			blocked := make(chan error, 1)
			go func() {
				_, err := client.Invoke(context.Background(), ref, "block")
				blocked <- err
			}()
			<-sv.entered
			if _, err := client.Invoke(context.Background(), ref, "later"); err != nil {
				t.Fatalf("later: %v", err)
			}
			if err := <-blocked; err != nil {
				t.Fatalf("block: %v", err)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Errorf("blocked inline dispatch released its connection after %v, want < 100ms", d)
			}
			if st := srv.Stats(); st.InlineRescues < 1 || st.InlineDispatches < 2 {
				t.Errorf("stats %+v: want an inline dispatch rescued", st)
			}
			// The connection keeps working, inline again once idle.
			if rs, err := client.Invoke(context.Background(), ref, "echo", wire.Int(7)); err != nil || rs[0].Num() != 7 {
				t.Fatalf("after the rescue = %v, %v", rs, err)
			}
			_ = client.Close()
			_ = srv.Close()
			checkLeaks()
		})
	}
}

// TestRescueThenServerClose closes the server while a rescued dispatch is
// still blocked: Close waits for it as for any dispatch, and nothing —
// reader, worker, watchdog — outlives Close.
func TestRescueThenServerClose(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t, 0)
	srv, err := NewServer(ServerOptions{Network: TCPNetwork{}, Address: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	sv := &rescueServant{entered: make(chan struct{}, 1), later: make(chan struct{})}
	ref := srv.Register("svc", "", sv)
	client := NewClient(TCPNetwork{})
	callDone := make(chan struct{})
	go func() {
		defer close(callDone)
		_, _ = client.Invoke(context.Background(), ref, "block") // fails once the server closes
	}()
	<-sv.entered
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InlineRescues == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("blocked inline dispatch never rescued: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a dispatch was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(sv.later)
	<-closed
	<-callDone
	_ = client.Close()
	checkLeaks()
}
