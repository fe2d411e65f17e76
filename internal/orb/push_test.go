package orb

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"autoadapt/internal/wire"
)

// closeWatcher is an EventReader that counts the events it reads and
// those it is still reading once the test has marked its subscription
// closed. It lingers over each, so that a Close that did not wait for a
// read under way would return in the middle of one.
type closeWatcher struct {
	closed, read, late atomic.Int64
}

func (w *closeWatcher) ReadEvent(d *wire.Decoder, n int) error {
	for i := 0; i < n; i++ {
		if err := d.Skip(0); err != nil {
			return err
		}
	}
	w.read.Add(1)
	time.Sleep(20 * time.Microsecond)
	if w.closed.Load() != 0 {
		w.late.Add(1)
	}
	return nil
}

func (w *closeWatcher) EndEvents(error) {}

// TestNoEventReadAfterClose: a servant pushes as fast as it can while the
// subscriber closes. Once Close has returned, the reader is not reading
// and is never called again, on either transport, though events keep
// arriving until the server reads the unsubscribe.
func TestNoEventReadAfterClose(t *testing.T) {
	for _, tr := range []struct {
		name string
		nw   Network
		addr string
	}{{"tcp", TCPNetwork{}, "127.0.0.1:0"}, {"inproc", NewInprocNetwork(), "close-race"}} {
		t.Run(tr.name, func(t *testing.T) {
			src, _, client, ref := newPushPair(t, tr.nw, tr.addr)
			var w closeWatcher
			sub, err := client.Subscribe(context.Background(), ref, "load", &w)
			if err != nil {
				t.Fatal(err)
			}
			sink := src.sink("load")
			pushed := make(chan error, 1)
			go func() {
				for {
					if err := sink.Push(wire.String("LoadIncrease"), wire.Int(1)); err != nil {
						pushed <- err
						return
					}
				}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for w.read.Load() < 100 {
				if time.Now().After(deadline) {
					t.Fatalf("%d events read, want 100 before closing", w.read.Load())
				}
				time.Sleep(100 * time.Microsecond)
			}
			if err := sub.Close(); err != nil {
				t.Fatal(err)
			}
			w.closed.Store(1)
			select {
			case err := <-pushed:
				if !errors.Is(err, ErrSubscriptionClosed) {
					t.Fatalf("push ended with %v, want ErrSubscriptionClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the server never read the unsubscribe")
			}
			if n := w.late.Load(); n != 0 {
				t.Fatalf("%d events read after Close returned", n)
			}
		})
	}
}

// refusingReader refuses every event.
type refusingReader struct{ *eventQueue }

func (refusingReader) ReadEvent(*wire.Decoder, int) error { return errors.New("not mine") }

// TestRefusedEventIsDropped: an event its reader refuses is dropped and
// counted, and the connection carries on; a malformed one closes it.
func TestRefusedEventIsDropped(t *testing.T) {
	src, srv, client, ref := newPushPair(t, NewInprocNetwork(), "refuse")
	echo := srv.Register("echo", "", echoServant())
	r := refusingReader{newEventQueue()}
	if _, err := client.Subscribe(context.Background(), ref, "load", r); err != nil {
		t.Fatal(err)
	}
	if err := src.sink("load").Push(wire.Int(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.Stats().EventsDropped != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("EventsDropped = %d, want 1", client.Stats().EventsDropped)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := client.Invoke(context.Background(), echo, "echo", wire.Int(2)); err != nil {
		t.Fatalf("call after a refused event: %v", err)
	}
	if st := client.Stats(); st.EventsPushed != 0 {
		t.Fatalf("EventsPushed = %d, want 0", st.EventsPushed)
	}

	// A value tag no decoder knows: the stream position is lost.
	if err := src.sink("load").(interface {
		PushEncoded(int, []byte) error
	}).PushEncoded(1, []byte{0x7f}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-r.ended:
		if err == nil {
			t.Fatal("the stream ended without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a malformed event left the connection open")
	}
}
