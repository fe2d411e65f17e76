package orb

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/idl"
	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// Borrowed requests on the server: however a request leaves the server, it
// is released (its borrowed count returns to zero), and a servant that
// keeps a long string arg without wire.Keep reads poison under -race.

// bigArg is long enough to be a view into its request's pooled buffer.
var bigArg = wire.String(strings.Repeat("b", 4096))

// borrowWorld serves "svc" (echo, park until opened, panic and the oneway
// note), "rw" (a ResultWriter echo) and "calc" (IDL-checked).
type borrowWorld struct {
	nw      Network
	srv     *Server
	client  *Client
	svc     wire.ObjRef
	entered chan struct{}
	gate    chan struct{}
	noted   chan struct{}
	open    func()
}

type echoWriter struct{ ServantFunc }

func (echoWriter) AppendResults(dst []byte, op string, args []wire.Value) ([]byte, bool, error) {
	dst = wire.AppendValueCount(dst, len(args))
	for _, a := range args {
		var err error
		if dst, err = wire.AppendValue(dst, a); err != nil {
			return nil, true, err
		}
	}
	return dst, true, nil
}

func newBorrowWorld(t *testing.T, nw Network, addr string, opts ServerOptions) *borrowWorld {
	t.Helper()
	w := &borrowWorld{nw: nw, entered: make(chan struct{}, 16), gate: make(chan struct{}), noted: make(chan struct{}, 1)}
	var once sync.Once
	w.open = func() { once.Do(func() { close(w.gate) }) }
	opts.Network, opts.Address = nw, addr
	srv, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	w.srv = srv
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(w.open) // runs first
	svc := ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		switch op {
		case "park":
			w.entered <- struct{}{}
			<-w.gate
		case "panic":
			panic("servant exploded")
		case "note":
			w.noted <- struct{}{}
		}
		return args, nil
	})
	w.svc = srv.Register("svc", "", svc)
	srv.Register("rw", "", echoWriter{svc})
	srv.Register("calc", "Calc", svc)
	w.client = NewClient(nw)
	t.Cleanup(func() { w.client.Close() })
	return w
}

// parked starts a park call and waits for it to enter the servant.
func (w *borrowWorld) parked(t *testing.T) *Future {
	t.Helper()
	f, err := w.client.InvokeAsync(context.Background(), w.svc, "park", bigArg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("park never entered the servant: stats %+v", w.srv.Stats())
	}
	return f
}

// rawCall writes one request frame on a connection of its own and returns
// the decoded answer.
func (w *borrowWorld) rawCall(t *testing.T, req *wire.Request) *wire.Reply {
	t.Helper()
	conn, err := w.nw.Dial(strings.SplitN(w.srv.Endpoint(), "|", 2)[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, err := wire.EncodeRequest(req, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	b, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.DecodeMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	return msg.Rep
}

func waitStat(t *testing.T, w *borrowWorld, what string, ok func(ServerStats) bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !ok(w.srv.Stats()); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%s never showed: stats %+v", what, w.srv.Stats())
		}
	}
}

func waitNoneBorrowed(t *testing.T, w *borrowWorld) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); w.srv.stats.borrowed.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d borrowed messages not released, want 0", w.srv.stats.borrowed.Load())
		}
	}
}

var borrowExits = []struct {
	name string
	opts ServerOptions
	run  func(t *testing.T, w *borrowWorld)
}{
	{"reply", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		rs, err := w.client.Invoke(context.Background(), w.svc, "echo", bigArg, wire.Int(1))
		if err != nil || len(rs) != 2 || !rs[0].Equal(bigArg) {
			t.Fatalf("echo: %d results, %v", len(rs), err)
		}
	}},
	{"oneway", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		if err := w.client.InvokeOneway(w.svc, "note", bigArg); err != nil {
			t.Fatal(err)
		}
		<-w.noted
	}},
	{"expired at read", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		rep := w.rawCall(t, &wire.Request{ID: 1, ObjectKey: "svc", Operation: "echo",
			Args: []wire.Value{bigArg}, Deadline: time.Now().Add(-time.Second).UnixNano()})
		if rep.ErrCode != CodeDeadline {
			t.Fatalf("reply %+v, want %s", rep, CodeDeadline)
		}
	}},
	{"expired in queue", ServerOptions{MaxConcurrent: 1}, func(t *testing.T, w *borrowWorld) {
		w.parked(t) // the connection's slot
		w.parked(t) // the one pool worker
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := w.client.InvokeAsync(ctx, w.svc, "echo", bigArg); err != nil {
			t.Fatal(err)
		}
		waitStat(t, w, "a queued request", func(s ServerStats) bool { return s.QueueDepth == 1 })
		<-ctx.Done()
		w.open()
		waitStat(t, w, "the dispatch backstop", func(s ServerStats) bool { return s.ExpiredShed == 1 })
	}},
	{"shed", ServerOptions{MaxConcurrent: 1, MaxQueue: 1}, func(t *testing.T, w *borrowWorld) {
		w.parked(t)
		w.parked(t)
		if _, err := w.client.InvokeAsync(context.Background(), w.svc, "echo", bigArg); err != nil {
			t.Fatal(err)
		}
		waitStat(t, w, "a queued request", func(s ServerStats) bool { return s.QueueDepth == 1 })
		if _, err := w.client.Invoke(context.Background(), w.svc, "echo", bigArg); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
		w.open()
	}},
	{"no such object", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		_, err := w.client.Invoke(context.Background(), w.srv.RefFor("nobody"), "echo", bigArg)
		if !IsRemoteCode(err, CodeNoSuchObject) {
			t.Fatalf("err = %v, want %s", err, CodeNoSuchObject)
		}
	}},
	{"idl reject", ServerOptions{Repo: calcRepo()}, func(t *testing.T, w *borrowWorld) {
		_, err := w.client.Invoke(context.Background(), w.srv.RefFor("calc"), "add", bigArg, wire.Int(2))
		if !IsRemoteCode(err, CodeBadParam) {
			t.Fatalf("err = %v, want %s", err, CodeBadParam)
		}
	}},
	{"panic", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		_, err := w.client.Invoke(context.Background(), w.svc, "panic", bigArg)
		if !IsRemoteCode(err, CodeInternal) {
			t.Fatalf("err = %v, want %s", err, CodeInternal)
		}
	}},
	{"result writer", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		rs, err := w.client.Invoke(context.Background(), w.srv.RefFor("rw"), "echo", bigArg)
		if err != nil || len(rs) != 1 || !rs[0].Equal(bigArg) {
			t.Fatalf("echo: %d results, %v", len(rs), err)
		}
	}},
	// A request long enough for views has a buffer of its own, so the
	// reader a rescue starts reads the next one without overwriting the
	// args of the dispatch it took over from.
	{"rescue", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		f := w.parked(t)
		waitStat(t, w, "a rescue", func(s ServerStats) bool { return s.InlineRescues > 0 })
		other := wire.String(strings.Repeat("o", 4096))
		if rs, err := w.client.Invoke(context.Background(), w.svc, "echo", other); err != nil || !rs[0].Equal(other) {
			t.Fatalf("echo beside the rescued dispatch: %v", err)
		}
		w.open()
		if rs, err := f.Result(); err != nil || !rs[0].Equal(bigArg) {
			t.Fatalf("the rescued dispatch's arg changed: %v", err)
		}
	}},
	{"severed", ServerOptions{}, func(t *testing.T, w *borrowWorld) {
		w.parked(t)
		w.client.Close()
		w.open()
	}},
	{"close with queued", ServerOptions{MaxConcurrent: 1}, func(t *testing.T, w *borrowWorld) {
		w.parked(t)
		w.parked(t)
		for range 3 {
			if _, err := w.client.InvokeAsync(context.Background(), w.svc, "echo", bigArg); err != nil {
				t.Fatal(err)
			}
		}
		waitStat(t, w, "queued requests", func(s ServerStats) bool { return s.QueueDepth == 3 })
		closed := make(chan struct{})
		go func() { w.srv.Close(); close(closed) }()
		time.Sleep(10 * time.Millisecond)
		w.open()
		<-closed
	}},
}

func calcRepo() *idl.Repository {
	repo := idl.NewRepository()
	if err := repo.LoadIDL(`interface Calc { double add(in double a, in double b); };`); err != nil {
		panic(err)
	}
	return repo
}

// TestBorrowReleasedOnEveryExit: pooled requests return to baseline after
// every way the server answers or drops one, on TCP and in process.
func TestBorrowReleasedOnEveryExit(t *testing.T) {
	for _, nw := range []struct {
		name string
		nw   func() Network
		addr string
	}{
		{"tcp", func() Network { return TCPNetwork{} }, "127.0.0.1:0"},
		{"inproc", func() Network { return NewInprocNetwork() }, "borrow"},
	} {
		for _, tc := range borrowExits {
			t.Run(nw.name+"/"+tc.name, func(t *testing.T) {
				w := newBorrowWorld(t, nw.nw(), nw.addr, tc.opts)
				tc.run(t, w)
				waitNoneBorrowed(t, w)
			})
		}
	}
}

// TestBorrowKeptArgReadsPoison: a servant that keeps a long string arg past
// its return without wire.Keep holds a view into a released buffer, which
// -race builds poison; the Keep copy is intact.
func TestBorrowKeptArgReadsPoison(t *testing.T) {
	if !testutil.RaceEnabled {
		t.Skip("released buffers are poisoned only under -race")
	}
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "borrow-poison"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var kept, copied string
	ref := srv.Register("svc", "", ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		if op == "keep" {
			kept, copied = args[0].Str(), wire.Keep(args[0].Str())
		}
		return nil, nil
	}))
	client := NewClient(n)
	defer client.Close()
	arg := strings.Repeat("k", 2048)
	if _, err := client.Invoke(context.Background(), ref, "keep", wire.String(arg)); err != nil {
		t.Fatal(err)
	}
	// A second call follows the first's release. It is small, so it does
	// not take the poisoned buffer back from the pool and fill it again.
	if _, err := client.Invoke(context.Background(), ref, "sync"); err != nil {
		t.Fatal(err)
	}
	if copied != arg {
		t.Fatalf("the Keep copy changed: %.16q...", copied)
	}
	if kept == arg || strings.Trim(kept, kept[:1]) != "" {
		t.Fatalf("the kept view reads %.16q..., want one poison byte throughout", kept)
	}
}

// TestAllocGuardServerDispatch: the server side of a small request of up
// to four args allocates nothing. The client here writes a prebuilt frame
// and reads the reply's bytes, allocating nothing itself.
func TestAllocGuardServerDispatch(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops a quarter of what it is given under -race")
	}
	n := NewInprocNetwork()
	srv, err := NewServer(ServerOptions{Network: n, Address: "alloc-server"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Register("echo", "", echoGuardServant())
	conn, err := n.Dial("alloc-server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fb := &wire.FrameBuffer{B: make([]byte, 4)}
	if fb.B, err = wire.AppendRequest(fb.B, &wire.Request{ID: 1, ObjectKey: "echo", Operation: "echo",
		Args: []wire.Value{wire.Int(1), wire.String("two"), wire.Bool(true), wire.Nil()}}, false); err != nil {
		t.Fatal(err)
	}
	frame, err := fb.Frame()
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	reply := make([]byte, 256)
	call := func() {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply[:binary.BigEndian.Uint32(hdr[:])]); err != nil {
			t.Fatal(err)
		}
	}
	call() // warm the pools and the intern table
	if allocs := testing.AllocsPerRun(500, call); allocs > 0 {
		t.Fatalf("server dispatch of a small request: %.1f allocs/op, want 0", allocs)
	}
}
