package orb

import (
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pipe is one end of the synchronous in-process conn InprocNetwork dials,
// with net.Pipe's semantics and errors. There is no buffer: a Write returns
// once the peer's Reads have taken every byte, so a peer that stops reading
// stalls its writer until the write deadline. Writes never interleave.
//
// Each direction is a lane. The first of a Read and a Write to reach it
// parks its buffer there; the second copies between the two buffers under
// the lane's lock and wakes the first, so a frame costs one copy and one
// wake. A Write that filled a waiting Read then yields, so the reader
// handles the frame before the writer runs on, as when the writer waited.
//
// A deadline is a stored value, so Set*Deadline allocates nothing, and a
// call reads the clock only if its direction has one. A parked call arms
// its direction's one reusable timer and sleeps on its wake channel, which
// the peer, a Set*Deadline, the timer and Close poke; it then checks
// everything again. The lane's lock is never held across the sleep.
type pipe struct {
	out    lane // this end's writes
	peer   *pipe
	closed atomic.Bool
	rd, wr pipeDeadline
}

// lane is one direction: at most one Read and one Write wait on it, since
// each direction's call holds its calls mutex.
type lane struct {
	mu   sync.Mutex
	r, w waiter
}

// waiter is a parked call. Its peer clears waiting once it is served.
type waiter struct {
	waiting bool
	buf     []byte // a Read's space or a Write's bytes
	n       int    // how much of buf the peer filled or took
}

// pipeDeadline is one direction's deadline.
type pipeDeadline struct {
	calls sync.Mutex    // held by the direction's call, which owns timer
	timer *time.Timer   // pokes at the deadline
	at    atomic.Int64  // UnixNano; 0: none
	wake  chan struct{} // capacity 1: a poke
}

// newPipe returns the two ends of a synchronous in-process conn.
func newPipe() (*pipe, *pipe) {
	a, b := &pipe{}, &pipe{}
	a.peer, b.peer = b, a
	wake := func() chan struct{} { return make(chan struct{}, 1) }
	a.rd.wake, a.wr.wake, b.rd.wake, b.wr.wake = wake(), wake(), wake(), wake()
	return a, b
}

func (d *pipeDeadline) poke() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

func (d *pipeDeadline) stop() {
	if d.timer != nil {
		d.timer.Stop()
	}
}

// Read implements net.Conn: it takes from a Write parked on the peer's lane,
// or parks b there for a Write to fill.
func (p *pipe) Read(b []byte) (int, error) {
	d, l := &p.rd, &p.peer.out
	d.calls.Lock()
	defer d.calls.Unlock()
	left, err := p.check(d)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	if w := &l.w; w.waiting {
		n := copy(b, w.buf[w.n:])
		w.n += n
		if w.waiting = w.n < len(w.buf); !w.waiting { // a zero-length Write is taken too
			p.peer.wr.poke()
		}
		l.mu.Unlock()
		return n, nil
	}
	l.r = waiter{waiting: true, buf: b}
	l.mu.Unlock()
	return p.park(d, l, &l.r, left)
}

// Write implements net.Conn: it fills a Read parked on p's lane, or parks
// what is left of b there for Reads to take. Like net.Pipe's, it meets a
// Read at least once, so a zero-length Write waits for one.
func (p *pipe) Write(b []byte) (n int, err error) {
	d, l := &p.wr, &p.out
	d.calls.Lock() // the whole of b goes together
	defer d.calls.Unlock()
	for once := true; once || len(b) > 0; once = false {
		left, err := p.check(d)
		if err != nil {
			return n, err
		}
		l.mu.Lock()
		if r := &l.r; r.waiting {
			nw := copy(r.buf, b)
			r.n, r.waiting = nw, false
			p.peer.rd.poke()
			l.mu.Unlock()
			runtime.Gosched() // the reader runs first, as if this Write had parked
			b, n = b[nw:], n+nw
			continue
		}
		l.w = waiter{waiting: true, buf: b}
		l.mu.Unlock()
		nw, err := p.park(d, l, &l.w, left)
		return n + nw, err
	}
	return n, nil
}

// park sleeps until the peer serves w, and returns how many bytes it moved.
// A Close or a passed deadline ends the wait first, with the bytes moved so
// far, unless the peer has served w by then. left is check's result.
func (p *pipe) park(d *pipeDeadline, l *lane, w *waiter, left time.Duration) (int, error) {
	for {
		switch {
		case left == 0:
			d.stop()
		case d.timer == nil:
			d.timer = time.AfterFunc(left, d.poke)
		default:
			d.timer.Reset(left)
		}
		<-d.wake // a tick left armed by a failed call lands here too
		var err error
		left, err = p.check(d)
		l.mu.Lock()
		n, served := w.n, !w.waiting
		if served || err != nil {
			*w = waiter{}
		}
		l.mu.Unlock()
		if served {
			d.stop()
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// check makes net.Pipe's checks for a call on d, one of p's directions: a
// closed end, then a passed deadline. It reads the clock only if d has a
// deadline, and returns how long is left of it (0: no deadline).
func (p *pipe) check(d *pipeDeadline) (time.Duration, error) {
	switch {
	case p.closed.Load() || d == &p.wr && p.peer.closed.Load():
		return 0, io.ErrClosedPipe
	case p.peer.closed.Load():
		return 0, io.EOF
	}
	at := d.at.Load()
	if at == 0 {
		return 0, nil
	}
	if left := time.Duration(at - time.Now().UnixNano()); left > 0 {
		return left, nil
	}
	op := "read"
	if d == &p.wr {
		op = "write"
	}
	return 0, &net.OpError{Op: op, Net: "pipe", Err: os.ErrDeadlineExceeded}
}

// setDeadline stores t in each of ds and pokes its call if one waits.
func (p *pipe) setDeadline(t time.Time, ds ...*pipeDeadline) error {
	if !p.peerAlive() {
		return io.ErrClosedPipe
	}
	var at int64 // none; else UnixNano, saturated by Sub, and 1 for any time before 1970
	if !t.IsZero() {
		at = max(int64(t.Sub(time.Unix(0, 0))), 1)
	}
	for _, d := range ds {
		d.at.Store(at)
		d.poke()
	}
	return nil
}

// Close implements net.Conn: it wakes the calls waiting on either end.
func (p *pipe) Close() error {
	if !p.closed.Swap(true) {
		for _, d := range [4]*pipeDeadline{&p.rd, &p.wr, &p.peer.rd, &p.peer.wr} {
			d.poke()
		}
	}
	return nil
}

// peerAlive implements idleProber: neither end is closed. The rest is net.Conn.
func (p *pipe) peerAlive() bool                    { return !p.closed.Load() && !p.peer.closed.Load() }
func (p *pipe) SetDeadline(t time.Time) error      { return p.setDeadline(t, &p.rd, &p.wr) }
func (p *pipe) SetReadDeadline(t time.Time) error  { return p.setDeadline(t, &p.rd) }
func (p *pipe) SetWriteDeadline(t time.Time) error { return p.setDeadline(t, &p.wr) }
func (*pipe) LocalAddr() net.Addr                  { return pipeAddr{} }
func (*pipe) RemoteAddr() net.Addr                 { return pipeAddr{} }

type pipeAddr struct{} // zero-size, as net.Pipe's

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
