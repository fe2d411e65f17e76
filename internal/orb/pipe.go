package orb

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// pipe is one end of the synchronous in-process conn InprocNetwork dials,
// with net.Pipe's semantics and errors. There is no buffer: a Write returns
// once the peer's Reads have taken every byte, so a peer that stops reading
// stalls its writer until the write deadline. Writes never interleave.
//
// A deadline is a stored value, so Set*Deadline allocates nothing. A call
// arms its direction's one reusable timer only when no peer is waiting for
// it. A waiting call sleeps on its direction's wake channel, which a
// Set*Deadline, the timer and Close poke; it then checks everything again.
type pipe struct {
	rx     <-chan []byte // the peer's writes
	rxN    chan<- int    // how much of each one this end took
	tx     chan<- []byte
	txN    <-chan int
	peer   *pipe
	closed atomic.Bool
	rd, wr pipeDeadline
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
	ab, ba, abN, baN := make(chan []byte), make(chan []byte), make(chan int), make(chan int)
	a := &pipe{rx: ba, rxN: baN, tx: ab, txN: abN}
	b := &pipe{rx: ab, rxN: abN, tx: ba, txN: baN, peer: a}
	a.peer = b
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

// Read and Write implement net.Conn; handOff does their waiting.
func (p *pipe) Read(b []byte) (int, error) {
	p.rd.calls.Lock()
	defer p.rd.calls.Unlock()
	return p.handOff(&p.rd, p.rx, nil, b)
}

func (p *pipe) Write(b []byte) (n int, err error) {
	p.wr.calls.Lock() // the whole of b goes together
	defer p.wr.calls.Unlock()
	for nw := -1; err == nil && (nw < 0 || len(b) > 0); b, n = b[nw:], n+nw {
		nw, err = p.handOff(&p.wr, nil, p.tx, b) // at least once, as net.Pipe
	}
	return n, err
}

// handOff meets the peer once: it takes a write into b from rx, or gives b
// to a read on tx (the other is nil), and returns the bytes moved. After
// net.Pipe's checks it tries a peer already waiting, and arms d's timer
// only if it must wait itself. The caller holds d.calls.
func (p *pipe) handOff(d *pipeDeadline, rx <-chan []byte, tx chan<- []byte, b []byte) (int, error) {
	for waiting := false; ; waiting = true {
		at, now := d.at.Load(), time.Now().UnixNano()
		switch {
		case p.closed.Load() || tx != nil && p.peer.closed.Load():
			return 0, io.ErrClosedPipe
		case p.peer.closed.Load():
			return 0, io.EOF
		case at != 0 && at <= now:
			op := "read"
			if tx != nil {
				op = "write"
			}
			return 0, &net.OpError{Op: op, Net: "pipe", Err: os.ErrDeadlineExceeded}
		case !waiting:
			select {
			case bw := <-rx:
				return p.took(b, bw), nil
			case tx <- b:
				return <-p.txN, nil
			default:
			}
		}
		switch {
		case at == 0:
			d.stop()
		case d.timer == nil:
			d.timer = time.AfterFunc(time.Duration(at-now), d.poke)
		default:
			d.timer.Reset(time.Duration(at - now))
		}
		select {
		case bw := <-rx:
			d.stop()
			return p.took(b, bw), nil
		case tx <- b:
			d.stop()
			return <-p.txN, nil
		case <-d.wake: // a tick left armed by a failed call lands here too
		}
	}
}

// took copies the peer's write bw into b and tells the peer how much.
func (p *pipe) took(b, bw []byte) int {
	n := copy(b, bw)
	p.rxN <- n
	return n
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
