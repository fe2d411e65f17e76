package orb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"
)

// ErrInjectedFault marks failures manufactured by a FaultNetwork, so tests
// can tell injected faults from real ones.
var ErrInjectedFault = errors.New("orb: injected fault")

// FaultNetwork wraps another Network and injects transport faults on the
// dial side: refused dials, dial latency, per-read latency, and severing a
// connection after a number of frames or bytes have been read. It is the
// chaos harness behind the robustness tests and bench E9; with no faults
// armed it adds one mutex acquisition per Dial and passes connections
// through untouched, so the steady-state overhead is ~zero.
//
// Listen passes through to the inner network: faults are injected on the
// client side of a connection, where the ORB's retry layer must absorb
// them. Name also passes through, so a client dialing through a
// FaultNetwork resolves the same endpoint strings servers advertise.
type FaultNetwork struct {
	inner Network

	mu          sync.Mutex
	failDials   int           // next N dials fail
	dialDelay   time.Duration // added latency per dial
	readDelay   time.Duration // added latency per Read on new conns
	severFrames int           // one-shot: next conn severed after N read frames
	severBytes  int           // one-shot: next conn severed after N read bytes
	dials       int           // total Dial attempts (including failed)
}

var _ Network = (*FaultNetwork)(nil)

// NewFaultNetwork wraps inner with a fault injector (no faults armed).
func NewFaultNetwork(inner Network) *FaultNetwork {
	return &FaultNetwork{inner: inner}
}

// Name implements Network.
func (f *FaultNetwork) Name() string { return f.inner.Name() }

// Listen implements Network, passing through to the inner network.
func (f *FaultNetwork) Listen(addr string) (Listener, error) { return f.inner.Listen(addr) }

// FailNextDials arms the next n dials to fail with ErrInjectedFault.
func (f *FaultNetwork) FailNextDials(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failDials = n
}

// SetDialDelay adds fixed latency to every subsequent dial.
func (f *FaultNetwork) SetDialDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dialDelay = d
}

// SetReadDelay adds fixed latency to every Read on subsequently dialed
// connections (delayed replies, from the client's point of view).
func (f *FaultNetwork) SetReadDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readDelay = d
}

// SeverNextConnAfterFrames arms a one-shot fault: the next dialed
// connection is severed (closed, reads failing) once n complete frames
// have been read from it.
func (f *FaultNetwork) SeverNextConnAfterFrames(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.severFrames = n
}

// SeverNextConnAfterBytes arms a one-shot fault: the next dialed
// connection is severed once n bytes have been read from it — cutting a
// reply mid-frame when n falls inside one.
func (f *FaultNetwork) SeverNextConnAfterBytes(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.severBytes = n
}

// Dials returns the total number of Dial attempts observed (including
// injected failures), for asserting retry behaviour.
func (f *FaultNetwork) Dials() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

// Dial implements Network, applying armed faults.
func (f *FaultNetwork) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	f.dials++
	fail := false
	if f.failDials > 0 {
		f.failDials--
		fail = true
	}
	delay := f.dialDelay
	readDelay := f.readDelay
	severFrames, severBytes := f.severFrames, f.severBytes
	if !fail {
		f.severFrames, f.severBytes = 0, 0 // one-shot knobs consumed by this conn
	}
	f.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return nil, fmt.Errorf("%w: dial %s dropped", ErrInjectedFault, addr)
	}
	c, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	if readDelay == 0 && severFrames == 0 && severBytes == 0 {
		return c, nil
	}
	return &faultConn{Conn: c, readDelay: readDelay, severFrames: severFrames, severBytes: severBytes}, nil
}

// faultConn is a net.Conn applying per-connection read faults. It parses
// the ORB's 4-byte length-prefixed framing on the read stream to count
// complete frames for frame-granular severing.
type faultConn struct {
	net.Conn
	readDelay   time.Duration
	severFrames int
	severBytes  int

	mu        sync.Mutex
	readBytes int
	frames    int
	frameRem  int    // payload bytes remaining in the current frame
	hdr       []byte // partially accumulated 4-byte length header
	severed   bool
}

// Read implements net.Conn.
func (fc *faultConn) Read(p []byte) (int, error) {
	if fc.readDelay > 0 {
		time.Sleep(fc.readDelay)
	}
	fc.mu.Lock()
	if fc.severed {
		fc.mu.Unlock()
		return 0, fmt.Errorf("%w: connection severed", ErrInjectedFault)
	}
	limit := len(p)
	if fc.severBytes > 0 {
		rem := fc.severBytes - fc.readBytes
		if rem <= 0 {
			fc.sever()
			return 0, fmt.Errorf("%w: connection severed after %d bytes", ErrInjectedFault, fc.severBytes)
		}
		if limit > rem {
			limit = rem
		}
	}
	if fc.severFrames > 0 && fc.frames >= fc.severFrames {
		fc.sever()
		return 0, fmt.Errorf("%w: connection severed after %d frames", ErrInjectedFault, fc.severFrames)
	}
	fc.mu.Unlock()

	n, err := fc.Conn.Read(p[:limit])
	fc.mu.Lock()
	fc.readBytes += n
	fc.observeFrames(p[:n])
	fc.mu.Unlock()
	return n, err
}

// SyscallConn forwards the descriptor: a client keeps its caller-reads path.
func (fc *faultConn) SyscallConn() (syscall.RawConn, error) {
	if sc, ok := fc.Conn.(syscall.Conn); ok {
		return sc.SyscallConn()
	}
	return nil, errors.ErrUnsupported
}

// sever closes the underlying connection; called with fc.mu held, which
// it releases.
func (fc *faultConn) sever() {
	fc.severed = true
	fc.mu.Unlock()
	_ = fc.Conn.Close()
}

// observeFrames advances the frame parser over b (called with fc.mu held).
func (fc *faultConn) observeFrames(b []byte) {
	for len(b) > 0 {
		if fc.frameRem == 0 && len(fc.hdr) < 4 {
			take := 4 - len(fc.hdr)
			if take > len(b) {
				take = len(b)
			}
			fc.hdr = append(fc.hdr, b[:take]...)
			b = b[take:]
			if len(fc.hdr) == 4 {
				fc.frameRem = int(binary.BigEndian.Uint32(fc.hdr))
				fc.hdr = fc.hdr[:0]
				if fc.frameRem == 0 {
					fc.frames++
				}
			}
			continue
		}
		take := fc.frameRem
		if take > len(b) {
			take = len(b)
		}
		fc.frameRem -= take
		b = b[take:]
		if fc.frameRem == 0 {
			fc.frames++
		}
	}
}
