// Package orb implements the object request broker the infrastructure runs
// on: the CORBA-analog substrate described in DESIGN.md §1.
//
// Clients invoke operations dynamically — Invoke(ref, "op", args...) — with
// no compiled stubs (the DII analog, §II of the paper). Servers register
// servants that implement a single dispatch routine receiving the operation
// name and dynamically typed arguments (the DSI/DIR analog). Object
// references (wire.ObjRef) name servants across the network and may be
// passed as arguments or results, which is how observers hand themselves to
// remote monitors. Oneway invocations elicit no reply, matching the paper's
// oneway notifyEvent.
//
// Two transports are provided: TCP for real deployments and an in-process
// transport, a synchronous in-process conn, for deterministic experiments
// and tests.
package orb

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Network abstracts a transport: a way to listen on and dial string
// addresses. Endpoint strings are "network|address".
type Network interface {
	// Name is the network tag used in endpoint strings (e.g. "tcp").
	Name() string
	// Listen starts accepting connections on addr. For TCP, addr may end
	// in ":0" to pick a free port; Listener.Addr reports the bound one.
	Listen(addr string) (Listener, error)
	// Dial opens a connection to addr.
	Dial(addr string) (net.Conn, error)
}

// Listener accepts transport connections.
type Listener interface {
	Accept() (net.Conn, error)
	Close() error
	Addr() string
}

// ContextDialer is an optional Network extension: transports that can
// abort an in-flight dial when the caller's context ends implement it.
// For transports that cannot, the client falls back to running Dial in a
// helper goroutine and abandoning (closing) the connection if the context
// wins the race.
type ContextDialer interface {
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// dialContext dials addr on n, honoring ctx cancellation even when the
// transport itself blocks.
func dialContext(ctx context.Context, n Network, addr string) (net.Conn, error) {
	if cd, ok := n.(ContextDialer); ok {
		return cd.DialContext(ctx, addr)
	}
	if ctx == nil || ctx.Done() == nil {
		return n.Dial(addr)
	}
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := n.Dial(addr)
		ch <- result{conn, err}
	}()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-ctx.Done():
		go func() { // reap the abandoned dial when it eventually returns
			if r := <-ch; r.conn != nil {
				_ = r.conn.Close()
			}
		}()
		return nil, ctx.Err()
	}
}

// TCPNetwork is the production transport.
type TCPNetwork struct{}

var (
	_ Network       = TCPNetwork{}
	_ ContextDialer = TCPNetwork{}
)

// Name implements Network.
func (TCPNetwork) Name() string { return "tcp" }

// Listen implements Network.
func (TCPNetwork) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb: listen %s: %w", addr, err)
	}
	return tcpListener{l}, nil
}

// Dial implements Network.
func (TCPNetwork) Dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb: dial %s: %w", addr, err)
	}
	return c, nil
}

// DialContext implements ContextDialer.
func (TCPNetwork) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb: dial %s: %w", addr, err)
	}
	return c, nil
}

type tcpListener struct{ l net.Listener }

func (t tcpListener) Accept() (net.Conn, error) { return t.l.Accept() }
func (t tcpListener) Close() error              { return t.l.Close() }
func (t tcpListener) Addr() string              { return t.l.Addr().String() }

// InprocNetwork is an in-process transport: listeners register under string
// names and dialing creates the two ends of a synchronous in-process conn
// (unbuffered, with net.Pipe's semantics; a Write copies a frame straight
// into a waiting Read's buffer; see pipe). All parties must share the same
// InprocNetwork instance. It exists so whole experiments — trader, agents,
// monitors, clients — run in one process with no sockets, deterministically
// and fast.
type InprocNetwork struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

var _ Network = (*InprocNetwork)(nil)

// NewInprocNetwork returns an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{listeners: make(map[string]*inprocListener)}
}

// Name implements Network.
func (*InprocNetwork) Name() string { return "inproc" }

// Listen implements Network.
func (n *InprocNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" {
		return nil, errors.New("orb: inproc listen: empty address")
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("orb: inproc address %q already in use", addr)
	}
	l := &inprocListener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn),
		closed: make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network.
func (n *InprocNetwork) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("orb: inproc dial %q: connection refused", addr)
	}
	client, server := newPipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		_ = client.Close()
		_ = server.Close()
		return nil, fmt.Errorf("orb: inproc dial %q: connection refused", addr)
	}
}

type inprocListener struct {
	net       *InprocNetwork
	addr      string
	accept    chan net.Conn
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// SplitEndpoint splits "network|address" into its parts.
func SplitEndpoint(endpoint string) (network, addr string, err error) {
	i := strings.Index(endpoint, "|")
	if i <= 0 || i == len(endpoint)-1 {
		return "", "", fmt.Errorf("orb: malformed endpoint %q", endpoint)
	}
	return endpoint[:i], endpoint[i+1:], nil
}

// JoinEndpoint builds a "network|address" endpoint string.
func JoinEndpoint(network, addr string) string { return network + "|" + addr }
