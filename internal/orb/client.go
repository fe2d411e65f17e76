package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"

	"autoadapt/internal/metrics"
	"autoadapt/internal/wire"
)

// Client-side errors.
var (
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = errors.New("orb: client closed")
	// ErrUnknownNetwork is returned when a reference names a transport the
	// client was not configured with.
	ErrUnknownNetwork = errors.New("orb: unknown network in object reference")
	// ErrOverloaded matches (via errors.Is) a RemoteError carrying
	// CodeOverloaded: the server shed the request at admission because its
	// dispatch pool and queue were full. Nothing was dispatched, so the
	// retry policy treats it as safely retryable after backoff; the
	// breaker treats it as neutral — the peer is alive but saturated, so
	// it is neither a liveness failure nor proof of spare capacity.
	ErrOverloaded = errors.New("orb: server overloaded")
)

// DefaultWriteTimeout bounds a single frame write when neither the
// invocation context nor ClientOptions supplies a deadline, so one stuck
// peer cannot hold a connection's write lock forever.
const DefaultWriteTimeout = 30 * time.Second

// RemoteError is an error reply from a remote servant.
type RemoteError struct {
	Code string // one of the Code* constants
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote error [%s]: %s", e.Code, e.Msg) }

// Is lets errors.Is(err, ErrOverloaded) classify admission sheds without
// losing the RemoteError carrying the server's message.
func (e *RemoteError) Is(target error) bool {
	return target == ErrOverloaded && e.Code == CodeOverloaded
}

// IsRemoteCode reports whether err is a RemoteError carrying one of codes.
func IsRemoteCode(err error, codes ...string) bool {
	var re *RemoteError
	return errors.As(err, &re) && slices.Contains(codes, re.Code)
}

// ClientOptions configures a Client's fault-tolerance layer.
type ClientOptions struct {
	// Networks the client can dial. Required.
	Networks []Network
	// Retry governs automatic re-invocation on transport faults. The zero
	// value performs a single attempt.
	Retry RetryPolicy
	// InvokeTimeout is applied as a deadline to every Invoke whose context
	// carries none (0 = unbounded). It covers all retry attempts together.
	InvokeTimeout time.Duration
	// WriteTimeout bounds each frame write; the tighter of it and the
	// invocation deadline is used. 0 means DefaultWriteTimeout; negative
	// disables the bound.
	WriteTimeout time.Duration
	// Breaker arms a per-endpoint circuit breaker: after
	// Breaker.Threshold consecutive transport failures against one
	// endpoint, invocations to it fail fast with ErrCircuitOpen until a
	// cooldown elapses and a half-open probe succeeds. The zero value
	// disables breaking.
	Breaker BreakerPolicy
	// Now supplies the breaker's time source; nil means time.Now. Tests
	// inject a simulated clock's Now to drive cooldowns deterministically.
	Now func() time.Time
	// MaxInFlight caps the requests awaiting replies on each connection
	// (0 = unbounded). When the window is full, new invocations block
	// until a slot frees, the caller's context ends or the connection
	// dies. The cap is the pipelining flow-control knob: it bounds both
	// client memory (pending futures) and the burst a client can land on
	// one server connection.
	MaxInFlight int
	// BatchWindow enables write batching: request frames are coalesced
	// for up to this duration (or until DefaultBatchBytes accumulate) and
	// flushed with a single Write, trading up to BatchWindow of latency
	// for far fewer syscalls when many sub-frame-size calls share a
	// connection. 0 disables batching (every frame is its own Write).
	BatchWindow time.Duration
	// Metrics, when non-nil, instruments the client: per-endpoint invoke
	// latency histograms and outcome-class counters, breaker transition
	// counters, and the ClientStats counters as gauges (see metrics.go).
	// Nil disables instrumentation at zero hot-path cost.
	Metrics *metrics.Registry
}

// Client performs dynamic invocations on remote objects. It multiplexes
// concurrent requests over one connection per endpoint, reconnects
// transparently when a connection dies, and is safe for concurrent use.
type Client struct {
	networks     map[string]Network
	retry        RetryPolicy
	timeout      time.Duration
	writeTimeout time.Duration
	maxInFlight  int
	batchWindow  time.Duration

	stats   clientStats
	metrics *clientMetrics // nil = instrumentation disabled

	// Circuit breakers, one per endpoint (see breaker.go). breakerNow is
	// the injected time source driving cooldowns.
	breakerPolicy BreakerPolicy
	breakerNow    func() time.Time
	breakerMu     sync.Mutex
	breakers      map[string]*breaker

	mu     sync.Mutex
	conns  map[string]*clientConn
	dials  map[string]*inflightDial // per-endpoint singleflight
	closed bool
}

// inflightDial de-duplicates concurrent dials to one endpoint: the first
// caller dials (outside the client lock), everyone else waits on done.
type inflightDial struct {
	done chan struct{}
	cc   *clientConn
	err  error
}

// NewClient returns a client able to dial the given networks, with no
// retries and default timeouts (see ClientOptions).
func NewClient(nets ...Network) *Client {
	return NewClientOpts(ClientOptions{Networks: nets})
}

// NewClientOpts returns a client configured with the full fault-tolerance
// surface.
func NewClientOpts(opts ClientOptions) *Client {
	m := make(map[string]Network, len(opts.Networks))
	for _, n := range opts.Networks {
		m[n.Name()] = n
	}
	wt := opts.WriteTimeout
	switch {
	case wt == 0:
		wt = DefaultWriteTimeout
	case wt < 0:
		wt = 0
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Client{
		networks:      m,
		retry:         opts.Retry,
		timeout:       opts.InvokeTimeout,
		writeTimeout:  wt,
		maxInFlight:   opts.MaxInFlight,
		batchWindow:   opts.BatchWindow,
		breakerPolicy: opts.Breaker,
		breakerNow:    now,
		breakers:      make(map[string]*breaker),
		conns:         make(map[string]*clientConn),
		dials:         make(map[string]*inflightDial),
	}
	c.metrics = newClientMetrics(opts.Metrics, &c.stats)
	return c
}

// RegisterLocal does nothing. A call to a server in this process takes the
// same path as any other: it dials the server's endpoint (an InprocNetwork
// for an in-process one) and the server dispatches it. The method stays only
// because the benchmark's orb.collocated_x probe still calls it; the change
// that drops that probe deletes it.
func (c *Client) RegisterLocal(*Server) {}

// Invoke calls op on the object named by ref and waits for its reply,
// applying the client's retry policy to transport faults. The context
// deadline (or InvokeTimeout) rides the wire so the server can abort
// dispatch once the caller has given up.
func (c *Client) Invoke(ctx context.Context, ref wire.ObjRef, op string, args ...wire.Value) ([]wire.Value, error) {
	return c.invoke(ctx, ref, op, args, nil)
}

// ResultReader reads a reply's n results from d into its implementer's own
// memory (see Proxy.CallDecode). It escapes: implemented on a pointer the
// caller already holds, it costs no allocation, where a closure costs some.
type ResultReader interface {
	ReadResults(d *wire.Decoder, n int) error
}

// invoke is Invoke, with the results handed to dec when it is not nil.
func (c *Client) invoke(ctx context.Context, ref wire.ObjRef, op string, args []wire.Value, dec ResultReader) ([]wire.Value, error) {
	if ref.IsZero() {
		return nil, errors.New("orb: invoke on nil object reference")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err // an already-done context never sends
	}
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	for attempt := 1; ; attempt++ {
		rs, err := c.invokeOnce(ctx, ref, op, args, dec)
		if err == nil {
			return rs, nil
		}
		if attempt >= c.retry.maxAttempts() || !c.retry.Retryable(err) {
			if de, ok := err.(*decodeError); ok {
				err = de.err // the caller sees its decoder's error as it returned it
			}
			return nil, err
		}
		if serr := sleepBackoff(ctx, c.retry.backoff(attempt)); serr != nil {
			return nil, err // the deadline beat the backoff; report the fault
		}
	}
}

// invokeOnce performs a single invocation attempt. It consults the
// endpoint's breaker before touching the transport and feeds the outcome
// back into it.
func (c *Client) invokeOnce(ctx context.Context, ref wire.ObjRef, op string, args []wire.Value, dec ResultReader) ([]wire.Value, error) {
	if c.metrics != nil {
		start := time.Now()
		rs, err := c.invokeOnceUntimed(ctx, ref, op, args, dec)
		c.metrics.observe(ref.Endpoint, time.Since(start), err)
		return rs, err
	}
	return c.invokeOnceUntimed(ctx, ref, op, args, dec)
}

func (c *Client) invokeOnceUntimed(ctx context.Context, ref wire.ObjRef, op string, args []wire.Value, dec ResultReader) ([]wire.Value, error) {
	br := c.breakerFor(ref.Endpoint)
	probe := false
	if br != nil {
		var err error
		if probe, err = br.allow(ref.Endpoint); err != nil {
			return nil, err
		}
	}
	rs, err := c.invokeRemote(ctx, ref, op, args, dec)
	if br != nil {
		br.record(err, probe)
	}
	return rs, err
}

// invokeRemote is one transport-level attempt: connect (or reuse) and
// round-trip.
func (c *Client) invokeRemote(ctx context.Context, ref wire.ObjRef, op string, args []wire.Value, dec ResultReader) ([]wire.Value, error) {
	cc, err := c.conn(ctx, ref.Endpoint)
	if err != nil {
		return nil, err
	}
	return cc.roundTrip(ctx, ref.Key, op, args, dec)
}

// decodeError is a decoder's error on a reply that is valid wire. The
// server answered, so retries, the breaker and the metrics take it as they
// take a RemoteError; Invoke hands the caller the decoder's own error.
type decodeError struct{ err error }

func (e *decodeError) Error() string { return e.err.Error() }

// replyToResults converts a reply into the Invoke return values.
func replyToResults(rep *wire.Reply) ([]wire.Value, error) {
	if rep.Err != "" {
		return nil, &RemoteError{Code: rep.ErrCode, Msg: rep.Err}
	}
	return rep.Results, nil
}

// InvokeOneway sends a request without waiting for any reply.
func (c *Client) InvokeOneway(ref wire.ObjRef, op string, args ...wire.Value) error {
	if ref.IsZero() {
		return errors.New("orb: oneway invoke on nil object reference")
	}
	c.stats.oneways.Add(1)
	cc, err := c.conn(context.Background(), ref.Endpoint)
	if err != nil {
		return err
	}
	return cc.sendOneway(ref.Key, op, args)
}

// Close tears down every connection and waits for its reader to finish.
// In-flight invocations fail with ErrClosed or a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.conns))
	for _, cc := range c.conns {
		conns = append(conns, cc)
	}
	c.conns = map[string]*clientConn{}
	c.mu.Unlock()
	for _, cc := range conns {
		cc.close(ErrClosed)
	}
	for _, cc := range conns {
		<-cc.readerDone
	}
	return nil
}

// conn returns a live connection to endpoint, dialing if necessary. The
// dial happens *outside* the client lock — a slow or unreachable endpoint
// must never stall invocations to healthy ones — and concurrent dials to
// the same endpoint collapse into one (per-endpoint singleflight). Dead
// connections are evicted eagerly.
func (c *Client) conn(ctx context.Context, endpoint string) (*clientConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if cc, ok := c.conns[endpoint]; ok {
			c.mu.Unlock()
			if cc.alive() { // may peek the socket: not under c.mu
				return cc, nil
			}
			c.mu.Lock()
			if c.conns[endpoint] == cc {
				delete(c.conns, endpoint)
			}
			c.mu.Unlock()
			continue
		}
		if d, ok := c.dials[endpoint]; ok {
			c.mu.Unlock()
			select {
			case <-d.done:
				// A dial its starter abandoned failed with the starter's
				// context error, not this caller's: loop and dial again.
				if d.err != nil && (FaultOf(d.err) != Abandoned || ctx.Err() != nil) {
					return nil, d.err
				}
				continue // adopt the fresh conn (or redial if it died already)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		d := &inflightDial{done: make(chan struct{})}
		c.dials[endpoint] = d
		c.mu.Unlock()

		cc, err := c.dialEndpoint(ctx, endpoint)
		c.mu.Lock()
		delete(c.dials, endpoint)
		if err == nil && c.closed {
			err = ErrClosed
			cc.close(ErrClosed)
			cc = nil
		}
		if err == nil {
			c.conns[endpoint] = cc
		}
		c.mu.Unlock()
		d.cc, d.err = cc, err
		close(d.done)
		return cc, err
	}
}

// dialEndpoint opens and wraps a new connection to endpoint.
func (c *Client) dialEndpoint(ctx context.Context, endpoint string) (*clientConn, error) {
	network, addr, err := SplitEndpoint(endpoint)
	if err != nil {
		return nil, err
	}
	n, ok := c.networks[network]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNetwork, network)
	}
	raw, err := dialContext(ctx, n, addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, &ConnectError{Err: err}
	}
	return newClientConn(raw, c), nil
}

// clientConn multiplexes requests over one transport connection: any
// number of requests may be in flight at once (bounded by the client's
// in-flight window), and replies complete out of order through the
// pending map. One goroutine at a time reads it (the read role): an
// uncancellable synchronous caller reads for itself (see passRole).
type clientConn struct {
	c     *Client           // owner: options and stats
	w     connWriter        // the transport connection and its write side
	fr    *wire.FrameReader // read by whoever holds the read role
	probe idleProber        // nil: a background reader for good notices the peer's close

	// window is the in-flight cap semaphore (nil = unbounded): a slot is
	// held from send until the reply arrives, the caller abandons the
	// request, or the connection dies.
	window chan struct{}

	mu      sync.Mutex
	nextID  uint64
	nextSub uint64
	pending map[uint64]*pendingCall
	subs    map[uint64]*Subscription
	dead    bool
	deadErr error

	reading    bool          // the read role is held
	background int           // pending futures and cancellable calls
	orphans    int           // replies still owed to abandoned requests
	idleSince  time.Time     // when the role was last left free
	readerDone chan struct{} // closed once the connection is dead and the role free
}

// pendingCall is one in-flight request awaiting its reply. Exactly one of
// ch (synchronous waiter) and fut (asynchronous waiter) is used. Calls are
// pooled; each pooled object's channel is allocated once and only ever
// closed on connection death, which also retires the object from the pool.
type pendingCall struct {
	ch   chan *wire.Reply
	fut  *Future
	dec  ResultReader // a synchronous caller's, which reads the results itself
	err  error        // dec's, when it fails on a reply that is valid wire
	bg   bool         // counted in background: a future, or a caller that may give up
	sent bool         // a synchronous caller whose request is out: it may read (see markSent)
}

var (
	roleToken    = new(wire.Reply) // on a waiting caller's channel: the read role
	decodedToken = new(wire.Reply) // on it: dec has read the results, or failed with err
)

const idleProbe = time.Millisecond // see alive

var pendingCallPool = sync.Pool{
	New: func() any { return &pendingCall{ch: make(chan *wire.Reply, 1)} },
}

func getPendingCall() *pendingCall { return pendingCallPool.Get().(*pendingCall) }

func putPendingCall(pc *pendingCall) {
	pc.fut, pc.dec, pc.err, pc.bg, pc.sent = nil, nil, nil, false, false
	pendingCallPool.Put(pc)
}

func newClientConn(raw net.Conn, c *Client) *clientConn {
	cc := &clientConn{
		c:          c,
		w:          connWriter{conn: raw},
		fr:         wire.NewFrameReader(raw),
		nextID:     1,
		nextSub:    1,
		pending:    make(map[uint64]*pendingCall),
		subs:       make(map[uint64]*Subscription),
		readerDone: make(chan struct{}),
		probe:      probeFor(raw),
	}
	if c.maxInFlight > 0 {
		cc.window = make(chan struct{}, c.maxInFlight)
	}
	if c.batchWindow > 0 {
		cc.w.batch = &frameBatch{w: &cc.w, window: c.batchWindow, limit: DefaultBatchBytes,
			timeout: c.writeTimeout, onFail: cc.close,
			frames: &c.stats.batchedFrames, flushes: &c.stats.batchFlushes}
	}
	cc.passRole() // an unprobed conn: to a background reader for good
	return cc
}

// idleProber tells, without reading, whether an idle connection's peer is
// still there: the in-process conn answers from its ends, and probeFor
// makes one that peeks a socket.
type idleProber interface{ peerAlive() bool }

// probeFor returns conn's idle probe, or nil if it has none. A faultConn
// forwards the probe of the conn it wraps, so a client still notices an
// idle peer's close before it writes.
func probeFor(conn net.Conn) idleProber {
	switch c := conn.(type) {
	case idleProber:
		return c
	case *faultConn:
		return c.probe
	case syscall.Conn:
		if raw, err := c.SyscallConn(); err == nil {
			p := &socketProbe{raw: raw}
			p.peek = func(fd uintptr) bool { // made once: a peek allocates nothing
				n, _, err := syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
				p.ok = n > 0 || err == syscall.EAGAIN || err == syscall.EINTR
				return true
			}
			return p
		}
	}
	return nil
}

// socketProbe: pending data or EAGAIN means the peer is there, end of
// stream or an error that it is gone. alive serialises it under cc.mu.
type socketProbe struct {
	raw  syscall.RawConn
	peek func(fd uintptr) bool
	buf  [1]byte
	ok   bool
}

func (p *socketProbe) peerAlive() bool {
	p.ok = false // stays false if Read fails before peeking
	_ = p.raw.Read(p.peek)
	return p.ok
}

func (cc *clientConn) isDead() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.dead
}

// alive reports whether cc can carry a call. A connection nobody has read
// for idleProbe is peeked (under cc.mu, so no caller takes the read role
// meanwhile): if the peer closed it, the call redials instead of writing.
func (cc *clientConn) alive() bool {
	cc.mu.Lock()
	if cc.dead || cc.reading || cc.probe == nil || time.Since(cc.idleSince) < idleProbe {
		defer cc.mu.Unlock()
		return !cc.dead
	}
	ok := cc.probe.peerAlive()
	cc.mu.Unlock()
	if !ok {
		cc.close(fmt.Errorf("orb: connection lost: %w", io.ErrUnexpectedEOF))
	}
	return ok
}

// deadError returns the connection's death cause (ErrClosed as a fallback
// so callers never observe a dead connection with a nil error).
func (cc *clientConn) deadError() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.deadErr != nil {
		return cc.deadErr
	}
	return ErrClosed
}

func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return
	}
	cc.dead = true
	cc.deadErr = err
	waiters := cc.pending
	cc.pending = map[uint64]*pendingCall{}
	cc.background, cc.orphans = 0, 0
	subs := cc.subs
	cc.subs = map[uint64]*Subscription{}
	if !cc.reading {
		close(cc.readerDone)
	}
	cc.mu.Unlock()
	if cc.w.batch != nil {
		cc.w.batch.stop(err)
	}
	_ = cc.w.conn.Close()
	for _, pc := range waiters {
		failCall(pc, err)
	}
	for _, s := range subs {
		s.fail(err)
	}
}

// register allocates a request id and installs a waiter for its reply.
// fut == nil installs a pooled synchronous waiter, whose results dec reads
// when it is not nil.
func (cc *clientConn) register(fut *Future, cancellable bool, dec ResultReader) (*pendingCall, uint64, error) {
	cc.mu.Lock()
	if cc.dead {
		err := cc.deadErr
		cc.mu.Unlock()
		// Nothing was sent on this attempt: always safe to retry.
		return nil, 0, &ConnectError{Err: err}
	}
	id := cc.nextID
	cc.nextID++
	pc := getPendingCall()
	pc.fut, pc.dec = fut, dec
	cc.pending[id] = pc
	if pc.bg = fut != nil || cancellable; pc.bg {
		cc.background++
		if !cc.reading {
			cc.passRole()
		}
	}
	cc.mu.Unlock()
	return pc, id, nil
}

// markSent marks a synchronous caller's request as out and reports whether
// the caller took the read role, which was free. Only such a caller gets
// the role: a holder still to write could wait on a peer waiting to write
// to it, and an in-process conn has no buffer to break that tie.
func (cc *clientConn) markSent(id uint64, pc *pendingCall) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if pc.bg || cc.pending[id] != pc { // a background waiter, answered already, or dead
		return false
	}
	pc.sent = true
	took := !cc.reading
	cc.reading = true
	return took
}

// removeLocked drops a pending entry (cc.mu held).
func (cc *clientConn) removeLocked(id uint64, pc *pendingCall) {
	delete(cc.pending, id)
	if pc.bg {
		cc.background--
	}
}

// needsBackground: is a read owed that no synchronous caller will do? A
// conn with no idle probe keeps its reader for good, to notice the peer's
// close. So does a connection that has ever opened a push stream, on every
// transport: events can follow an unsubscribe, which nothing acknowledges,
// and an in-process conn has no buffer to hold them. (cc.mu held)
func (cc *clientConn) needsBackground() bool {
	return cc.probe == nil || cc.background > 0 || cc.orphans > 0 || cc.nextSub > 1
}

// releaseRole gives up the read role.
func (cc *clientConn) releaseRole() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.dead {
		cc.reading = false
		close(cc.readerDone)
		return
	}
	cc.passRole()
}

// passRole gives the read role to a synchronous caller waiting for its
// reply (it finds the token later), else to a background reader if needed
// (cc.mu held).
func (cc *clientConn) passRole() {
	cc.reading = true
	if len(cc.pending) > cc.background {
		for _, pc := range cc.pending {
			if pc.sent {
				pc.ch <- roleToken // buffered, and empty while nobody reads
				return
			}
		}
	}
	if cc.needsBackground() {
		go cc.read(nil)
		return
	}
	cc.reading, cc.idleSince = false, time.Now()
}

// read routes frames with the read role: for a synchronous caller (self)
// until its reply is in. The background reader (nil) stays until it hands
// a synchronous caller its reply when no read is owed, so cancellable calls
// in a row share one reader; on a connection only they use, it stays for
// the connection's life.
func (cc *clientConn) read(self *pendingCall) {
	defer cc.releaseRole()
	for {
		payload, err := cc.fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			cc.close(fmt.Errorf("orb: connection lost: %w", err))
			return
		}
		id, isReply := wire.ReplyID(payload)
		if !isReply {
			if !cc.readOther(payload) {
				return
			}
			continue
		}
		cc.mu.Lock()
		pc, ok := cc.pending[id]
		if ok {
			cc.removeLocked(id, pc)
		} else if cc.orphans > 0 {
			cc.orphans--
		}
		more := self != nil || !ok || pc.bg || cc.needsBackground()
		cc.mu.Unlock()
		rep, err := cc.decodeReply(payload, pc)
		if err != nil {
			cc.close(fmt.Errorf("orb: protocol error: %w", err))
			if ok {
				failCall(pc, cc.deadError())
			}
			return
		}
		switch {
		case !ok:
			// The caller abandoned the request before its reply
			// landed (forget won the race). Account for it: silent
			// drops make pipelining bugs invisible.
			cc.c.stats.lateReplies.Add(1)
		case pc.fut != nil:
			fut := pc.fut
			putPendingCall(pc)
			fut.complete(rep, nil)
		default:
			pc.ch <- rep
			more = more && pc != self
		}
		if !more {
			return
		}
	}
}

// decodeReply decodes a reply payload for pc, which the reader has claimed
// (nil for a late reply, which nothing decodes into a caller's memory):
// with pc's decoder when it has one, else into a wire.Reply. A decoder's
// error on valid wire fails only its call; an error returned means the
// payload is not valid wire.
func (cc *clientConn) decodeReply(payload []byte, pc *pendingCall) (*wire.Reply, error) {
	if pc != nil && pc.dec != nil {
		if handled, err := cc.fr.DecodeResults(payload, pc.dec.ReadResults); handled {
			if err != nil {
				if _, perr := cc.fr.Decode(payload); perr != nil {
					return nil, perr
				}
				pc.err = &decodeError{err}
			}
			return decodedToken, nil
		}
	}
	msg, err := cc.fr.Decode(payload)
	if err != nil {
		return nil, err
	}
	return msg.Rep, nil
}

// readOther handles a frame that is not a reply: an event, or a protocol
// error that closes the connection (false).
func (cc *clientConn) readOther(payload []byte) bool {
	subID, ok := wire.EventSubID(payload)
	if !ok {
		cc.close(errors.New("orb: unexpected non-reply message from server"))
		return false
	}
	if err := cc.readEvent(subID, payload); err != nil {
		cc.close(fmt.Errorf("orb: protocol error: %w", err))
		return false
	}
	return true
}

// readEvent hands an event to its subscription's reader. An event for a
// stream that is gone (it raced with an unsubscribe), or that the reader
// refuses, is dropped; the error is the payload's, which is not valid wire.
func (cc *clientConn) readEvent(subID uint64, payload []byte) error {
	cc.mu.Lock()
	sub := cc.subs[subID]
	cc.mu.Unlock()
	if sub != nil && sub.read(cc.fr, payload) {
		cc.c.stats.eventsPushed.Add(1)
		return nil
	}
	cc.c.stats.eventsDropped.Add(1)
	_, err := cc.fr.Decode(payload)
	return err
}

// failCall fails a waiter with the connection's death: a future completes
// with err, and a synchronous caller finds its channel closed and reports
// the connection's error.
func failCall(pc *pendingCall, err error) {
	if pc.fut != nil {
		pc.fut.complete(nil, err)
		putPendingCall(pc)
	} else {
		close(pc.ch)
	}
}

// send writes the frame encoded in fb and returns fb to its pool. A frame
// over wire.MaxFrameSize is refused before anything can reach the wire or
// the batch: that is a local encode error and the connection, with every
// sibling in flight on it, stays alive. So does the caller's own deadline
// passing while it queued for the write lock behind a slow write: nothing
// was written, and only this call fails, with context.DeadlineExceeded.
// Any other write failure kills the connection (the stream position is
// undefined) — the client's write timeout lapsing included, since that
// bound exists to tear down a peer that stopped reading. Direct writes are
// bounded by the tighter of deadline and that timeout, so a stuck peer
// cannot hold the write lock forever; batched ones by the flush's own
// timeout.
func (cc *clientConn) send(fb *wire.FrameBuffer, deadline time.Time) error {
	defer wire.PutFrameBuffer(fb)
	frame, err := fb.Frame()
	if err != nil {
		return err
	}
	own := deadline
	if wt := cc.c.writeTimeout; wt > 0 && cc.w.batch == nil {
		bound := time.Now().Add(wt)
		if deadline.IsZero() || bound.Before(deadline) {
			deadline = bound
		}
	}
	if err = cc.w.writeFrame(frame, deadline); err != nil {
		if errors.Is(err, errWriteExpired) && deadline.Equal(own) {
			return fmt.Errorf("orb: write: %w", context.DeadlineExceeded)
		}
		cc.close(fmt.Errorf("orb: write failed: %w", err))
	}
	return err
}

// sendRequest encodes and sends one request frame (see send for what a
// failure does to the connection). The caller still owns the pending entry.
func (cc *clientConn) sendRequest(ctx context.Context, id uint64, key, op string, args []wire.Value) error {
	req := wire.Request{ID: id, ObjectKey: key, Operation: op, Args: args}
	var deadline time.Time
	if dl, ok := ctx.Deadline(); ok {
		deadline = dl
		req.Deadline = dl.UnixNano()
	}
	fb := wire.GetFrameBuffer()
	out, err := wire.AppendRequest(fb.B, &req, false)
	if err != nil {
		wire.PutFrameBuffer(fb)
		return err
	}
	fb.B = out
	return cc.send(fb, deadline)
}

// acquireSlot claims an in-flight window slot, blocking while the window is
// full. Every successful
// acquire is paired with exactly one releaseSlot: roundTrip defers it, an
// asynchronous call releases when its Future completes.
func (cc *clientConn) acquireSlot(ctx context.Context) error {
	if cc.window == nil {
		return nil
	}
	select {
	case cc.window <- struct{}{}:
	default:
		cc.c.stats.windowWaits.Add(1)
		select {
		case cc.window <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		case <-cc.readerDone: // the connection died while we waited
			cc.mu.Lock()
			err := cc.deadErr
			cc.mu.Unlock()
			return &ConnectError{Err: err}
		}
	}
	return nil
}

func (cc *clientConn) releaseSlot() {
	if cc.window != nil {
		<-cc.window
	}
}

func (cc *clientConn) roundTrip(ctx context.Context, key, op string, args []wire.Value, dec ResultReader) ([]wire.Value, error) {
	cc.c.stats.syncCalls.Add(1)
	if err := cc.acquireSlot(ctx); err != nil {
		return nil, err
	}
	defer cc.releaseSlot()
	pc, id, err := cc.register(nil, ctx.Done() != nil, dec)
	if err != nil {
		return nil, err
	}
	if err := cc.sendRequest(ctx, id, key, op, args); err != nil {
		cc.abandon(id, pc, dec, false)
		return nil, err
	}
	if cc.markSent(id, pc) {
		cc.read(pc)
	}
	for {
		select {
		case rep, ok := <-pc.ch:
			if !ok {
				return nil, cc.deadError()
			}
			if rep == roleToken {
				cc.read(pc)
				continue
			}
			err := pc.err
			putPendingCall(pc)
			if rep == decodedToken {
				return nil, err
			}
			return replyToResults(rep)
		case <-ctx.Done():
			if !cc.abandon(id, pc, dec, true) && !cc.isDead() {
				// The reply won the race with our cancellation: it was (or
				// is being) delivered into a waiter nobody will read.
				cc.c.stats.lateReplies.Add(1)
			}
			cc.c.stats.canceled.Add(1)
			return nil, ctx.Err()
		}
	}
}

// forget abandons the waiter for id, reporting whether it was still pending
// (if not, the reply completed or the connection died). A forgotten request
// that went out (sent) keeps a background reader until its reply is read and
// counted late. Claims happen under cc.mu, so the waiter is safely repooled.
func (cc *clientConn) forget(id uint64, sent bool) bool {
	cc.mu.Lock()
	pc, ok := cc.pending[id]
	if ok {
		cc.removeLocked(id, pc)
		if sent {
			cc.orphans++
		}
	}
	cc.mu.Unlock()
	if !ok {
		return false
	}
	putPendingCall(pc) // a waiter still pending holds neither reply nor role
	return true
}

// abandon is forget for a synchronous caller about to return. When the
// reader has claimed pc, dec may be running: wait, so that it never writes
// after the call has returned.
func (cc *clientConn) abandon(id uint64, pc *pendingCall, dec ResultReader, sent bool) bool {
	ok := cc.forget(id, sent)
	if !ok && dec != nil {
		<-pc.ch // delivered, or closed with the connection
	}
	return ok
}

func (cc *clientConn) sendOneway(key, op string, args []wire.Value) error {
	cc.mu.Lock()
	if cc.dead {
		err := cc.deadErr
		cc.mu.Unlock()
		return err
	}
	cc.mu.Unlock()
	req := wire.Request{ObjectKey: key, Operation: op, Args: args}
	fb := wire.GetFrameBuffer()
	out, err := wire.AppendRequest(fb.B, &req, true)
	if err != nil {
		wire.PutFrameBuffer(fb)
		return err
	}
	fb.B = out
	return cc.send(fb, time.Time{})
}

// Proxy is a convenience handle binding a client to one object reference —
// the raw (non-smart) proxy the paper's LuaCorba generates per object.
type Proxy struct {
	c   *Client
	ref wire.ObjRef
}

// NewProxy builds a proxy for ref.
func (c *Client) NewProxy(ref wire.ObjRef) *Proxy { return &Proxy{c: c, ref: ref} }

// Ref returns the proxied object reference.
func (p *Proxy) Ref() wire.ObjRef { return p.ref }

// Call invokes op with args and returns all results.
func (p *Proxy) Call(ctx context.Context, op string, args ...wire.Value) ([]wire.Value, error) {
	return p.c.invoke(ctx, p.ref, op, args, nil)
}

// CallDecode invokes op with args, as Call does, and hands the reply's
// results to dec instead of returning them: a decoder over their encoding
// and their count. dec runs on the goroutine that reads the reply, so it
// reads straight into the caller's own types, with no wire.Value tree in
// between; it must read all n results. Its error fails the call (when the
// bytes are valid wire; otherwise, as for any reply, the connection
// closes). dec never runs after CallDecode returns, so it may be pooled: a
// reply for a call that gave up is counted late and never decoded, unless
// the reader had claimed it, and then the call waits for dec to finish.
func (p *Proxy) CallDecode(ctx context.Context, op string, dec ResultReader, args ...wire.Value) error {
	_, err := p.c.invoke(ctx, p.ref, op, args, dec)
	return err
}

// Call1 invokes op and returns the first result (or nil).
func (p *Proxy) Call1(ctx context.Context, op string, args ...wire.Value) (wire.Value, error) {
	rs, err := p.c.Invoke(ctx, p.ref, op, args...)
	if err != nil {
		return wire.Nil(), err
	}
	if len(rs) == 0 {
		return wire.Nil(), nil
	}
	return rs[0], nil
}
