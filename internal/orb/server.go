package orb

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/idl"
	"autoadapt/internal/metrics"
	"autoadapt/internal/wire"
)

// Error codes carried in error replies. They mirror the CORBA system
// exceptions the paper's runtime would raise.
const (
	CodeNoSuchObject = "NO_SUCH_OBJECT"
	CodeBadOperation = "BAD_OPERATION"
	CodeBadParam     = "BAD_PARAM"
	CodeInternal     = "INTERNAL"
	CodeApp          = "APP_ERROR"
	// CodeDeadline is returned when a request arrives with its wire
	// deadline already expired; the server aborts before dispatch.
	CodeDeadline = "DEADLINE_EXCEEDED"
	// CodeOverloaded is returned when the server sheds a request at
	// admission because its dispatch pool and queue are saturated. Clients
	// surface it as ErrOverloaded: retryable with backoff, breaker-neutral.
	CodeOverloaded = wire.StatusOverloaded
)

// Admission-control defaults. A server dispatches at most MaxConcurrent
// requests at once across all connections, beyond one per connection (run by
// its reader); up to MaxQueue more wait in the dispatch queue, and beyond
// that two-way requests are shed with CodeOverloaded replies and oneways are
// dropped.
const (
	DefaultMaxConcurrent = 64
	DefaultMaxQueue      = 1024
)

// Servant is the dynamic skeleton interface: every object exposes a single
// dispatch routine (the paper's DIR). The ORB delivers the operation name
// and dynamically typed arguments; the servant returns result values or an
// error.
//
// As with a CORBA ServerRequest, the ORB owns a remote call's args: the
// slice, and each top-level string arg long enough to be a view into the
// frame it came in (wire.Borrowed), are valid until Invoke returns and the
// reply is written, so results may be args. A servant that keeps a string
// arg past its return keeps wire.Keep(s), which copies only a long one;
// tables, object references and numbers are its own.
type Servant interface {
	Invoke(op string, args []wire.Value) ([]wire.Value, error)
}

// ServantFunc adapts a function to the Servant interface. Its args are
// borrowed as a Servant's are.
type ServantFunc func(op string, args []wire.Value) ([]wire.Value, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	return f(op, args)
}

// ResultWriter is an optional Servant extension for a servant that encodes
// an operation's results itself, straight into the reply frame, instead of
// returning them as values for the ORB to encode. AppendResults appends
// op's result count (wire.AppendValueCount) and results to dst, which holds
// the reply's header, and returns the extended slice. handled false sends
// the call to Invoke. Errors are Invoke's: an AppError, or any other error
// for an internal one. Invoke must still answer every operation, as a
// oneway request and a servant wrapper call it.
type ResultWriter interface {
	Servant
	AppendResults(dst []byte, op string, args []wire.Value) (out []byte, handled bool, err error)
}

// AppError is an application-level error raised by a servant; it crosses
// the wire with CodeApp and is reconstructed on the client as a RemoteError
// with the same message.
type AppError struct{ Msg string }

// Error implements error.
func (e *AppError) Error() string { return e.Msg }

// Appf builds an AppError.
func Appf(format string, args ...any) error {
	return &AppError{Msg: fmt.Sprintf(format, args...)}
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Network is the transport to listen on. Required.
	Network Network
	// Address to listen on ("127.0.0.1:0" for TCP, any name for inproc).
	// Required.
	Address string
	// Repo, if set, enables dynamic type checking: every inbound call is
	// validated against the servant's declared interface before dispatch.
	Repo *idl.Repository
	// Logger receives connection-level errors. Nil discards them.
	Logger *log.Logger
	// BatchWindow, when positive, coalesces reply and event frames per
	// connection for up to this long (or until DefaultBatchBytes
	// accumulate) and writes them with one syscall — the server-side
	// mirror of ClientOptions.BatchWindow. Replies gain up to BatchWindow of
	// latency, so this suits pipelined/async traffic, not ping-pong RPC.
	BatchWindow time.Duration
	// MaxConcurrent caps the server-wide dispatch pool: requests executing
	// at once beyond one per connection. 0 means
	// DefaultMaxConcurrent; negative is an error.
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for a pool
	// worker. When the queue is full, two-way requests are shed with a
	// CodeOverloaded error reply and oneways are dropped. 0 means
	// DefaultMaxQueue; negative is an error.
	MaxQueue int
	// Metrics, when non-nil, instruments dispatch: a latency histogram,
	// per-reply-code counters, and the ServerStats counters as gauges
	// (see metrics.go). Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// ServerStats is a snapshot of a server's counters.
type ServerStats struct {
	// BatchedFrames counts reply/event frames that went through a write
	// batch rather than straight to the socket.
	BatchedFrames uint64
	// BatchFlushes counts coalesced writes (syscalls) for those frames,
	// including one that fails and takes the connection with it.
	BatchFlushes uint64
	// ShedRequests counts requests refused at admission with
	// CodeOverloaded (or silently dropped, for oneways) because the
	// dispatch pool and queue were both full.
	ShedRequests uint64
	// ExpiredShed counts requests dropped at admission because their wire
	// deadline had already passed when they were read off the connection —
	// the caller has given up, so dispatching would be pure waste.
	ExpiredShed uint64
	// SpilledRequests counts requests admitted to the shared dispatch pool:
	// every request its connection's reader did not run itself.
	SpilledRequests uint64
	// QueueDepth is the number of admitted requests currently waiting for
	// a pool worker (a gauge, not a counter).
	QueueDepth int
	// InlineDispatches counts requests run on their connection's reader;
	// InlineRescues, those a watchdog tick outlasted.
	InlineDispatches, InlineRescues uint64
}

type serverStats struct {
	batchedFrames, batchFlushes, inlineDispatches, inlineRescues atomic.Uint64
	shedRequests, expiredShed, spilledRequests                   atomic.Uint64
	borrowed                                                     atomic.Int64 // messages read, not yet released
}

// Server is an object adapter: it owns a listener, a table of servants
// keyed by object key, and the connections currently being served.
type Server struct {
	opts     ServerOptions
	listener Listener
	endpoint string

	mu       sync.RWMutex
	servants map[string]*servantEntry
	closed   bool

	conns   map[*serverConn]struct{}
	connsMu sync.Mutex

	stats serverStats
	sm    *serverMetrics // nil = instrumentation disabled

	// Admission control: queue feeds a pool of at most maxConcurrent
	// workers, spawned lazily as demand appears. poolWorker is
	// s.poolWorkerLoop bound once, so a spawn allocates no closure.
	queue         chan connJob
	maxConcurrent int
	poolWorkers   atomic.Int64
	poolWG        sync.WaitGroup
	poolWorker    func()

	wg sync.WaitGroup
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		BatchedFrames:    s.stats.batchedFrames.Load(),
		BatchFlushes:     s.stats.batchFlushes.Load(),
		ShedRequests:     s.stats.shedRequests.Load(),
		ExpiredShed:      s.stats.expiredShed.Load(),
		SpilledRequests:  s.stats.spilledRequests.Load(),
		QueueDepth:       len(s.queue),
		InlineDispatches: s.stats.inlineDispatches.Load(),
		InlineRescues:    s.stats.inlineRescues.Load(),
	}
}

type servantEntry struct {
	servant Servant
	iface   string // interface name for type checking ("" = unchecked)
}

// NewServer starts a server listening on the configured address. The
// returned server is running; call Close to stop it.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.Network == nil {
		return nil, errors.New("orb: ServerOptions.Network is required")
	}
	if opts.MaxConcurrent < 0 || opts.MaxQueue < 0 {
		return nil, fmt.Errorf("orb: negative MaxConcurrent (%d) or MaxQueue (%d)", opts.MaxConcurrent, opts.MaxQueue)
	}
	l, err := opts.Network.Listen(opts.Address)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		listener: l,
		endpoint: JoinEndpoint(opts.Network.Name(), l.Addr()),
		servants: make(map[string]*servantEntry),
		conns:    make(map[*serverConn]struct{}),
	}
	s.maxConcurrent = cmp.Or(opts.MaxConcurrent, DefaultMaxConcurrent)
	s.queue = make(chan connJob, cmp.Or(opts.MaxQueue, DefaultMaxQueue))
	s.poolWorker = s.poolWorkerLoop
	s.sm = newServerMetrics(opts.Metrics, s)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Endpoint returns the server's endpoint string ("tcp|host:port").
func (s *Server) Endpoint() string { return s.endpoint }

// Register installs a servant under key, declaring it implements iface
// (may be "" to skip type checking even when a repository is configured).
// Re-registering a key replaces the servant.
func (s *Server) Register(key, iface string, sv Servant) wire.ObjRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servants[key] = &servantEntry{servant: sv, iface: iface}
	return wire.ObjRef{Endpoint: s.endpoint, Key: key}
}

// RefFor returns the object reference for key (whether or not a servant is
// currently registered under it).
func (s *Server) RefFor(key string) wire.ObjRef {
	return wire.ObjRef{Endpoint: s.endpoint, Key: key}
}

// Close stops accepting, closes every live connection, and waits for
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	err := s.listener.Close()
	s.connsMu.Lock()
	for c := range s.conns {
		_ = c.conn.Close()
	}
	s.connsMu.Unlock()
	s.wg.Wait()
	// All connection goroutines are done, so nothing can enqueue or spawn
	// workers anymore; drain the pool and wait for it.
	close(s.queue)
	s.poolWG.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		c := &serverConn{s: s, conn: conn, cw: &connWriter{conn: conn}, fr: wire.NewFrameReader(conn),
			subs: make(map[uint64]*serverSub)}
		if s.opts.BatchWindow > 0 {
			// A failed flush drops the connection; its reader tears down the rest.
			c.cw.batch = &frameBatch{w: c.cw, window: s.opts.BatchWindow, limit: DefaultBatchBytes,
				timeout: DefaultWriteTimeout, onFail: func(error) { _ = conn.Close() },
				frames: &s.stats.batchedFrames, flushes: &s.stats.batchFlushes}
		}
		s.connsMu.Lock()
		s.mu.RLock()
		closed := s.closed
		s.mu.RUnlock()
		if closed { // Close has shut the live conns already
			s.connsMu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connsMu.Unlock()
		s.wg.Add(1)
		go c.read()
	}
}

// connJob is one decoded request bound for the dispatch path. It carries
// its connection's writer so pool workers can answer on behalf of any
// connection. Its message is borrowed: whoever answers the request, or
// drops it, releases it.
type connJob struct {
	entry  *servantEntry // pre-resolved servant (nil → NO_SUCH_OBJECT)
	msg    *wire.Borrowed
	cw     *connWriter
	oneway bool
}

// maybeSpawnWorker adds one pool worker unless the pool is already at
// maxConcurrent. Called after each enqueue, so every queued job is
// eventually picked up: either an existing worker drains it before
// retiring, or the spawn here (which the enqueuer issues *after* the job
// is visible in the queue) provides the worker.
func (s *Server) maybeSpawnWorker() {
	for {
		n := s.poolWorkers.Load()
		if int(n) >= s.maxConcurrent {
			return
		}
		if s.poolWorkers.CompareAndSwap(n, n+1) {
			s.poolWG.Add(1)
			go s.poolWorker()
			return
		}
	}
}

// poolWorkerLoop drains the dispatch queue and retires when it runs dry, so
// an idle server parks no goroutines. Retirement must not strand a job that
// raced in behind the empty check: the worker decrements its slot FIRST
// and then re-checks the queue. A job enqueued before the re-check is
// drained here; one enqueued after it is seen by its enqueuer's
// maybeSpawnWorker with the already-decremented count, which spawns a
// replacement. Either way someone owns the job.
func (s *Server) poolWorkerLoop() {
	defer s.poolWG.Done()
	for {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.handle(j.cw, j)
		default:
			s.poolWorkers.Add(-1)
			select {
			case j, ok := <-s.queue:
				if !ok {
					return
				}
				s.poolWorkers.Add(1)
				s.handle(j.cw, j)
			default:
				return
			}
		}
	}
}

// admit routes one request its connection's reader does not run itself:
// into the bounded dispatch pool, or — when pool and queue are saturated —
// sheds it with a CodeOverloaded reply (oneways are dropped).
func (s *Server) admit(cw *connWriter, j connJob) {
	select {
	case s.queue <- j:
		s.stats.spilledRequests.Add(1)
		s.maybeSpawnWorker()
	default:
		s.stats.shedRequests.Add(1)
		if !j.oneway {
			req := j.msg.Req
			rep := &wire.Reply{ID: req.ID, ErrCode: CodeOverloaded,
				Err: fmt.Sprintf("server overloaded: dispatch queue full, %q shed at admission", req.Operation)}
			if err := s.writeReply(cw, wire.GetFrameBuffer(), rep, false, time.Now().Add(DefaultWriteTimeout)); err != nil {
				s.logf("orb: write overload reply: %v", err)
			}
		}
		s.release(j.msg)
	}
}

// eventSink is the server side of one push stream: the servant's Push
// calls encode Event frames onto the subscriber's connection. closed flips
// when the subscriber unsubscribes or its connection dies, making further
// pushes fail fast with ErrSubscriptionClosed.
type eventSink struct {
	w      *connWriter
	subID  uint64
	closed atomic.Bool
}

// Push implements EventSink.
func (es *eventSink) Push(values ...wire.Value) error {
	var enc []byte
	for _, v := range values {
		var err error
		if enc, err = wire.AppendValue(enc, v); err != nil {
			return err
		}
	}
	return es.PushEncoded(len(values), enc)
}

// PushEncoded is Push for values given encoded (see EventSink). A write
// failure closes the connection (the stream position is undefined
// mid-frame), which tears down every subscription on it.
func (es *eventSink) PushEncoded(n int, enc []byte) error {
	if es.closed.Load() {
		return ErrSubscriptionClosed
	}
	fb := wire.GetFrameBuffer()
	defer wire.PutFrameBuffer(fb)
	fb.B = append(wire.AppendValueCount(wire.AppendEventHeader(fb.B, es.subID), n), enc...)
	frame, err := fb.Frame()
	if err != nil {
		return err // oversized event: nothing was written, the stream is fine
	}
	if err = es.w.writeFrame(frame, time.Now().Add(DefaultWriteTimeout)); err != nil {
		_ = es.w.conn.Close()
	}
	return err
}

// serverSub pairs a stream's sink with the servant's cancel.
type serverSub struct {
	sink   *eventSink
	cancel func()
}

// serverConn is one accepted connection and its one goroutine, the reader.
// The reader runs a request itself when nothing is buffered behind it and
// the connection's slot is free; every other request goes to the pool or is
// shed (see admit). A rescue (see watch) starts a new reader.
type serverConn struct {
	s    *Server
	conn net.Conn
	cw   *connWriter
	fr   *wire.FrameReader // with its intern table, used by the reader only (a rescue hands both on)

	slot      atomic.Bool   // held by the reader's dispatch, rescued or not
	inlineSeq atomic.Uint64 // odd while the reader runs one
	listed    atomic.Bool   // in watch.conns
	seen      uint64        // inlineSeq at the watchdog's previous visit (watch.mu)

	subs map[uint64]*serverSub // push streams, owned by the read role
	busy sync.WaitGroup        // rescued dispatches
}

// read runs the reader until the connection ends or a rescue replaces it.
func (c *serverConn) read() {
	defer c.s.wg.Done()
	if c.readFrames() {
		// Rescued, and now its dispatch is over. The watchdog counts it
		// under watch.mu after winning the CAS this reader lost: take the
		// lock once, so the Adds come before this Done and s.wg's.
		watch.mu.Lock()
		watch.mu.Unlock()
		c.busy.Done()
		return
	}
	// Reading failed: any rescued dispatch finishes, then the streams (sinks
	// first, so pushes fail fast, then servant cancels) and the socket.
	c.busy.Wait()
	for _, ss := range c.subs {
		ss.sink.closed.Store(true)
	}
	for _, ss := range c.subs {
		if ss.cancel != nil {
			ss.cancel()
		}
	}
	if c.cw.batch != nil {
		c.cw.batch.stop(net.ErrClosed)
	}
	_ = c.conn.Close()
	c.s.connsMu.Lock()
	delete(c.s.conns, c)
	c.s.connsMu.Unlock()
}

// readFrames reads until the connection fails (false) or a rescue takes
// the read role during one of its dispatches (true).
func (c *serverConn) readFrames() (rescued bool) {
	s := c.s
	for {
		// A read or decode error drops the connection: a protocol error
		// leaves the stream position undefined.
		msg, err := c.fr.NextBorrowed()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				s.logf("orb: read message: %v", err)
			}
			return false
		}
		s.stats.borrowed.Add(1)
		switch msg.Type {
		case wire.MsgRequest, wire.MsgOneway:
			job := connJob{
				entry:  s.servantEntryFor(msg.Req.ObjectKey),
				msg:    msg,
				cw:     c.cw,
				oneway: msg.Type == wire.MsgOneway,
			}
			// Deadline-aware shedding: a request whose wire deadline has
			// already passed gets its DEADLINE_EXCEEDED answer here, before
			// consuming a worker — under overload the backlog is exactly
			// what made it late, so dispatching it would compound the
			// overload with work nobody is waiting for.
			if d := msg.Req.Deadline; d != 0 && time.Now().UnixNano() > d {
				s.stats.expiredShed.Add(1)
				if !job.oneway {
					rep := &wire.Reply{ID: msg.Req.ID, ErrCode: CodeDeadline,
						Err: fmt.Sprintf("deadline expired before dispatch of %q", msg.Req.Operation)}
					if err := s.writeReply(c.cw, wire.GetFrameBuffer(), rep, false, time.Now().Add(time.Second)); err != nil {
						s.logf("orb: write expired-shed reply: %v", err)
					}
				}
				s.release(msg)
				continue
			}
			// Pipelining, or a rescued dispatch still running: the pool.
			if c.fr.Buffered() != 0 || !c.slot.CompareAndSwap(false, true) {
				s.admit(c.cw, job)
				continue
			}
			s.stats.inlineDispatches.Add(1)
			seq := c.inlineSeq.Add(1)
			if !c.listed.Swap(true) {
				watchInline(c)
			}
			s.handle(c.cw, job)
			kept := c.inlineSeq.CompareAndSwap(seq, seq+1)
			c.slot.Store(false)
			if !kept {
				return true
			}
		case wire.MsgSubscribe:
			// Handled inline: registering a sink must be quick (EventSource
			// contract), and serial handling makes duplicate-id checks
			// race-free without a lock.
			s.handleSubscribe(c.cw, msg.Sub, c.subs)
			s.release(msg)
		case wire.MsgUnsubscribe:
			if ss, ok := c.subs[msg.UnsubID]; ok {
				delete(c.subs, msg.UnsubID)
				ss.sink.closed.Store(true)
				if ss.cancel != nil {
					ss.cancel()
				}
			}
			s.release(msg)
		default:
			s.logf("orb: unexpected %s message on server connection", msg.Type)
			s.release(msg)
			return false
		}
	}
}

// handle dispatches one request and, unless it was oneway, writes the reply
// as a single frame from a pooled buffer, which a ResultWriter servant
// fills itself. Then it releases the request, whose args the reply may
// have been encoded from.
func (s *Server) handle(cw *connWriter, j connJob) {
	req := j.msg.Req
	if j.oneway {
		s.dispatchEntry(j.entry, req, nil) // no reply, errors dropped by design
		s.release(j.msg)
		return
	}
	fb := wire.GetFrameBuffer()
	rep, written := s.dispatchEntry(j.entry, req, fb)
	// Bound the reply write by the request's wire deadline (with a small
	// floor so even an already-expired caller gets its DEADLINE_EXCEEDED
	// reply rather than a hang).
	var deadline time.Time
	if req.Deadline != 0 {
		deadline = time.Unix(0, req.Deadline)
		if floor := time.Now().Add(time.Second); deadline.Before(floor) {
			deadline = floor
		}
	}
	if err := s.writeReply(cw, fb, &rep, written, deadline); err != nil {
		s.logf("orb: write reply: %v", err)
	}
	s.release(j.msg)
}

// release returns a message readFrames borrowed once it has been handled,
// however that ended.
func (s *Server) release(msg *wire.Borrowed) {
	msg.Release()
	s.stats.borrowed.Add(-1)
}

// writeReply writes one reply frame from fb, a pooled buffer it recycles:
// rep encoded, or the reply fb holds already when written. A reply that
// does not encode, or is too large to frame, is answered with a
// CodeInternal error reply in its place, so the caller learns of it instead
// of waiting out its deadline.
func (s *Server) writeReply(cw *connWriter, fb *wire.FrameBuffer, rep *wire.Reply, written bool, deadline time.Time) error {
	if !written {
		out, err := wire.AppendReply(fb.B, rep)
		if err != nil {
			wire.PutFrameBuffer(fb)
			return s.writeReply(cw, wire.GetFrameBuffer(), &wire.Reply{ID: rep.ID, ErrCode: CodeInternal,
				Err: "encode reply: " + err.Error()}, false, deadline)
		}
		fb.B = out
	}
	frame, err := fb.Frame()
	if err != nil {
		wire.PutFrameBuffer(fb)
		return s.writeReply(cw, wire.GetFrameBuffer(), &wire.Reply{ID: rep.ID, ErrCode: CodeInternal,
			Err: "reply exceeds frame size limit"}, false, deadline)
	}
	err = cw.writeFrame(frame, deadline)
	wire.PutFrameBuffer(fb)
	return err
}

// handleSubscribe opens one push stream: resolve the servant, require
// EventSource, register the sink, and ack (or refuse) with a normal reply
// correlated by the subscribe frame's request id.
func (s *Server) handleSubscribe(cw *connWriter, sub *wire.Subscribe, subs map[uint64]*serverSub) {
	rep := &wire.Reply{ID: sub.ID}
	entry := s.servantEntryFor(sub.ObjectKey)
	switch {
	case entry == nil:
		rep.ErrCode = CodeNoSuchObject
		rep.Err = fmt.Sprintf("no object %q", sub.ObjectKey)
	default:
		es, ok := entry.servant.(EventSource)
		if !ok {
			rep.ErrCode = CodeBadOperation
			rep.Err = fmt.Sprintf("object %q does not push events", sub.ObjectKey)
			break
		}
		if _, dup := subs[sub.SubID]; dup {
			rep.ErrCode = CodeBadParam
			rep.Err = fmt.Sprintf("duplicate subscription id %d", sub.SubID)
			break
		}
		sink := &eventSink{w: cw, subID: sub.SubID}
		cancel, err := safeSubscribe(es, sub.Topic, sub.Args, sink)
		if err != nil {
			rep.ErrCode, rep.Err = servantErrorCode(err), err.Error()
			break
		}
		subs[sub.SubID] = &serverSub{sink: sink, cancel: cancel}
	}
	if err := s.writeReply(cw, wire.GetFrameBuffer(), rep, false, time.Now().Add(DefaultWriteTimeout)); err != nil {
		s.logf("orb: write subscribe ack: %v", err)
	}
}

// servantEntryFor resolves an object key to its servant entry (nil if none
// is registered).
func (s *Server) servantEntryFor(key string) *servantEntry {
	s.mu.RLock()
	entry := s.servants[key]
	s.mu.RUnlock()
	return entry
}

// dispatchEntry routes a request to entry's servant (nil if none is
// registered), applying IDL checking when configured, and converts errors
// into error replies. Given a frame buffer, it lets a ResultWriter servant
// encode its reply there: written reports that fb holds the reply, and rep
// then carries only its id.
func (s *Server) dispatchEntry(entry *servantEntry, req *wire.Request, fb *wire.FrameBuffer) (rep wire.Reply, written bool) {
	if s.sm != nil {
		start := time.Now()
		rep, written = s.dispatchEntryUntimed(entry, req, fb)
		s.sm.observe(time.Since(start), rep.ErrCode)
		return rep, written
	}
	return s.dispatchEntryUntimed(entry, req, fb)
}

func (s *Server) dispatchEntryUntimed(entry *servantEntry, req *wire.Request, fb *wire.FrameBuffer) (wire.Reply, bool) {
	if req.Deadline != 0 && time.Now().UnixNano() > req.Deadline {
		// Backstop for requests that expired after admission (e.g. while
		// queued for a pool worker); admission-time expiry is caught in
		// readFrames. Both count as ExpiredShed.
		s.stats.expiredShed.Add(1)
		return wire.Reply{ID: req.ID, ErrCode: CodeDeadline,
			Err: fmt.Sprintf("deadline expired before dispatch of %q", req.Operation)}, false
	}
	if entry == nil {
		return wire.Reply{ID: req.ID, ErrCode: CodeNoSuchObject,
			Err: fmt.Sprintf("no object %q", req.ObjectKey)}, false
	}
	if s.opts.Repo != nil && entry.iface != "" {
		if _, err := s.opts.Repo.CheckCall(entry.iface, req.Operation, req.Args); err != nil {
			var bad *idl.BadCallError
			code := CodeBadParam
			if errors.As(err, &bad) && bad.Msg == "no such operation" {
				code = CodeBadOperation
			}
			return wire.Reply{ID: req.ID, ErrCode: code, Err: err.Error()}, false
		}
	}
	results, written, err := safeInvoke(entry.servant, req, fb)
	if err != nil {
		return wire.Reply{ID: req.ID, ErrCode: servantErrorCode(err), Err: err.Error()}, false
	}
	return wire.Reply{ID: req.ID, Results: results}, written
}

// servantErrorCode is the reply code for a servant's error: CodeApp for an
// AppError, CodeInternal for any other.
func servantErrorCode(err error) string {
	var app *AppError
	if errors.As(err, &app) {
		return CodeApp
	}
	return CodeInternal
}

// safeInvoke calls the servant: a ResultWriter's AppendResults into fb when
// there is one, else Invoke. It shields the server from servant panics: a
// panicking servant produces an INTERNAL error reply instead of tearing
// the process down. fb holds a written reply only when written is true.
func safeInvoke(sv Servant, req *wire.Request, fb *wire.FrameBuffer) (results []wire.Value, written bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, written = nil, false
			err = fmt.Errorf("servant panic in %s: %v", req.Operation, r)
		}
	}()
	if rw, ok := sv.(ResultWriter); ok && fb != nil {
		out, handled, err := rw.AppendResults(wire.AppendReplyHeader(fb.B, req.ID), req.Operation, req.Args)
		if handled {
			if err == nil {
				fb.B = out
			}
			return nil, err == nil, err
		}
	}
	results, err = sv.Invoke(req.Operation, req.Args)
	return results, false, err
}

// watch is the inline-dispatch watchdog. A reader lists its connection as an
// inline dispatch starts. While any is listed, one goroutine ticks every
// inlineTick, hands the read role of a dispatch unchanged across a whole tick
// to a new reader (a rescue), and unlists connections between dispatches.
// A timer per dispatch would cost a netpoller wake-up per round trip.
var watch struct {
	mu      sync.Mutex
	conns   []*serverConn // listed, each once
	ticking bool
}

const inlineTick = time.Millisecond

// watchInline lists c, which has just started an inline dispatch.
func watchInline(c *serverConn) {
	watch.mu.Lock()
	watch.conns = append(watch.conns, c)
	if !watch.ticking {
		watch.ticking = true
		go watchLoop()
	}
	watch.mu.Unlock()
}

func watchLoop() {
	for idle := false; ; {
		time.Sleep(inlineTick)
		watch.mu.Lock()
		listed := watch.conns[:0]
		for _, c := range watch.conns {
			v := c.inlineSeq.Load()
			if v&1 == 1 && v == c.seen && c.inlineSeq.CompareAndSwap(v, v+1) {
				// The stuck reader holds s.wg until it has seen these Adds
				// (see read), so neither meets a Wait at zero: Close waits on
				// s.wg, and only the reader holding the read role, which
				// starts below, waits on busy.
				c.s.stats.inlineRescues.Add(1)
				c.busy.Add(1)
				c.s.wg.Add(1)
				go c.read()
				v++
			}
			c.seen = v
			if v&1 == 0 {
				// Unlist it, unless its reader started a dispatch unaware.
				c.listed.Store(false)
				if c.inlineSeq.Load() == v || c.listed.Swap(true) {
					continue
				}
			}
			listed = append(listed, c)
		}
		clear(watch.conns[len(listed):])
		watch.conns = listed
		stop := idle && len(listed) == 0
		idle, watch.ticking = len(listed) == 0, !stop
		watch.mu.Unlock()
		if stop {
			return
		}
	}
}
