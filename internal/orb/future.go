package orb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"autoadapt/internal/wire"
)

// Asynchronous pipelined invocation.
//
// Invoke blocks its caller with exactly one frame in flight; InvokeAsync
// decouples issue from completion, so one goroutine can keep a window of
// requests outstanding on a single connection and replies complete out of
// order through the same pending map the blocking path uses. Combined with
// the in-flight window (ClientOptions.MaxInFlight) and write batching
// (ClientOptions.BatchWindow), this is the client half of the pipelined
// ORB: flow-controlled, syscall-coalesced, and observable via Stats.

// Future is the completion handle of an InvokeAsync invocation. It
// completes exactly once — with the reply, the connection's death, or the
// caller's cancellation — and is safe for concurrent use.
type Future struct {
	// cc carries the request; the future holds one of its in-flight
	// window slots until it completes.
	cc   *clientConn
	id   uint64
	done chan struct{}
	// br, when non-nil, is the endpoint's circuit breaker: completion
	// feeds the outcome back exactly once (probe = this call was the
	// half-open probe).
	br    *breaker
	probe bool

	once    sync.Once
	results []wire.Value
	err     error
}

// complete resolves the future. The first caller wins; sync.Once
// guarantees the result fields are stable before done closes and that
// concurrent completers return only after resolution finished.
func (f *Future) complete(rep *wire.Reply, err error) {
	f.once.Do(func() {
		if err != nil {
			f.err = err
		} else {
			f.results, f.err = replyToResults(rep)
		}
		if f.br != nil {
			f.br.record(f.err, f.probe)
		}
		f.cc.releaseSlot()
		close(f.done)
	})
}

// cancel abandons the invocation: the pending entry is forgotten (freeing
// its window slot and repooling the waiter) and the future completes with
// err — unless a real reply already won the race, in which case that
// outcome stands.
func (f *Future) cancel(err error) {
	f.cc.forget(f.id, true)
	f.complete(nil, err)
}

// Done returns a channel closed when the future completes. After Done is
// closed, Result returns immediately.
func (f *Future) Done() <-chan struct{} { return f.done }

// Result blocks until the future completes and returns its outcome.
func (f *Future) Result() ([]wire.Value, error) {
	<-f.done
	return f.results, f.err
}

// Wait blocks until the reply arrives, the connection dies, or ctx ends.
// A ctx expiry abandons the invocation (see cancel) and reports ctx's
// error unless the reply won the race.
func (f *Future) Wait(ctx context.Context) ([]wire.Value, error) {
	select {
	case <-f.done:
		return f.results, f.err
	case <-ctx.Done():
		f.cc.c.stats.canceled.Add(1)
		f.cancel(ctx.Err())
		return f.results, f.err
	}
}

// InvokeAsync begins a pipelined invocation of op on ref and returns a
// Future that completes when the reply arrives. Unlike Invoke it performs
// a single attempt — an async caller owns redelivery — but it respects
// the per-endpoint circuit breaker and the connection's in-flight window
// (ctx bounds both the send and, via the wire deadline, server dispatch).
// An already-done ctx sends nothing. Breaker bookkeeping is exactly-once
// per allow: failures before the future is registered record here; from
// then on its completion owns the record and the window slot (including
// the send-failure path, where cancel/close completes it).
func (c *Client) InvokeAsync(ctx context.Context, ref wire.ObjRef, op string, args ...wire.Value) (*Future, error) {
	if ref.IsZero() {
		return nil, errors.New("orb: async invoke on nil object reference")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.stats.asyncCalls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	br := c.breakerFor(ref.Endpoint)
	probe := false
	if br != nil {
		var err error
		if probe, err = br.allow(ref.Endpoint); err != nil {
			return nil, err
		}
	}
	cc, err := c.conn(ctx, ref.Endpoint)
	if err == nil {
		err = cc.acquireSlot(ctx)
	}
	if err != nil {
		if br != nil {
			br.record(err, probe)
		}
		return nil, err
	}
	fut := &Future{cc: cc, done: make(chan struct{}), br: br, probe: probe}
	_, id, err := cc.register(fut, false, nil)
	if err != nil {
		fut.complete(nil, err) // frees the slot, feeds the breaker
		return nil, err
	}
	fut.id = id
	if err := cc.sendRequest(ctx, id, ref.Key, op, args); err != nil {
		// Forget the entry (or let close complete the future): the slot is
		// released, and the breaker fed, exactly once either way.
		cc.forget(id, false)
		fut.complete(nil, err)
		return nil, err
	}
	return fut, nil
}

// ClientStats is a point-in-time snapshot of a Client's observability
// counters. LateReplies is the canary for pipelining bugs: a reply that
// lost the race with a caller's cancellation is counted here instead of
// vanishing silently.
type ClientStats struct {
	SyncInvokes   uint64 // blocking round-trip attempts
	AsyncInvokes  uint64 // InvokeAsync calls
	Oneways       uint64 // InvokeOneway calls
	LateReplies   uint64 // replies orphaned by forget/cancel races
	Canceled      uint64 // invocations abandoned by their context
	WindowWaits   uint64 // sends that blocked on a full in-flight window
	BatchFlushes  uint64 // coalesced batch writes
	BatchedFrames uint64 // frames that rode a batch
	EventsPushed  uint64 // pushed events their subscriptions' readers took
	EventsDropped uint64 // pushed events for a gone sub, or refused by its reader
	Subscribes    uint64 // Subscribe calls
}

// clientStats is the live atomic counterpart of ClientStats.
type clientStats struct {
	syncCalls, asyncCalls, oneways atomic.Uint64
	lateReplies, canceled          atomic.Uint64
	windowWaits                    atomic.Uint64
	batchFlushes, batchedFrames    atomic.Uint64
	eventsPushed, eventsDropped    atomic.Uint64
	subscribes                     atomic.Uint64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		SyncInvokes:   c.stats.syncCalls.Load(),
		AsyncInvokes:  c.stats.asyncCalls.Load(),
		Oneways:       c.stats.oneways.Load(),
		LateReplies:   c.stats.lateReplies.Load(),
		Canceled:      c.stats.canceled.Load(),
		WindowWaits:   c.stats.windowWaits.Load(),
		BatchFlushes:  c.stats.batchFlushes.Load(),
		BatchedFrames: c.stats.batchedFrames.Load(),
		EventsPushed:  c.stats.eventsPushed.Load(),
		EventsDropped: c.stats.eventsDropped.Load(),
		Subscribes:    c.stats.subscribes.Load(),
	}
}
