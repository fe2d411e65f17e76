package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"autoadapt/internal/wire"
)

// Server-push subscriptions.
//
// A Subscribe frame opens a one-way event stream on an existing multiplexed
// connection: the servant (an EventSource) pushes Event frames tagged with
// the subscription id, and whoever holds the connection's read role hands
// each to the subscriber's EventReader — no polling, no per-event
// request/reply round trip, and no buffer or goroutine per stream. This is
// the push half of the paper's event monitor: observers used to be notified
// by oneway invocations driven off a Tick poll; with a subscription the
// notification is streamed the moment the monitor detects the event.

// ErrSubscriptionClosed is returned by EventSink.Push once the subscriber
// is gone (unsubscribed, or its connection died): the servant should stop
// pushing.
var ErrSubscriptionClosed = errors.New("orb: subscription closed")

// EventSink is the servant's handle for pushing events to one subscriber.
// Push is safe for concurrent use and never blocks on the subscriber. The
// ORB's sinks also have PushEncoded(n int, enc []byte) error, for n values
// given encoded: wire.AppendValue's bytes, one value after another.
type EventSink interface {
	Push(values ...wire.Value) error
}

// EventSource is an optional Servant extension for objects that push
// events. Subscribe registers sink for topic and returns a cancel function
// the ORB invokes when the subscriber unsubscribes or its connection dies;
// after cancel returns the servant must not Push on the sink again (Push
// would only report ErrSubscriptionClosed). args carry subscription
// parameters — for the event monitor, the predicate source shipped to the
// monitored node.
type EventSource interface {
	Servant
	Subscribe(topic string, args []wire.Value, sink EventSink) (cancel func(), err error)
}

// EventReader is a subscriber's end of a push stream. Whoever holds the
// connection's read role calls ReadEvent for each event, with a decoder
// over its n values, to be read or skipped (wire.Decoder.Skip) in order,
// every one; an error drops the event (ClientStats.EventsDropped).
// ReadEvent must not block, call over its connection, or close its
// subscription. EndEvents hears, once, the error that ends the stream with
// its connection (Subscription.Err). Both are called from the moment the
// stream is installed, during Subscribe, and neither after Close returns.
type EventReader interface {
	ReadEvent(d *wire.Decoder, n int) error
	EndEvents(err error)
}

// Subscription is the client's end of a push stream.
type Subscription struct {
	cc *clientConn
	id uint64 // stream id on cc
	r  EventReader

	mu     sync.Mutex // held while r reads an event or hears the end, so Close waits for it
	closed bool
	err    error
}

// Err reports why the stream ended: nil while it is open and after Close,
// the connection's death error otherwise.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close unsubscribes: once it returns, the subscription's reader is not
// called again; the server's sink is cancelled (best effort), and late
// events are dropped. Close is idempotent.
func (s *Subscription) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cc.removeSub(s.id)
	return s.cc.sendUnsubscribe(s.id)
}

// read hands an event payload to the subscription's reader, unless it is
// closed, and reports whether the reader took the event.
func (s *Subscription) read(fr *wire.FrameReader, payload []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && fr.DecodeEvent(payload, s.r.ReadEvent) == nil
}

// fail ends the subscription with err, its connection's death, and tells
// its reader. Idempotent.
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed, s.err = true, err
		s.r.EndEvents(err)
	}
}

// Subscribe opens a push subscription on the object named by ref: topic
// and args are delivered to the servant's EventSource.Subscribe, and r
// reads the events it pushes (see EventReader). Subscribe performs a single
// attempt (no retry policy) and does not consume an in-flight window slot
// — subscriptions are long-lived control state, not pipelined requests.
func (c *Client) Subscribe(ctx context.Context, ref wire.ObjRef, topic string, r EventReader, args ...wire.Value) (*Subscription, error) {
	if ref.IsZero() {
		return nil, errors.New("orb: subscribe on nil object reference")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.stats.subscribes.Add(1)
	cc, err := c.conn(ctx, ref.Endpoint)
	if err != nil {
		return nil, err
	}
	return cc.subscribe(ctx, ref.Key, topic, r, args)
}

// safeSubscribe shields the caller from a panicking EventSource.
func safeSubscribe(es EventSource, topic string, args []wire.Value, sink EventSink) (cancel func(), err error) {
	defer func() {
		if r := recover(); r != nil {
			cancel = nil
			err = fmt.Errorf("servant panic in subscribe(%s): %v", topic, r)
		}
	}()
	return es.Subscribe(topic, args, sink)
}

// subscribe performs the remote subscription handshake: install the
// stream locally, send the Subscribe frame, and wait for the server's ack
// reply. The stream is installed *before* the send so events racing ahead
// of the ack's processing are never dropped.
func (cc *clientConn) subscribe(ctx context.Context, key, topic string, r EventReader, args []wire.Value) (*Subscription, error) {
	sub := &Subscription{cc: cc, r: r}
	pc, id, err := cc.register(nil, true, nil) // waits on ctx like a cancellable call
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	subID := cc.nextSub
	cc.nextSub++
	sub.id = subID
	cc.subs[subID] = sub
	cc.mu.Unlock()

	if err := cc.sendSubscribe(ctx, &wire.Subscribe{ID: id, SubID: subID, ObjectKey: key, Topic: topic, Args: args}); err != nil {
		cc.forget(id, false)
		cc.removeSub(subID)
		return nil, err
	}
	select {
	case rep, ok := <-pc.ch:
		if !ok {
			// Connection died; close already failed the subscription.
			return nil, cc.deadError()
		}
		putPendingCall(pc)
		if _, err := replyToResults(rep); err != nil {
			// The servant refused: no sink was registered server-side.
			cc.removeSub(subID)
			return nil, err
		}
		return sub, nil
	case <-ctx.Done():
		if !cc.forget(id, true) && !cc.isDead() {
			cc.c.stats.lateReplies.Add(1)
		}
		// The server may have registered the sink before our patience ran
		// out; Close tells it to tear the stream down (best effort).
		_ = sub.Close()
		return nil, ctx.Err()
	}
}

// sendSubscribe encodes and sends one subscribe frame (see send).
func (cc *clientConn) sendSubscribe(ctx context.Context, sub *wire.Subscribe) error {
	var deadline time.Time
	if dl, ok := ctx.Deadline(); ok {
		deadline = dl
	}
	fb := wire.GetFrameBuffer()
	out, err := wire.AppendSubscribe(fb.B, sub)
	if err != nil {
		wire.PutFrameBuffer(fb)
		return err
	}
	fb.B = out
	return cc.send(fb, deadline)
}

// sendUnsubscribe tells the server to tear down stream subID.
func (cc *clientConn) sendUnsubscribe(subID uint64) error {
	if cc.isDead() {
		return nil // the stream died with the connection; nothing to tell
	}
	fb := wire.GetFrameBuffer()
	fb.B = wire.AppendUnsubscribe(fb.B, subID)
	return cc.send(fb, time.Time{})
}

// removeSub detaches stream subID (no-op if already gone).
func (cc *clientConn) removeSub(subID uint64) {
	cc.mu.Lock()
	delete(cc.subs, subID)
	cc.mu.Unlock()
}
