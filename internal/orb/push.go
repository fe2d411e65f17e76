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
// the subscription id, and the client demultiplexes them into a buffered
// channel — no polling, no per-event request/reply round trip. This is the
// push half of the paper's event monitor: observers used to be notified by
// oneway invocations driven off a Tick poll; with a subscription the
// notification is streamed the moment the monitor detects the event.

// DefaultSubscriptionBuffer is every subscription's event buffer. A full
// buffer drops new events
// (counted in ClientStats.EventsDropped) rather than blocking the
// connection's reader.
const DefaultSubscriptionBuffer = 16

// ErrSubscriptionClosed is returned by EventSink.Push once the subscriber
// is gone (unsubscribed, or its connection died): the servant should stop
// pushing.
var ErrSubscriptionClosed = errors.New("orb: subscription closed")

// EventSink is the servant's handle for pushing events to one subscriber.
// Push is safe for concurrent use and never blocks on the subscriber.
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

// Subscription is the client's end of a push stream.
type Subscription struct {
	cc *clientConn
	id uint64 // stream id on cc
	ch chan []wire.Value

	mu     sync.Mutex
	closed bool
	err    error
}

// Events returns the stream of pushed events. The channel is closed when
// the subscription ends — by Close, or by connection death (see Err).
func (s *Subscription) Events() <-chan []wire.Value { return s.ch }

// Err reports why the event channel closed: nil after a clean Close, the
// connection's death error otherwise. Valid once Events is closed.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close unsubscribes: the event channel is closed, the server's sink is
// cancelled (best effort), and late events are dropped. Close is
// idempotent.
func (s *Subscription) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	s.cc.removeSub(s.id)
	return s.cc.sendUnsubscribe(s.id)
}

// deliver hands one pushed event to the subscriber. A full buffer drops
// the event (and counts it) instead of stalling the delivering goroutine,
// the connection's reader, which must never block on a slow consumer.
func (s *Subscription) deliver(values []wire.Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.cc.c.stats.eventsDropped.Add(1)
		return
	}
	select {
	case s.ch <- values:
		s.cc.c.stats.eventsPushed.Add(1)
	default:
		s.cc.c.stats.eventsDropped.Add(1)
	}
}

// fail ends the subscription with err (connection death). Idempotent.
func (s *Subscription) fail(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.err = err
	close(s.ch)
	s.mu.Unlock()
}

// Subscribe opens a push subscription on the object named by ref: topic
// and args are delivered to the servant's EventSource.Subscribe, and
// events it pushes arrive on the returned Subscription's channel.
// Subscribe performs a single attempt (no retry policy) and does not
// consume an in-flight window slot — subscriptions are long-lived control
// state, not pipelined requests.
func (c *Client) Subscribe(ctx context.Context, ref wire.ObjRef, topic string, args ...wire.Value) (*Subscription, error) {
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
	return cc.subscribe(ctx, ref.Key, topic, args)
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
func (cc *clientConn) subscribe(ctx context.Context, key, topic string, args []wire.Value) (*Subscription, error) {
	sub := &Subscription{cc: cc, ch: make(chan []wire.Value, DefaultSubscriptionBuffer)}
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
			sub.fail(err)
			return nil, err
		}
		return sub, nil
	case <-ctx.Done():
		if !cc.forget(id, true) && !cc.isDead() {
			cc.c.stats.lateReplies.Add(1)
		}
		cc.removeSub(subID)
		sub.fail(ctx.Err())
		// The server may have registered the sink before our patience ran
		// out; tell it to tear the stream down (best effort).
		_ = cc.sendUnsubscribe(subID)
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
	cc.mu.Lock()
	if cc.dead {
		cc.mu.Unlock()
		return nil // the stream died with the connection; nothing to tell
	}
	cc.mu.Unlock()
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
