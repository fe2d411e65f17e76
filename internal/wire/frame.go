package wire

import (
	"fmt"
)

// MsgType distinguishes ORB protocol messages within a frame.
type MsgType uint8

// Message types. Oneway requests elicit no reply (the paper's
// EventObserver.notifyEvent is declared oneway, Fig. 2). Subscribe opens
// a server-push stream on the connection: the server acks it with a
// normal Reply and thereafter delivers Event frames tagged with the
// subscription id until the client unsubscribes or the connection dies.
const (
	MsgRequest MsgType = iota + 1
	MsgReply
	MsgOneway
	MsgErrorReply
	MsgSubscribe
	MsgUnsubscribe
	MsgEvent
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgRequest:
		return "request"
	case MsgReply:
		return "reply"
	case MsgOneway:
		return "oneway"
	case MsgErrorReply:
		return "error"
	case MsgSubscribe:
		return "subscribe"
	case MsgUnsubscribe:
		return "unsubscribe"
	case MsgEvent:
		return "event"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// StatusOverloaded is the error code a server puts in a reply it sheds at
// admission because its dispatch pool and queue are saturated. It lives in
// the wire package (unlike the orb.Code* constants) because both sides of
// the protocol and the fuzz corpus treat it as part of the frame format:
// an overload reply must round-trip like any other error reply.
const StatusOverloaded = "OVERLOADED"

// Request is an invocation of an operation on a remote object. Args are
// dynamically typed, which is what makes the client side stub-free (the
// paper's DII analog).
type Request struct {
	ID        uint64  // correlates replies; 0 for oneway
	ObjectKey string  // target object within the server's adapter
	Operation string  // operation name
	Args      []Value // positional arguments

	// Deadline is the invocation deadline in Unix nanoseconds (0 = none).
	// It rides the wire so servers can abort dispatch of requests whose
	// caller has already given up and bound the write of the reply.
	Deadline int64
}

// Reply carries the results of a request, or an error.
type Reply struct {
	ID      uint64
	Results []Value
	Err     string // non-empty on MsgErrorReply
	ErrCode string // machine-matchable error code (see orb package)
}

// EncodeRequest encodes a request (or oneway, if oneway is true) into a
// fresh frame payload. Hot paths use AppendRequest with a pooled buffer.
func EncodeRequest(req *Request, oneway bool) ([]byte, error) {
	return AppendRequest(nil, req, oneway)
}

// AppendRequest appends the encoding of a request (or oneway, if oneway is
// true) to dst and returns the extended slice.
func AppendRequest(dst []byte, req *Request, oneway bool) ([]byte, error) {
	mt := MsgRequest
	if oneway {
		mt = MsgOneway
	}
	buf := append(dst, byte(mt))
	buf = appendUint64(buf, req.ID)
	buf = appendUint64(buf, uint64(req.Deadline))
	buf = appendString(buf, req.ObjectKey)
	buf = appendString(buf, req.Operation)
	buf = appendString(buf, "") // reserved (e.g. auth context)
	buf = appendUint64(buf, uint64(len(req.Args)))
	var err error
	for _, a := range req.Args {
		if buf, err = AppendValue(buf, a); err != nil {
			return nil, fmt.Errorf("wire: encode request arg: %w", err)
		}
	}
	return buf, nil
}

// AppendReply appends the encoding of a reply to dst and returns the
// extended slice.
func AppendReply(dst []byte, rep *Reply) ([]byte, error) {
	if rep.Err != "" {
		buf := append(dst, byte(MsgErrorReply))
		buf = appendUint64(buf, rep.ID)
		buf = appendString(buf, rep.ErrCode)
		buf = appendString(buf, rep.Err)
		return buf, nil
	}
	buf := AppendValueCount(AppendReplyHeader(dst, rep.ID), len(rep.Results))
	var err error
	for _, r := range rep.Results {
		if buf, err = AppendValue(buf, r); err != nil {
			return nil, fmt.Errorf("wire: encode reply result: %w", err)
		}
	}
	return buf, nil
}

// AppendReplyHeader appends the start of a reply with results: its type
// and id. The results follow as AppendReply writes them: their count
// (AppendValueCount), then each value.
func AppendReplyHeader(dst []byte, id uint64) []byte {
	return appendUint64(append(dst, byte(MsgReply)), id)
}

// AppendValueCount appends the count of a message's values.
func AppendValueCount(dst []byte, n int) []byte {
	return appendUint64(dst, uint64(n))
}

// ReplyID returns the id of a reply or error-reply payload without
// decoding it; ok is false for any other payload.
func ReplyID(payload []byte) (id uint64, ok bool) {
	if len(payload) < 9 || (MsgType(payload[0]) != MsgReply && MsgType(payload[0]) != MsgErrorReply) {
		return 0, false
	}
	return headerID(payload), true
}

// EventSubID returns the subscription id of an event payload without
// decoding it; ok is false for any other payload.
func EventSubID(payload []byte) (subID uint64, ok bool) {
	if len(payload) < 9 || MsgType(payload[0]) != MsgEvent {
		return 0, false
	}
	return headerID(payload), true
}

// headerID reads the id after a payload's type byte.
func headerID(payload []byte) uint64 {
	d := Decoder{buf: payload[1:9]}
	id, _ := d.u64()
	return id
}

// Subscribe opens a push subscription on an object: the server routes
// Topic and Args (e.g. an event id and a shipped predicate) to the
// servant, which streams events back as Event frames carrying SubID.
// The server acknowledges with a Reply (or ErrorReply) correlated by ID,
// exactly like a request.
type Subscribe struct {
	ID        uint64  // correlates the ack reply
	SubID     uint64  // client-chosen stream id, unique per connection
	ObjectKey string  // target object within the server's adapter
	Topic     string  // what to subscribe to (e.g. an event id)
	Args      []Value // subscription arguments (e.g. predicate source)
}

// Event is one pushed notification on an open subscription.
type Event struct {
	SubID  uint64
	Values []Value
}

// AppendSubscribe appends the encoding of a subscribe message to dst.
func AppendSubscribe(dst []byte, sub *Subscribe) ([]byte, error) {
	buf := append(dst, byte(MsgSubscribe))
	buf = appendUint64(buf, sub.ID)
	buf = appendUint64(buf, sub.SubID)
	buf = appendString(buf, sub.ObjectKey)
	buf = appendString(buf, sub.Topic)
	buf = appendUint64(buf, uint64(len(sub.Args)))
	var err error
	for _, a := range sub.Args {
		if buf, err = AppendValue(buf, a); err != nil {
			return nil, fmt.Errorf("wire: encode subscribe arg: %w", err)
		}
	}
	return buf, nil
}

// AppendUnsubscribe appends the encoding of an unsubscribe message to dst.
func AppendUnsubscribe(dst []byte, subID uint64) []byte {
	buf := append(dst, byte(MsgUnsubscribe))
	return appendUint64(buf, subID)
}

// AppendEvent appends the encoding of a pushed event to dst.
func AppendEvent(dst []byte, ev *Event) ([]byte, error) {
	buf := AppendValueCount(AppendEventHeader(dst, ev.SubID), len(ev.Values))
	var err error
	for _, v := range ev.Values {
		if buf, err = AppendValue(buf, v); err != nil {
			return nil, fmt.Errorf("wire: encode event value: %w", err)
		}
	}
	return buf, nil
}

// AppendEventHeader appends the start of an event: its type and
// subscription id. The values follow as AppendEvent writes them: their
// count (AppendValueCount), then each value.
func AppendEventHeader(dst []byte, subID uint64) []byte {
	return appendUint64(append(dst, byte(MsgEvent)), subID)
}

// Message is a decoded protocol message: exactly one of Req, Rep, Sub,
// Event, or (for unsubscribe) UnsubID is set.
type Message struct {
	Type    MsgType
	Req     *Request
	Rep     *Reply
	Sub     *Subscribe
	Event   *Event
	UnsubID uint64 // set when Type == MsgUnsubscribe
}

// DecodeMessage decodes a frame payload into a protocol message. A message
// of up to four values is one allocation: the Message, its body and the
// backing array of its values together. One of more values allocates its
// values apart: past four, a reply's or an event's one object would take
// a larger size class than its two. The values slice has capacity n, as
// if made alone.
func DecodeMessage(payload []byte) (*Message, error) {
	return decodeMessage(payload, nil, nil)
}

// maxFusedValues is the most values a decoded message holds in the object
// of its Message and body (see DecodeMessage).
const maxFusedValues = 4

// withValues allocates a message body B with room for n values, as one
// object when n is at most maxFusedValues.
func withValues[B any](n uint64) (*B, []Value) {
	if n <= maxFusedValues {
		if b, vs, ok := fuse[B, Value](int(n)); ok {
			return b, vs
		}
	}
	return new(B), make([]Value, 0, n)
}

// decodeMessage decodes payload, taking short strings from in when it is
// not nil, and a request into b when b is not nil, its long top-level
// strings views when b holds the buffer payload is in. The header fields
// are read before anything is allocated, so the value count is known when
// the message's one object is.
func decodeMessage(payload []byte, in *internTable, b *Borrowed) (*Message, error) {
	if len(payload) == 0 {
		return nil, ErrTruncated
	}
	mt := MsgType(payload[0])
	d := &Decoder{buf: payload[1:], in: in}
	switch mt {
	case MsgRequest, MsgOneway:
		var req Request
		var err error
		if req.ID, err = d.u64(); err != nil {
			return nil, err
		}
		dl, err := d.u64()
		if err != nil {
			return nil, err
		}
		req.Deadline = int64(dl)
		if req.ObjectKey, err = d.str(); err != nil {
			return nil, err
		}
		if req.Operation, err = d.str(); err != nil {
			return nil, err
		}
		if _, err = d.str(); err != nil { // reserved
			return nil, err
		}
		n, err := d.valueCount()
		if err != nil {
			return nil, err
		}
		var msg *Message
		var args []Value
		if b == nil {
			x, vs := withValues[struct {
				Message
				req Request
			}](n)
			x.req, msg, args = req, &x.Message, vs
			*msg = Message{Type: mt, Req: &x.req}
		} else {
			b.req, msg, args = req, &b.Message, b.args[:0]
			*msg = Message{Type: mt, Req: &b.req}
			if n > maxFusedValues {
				args = make([]Value, 0, n)
			}
			d.view = b.buf != nil
		}
		if msg.Req.Args, err = d.values(args, n, "arg", "request"); err != nil {
			return nil, err
		}
		return msg, nil
	case MsgReply, MsgErrorReply:
		var rep Reply
		var err error
		if rep.ID, err = d.u64(); err != nil {
			return nil, err
		}
		var n uint64
		if mt == MsgErrorReply {
			if rep.ErrCode, err = d.str(); err != nil {
				return nil, err
			}
			if rep.Err, err = d.str(); err != nil {
				return nil, err
			}
			if rep.Err == "" {
				rep.Err = "unknown remote error"
			}
		} else if n, err = d.valueCount(); err != nil {
			return nil, err
		}
		x, results := withValues[struct {
			Message
			rep Reply
		}](n)
		x.rep = rep
		x.Message = Message{Type: mt, Rep: &x.rep}
		if mt == MsgErrorReply {
			return &x.Message, nil
		}
		if x.rep.Results, err = d.values(results, n, "result", "reply"); err != nil {
			return nil, err
		}
		return &x.Message, nil
	case MsgSubscribe:
		var sub Subscribe
		var err error
		if sub.ID, err = d.u64(); err != nil {
			return nil, err
		}
		if sub.SubID, err = d.u64(); err != nil {
			return nil, err
		}
		if sub.ObjectKey, err = d.str(); err != nil {
			return nil, err
		}
		if sub.Topic, err = d.str(); err != nil {
			return nil, err
		}
		n, err := d.valueCount()
		if err != nil {
			return nil, err
		}
		x, args := withValues[struct {
			Message
			sub Subscribe
		}](n)
		x.sub = sub
		x.Message = Message{Type: mt, Sub: &x.sub}
		if x.sub.Args, err = d.values(args, n, "subscribe arg", "subscribe"); err != nil {
			return nil, err
		}
		return &x.Message, nil
	case MsgUnsubscribe:
		subID, err := d.u64()
		if err != nil {
			return nil, err
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes in unsubscribe", d.Remaining())
		}
		return &Message{Type: mt, UnsubID: subID}, nil
	case MsgEvent:
		subID, err := d.u64()
		if err != nil {
			return nil, err
		}
		n, err := d.valueCount()
		if err != nil {
			return nil, err
		}
		x, vals := withValues[struct {
			Message
			ev Event
		}](n)
		x.ev.SubID = subID
		x.Message = Message{Type: mt, Event: &x.ev}
		if x.ev.Values, err = d.values(vals, n, "event value", "event"); err != nil {
			return nil, err
		}
		return &x.Message, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type 0x%02x", payload[0])
	}
}

// valueCount decodes a message's value count, refusing one larger than
// the bytes left: each value is one byte or more.
func (d *Decoder) valueCount() (uint64, error) {
	n, err := d.u64()
	if err == nil && n > uint64(d.Remaining()) {
		err = ErrTruncated
	}
	return n, err
}

// values decodes a message's n values into vs, which has room for them,
// and requires that they end the payload. item and msg name the value and
// the message in errors.
func (d *Decoder) values(vs []Value, n uint64, item, msg string) ([]Value, error) {
	for i := uint64(0); i < n; i++ {
		v, err := d.Value()
		if err != nil {
			return nil, fmt.Errorf("wire: decode %s %d: %w", item, i, err)
		}
		vs = append(vs, v)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in %s", d.Remaining(), msg)
	}
	return vs, nil
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (d *Decoder) u64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrTruncated
	}
	b := d.buf[d.pos : d.pos+8]
	d.pos += 8
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
}
