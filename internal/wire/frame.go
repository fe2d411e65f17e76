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

// EncodeReply encodes a reply into a fresh frame payload. Hot paths use
// AppendReply with a pooled buffer.
func EncodeReply(rep *Reply) ([]byte, error) {
	return AppendReply(nil, rep)
}

// AppendReply appends the encoding of a reply to dst and returns the
// extended slice.
func AppendReply(dst []byte, rep *Reply) ([]byte, error) {
	mt := MsgReply
	if rep.Err != "" {
		mt = MsgErrorReply
	}
	buf := append(dst, byte(mt))
	buf = appendUint64(buf, rep.ID)
	if rep.Err != "" {
		buf = appendString(buf, rep.ErrCode)
		buf = appendString(buf, rep.Err)
		return buf, nil
	}
	buf = appendUint64(buf, uint64(len(rep.Results)))
	var err error
	for _, r := range rep.Results {
		if buf, err = AppendValue(buf, r); err != nil {
			return nil, fmt.Errorf("wire: encode reply result: %w", err)
		}
	}
	return buf, nil
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
	buf := append(dst, byte(MsgEvent))
	buf = appendUint64(buf, ev.SubID)
	buf = appendUint64(buf, uint64(len(ev.Values)))
	var err error
	for _, v := range ev.Values {
		if buf, err = AppendValue(buf, v); err != nil {
			return nil, fmt.Errorf("wire: encode event value: %w", err)
		}
	}
	return buf, nil
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

// DecodeMessage decodes a frame payload into a protocol message. The
// Message and its body are one allocation.
func DecodeMessage(payload []byte) (*Message, error) {
	if len(payload) == 0 {
		return nil, ErrTruncated
	}
	mt := MsgType(payload[0])
	d := NewDecoder(payload[1:])
	switch mt {
	case MsgRequest, MsgOneway:
		x := &struct {
			Message
			req Request
		}{Message: Message{Type: mt}}
		x.Req = &x.req
		req := x.Req
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
		n, err := d.u64()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.Remaining()) {
			return nil, ErrTruncated
		}
		req.Args = make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := d.Value()
			if err != nil {
				return nil, fmt.Errorf("wire: decode arg %d: %w", i, err)
			}
			req.Args = append(req.Args, v)
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes in request", d.Remaining())
		}
		return &x.Message, nil
	case MsgReply, MsgErrorReply:
		x := &struct {
			Message
			rep Reply
		}{Message: Message{Type: mt}}
		x.Rep = &x.rep
		rep := x.Rep
		var err error
		if rep.ID, err = d.u64(); err != nil {
			return nil, err
		}
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
			return &x.Message, nil
		}
		n, err := d.u64()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.Remaining()) {
			return nil, ErrTruncated
		}
		rep.Results = make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := d.Value()
			if err != nil {
				return nil, fmt.Errorf("wire: decode result %d: %w", i, err)
			}
			rep.Results = append(rep.Results, v)
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes in reply", d.Remaining())
		}
		return &x.Message, nil
	case MsgSubscribe:
		x := &struct {
			Message
			sub Subscribe
		}{Message: Message{Type: mt}}
		x.Sub = &x.sub
		sub := x.Sub
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
		n, err := d.u64()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.Remaining()) {
			return nil, ErrTruncated
		}
		sub.Args = make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := d.Value()
			if err != nil {
				return nil, fmt.Errorf("wire: decode subscribe arg %d: %w", i, err)
			}
			sub.Args = append(sub.Args, v)
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes in subscribe", d.Remaining())
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
		x := &struct {
			Message
			ev Event
		}{Message: Message{Type: mt}}
		x.Event = &x.ev
		ev := x.Event
		var err error
		if ev.SubID, err = d.u64(); err != nil {
			return nil, err
		}
		n, err := d.u64()
		if err != nil {
			return nil, err
		}
		if n > uint64(d.Remaining()) {
			return nil, ErrTruncated
		}
		ev.Values = make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := d.Value()
			if err != nil {
				return nil, fmt.Errorf("wire: decode event value %d: %w", i, err)
			}
			ev.Values = append(ev.Values, v)
		}
		if d.Remaining() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes in event", d.Remaining())
		}
		return &x.Message, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type 0x%02x", payload[0])
	}
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
