package monitor

import (
	"errors"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// Servant exposes a Monitor over the ORB under the paper's EventMonitor
// interface (which transitively includes BasicMonitor and AspectsManager).
// It writes the reads a trader resolves dynamic properties with straight
// into the reply frame (orb.ResultWriter, Monitor.AppendValues).
type Servant struct {
	m *Monitor
}

// NewServant wraps m.
func NewServant(m *Monitor) *Servant { return &Servant{m: m} }

var _ orb.ResultWriter = (*Servant)(nil)
var _ orb.EventSource = (*Servant)(nil)

// Subscribe implements orb.EventSource: the topic is the event id and
// args[0] is the shipped predicate source, mirroring attachEventObserver —
// but detections stream back over the subscriber's connection instead of
// being delivered by Tick-polled oneway callbacks. Each pushed event
// carries (eventID, property value).
func (s *Servant) Subscribe(topic string, args []wire.Value, sink orb.EventSink) (func(), error) {
	if len(args) < 1 {
		return nil, orb.Appf("subscribe: predicate source required")
	}
	id, err := s.m.AttachPushObserver(topic, args[0].Str(), sink)
	if err != nil {
		return nil, wrapMonErr(err)
	}
	return func() { s.m.DetachObserver(id) }, nil
}

// AppendResults implements orb.ResultWriter for getValue, getAspectValue
// and getAspectValues. Invoke answers the rest, and getAspectValue without
// a name or with "", which names an aspect there, not the property value.
func (s *Servant) AppendResults(dst []byte, op string, args []wire.Value) ([]byte, bool, error) {
	var buf [8]string // keeps the usual handful of names off the heap
	names := buf[:0]
	switch {
	case op == "getValue":
		names = append(names, "")
	case op == "getAspectValue" && len(args) > 0 && args[0].Str() != "":
		names = append(names, args[0].Str())
	case op == "getAspectValues":
		// Not in the paper's IDL, whose subset cannot say "any number of
		// names": a caller refused the operation falls back to the two above.
		if len(args) < 1 {
			return dst, true, orb.Appf("getAspectValues: at least one aspect name required")
		}
		for i, a := range args {
			if a.Kind() != wire.KindString {
				return dst, true, orb.Appf("getAspectValues: argument %d: aspect names are strings", i+1)
			}
			names = append(names, a.Str())
		}
	default:
		return dst, false, nil
	}
	dst, err := s.m.AppendValues(wire.AppendValueCount(dst, len(names)), names...)
	return dst, true, wrapMonErr(err)
}

// Invoke implements orb.Servant, dispatching the operations of Figs. 1-2
// and getAspectValues, the positional multi-read of Monitor.AppendValues.
// Its replies to getValue and getAspectValues are the written ones decoded.
func (s *Servant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	switch op {
	case "getValue", "getAspectValues":
		b, _, err := s.AppendResults(wire.AppendReplyHeader(nil, 0), op, args)
		if err != nil {
			return nil, err
		}
		msg, err := wire.DecodeMessage(b)
		if err != nil {
			return nil, err
		}
		return msg.Rep.Results, nil
	case "setValue":
		if len(args) < 1 {
			return nil, orb.Appf("setValue: value required")
		}
		v := args[0]
		if str, ok := v.AsString(); ok {
			v = wire.String(wire.Keep(str))
		}
		if err := s.m.SetValue(v); err != nil {
			return nil, wrapMonErr(err)
		}
		return nil, nil
	case "getAspectValue":
		if len(args) < 1 {
			return nil, orb.Appf("getAspectValue: aspect name required")
		}
		v, err := s.m.AspectValue(args[0].Str())
		if err != nil {
			return nil, wrapMonErr(err)
		}
		return []wire.Value{v}, nil
	case "definedAspects":
		out := wire.NewTable()
		for _, n := range s.m.DefinedAspects() {
			out.Append(wire.String(n))
		}
		return []wire.Value{wire.TableVal(out)}, nil
	case "defineAspect":
		if len(args) < 2 {
			return nil, orb.Appf("defineAspect: name and evaluator required")
		}
		if err := s.m.DefineAspect(wire.Keep(args[0].Str()), wire.Keep(args[1].Str())); err != nil {
			return nil, wrapMonErr(err)
		}
		return nil, nil
	case "attachEventObserver":
		if len(args) < 3 {
			return nil, orb.Appf("attachEventObserver: observer, event id and predicate required")
		}
		ref, ok := args[0].AsRef()
		if !ok {
			return nil, orb.Appf("attachEventObserver: first argument must be an object reference")
		}
		id, err := s.m.AttachObserver(ref, wire.Keep(args[1].Str()), wire.Keep(args[2].Str()))
		if err != nil {
			return nil, wrapMonErr(err)
		}
		return []wire.Value{wire.Int(id)}, nil
	case "detachEventObserver":
		if len(args) < 1 {
			return nil, orb.Appf("detachEventObserver: observer id required")
		}
		s.m.DetachObserver(int(args[0].Num()))
		return nil, nil
	case "name":
		return []wire.Value{wire.String(s.m.Name())}, nil
	default:
		return nil, orb.Appf("monitor: no such operation %q", op)
	}
}

func wrapMonErr(err error) error {
	if err == nil {
		return nil // before appErr, which errors.As moves to the heap
	}
	var appErr *orb.AppError
	if errors.As(err, &appErr) {
		return err
	}
	return &orb.AppError{Msg: err.Error()}
}

// ORBNotifier delivers notifications as oneway notifyEvent invocations —
// exactly the paper's Fig. 2 contract.
type ORBNotifier struct {
	Client *orb.Client
}

var _ Notifier = ORBNotifier{}

// Notify implements Notifier. The send is oneway — no reply is awaited —
// but local failures (dead endpoint, closed client) are reported so the
// monitor's quarantine can detach observers that are provably unreachable.
func (n ORBNotifier) Notify(observer wire.ObjRef, eventID string) error {
	return n.Client.InvokeOneway(observer, "notifyEvent", wire.String(eventID))
}
