package trading

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// InterfaceIDL is the trader's interface definition in the repository's IDL
// subset, mirroring the slice of the OMG Trading Object Service [18] that
// the infrastructure uses.
const InterfaceIDL = `
typedef string ServiceTypeName;
typedef string OfferId;
typedef string Constraint;
typedef string Preference;

interface Lookup {
    any query(in ServiceTypeName type, in Constraint c, in Preference pref, in double maxResults);
};

interface Register {
    OfferId export(in ServiceTypeName type, in Object reference, in any properties);
    void withdraw(in OfferId id);
    void modify(in OfferId id, in any properties);
    void renew(in OfferId id);
    void addType(in ServiceTypeName name, in string iface, in any props);
};

interface Trader : Lookup, Register {
    any listTypes();
    any stats();
    any shardStatus();
    string metrics();
};
`

// DefaultObjectKey is the well-known key traders register under.
const DefaultObjectKey = "Trader"

// Servant exposes a trading directory over the ORB. Wire representation:
//
//	properties:  table{ name = value | table{dynamic=<objref>, aspect=string} }
//	query reply: list of table{dynamics=table{name=table{aspect=string, ref=<objref>}},
//	                           id=string, properties=table{name=value}, ref=<objref>, type=string}
//
// A query reply row carries dynamics only when the offer has a dynamic
// property, and an aspect only when the source has one (see reply.go). The
// servant writes the reply straight into the reply frame (replyRow, through
// orb.ResultWriter), and Lookup.Query reads it straight into QueryResults
// (readResults).
//
// The directory behind the servant can be a single in-process trader
// (NewServant) or any other Directory implementation, such as the shard
// routing client (NewDirectoryServant) — callers on the wire cannot tell
// the difference.
type Servant struct {
	dir     Directory
	query   func(ctx context.Context, serviceType, constraint, preference string, maxResults int, dst []byte) ([]byte, error)
	types   func() []string            // listTypes; nil → empty list
	stats   func() (TraderStats, bool) // stats; nil or false → unsupported
	metrics func() string              // metrics exposition; nil → unsupported
}

// NewServant wraps an in-process trader. Its query replies are written
// straight from the offers' slots (Trader.queryWire).
func NewServant(t *Trader) *Servant {
	return &Servant{
		dir:   Local{T: t},
		query: t.queryWire,
		types: t.TypeNames,
		stats: func() (TraderStats, bool) { return t.Stats(), true },
	}
}

// NewDirectoryServant exposes an arbitrary Directory — most usefully the
// shard router — under the same wire interface as a single trader.
// typeNames backs the listTypes operation and may be nil.
func NewDirectoryServant(d Directory, typeNames func() []string) *Servant {
	query := func(ctx context.Context, serviceType, constraint, preference string, maxResults int, dst []byte) ([]byte, error) {
		results, err := d.Query(ctx, serviceType, constraint, preference, maxResults)
		if err != nil {
			return dst, err
		}
		return resultsToWire(dst, results)
	}
	return &Servant{dir: d, query: query, types: typeNames}
}

// WithMetricsText arms the servant's "metrics" operation: fn renders the
// plain-text metrics exposition (typically metrics.Registry.Text) that
// `adaptctl metrics` fetches. Returns s for chaining.
func (s *Servant) WithMetricsText(fn func() string) *Servant {
	s.metrics = fn
	return s
}

var _ orb.ResultWriter = (*Servant)(nil)

// AppendResults implements orb.ResultWriter: a query's reply is written
// straight into the reply frame.
func (s *Servant) AppendResults(dst []byte, op string, args []wire.Value) ([]byte, bool, error) {
	if op != "query" {
		return dst, false, nil
	}
	out, err := s.appendQuery(wire.AppendValueCount(dst, 1), args)
	return out, true, err
}

// appendQuery appends the reply to a query call with args.
func (s *Servant) appendQuery(dst []byte, args []wire.Value) ([]byte, error) {
	if len(args) < 1 {
		return nil, orb.Appf("query: service type required")
	}
	max := 0
	if len(args) > 3 {
		max = int(args[3].Num())
	}
	constraint, preference := "", ""
	if len(args) > 1 {
		constraint = args[1].Str()
	}
	if len(args) > 2 {
		preference = args[2].Str()
	}
	out, err := s.query(context.Background(), args[0].Str(), constraint, preference, max, dst)
	if err != nil {
		return nil, orb.Appf("query: %v", err)
	}
	return out, nil
}

// Invoke implements orb.Servant. A query's reply is the written one,
// decoded.
func (s *Servant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	ctx := context.Background()
	switch op {
	case "query":
		b, err := s.appendQuery(nil, args)
		if err != nil {
			return nil, err
		}
		reply, err := wire.DecodeValue(b)
		if err != nil {
			return nil, err
		}
		return []wire.Value{reply}, nil
	case "export":
		if len(args) < 2 {
			return nil, orb.Appf("export: type and reference required")
		}
		ref, ok := args[1].AsRef()
		if !ok {
			return nil, orb.Appf("export: second argument must be an object reference")
		}
		props, err := propsFromWire(argAt(args, 2))
		if err != nil {
			return nil, orb.Appf("export: %v", err)
		}
		id, err := s.dir.Export(ctx, wire.Keep(args[0].Str()), ref, props)
		if err != nil {
			return nil, orb.Appf("export: %v", err)
		}
		return []wire.Value{wire.String(id)}, nil
	case "withdraw":
		if len(args) < 1 {
			return nil, orb.Appf("withdraw: offer id required")
		}
		if err := s.dir.Withdraw(ctx, args[0].Str()); err != nil {
			return nil, orb.Appf("withdraw: %v", err)
		}
		return nil, nil
	case "modify":
		if len(args) < 2 {
			return nil, orb.Appf("modify: offer id and properties required")
		}
		props, err := propsFromWire(args[1])
		if err != nil {
			return nil, orb.Appf("modify: %v", err)
		}
		if err := s.dir.Modify(ctx, args[0].Str(), props); err != nil {
			return nil, orb.Appf("modify: %v", err)
		}
		return nil, nil
	case "renew":
		if len(args) < 1 {
			return nil, orb.Appf("renew: offer id required")
		}
		if err := s.dir.Renew(ctx, args[0].Str()); err != nil {
			return nil, orb.Appf("renew: %v", err)
		}
		return nil, nil
	case "addType":
		if len(args) < 1 {
			return nil, orb.Appf("addType: name required")
		}
		st := ServiceType{Name: wire.Keep(args[0].Str())}
		if len(args) > 1 {
			st.Interface = wire.Keep(args[1].Str())
		}
		if len(args) > 2 {
			if tb, ok := args[2].AsTable(); ok {
				for i := 1; i <= tb.Len(); i++ {
					st.Props = append(st.Props, tb.Index(i).Str())
				}
			}
		}
		if err := s.dir.AddType(ctx, st); err != nil {
			return nil, orb.Appf("addType: %v", err)
		}
		return nil, nil
	case "stats":
		if s.stats != nil {
			if st, ok := s.stats(); ok {
				return []wire.Value{statsToWire(st)}, nil
			}
		}
		return nil, orb.Appf("trader: stats not available through this endpoint")
	case "metrics":
		if s.metrics == nil {
			return nil, orb.Appf("trader: metrics not enabled on this endpoint")
		}
		return []wire.Value{wire.String(s.metrics())}, nil
	case "listTypes":
		out := wire.NewTable()
		if s.types != nil {
			for _, n := range s.types() {
				out.Append(wire.String(n))
			}
		}
		return []wire.Value{wire.TableVal(out)}, nil
	default:
		return nil, orb.Appf("trader: no such operation %q", op)
	}
}

func argAt(args []wire.Value, i int) wire.Value {
	if i < len(args) {
		return args[i]
	}
	return wire.Nil()
}

// propsFromWire decodes the wire property-table form.
func propsFromWire(v wire.Value) (map[string]PropValue, error) {
	if v.IsNil() {
		return nil, nil
	}
	tb, ok := v.AsTable()
	if !ok {
		return nil, fmt.Errorf("properties must be a table, got %s", v.Kind())
	}
	out := make(map[string]PropValue, tb.Size())
	var convErr error
	tb.Pairs(func(k, val wire.Value) bool {
		name, ok := k.AsString()
		if !ok {
			convErr = fmt.Errorf("property names must be strings, got %s", k.Kind())
			return false
		}
		pv, err := propValueFromWire(val)
		if err != nil {
			convErr = fmt.Errorf("property %q: %w", name, err)
			return false
		}
		out[name] = pv
		return true
	})
	if convErr != nil {
		return nil, convErr
	}
	return out, nil
}

func propValueFromWire(v wire.Value) (PropValue, error) {
	tb, ok := v.AsTable()
	if !ok {
		return PropValue{Static: v}, nil
	}
	dyn := tb.GetString("dynamic")
	if dyn.IsNil() {
		return PropValue{Static: v}, nil
	}
	ref, ok := dyn.AsRef()
	if !ok {
		return PropValue{}, fmt.Errorf("dynamic field must be an object reference, got %s", dyn.Kind())
	}
	return PropValue{Dynamic: ref, Aspect: tb.GetString("aspect").Str()}, nil
}

// PropsToWire encodes a property map in the wire table form understood by
// propsFromWire. Exported for agents that export offers remotely.
func PropsToWire(props map[string]PropValue) wire.Value {
	tb := wire.NewTableSize(0, len(props))
	for name, pv := range props {
		if !pv.IsDynamic() {
			tb.SetString(name, pv.Static)
			continue
		}
		d := wire.NewTableSize(0, 2)
		d.SetString("dynamic", wire.Ref(pv.Dynamic))
		if pv.Aspect != "" {
			d.SetString("aspect", wire.String(pv.Aspect))
		}
		tb.SetString(name, wire.TableVal(d))
	}
	return wire.TableVal(tb)
}

// Lookup is the client-side convenience wrapper around a remote trader —
// the LuaTrading analog (§IV: "a Lua library that provides a simplified
// interface" to the trading service).
type Lookup struct {
	proxy *orb.Proxy
}

// NewLookup binds a lookup client to the trader at ref.
func NewLookup(client *orb.Client, ref wire.ObjRef) *Lookup {
	return &Lookup{proxy: client.NewProxy(ref)}
}

// Ref returns the trader's object reference.
func (l *Lookup) Ref() wire.ObjRef { return l.proxy.Ref() }

// Query performs a remote query. The reply is read straight into the
// rows returned, by a pooled rowsReader.
func (l *Lookup) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error) {
	r := rowsReaders.Get().(*rowsReader)
	err := l.proxy.CallDecode(ctx, "query", r,
		wire.String(serviceType), wire.String(constraint), wire.String(preference), wire.Int(maxResults))
	rows := r.rows
	r.rows = nil
	rowsReaders.Put(r) // CallDecode never runs r after it has returned
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Export exports an offer remotely and returns the offer id.
func (l *Lookup) Export(ctx context.Context, serviceType string, ref wire.ObjRef, props map[string]PropValue) (string, error) {
	v, err := l.proxy.Call1(ctx, "export",
		wire.String(serviceType), wire.Ref(ref), PropsToWire(props))
	if err != nil {
		return "", err
	}
	return v.Str(), nil
}

// Withdraw removes an offer remotely.
func (l *Lookup) Withdraw(ctx context.Context, offerID string) error {
	_, err := l.proxy.Call(ctx, "withdraw", wire.String(offerID))
	return mapOfferErr(err)
}

// Modify replaces an offer's properties remotely.
func (l *Lookup) Modify(ctx context.Context, offerID string, props map[string]PropValue) error {
	_, err := l.proxy.Call(ctx, "modify", wire.String(offerID), PropsToWire(props))
	return mapOfferErr(err)
}

// Renew extends the lease of an offer remotely (see Trader.Renew). When
// the trader does not know the offer — it restarted, or the lease was
// reaped — the returned error wraps ErrUnknownOffer, so exporters can
// errors.Is it and re-export from scratch.
func (l *Lookup) Renew(ctx context.Context, offerID string) error {
	_, err := l.proxy.Call(ctx, "renew", wire.String(offerID))
	return mapOfferErr(err)
}

// mapOfferErr rewraps a remote APP_ERROR carrying the trader's unknown-
// offer message so client code can match it with errors.Is(err,
// ErrUnknownOffer) — the sentinel identity does not survive the wire.
func mapOfferErr(err error) error {
	if err == nil {
		return nil // before re, which errors.As moves to the heap
	}
	var re *orb.RemoteError
	if errors.As(err, &re) && strings.Contains(re.Msg, ErrUnknownOffer.Error()) {
		return fmt.Errorf("%w: %v", ErrUnknownOffer, err)
	}
	return err
}

// AddType registers a service type remotely.
func (l *Lookup) AddType(ctx context.Context, st ServiceType) error {
	props := wire.NewTable()
	for _, p := range st.Props {
		props.Append(wire.String(p))
	}
	_, err := l.proxy.Call(ctx, "addType",
		wire.String(st.Name), wire.String(st.Interface), wire.TableVal(props))
	return err
}
