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
//	query reply: list of table{id, type, ref, properties=table{name=value}}
//
// The directory behind the servant can be a single in-process trader
// (NewServant) or any other Directory implementation, such as the shard
// routing client (NewDirectoryServant) — callers on the wire cannot tell
// the difference.
type Servant struct {
	dir     Directory
	types   func() []string            // listTypes; nil → empty list
	stats   func() (TraderStats, bool) // stats; nil or false → unsupported
	metrics func() string              // metrics exposition; nil → unsupported
}

// NewServant wraps an in-process trader.
func NewServant(t *Trader) *Servant {
	return &Servant{
		dir:   Local{T: t},
		types: t.TypeNames,
		stats: func() (TraderStats, bool) { return t.Stats(), true },
	}
}

// NewDirectoryServant exposes an arbitrary Directory — most usefully the
// shard router — under the same wire interface as a single trader.
// typeNames backs the listTypes operation and may be nil.
func NewDirectoryServant(d Directory, typeNames func() []string) *Servant {
	return &Servant{dir: d, types: typeNames}
}

// WithMetricsText arms the servant's "metrics" operation: fn renders the
// plain-text metrics exposition (typically metrics.Registry.Text) that
// `adaptctl metrics` fetches. Returns s for chaining.
func (s *Servant) WithMetricsText(fn func() string) *Servant {
	s.metrics = fn
	return s
}

var _ orb.Servant = (*Servant)(nil)

// Invoke implements orb.Servant.
func (s *Servant) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	ctx := context.Background()
	switch op {
	case "query":
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
		results, err := s.dir.Query(ctx, args[0].Str(), constraint, preference, max)
		if err != nil {
			return nil, orb.Appf("query: %v", err)
		}
		return []wire.Value{resultsToWire(results)}, nil
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
		id, err := s.dir.Export(ctx, args[0].Str(), ref, props)
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
		st := ServiceType{Name: args[0].Str()}
		if len(args) > 1 {
			st.Interface = args[1].Str()
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
		if pv.IsDynamic() {
			tb.SetString(name, dynamicToWire("dynamic", pv))
		} else {
			tb.SetString(name, pv.Static)
		}
	}
	return wire.TableVal(tb)
}

// dynamicToWire encodes a dynamic property's source: its monitor under
// refKey, plus the aspect when there is one.
func dynamicToWire(refKey string, pv PropValue) wire.Value {
	d := wire.NewTableSize(0, 2)
	d.SetString(refKey, wire.Ref(pv.Dynamic))
	if pv.Aspect != "" {
		d.SetString("aspect", wire.String(pv.Aspect))
	}
	return wire.TableVal(d)
}

func resultsToWire(results []QueryResult) wire.Value {
	out := wire.NewTableSize(len(results), 0)
	for _, r := range results {
		o := wire.NewTableSize(0, 5)
		o.SetString("id", wire.String(r.Offer.ID))
		o.SetString("type", wire.String(r.Offer.ServiceType))
		o.SetString("ref", wire.Ref(r.Offer.Ref))
		snap := wire.NewTableSize(0, len(r.Snapshot))
		for name, v := range r.Snapshot {
			snap.SetString(name, v)
		}
		o.SetString("properties", wire.TableVal(snap))
		// Dynamic property sources travel with the offer so clients (smart
		// proxies) can attach observers to the same monitors the trader
		// consults.
		var dyn *wire.Table
		for name, pv := range r.Offer.Props {
			if !pv.IsDynamic() {
				continue
			}
			if dyn == nil {
				dyn = wire.NewTableSize(0, len(r.Offer.Props))
			}
			dyn.SetString(name, dynamicToWire("ref", pv))
		}
		if dyn != nil {
			o.SetString("dynamics", wire.TableVal(dyn))
		}
		out.Append(wire.TableVal(o))
	}
	return wire.TableVal(out)
}

// ResultsFromWire decodes a query reply on the client side.
func ResultsFromWire(v wire.Value) ([]QueryResult, error) {
	tb, ok := v.AsTable()
	if !ok {
		return nil, fmt.Errorf("trading: query reply is %s, want table", v.Kind())
	}
	out := make([]QueryResult, 0, tb.Len())
	for i := 1; i <= tb.Len(); i++ {
		entry, ok := tb.Index(i).AsTable()
		if !ok {
			return nil, fmt.Errorf("trading: query reply entry %d is not a table", i)
		}
		ref, ok := entry.GetString("ref").AsRef()
		if !ok {
			return nil, fmt.Errorf("trading: query reply entry %d has no ref", i)
		}
		qr := QueryResult{
			Offer: Offer{
				ID:          entry.GetString("id").Str(),
				ServiceType: entry.GetString("type").Str(),
				Ref:         ref,
			},
		}
		if snap, ok := entry.GetString("properties").AsTable(); ok {
			qr.Snapshot = make(map[string]wire.Value, snap.Size())
			snap.Pairs(func(k, val wire.Value) bool {
				if name, ok := k.AsString(); ok {
					qr.Snapshot[name] = val
				}
				return true
			})
		} else {
			qr.Snapshot = map[string]wire.Value{}
		}
		if dyn, ok := entry.GetString("dynamics").AsTable(); ok {
			qr.Offer.Props = make(map[string]PropValue, dyn.Size())
			dyn.Pairs(func(k, val wire.Value) bool {
				name, nameOK := k.AsString()
				d, tblOK := val.AsTable()
				if !nameOK || !tblOK {
					return true
				}
				if ref, ok := d.GetString("ref").AsRef(); ok {
					qr.Offer.Props[name] = PropValue{
						Dynamic: ref,
						Aspect:  d.GetString("aspect").Str(),
					}
				}
				return true
			})
		}
		out = append(out, qr)
	}
	return out, nil
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

// Query performs a remote query.
func (l *Lookup) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error) {
	v, err := l.proxy.Call1(ctx, "query",
		wire.String(serviceType), wire.String(constraint),
		wire.String(preference), wire.Int(maxResults))
	if err != nil {
		return nil, err
	}
	return ResultsFromWire(v)
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
