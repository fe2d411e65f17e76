package trading

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/orb"
	"autoadapt/internal/wire"
)

// Errors reported by the trader.
var (
	// ErrUnknownServiceType is returned when exporting or querying a type
	// that was never registered.
	ErrUnknownServiceType = errors.New("trading: unknown service type")
	// ErrUnknownOffer is returned by Withdraw/Modify for missing offers.
	ErrUnknownOffer = errors.New("trading: unknown offer")
	// ErrTooManyNames is returned by Export and Modify when the offer
	// would number a property name past maxTypeNames in its type.
	ErrTooManyNames = errors.New("trading: too many property names in service type")
)

// maxTypeNames bounds a service type's slot table: the property names its
// offers have ever used, withdrawn offers' names included, since slots are
// never reused. Past it, Export and Modify refuse an offer with a name the
// type has not seen, so exports with ever-new names cannot grow the table
// for the trader's life.
const maxTypeNames = 1024

// PropValue is one offer property: either a static value, or a *dynamic
// property* — a reference to an object that yields the current value when
// the trader asks for it at query time (paper §IV: "Instead of storing a
// constant value, a dynamic property stores a reference to an object that,
// when required, provides the trader with the current value").
type PropValue struct {
	// Static holds the value for a static property.
	Static wire.Value
	// Dynamic, when non-zero, names the object to interrogate at query
	// time. The object must implement getValue() (BasicMonitor), or
	// getAspectValue(name) when Aspect is set.
	Dynamic wire.ObjRef
	// Aspect selects an aspect of the dynamic property instead of its
	// value (e.g. "Increasing" on a LoadAvg monitor).
	Aspect string
}

// IsDynamic reports whether the property is resolved at query time.
func (p PropValue) IsDynamic() bool { return !p.Dynamic.IsZero() }

// Offer is one exported service offer.
type Offer struct {
	ID          string
	ServiceType string
	Ref         wire.ObjRef
	Props       map[string]PropValue
}

// MonitorFor returns the object serving prop as a dynamic property, if any
// — the monitor a smart proxy attaches its observers to.
func (o Offer) MonitorFor(prop string) (wire.ObjRef, bool) {
	pv, ok := o.Props[prop]
	if !ok || !pv.IsDynamic() {
		return wire.ObjRef{}, false
	}
	return pv.Dynamic, true
}

// ServiceType describes an exportable service: the interface its instances
// implement, plus the property names offers of this type usually carry. The
// paper's trader types properties; ours records names for documentation and
// numbers them first. An offer may carry other names too, up to
// maxTypeNames per type.
type ServiceType struct {
	Name      string
	Interface string
	Props     []string
}

// QueryResult is one matched offer together with the property snapshot the
// trader evaluated (dynamic properties resolved), so clients can log or
// re-rank without re-fetching.
type QueryResult struct {
	Offer    Offer
	Snapshot map[string]wire.Value
}

// Trader is the trading service: a thread-safe repository of service types
// and offers plus the query engine. Expose it over the ORB with NewServant.
type Trader struct {
	// resolver fetches dynamic property values. In production this is a
	// ClientResolver; tests may stub it. batch is the same resolver as the
	// query path calls it, one object at a time: resolver itself when it
	// implements BatchResolver, a per-aspect loop over it otherwise.
	resolver DynamicResolver
	batch    BatchResolver

	// resolveParallel bounds how many objects a single query interrogates
	// concurrently; resolveTimeout caps the whole resolution phase of one
	// query (0 = no cap beyond the caller's ctx).
	resolveParallel int
	resolveTimeout  time.Duration

	mu     sync.RWMutex
	types  map[string]*registeredType
	offers map[string]*offerRecord
	// byType indexes offers by service type in export order (ascending
	// offerRecord.seq), holding exactly the records of t.offers: Export
	// appends, Withdraw and Reap remove, nothing else touches it. Expiry and
	// quarantine are filtered at query time, so an expired-but-unreaped
	// record keeps its slot and Renew resurrects it in place.
	byType map[string][]*offerRecord
	nextID int

	// Liveness knobs (see lease.go). clk stamps leases and drives the
	// reaper; leaseTTL 0 disables leasing.
	clk      clock.Clock
	leaseTTL time.Duration

	// Load instrumentation (see stats.go). Atomics, not mu-guarded: the
	// query hot path must not serialize on bookkeeping.
	statQueries    atomic.Int64
	statExports    atomic.Int64
	statQueryNanos atomic.Int64
	statScanned    atomic.Int64
	statCandidates atomic.Int64

	// Optional registry-backed instrumentation (see metrics.go). Atomic so
	// SetMetrics is safe against in-flight queries; nil = disabled.
	tm atomic.Pointer[traderMetrics]
}

// defaultResolveParallel is the per-query fan-out bound for dynamic
// property resolution. Monitors live on other processes, so resolution is
// network-latency-dominated; a modest bound captures most of the win
// without stampeding a shared monitor host.
const defaultResolveParallel = 16

// DynamicResolver fetches the current value of a dynamic property.
type DynamicResolver interface {
	ResolveDynamic(ctx context.Context, ref wire.ObjRef, aspect string) (wire.Value, error)
}

// Resolution is the outcome of resolving one dynamic property.
type Resolution struct {
	Value wire.Value
	Err   error
}

// BatchResolver is the optional interface of a DynamicResolver that can
// read several aspects of one object in a single interrogation. A query
// resolves per object: every (object, aspect) pair it references is
// deduplicated, the pairs are grouped by object, and each group is handed
// to ResolveBatch once. ResolveBatch fills out[i] for aspects[i] ("" names
// the property value itself); len(out) == len(aspects) >= 1.
type BatchResolver interface {
	ResolveBatch(ctx context.Context, ref wire.ObjRef, aspects []string, out []Resolution)
}

// perAspect adapts a plain DynamicResolver to BatchResolver, so the query
// path has one shape whatever the resolver can do.
type perAspect struct{ DynamicResolver }

func (r perAspect) ResolveBatch(ctx context.Context, ref wire.ObjRef, aspects []string, out []Resolution) {
	for i, aspect := range aspects {
		out[i].Value, out[i].Err = r.ResolveDynamic(ctx, ref, aspect)
	}
}

// ClientResolver adapts an orb.Client to DynamicResolver and BatchResolver.
// Replies are read straight into the query's Resolution slots (slotReader)
// from argument arrays on the stack: a resolution allocates only for
// values that need memory of their own, a table or a long string.
type ClientResolver struct{ Client *orb.Client }

// ResolveDynamic implements DynamicResolver: getValue() or
// getAspectValue(aspect) on the referenced object.
func (r ClientResolver) ResolveDynamic(ctx context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	var out [1]Resolution
	r.ResolveBatch(ctx, ref, []string{aspect}, out[:])
	return out[0].Value, out[0].Err
}

// ResolveBatch implements BatchResolver: one getAspectValues(aspects...)
// round trip for two or more aspects of an object, whose monitor reads them
// under one lock, so the values belong to one sample. A single aspect goes
// out as the getValue() or getAspectValue(aspect) call it always was.
//
// When the object answers the batch with an error of its own — one of the
// aspects is undefined, or the peer predates getAspectValues — or with the
// wrong number of values, the aspects are asked for one by one, so the
// defined ones still resolve and each failure is the one a per-aspect
// resolver would have seen. A transport or deadline error fails the whole
// group at once: asking an unreachable monitor N more times would cost N
// more timeouts to learn the same thing.
func (r ClientResolver) ResolveBatch(ctx context.Context, ref wire.ObjRef, aspects []string, out []Resolution) {
	var buf [8]wire.Value
	if len(aspects) > 1 {
		args := buf[:0]
		for _, aspect := range aspects {
			args = append(args, wire.String(aspect))
		}
		n, err := r.read(ctx, ref, "getAspectValues", args, out)
		if (err == nil && n == len(aspects)) || (err != nil && !rejectedByObject(err)) {
			return
		}
	}
	for i, aspect := range aspects {
		op, args := "getValue", buf[:0]
		if aspect != "" {
			op, args = "getAspectValue", append(args, wire.String(aspect))
		}
		r.read(ctx, ref, op, args, out[i:i+1])
	}
}

// read invokes op with args on ref and reads the results into out, nil past
// the last, or the call's error into every slot. It returns the count.
func (r ClientResolver) read(ctx context.Context, ref wire.ObjRef, op string, args []wire.Value, out []Resolution) (int, error) {
	s := slotReaders.Get().(*slotReader)
	s.out = out
	err := r.Client.NewProxy(ref).CallDecode(ctx, op, s, args...)
	n := s.n
	s.out = nil
	slotReaders.Put(s) // CallDecode never runs s after it has returned
	for i := range out {
		if err != nil || i >= n {
			out[i] = Resolution{Err: err}
		}
	}
	return n, err
}

// slotReader reads result i into out[i] while there is a slot for it.
type slotReader struct {
	out []Resolution
	n   int
}

var slotReaders = sync.Pool{New: func() any { return new(slotReader) }}

func (s *slotReader) ReadResults(d *wire.Decoder, n int) error {
	for s.n = 0; s.n < n; s.n++ {
		v, err := d.Value()
		if err != nil {
			return err
		}
		if s.n < len(s.out) {
			s.out[s.n] = Resolution{Value: v}
		}
	}
	return nil
}

// rejectedByObject reports whether err is the referenced object's own
// answer to a call it received (an Answered orb.Fault) — a servant's
// application error, or its interface check refusing the operation or its
// arguments — as opposed to a failure to reach the object or to get an
// answer in time.
func rejectedByObject(err error) bool {
	return orb.IsRemoteCode(err, orb.CodeApp, orb.CodeInternal, orb.CodeBadOperation, orb.CodeBadParam)
}

// NewTrader returns an empty trader using resolver for dynamic properties.
// A nil resolver makes every dynamic property evaluate as missing.
func NewTrader(resolver DynamicResolver) *Trader {
	var batch BatchResolver
	if b, ok := resolver.(BatchResolver); ok {
		batch = b
	} else if resolver != nil {
		batch = perAspect{resolver}
	}
	return &Trader{
		resolver:        resolver,
		batch:           batch,
		resolveParallel: defaultResolveParallel,
		types:           make(map[string]*registeredType),
		offers:          make(map[string]*offerRecord),
		byType:          make(map[string][]*offerRecord),
		clk:             clock.Real{},
	}
}

// SetResolveParallel bounds how many objects one query interrogates for
// their dynamic properties concurrently. n <= 1 forces serial resolution.
func (t *Trader) SetResolveParallel(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 1 {
		n = 1
	}
	t.resolveParallel = n
}

// SetResolveTimeout caps the dynamic-property resolution phase of each
// query. A slow or wedged monitor then costs a query at most d — the
// offers whose properties did not resolve in time are treated exactly like
// unreachable monitors (absent from the snapshot, counted against the
// offer's quarantine threshold). d <= 0 removes the cap, leaving only the
// caller's context to bound resolution.
func (t *Trader) SetResolveTimeout(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d < 0 {
		d = 0
	}
	t.resolveTimeout = d
}

// registeredType is a service type plus the slot table that numbers the
// type's property names. AddType numbers the declared names;
// names first seen by Export or Modify are appended under the write lock.
// Slots are never renumbered or reused, so a slot's name never changes and
// a names slice captured under the read lock stays valid.
type registeredType struct {
	ServiceType
	slots map[string]int // property name → slot
	names []string       // slot → property name
}

// slot returns name's slot, numbering it first if the type has not seen it.
func (rt *registeredType) slot(name string) int {
	s, ok := rt.slots[name]
	if !ok {
		s = len(rt.names)
		rt.slots[name] = s
		rt.names = append(rt.names, name)
	}
	return s
}

// check rejects names that would number the type's slots past maxTypeNames.
func (rt *registeredType) check(props map[string]PropValue) error {
	if len(rt.names)+len(props) <= maxTypeNames {
		return nil // even all new, the names fit
	}
	fresh := 0
	for name := range props {
		if _, ok := rt.slots[name]; !ok {
			fresh++
		}
	}
	if fresh > 0 && len(rt.names)+fresh > maxTypeNames {
		return fmt.Errorf("%w: %q has %d, the offer adds %d, the bound is %d", ErrTooManyNames, rt.Name, len(rt.names), fresh, maxTypeNames)
	}
	return nil
}

// slotted stores props by the type's slots, numbering names it has not seen.
func (rt *registeredType) slotted(props map[string]PropValue) slotProps {
	if len(props) == 0 {
		return slotProps{}
	}
	p := slotProps{slots: make([]int32, 0, len(props))}
	ndyn := 0
	for name, pv := range props {
		p.slots = append(p.slots, int32(rt.slot(name)))
		if pv.IsDynamic() {
			ndyn++
		}
	}
	slices.Sort(p.slots)
	p.val = make([]wire.Value, len(props), len(props)+ndyn)
	for i, s := range p.slots {
		pv := props[rt.names[s]]
		if !pv.IsDynamic() {
			p.val[i] = pv.Static
			continue
		}
		p.slots[i] |= int32(len(p.val)) << slotBits
		p.val[i] = wire.Ref(pv.Dynamic)
		p.val = append(p.val, wire.String(pv.Aspect))
	}
	return p
}

// slotProps is one offer's properties by its type's slots. The low
// slotBits of slots[i] are a slot number, ascending with i, and val[i]
// holds that slot's property: a static's value, or a dynamic's object as a
// wire.Ref. Above slotBits, slots[i] is 0 for a static and, for a dynamic,
// the index in val of its aspect, a string stored after the len(slots)
// property entries. That index, never the stored value's kind, makes a
// property dynamic, so a static object reference stays static. Storage is
// proportional to the offer's own properties, however many slots its type
// has numbered. A property exported with a nil static value is present. A
// published slotProps is never mutated — Export and Modify install fresh
// slices — so a query that copied it under the read lock reads a
// consistent set after releasing the lock.
type slotProps struct {
	slots []int32
	val   []wire.Value
}

// slotBits holds a slot number: maxTypeNames fits below it, and an aspect's
// index, less than 2*maxTypeNames, above it.
const (
	slotBits = 16
	slotMask = 1<<slotBits - 1
)

// The accessors take a pointer: a value receiver copied both slice headers
// through the stack on every call, and reloading them stalled a query (get
// took 22 % of its CPU profile; 2 % with a pointer).

// slot returns the slot number of the property at index i.
func (p *slotProps) slot(i int) int { return int(p.slots[i] & slotMask) }

// dynamic reports whether the property at index i is resolved at query time.
func (p *slotProps) dynamic(i int) bool { return p.slots[i]>>slotBits != 0 }

// source returns the object and aspect of the dynamic property at index i.
func (p *slotProps) source(i int) (wire.ObjRef, string) {
	ref, _ := p.val[i].AsRef()
	return ref, p.val[p.slots[i]>>slotBits].Str()
}

// prop returns the property at index i as a PropValue: its static value,
// or its object and aspect.
func (p *slotProps) prop(i int) PropValue {
	if !p.dynamic(i) {
		return PropValue{Static: p.val[i]}
	}
	ref, aspect := p.source(i)
	return PropValue{Dynamic: ref, Aspect: aspect}
}

// get returns the index of the property in slot s; a negative s, or a slot
// the offer does not use, is absent. Slots are distinct and ascend from 0,
// so slot s sits at index s when the offer has every slot below it — the
// usual case, offers of a type carrying the same names — and otherwise
// below s.
func (p *slotProps) get(s int) (int, bool) {
	if s < 0 {
		return 0, false
	}
	if s < len(p.slots) && p.slot(s) == s {
		return s, true
	}
	return slices.BinarySearchFunc(p.slots[:min(s, len(p.slots))], s, func(e int32, s int) int {
		return int(e&slotMask) - s
	})
}

// AddType registers a service type. Re-adding a name replaces its
// description and keeps its slot numbering.
func (t *Trader) AddType(st ServiceType) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rt := t.types[st.Name]
	if rt == nil {
		rt = &registeredType{slots: make(map[string]int, len(st.Props))}
		t.types[st.Name] = rt
	}
	rt.ServiceType = st
	for _, p := range st.Props {
		rt.slot(p)
	}
}

// TypeNames lists registered service types, sorted.
func (t *Trader) TypeNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.types))
	for n := range t.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Export registers an offer and returns its offer ID.
func (t *Trader) Export(serviceType string, ref wire.ObjRef, props map[string]PropValue) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.types[serviceType]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownServiceType, serviceType)
	}
	if err := st.check(props); err != nil {
		return "", err
	}
	t.nextID++
	t.statExports.Add(1)
	var buf [32]byte // the id is built on the stack and converted once
	id := string(strconv.AppendInt(append(buf[:0], "offer-"...), int64(t.nextID), 10))
	rec := &offerRecord{
		offer: Offer{ID: id, ServiceType: serviceType, Ref: ref},
		props: st.slotted(props),
		seq:   t.nextID,
	}
	if t.leaseTTL > 0 {
		rec.expires = t.clk.Now().Add(t.leaseTTL)
	}
	t.offers[id] = rec
	// Sequence numbers only grow, so appending keeps the list export-ordered.
	t.byType[serviceType] = append(t.byType[serviceType], rec)
	return id, nil
}

// Withdraw removes an offer. It is lease-aware: withdrawing an offer whose
// lease already expired removes the stale record but still reports
// ErrUnknownOffer — by the trader's contract the offer was already gone.
func (t *Trader) Withdraw(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.offers[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, id)
	}
	delete(t.offers, id)
	rec.gone = true
	list := t.byType[rec.offer.ServiceType]
	if i, ok := slices.BinarySearchFunc(list, rec.seq, func(r *offerRecord, seq int) int { return r.seq - seq }); ok {
		t.byType[rec.offer.ServiceType] = slices.Delete(list, i, i+1)
	}
	if tm := t.tm.Load(); tm != nil {
		tm.withdrawals.Inc()
	}
	if rec.expired(t.clk.Now()) {
		return fmt.Errorf("%w: %q (lease expired)", ErrUnknownOffer, id)
	}
	return nil
}

// Modify replaces the properties of an existing offer, checked as Export
// checks them. It is lease-aware: modifying an expired offer
// reports ErrUnknownOffer without touching the record, so a later Renew
// resurrects the offer with its pre-expiry properties deterministically.
func (t *Trader) Modify(id string, props map[string]PropValue) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, ok := t.offers[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownOffer, id)
	}
	if rec.expired(t.clk.Now()) {
		return fmt.Errorf("%w: %q (lease expired)", ErrUnknownOffer, id)
	}
	st := t.types[rec.offer.ServiceType]
	if err := st.check(props); err != nil {
		return err
	}
	rec.props = st.slotted(props)
	return nil
}

// OfferCount reports the number of live offers (for diagnostics/tests). It
// is lease-aware: offers whose lease has expired are not counted even
// before the reaper removes them. Quarantined offers still count — they
// are alive, just distrusted by Query.
func (t *Trader) OfferCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	now := t.clk.Now()
	n := 0
	for _, rec := range t.offers {
		if !rec.expired(now) {
			n++
		}
	}
	return n
}

// Query finds offers of serviceType matching constraint, ordered by
// preference. maxResults <= 0 means unlimited. Offers whose constraint
// evaluation fails (missing property, unreachable dynamic property) are
// skipped, per OMG trader semantics.
//
// Query is liveness-aware (see lease.go): offers whose lease has expired
// are never candidates, and quarantined offers — those whose dynamic
// properties failed to resolve on several consecutive queries — are
// excluded from the results. Quarantined offers that their static conjuncts
// admit still have their dynamic properties resolved as *probes*, so a
// recovered monitor rehabilitates its offer and the next query sees it again.
//
// Resolution is demand-driven: dynamic properties are resolved only when
// the constraint or preference references them by name, and only for
// offers that no conjunct of the constraint's top-level "and" chain reading
// only static properties rejects. Identical reads —
// same object, same aspect — are resolved once per query and the value
// shared; the distinct reads are grouped by object, each object is
// interrogated once for all of its aspects (BatchResolver), and the objects
// fan out across a bounded worker pool (SetResolveParallel). Memoization is
// per-query only, so repeated queries still observe fresh monitor values.
//
// The names the constraint and preference reference are mapped to the
// type's slots once per query, under the read lock that captures the
// candidates; each candidate's values of those names then fill the small
// array the compiled expressions read. Props and Snapshot maps (every
// static property plus every referenced dynamic property that resolved)
// are built only for the rows returned.
func (t *Trader) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error) {
	var out []QueryResult
	err := t.query(ctx, serviceType, constraint, preference, maxResults, func(sc *queryScratch) {
		out = make([]QueryResult, len(sc.matched))
		for n, i := range sc.matched {
			out[n] = sc.result(&sc.candidates[i])
		}
	})
	return out, err
}

// query selects the rows of a query into sc.matched, in order and cut to
// maxResults, and hands the scratch to render before recycling it.
func (t *Trader) query(ctx context.Context, serviceType, constraint, preference string, maxResults int, render func(sc *queryScratch)) error {
	began := time.Now()
	t.statQueries.Add(1)
	tm := t.tm.Load()
	defer func() {
		elapsed := time.Since(began)
		t.statQueryNanos.Add(int64(elapsed))
		if tm != nil {
			tm.queryLatency.Observe(elapsed.Microseconds())
		}
	}()
	cons, err := cachedConstraint(constraint)
	if err != nil {
		if tm != nil {
			tm.queryErrors.Inc()
		}
		return err
	}
	pref, err := cachedPreference(preference)
	if err != nil {
		if tm != nil {
			tm.queryErrors.Inc()
		}
		return err
	}
	sc := getQueryScratch()
	defer putQueryScratch(sc)
	// The names the query reads: the constraint's, then those only the
	// preference has. The constraint's refs are thus a prefix of the list,
	// and prefAt places each of the preference's refs in it.
	names := append(sc.names[:0], cons.refs...)
	prefAt := sc.prefAt[:0]
	for _, name := range pref.refs {
		u := slices.Index(names, name)
		if u < 0 {
			u = len(names)
			names = append(names, name)
		}
		prefAt = append(prefAt, u)
	}
	sc.names, sc.prefAt = names, prefAt
	t.mu.RLock()
	rt, ok := t.types[serviceType]
	if !ok {
		t.mu.RUnlock()
		if tm != nil {
			tm.queryErrors.Inc()
		}
		return fmt.Errorf("%w: %q", ErrUnknownServiceType, serviceType)
	}
	workers := t.resolveParallel
	resolveTimeout := t.resolveTimeout
	slotOf := sc.slotOf[:0]
	for _, name := range names {
		s, ok := rt.slots[name]
		if !ok {
			s = -1 // no offer of the type has the property
		}
		slotOf = append(slotOf, s)
	}
	sc.slotOf, sc.slotNames = slotOf, rt.names
	// The type's list is already in export order, the deterministic base
	// order preferences refine. Each live offer meets the static pass as it
	// is captured, still under the lock, so only the offers that no static
	// conjunct rejects become candidates, each keeping its open conjuncts.
	// Export and Modify install fresh slices and never mutate published
	// ones, and an offer's other fields are immutable after export, so the
	// captured properties stay consistent after the lock is released even
	// if a concurrent Modify swaps in replacements.
	vals := slices.Grow(sc.vals[:0], len(names))[:len(names)]
	sc.vals = vals
	candidates := sc.candidates[:0]
	now := t.clk.Now()
	recs := t.byType[serviceType]
	live := 0
	for _, rec := range recs {
		if rec.expired(now) {
			continue
		}
		live++
		sc.loadStatic(&rec.props, vals[:len(cons.refs)])
		if open, ok := cons.passStatic(vals[:len(cons.refs)]); ok {
			candidates = append(candidates, offerView{rec: rec, props: rec.props, quarantined: rec.strikes.Out(), open: open})
		}
	}
	t.mu.RUnlock()
	sc.candidates = candidates
	t.statScanned.Add(int64(len(recs)))
	t.statCandidates.Add(int64(live))

	resolveCtx := ctx
	if resolveTimeout > 0 {
		var cancel context.CancelFunc
		resolveCtx, cancel = context.WithTimeout(ctx, resolveTimeout)
		defer cancel()
	}
	// Without a resolver nothing resolves and dynamic properties read as
	// missing.
	resolve := slotOf
	if t.resolver == nil {
		resolve = nil
	}
	t.resolveReferenced(resolveCtx, candidates, resolve, workers, sc)
	t.noteResolveOutcomes(ctx, candidates, sc.outcomes)

	prefVals := slices.Grow(sc.prefVals[:0], len(prefAt))[:len(prefAt)]
	sc.prefVals = prefVals
	keys := slices.Grow(sc.keys[:0], len(candidates))[:len(candidates)]
	sc.keys = keys
	ranked := pref.kind != prefFirst
	matched := sc.matched[:0]
	for i := range candidates {
		c := &candidates[i]
		if c.quarantined {
			continue // probed above, but untrusted until rehabilitated
		}
		sc.load(c, vals)
		if !cons.passRest(c.open, vals[:len(cons.refs)]) {
			continue
		}
		matched = append(matched, i)
		if ranked {
			for k, u := range prefAt {
				prefVals[k] = vals[u]
			}
			keys[i] = pref.key(c.rec.offer.ID, prefVals)
		}
	}
	if ranked {
		sortByKeys(matched, keys)
	}
	if maxResults > 0 && len(matched) > maxResults {
		matched = matched[:maxResults]
	}
	sc.matched = matched
	render(sc)
	return nil
}

// loadStatic fills vals with the values in p of the first len(vals) of the
// query's names: statics from its slots, &unresolved for dynamics, and nil
// where the offer lacks the property.
func (sc *queryScratch) loadStatic(p *slotProps, vals []*wire.Value) {
	for u := range vals {
		vals[u] = nil
		if i, ok := p.get(sc.slotOf[u]); ok && p.dynamic(i) {
			vals[u] = &unresolved
		} else if ok {
			vals[u] = &p.val[i]
		}
	}
}

// load fills vals with candidate c's values of the first len(vals) of the
// query's names: statics from its slots, dynamics from this query's
// resolutions, and nil where the offer lacks the property or its dynamic
// value did not resolve.
func (sc *queryScratch) load(c *offerView, vals []*wire.Value) {
	for u := range vals {
		s := sc.slotOf[u]
		vals[u] = nil
		if i, ok := c.props.get(s); ok {
			vals[u] = sc.snapValue(c, s, i)
		}
	}
}

// snapValue is the value c's property at index i, in slot s, has for this
// query: its static value, or its dynamic value if the query resolved it;
// nil otherwise.
func (sc *queryScratch) snapValue(c *offerView, s, i int) *wire.Value {
	if !c.props.dynamic(i) {
		return &c.props.val[i]
	}
	for _, p := range sc.pend[c.lo:c.hi] {
		if p.slot == s {
			if r := &sc.results[p.task]; r.Err == nil {
				return &r.Value
			}
			return nil
		}
	}
	return nil
}

// result renders candidate c as a QueryResult: its properties, and the
// snapshot the query evaluated — every static property plus every
// referenced dynamic property that resolved.
func (sc *queryScratch) result(c *offerView) QueryResult {
	o := &c.rec.offer
	n := len(c.props.slots)
	r := QueryResult{
		Offer:    Offer{ID: o.ID, ServiceType: o.ServiceType, Ref: o.Ref},
		Snapshot: make(map[string]wire.Value, n),
	}
	if n > 0 {
		r.Offer.Props = make(map[string]PropValue, n)
	}
	for i := range c.props.slots {
		s := c.props.slot(i)
		name := sc.slotNames[s]
		r.Offer.Props[name] = c.props.prop(i)
		if v := sc.snapValue(c, s, i); v != nil {
			r.Snapshot[name] = *v
		}
	}
	return r
}

// offerView pairs an offer's record with the properties captured under the
// trader lock, pinning a consistent property set for the rest of the query.
// quarantined marks offers resolved only as probes, never matched; open is
// the mask of the constraint's conjuncts the static pass left open; lo:hi is
// the offer's range in the query's pend list.
type offerView struct {
	rec         *offerRecord
	props       slotProps
	quarantined bool
	open        uint64
	lo, hi      int
}

// pendingProp records that the offer property in one slot awaits one task's
// result.
type pendingProp struct {
	slot int
	task int // index into the query's results (into tasks until they are grouped)
}

// queryScratch is the recyclable working set of one query. Queries churn
// through several short-lived slices (the referenced names and their slots,
// candidate views, value arrays, matched indices, sort keys, resolve tasks,
// groups and results); pooling them keeps steady-state allocation
// proportional to the result set instead of the candidates.
type queryScratch struct {
	names      []string // what the constraint or preference reads
	prefAt     []int    // the preference's refs, as indices into names
	slotOf     []int    // each name's slot in the type; -1 = none
	slotNames  []string // the type's names by slot
	candidates []offerView
	vals       []*wire.Value // one candidate's values of names
	prefVals   []*wire.Value // the same, of the preference's refs
	matched    []int
	keys       []prefKey
	tasks      []resolveTask
	groups     []resolveGroup
	aspects    []string
	pend       []pendingProp
	results    []Resolution
	row        replyRow // queryWire's, one row at a time
	outcomes   []resolveOutcome
	gi         groupIndex
}

// resolveOutcome summarizes one offer's dynamic-property resolutions
// within a single query, feeding the quarantine bookkeeping.
type resolveOutcome uint8

const (
	// resolveNone: no dynamic property of the offer was resolved — the
	// query gave no liveness evidence either way.
	resolveNone resolveOutcome = iota
	// resolveAllOK: every attempted resolution answered.
	resolveAllOK
	// resolveSomeFailed: at least one resolution failed.
	resolveSomeFailed
)

// maxScratchEntries bounds the capacities a pooled scratch may retain, so
// one huge query does not pin its working set for the life of the process.
const maxScratchEntries = 1 << 14

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getQueryScratch() *queryScratch { return queryScratchPool.Get().(*queryScratch) }

func putQueryScratch(sc *queryScratch) {
	if cap(sc.candidates) > maxScratchEntries || cap(sc.pend) > maxScratchEntries {
		return // oversized: let the GC reclaim the whole scratch
	}
	// Drop references so a pooled scratch does not pin offers or resolved
	// values between queries. A query writes these slices only below their
	// final lengths, and each came out of the pool cleared, so clearing up
	// to the length clears all it wrote. queryWire reuses row for each row
	// it writes, so a shorter row can leave a longer one's tail: row is
	// cleared to its capacity, the most properties of one offer.
	sc.slotNames = nil
	clear(sc.candidates)
	clear(sc.vals)
	clear(sc.prefVals)
	clear(sc.tasks)
	clear(sc.groups)
	clear(sc.aspects)
	clear(sc.pend)
	clear(sc.results)
	clear(sc.row[:cap(sc.row)])
	queryScratchPool.Put(sc)
}

// resolveTask is one distinct read of a query: offers whose dynamic
// properties point at the same object and aspect share a single task. The
// tasks of one object form a chain through next, in order of first
// reference; slot is the task's place in the query's aspects and results
// once the groups are laid out.
type resolveTask struct {
	aspect string
	next   int // next task of the same group, -1 at the end
	slot   int
}

// resolveGroup is one monitor interrogation: the tasks of a query that
// read the same object. head and tail are the ends of its task chain; its
// aspects and results are the range lo:hi of the query's. hash caches the
// key hash for the dedup index.
type resolveGroup struct {
	ref        wire.ObjRef
	hash       uint64
	head, tail int
	lo, hi     int
}

// groupIndex is an open-addressing hash index over a resolveGroup slice,
// finding the group of an object reference without a per-entry allocation:
// slots hold 1-based group indices and key data lives in the groups
// themselves. (Within a group, tasks are told apart by walking its chain: a
// query reads a handful of aspects per object.)
type groupIndex struct {
	slots []int32
	mask  uint64
	n     int
}

// reset prepares the index for about hint keys, reusing the slot table
// from a previous query when it is already large enough.
func (gi *groupIndex) reset(hint int) {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	if len(gi.slots) < size {
		gi.slots = make([]int32, size)
	} else {
		clear(gi.slots)
	}
	gi.mask = uint64(len(gi.slots) - 1)
	gi.n = 0
}

// lookup returns the index of the group for ref, which hashes to h, or -1.
func (gi *groupIndex) lookup(groups []resolveGroup, h uint64, ref wire.ObjRef) int {
	for i := h & gi.mask; ; i = (i + 1) & gi.mask {
		s := gi.slots[i]
		if s == 0 {
			return -1
		}
		if g := &groups[s-1]; g.hash == h && g.ref == ref {
			return int(s - 1)
		}
	}
}

// insert records group idx (which must already be in groups), growing the
// table when it passes half full.
func (gi *groupIndex) insert(groups []resolveGroup, idx int) {
	if 2*(gi.n+1) > len(gi.slots) {
		old := gi.slots
		gi.slots = make([]int32, 2*len(old))
		gi.mask = uint64(len(gi.slots) - 1)
		for _, s := range old {
			if s != 0 {
				gi.place(groups[s-1].hash, s)
			}
		}
	}
	gi.place(groups[idx].hash, int32(idx+1))
	gi.n++
}

func (gi *groupIndex) place(h uint64, slot int32) {
	i := h & gi.mask
	for gi.slots[i] != 0 {
		i = (i + 1) & gi.mask
	}
	gi.slots[i] = slot
}

// refHash hashes ref for the query's group index with a fixed function,
// eight bytes at a time, ending in splitmix64's finalizer so every input
// bit reaches the low bits the index masks.
func refHash(ref wire.ObjRef) uint64 {
	h := hashString(hashString(0, ref.Endpoint), ref.Key)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// hashString folds s into h a word at a time, the last word holding the
// bytes past the last full eight and their count.
func hashString(h uint64, s string) uint64 {
	for ; len(s) >= 8; s = s[8:] {
		// One load: the compiler merges the eight byte reads.
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	w := uint64(len(s))
	for i := 0; i < len(s); i++ {
		w = w<<8 | uint64(s[i])
	}
	return (h ^ w) * 0x9e3779b97f4a7c15
}

// FNVOffset64 is the FNV-1a 64-bit offset basis: the h to start
// FNVString from.
const FNVOffset64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// FNVString folds s into the FNV-1a 64-bit hash h, followed by a field
// separator, so a chain of calls hashes a tuple of strings. The shard
// router ranks a service type's owners by it; the trader's per-query group
// index hashes with refHash instead, a word at a time.
func FNVString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Field separator so ("ab","c") and ("a","bc") hash differently.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// resolveReferenced resolves, for every candidate, its dynamic properties
// in slots (those of what the constraint or preference references). The
// reads are grouped by the object they address and, within a group,
// identical aspects are deduplicated into one task, across all offers;
// resolveAll then interrogates each object once. It leaves each candidate's
// lo:hi range of sc.pend, its sc.outcomes entry, and the sc.results those
// pend entries index behind.
func (t *Trader) resolveReferenced(ctx context.Context, offers []offerView, slots []int, workers int, sc *queryScratch) {
	outcomes := sc.outcomes[:0]
	tasks, groups, pend := sc.tasks[:0], sc.groups[:0], sc.pend[:0]
	// The index is reset lazily so purely static queries pay nothing for it.
	var gi *groupIndex
	for i := range offers {
		outcomes = append(outcomes, resolveNone)
		offers[i].lo = len(pend)
		g := -1
		props := &offers[i].props
		for _, s := range slots {
			k, ok := props.get(s)
			if !ok || !props.dynamic(k) {
				continue
			}
			ref, aspect := props.source(k)
			if gi == nil {
				gi = &sc.gi
				// Offers in the paper's scenario read their dynamic props
				// off one monitor each.
				gi.reset(len(offers))
			}
			// An offer's properties usually name one monitor (Fig. 6).
			if g < 0 || groups[g].ref != ref {
				h := refHash(ref)
				if g = gi.lookup(groups, h, ref); g < 0 {
					g = len(groups)
					groups = append(groups, resolveGroup{ref: ref, hash: h, head: -1, tail: -1})
					gi.insert(groups, g)
				}
			}
			idx := groups[g].head
			for idx >= 0 && tasks[idx].aspect != aspect {
				idx = tasks[idx].next
			}
			if idx < 0 {
				idx = len(tasks)
				tasks = append(tasks, resolveTask{aspect: aspect, next: -1})
				if tail := groups[g].tail; tail >= 0 {
					tasks[tail].next = idx
				} else {
					groups[g].head = idx
				}
				groups[g].tail = idx
			}
			pend = append(pend, pendingProp{slot: s, task: idx})
		}
		offers[i].hi = len(pend)
	}
	// Lay the groups out back to back, in order of first reference, so each
	// has its aspects and its results contiguous, then point every pending
	// property at its task's slot in that layout.
	aspects := slices.Grow(sc.aspects[:0], len(tasks))[:0]
	for g := range groups {
		groups[g].lo = len(aspects)
		for i := groups[g].head; i >= 0; i = tasks[i].next {
			tasks[i].slot = len(aspects)
			aspects = append(aspects, tasks[i].aspect)
		}
		groups[g].hi = len(aspects)
	}
	for i := range pend {
		pend[i].task = tasks[pend[i].task].slot
	}
	sc.outcomes, sc.tasks, sc.groups, sc.aspects, sc.pend = outcomes, tasks, groups, aspects, pend
	results := t.resolveAll(ctx, groups, aspects, workers, sc)
	if tm := t.tm.Load(); tm != nil {
		tm.resolveTasks.Observe(int64(len(tasks)))
		var failed uint64
		for i := range results {
			if results[i].Err != nil {
				failed++
			}
		}
		if failed > 0 {
			tm.resolveErrors.Add(failed)
		}
	}
	for i := range offers {
		for _, p := range pend[offers[i].lo:offers[i].hi] {
			if results[p.task].Err != nil {
				outcomes[i] = resolveSomeFailed
			} else if outcomes[i] == resolveNone {
				outcomes[i] = resolveAllOK
			}
		}
	}
}

// resolveGroup interrogates one group's object for the group's aspects.
func (t *Trader) resolveGroup(ctx context.Context, g *resolveGroup, aspects []string, results []Resolution) {
	t.batch.ResolveBatch(ctx, g.ref, aspects[g.lo:g.hi], results[g.lo:g.hi])
}

// serialResolveBudget is how long resolveAll works serially before fanning
// out. In-process or stubbed monitors resolve a whole query inside the
// budget without paying for a single goroutine; remote monitors blow
// through it after a couple of calls and the remainder goes parallel.
const serialResolveBudget = 100 * time.Microsecond

// resolveAll interrogates every group's object for the group's aspects. It
// starts serially under serialResolveBudget, then fans the remaining groups
// out across up to workers goroutines. Parallel work is handed out in
// contiguous chunks off an atomic counter: fast monitors do not idle behind
// slow ones, the counter is touched once per chunk rather than once per
// group, and each worker writes a contiguous run of results, avoiding
// cache-line ping-pong when resolutions are cheap.
func (t *Trader) resolveAll(ctx context.Context, groups []resolveGroup, aspects []string, workers int, sc *queryScratch) []Resolution {
	// Every index in results is written below before it is read, so a
	// recycled slice needs no clearing here.
	results := slices.Grow(sc.results[:0], len(aspects))[:len(aspects)]
	sc.results = results
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for i := range groups {
			t.resolveGroup(ctx, &groups[i], aspects, results)
		}
		return results
	}
	start := 0
	begin := time.Now()
	for ; start < len(groups); start++ {
		// The clock check runs per-group for the first 8 groups so one
		// slow remote resolution escapes to the parallel path at once,
		// then amortizes over 8 groups to stay out of the fast path.
		if start > 0 && (start < 8 || start%8 == 0) && time.Since(begin) > serialResolveBudget {
			break
		}
		t.resolveGroup(ctx, &groups[start], aspects, results)
	}
	rest := len(groups) - start
	if rest <= 0 {
		return results
	}
	if workers > rest {
		workers = rest
	}
	chunk := rest / (workers * 8)
	if chunk < 1 {
		chunk = 1
	} else if chunk > 64 {
		chunk = 64
	}
	var next atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(groups) {
					return
				}
				hi := min(lo+chunk, len(groups))
				for i := lo; i < hi; i++ {
					t.resolveGroup(ctx, &groups[i], aspects, results)
				}
			}
		}()
	}
	wg.Wait()
	return results
}
