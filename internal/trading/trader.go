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
)

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
// implement, plus the property names offers of this type may carry. The
// paper's trader types properties; ours records names for documentation and
// validates that exported offers do not invent undeclared properties when
// Strict is set.
type ServiceType struct {
	Name      string
	Interface string
	Props     []string
	Strict    bool
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
	types  map[string]registeredType
	offers map[string]*offerRecord
	// byType indexes offers by service type in export order (ascending
	// offerRecord.seq), holding exactly the records of t.offers: Export
	// appends, Withdraw and Reap remove, nothing else touches it. Expiry and
	// quarantine are filtered at query time, so an expired-but-unreaped
	// record keeps its slot and Renew resurrects it in place.
	byType map[string][]*offerRecord
	nextID int

	// Liveness knobs (see lease.go). clk stamps leases and drives the
	// reaper; leaseTTL 0 disables leasing; quarThreshold is how many
	// consecutive dynamic-property resolution failures quarantine an
	// offer (values < 1 disable quarantining).
	clk           clock.Clock
	leaseTTL      time.Duration
	quarThreshold int

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
type ClientResolver struct{ Client *orb.Client }

// ResolveDynamic implements DynamicResolver: getValue() or
// getAspectValue(aspect) on the referenced object.
func (r ClientResolver) ResolveDynamic(ctx context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	op := "getValue"
	var args []wire.Value
	if aspect != "" {
		op = "getAspectValue"
		args = []wire.Value{wire.String(aspect)}
	}
	rs, err := r.Client.Invoke(ctx, ref, op, args...)
	if err != nil {
		return wire.Nil(), err
	}
	if len(rs) == 0 {
		return wire.Nil(), nil
	}
	return rs[0], nil
}

// ResolveBatch implements BatchResolver: one getAspectValues(aspects...)
// round trip for two or more aspects of an object, whose monitor reads them
// under one lock, so the values belong to one sample. A single aspect goes
// out as the ResolveDynamic call it always was.
//
// When the object answers the batch with an error of its own — one of the
// aspects is undefined, or the peer predates getAspectValues — or with the
// wrong number of values, the aspects are asked for one by one, so the
// defined ones still resolve and each failure is the one a per-aspect
// resolver would have seen. A transport or deadline error fails the whole
// group at once: asking an unreachable monitor N more times would cost N
// more timeouts to learn the same thing.
func (r ClientResolver) ResolveBatch(ctx context.Context, ref wire.ObjRef, aspects []string, out []Resolution) {
	if len(aspects) > 1 {
		args := make([]wire.Value, len(aspects))
		for i, aspect := range aspects {
			args[i] = wire.String(aspect)
		}
		rs, err := r.Client.Invoke(ctx, ref, "getAspectValues", args...)
		switch {
		case err == nil && len(rs) == len(aspects):
			for i := range out {
				out[i] = Resolution{Value: rs[i]}
			}
			return
		case err != nil && !rejectedByObject(err):
			for i := range out {
				out[i] = Resolution{Value: wire.Nil(), Err: err}
			}
			return
		}
	}
	perAspect{r}.ResolveBatch(ctx, ref, aspects, out)
}

// rejectedByObject reports whether err is the referenced object's own
// answer to a call it received — a servant's application error, or its
// interface check refusing the operation or its arguments — as opposed to a
// failure to reach the object or to get an answer in time.
func rejectedByObject(err error) bool {
	var re *orb.RemoteError
	if !errors.As(err, &re) {
		return false
	}
	switch re.Code {
	case orb.CodeApp, orb.CodeInternal, orb.CodeBadOperation, orb.CodeBadParam:
		return true
	}
	return false
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
		types:           make(map[string]registeredType),
		offers:          make(map[string]*offerRecord),
		byType:          make(map[string][]*offerRecord),
		clk:             clock.Real{},
		quarThreshold:   DefaultQuarantineThreshold,
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

// registeredType is a service type plus what Export needs precomputed from
// it: the declared-property set of a Strict type, built once in AddType.
type registeredType struct {
	ServiceType
	declared map[string]struct{} // nil unless Strict
}

// AddType registers a service type. Re-adding a name replaces it.
func (t *Trader) AddType(st ServiceType) {
	rt := registeredType{ServiceType: st}
	if st.Strict {
		rt.declared = make(map[string]struct{}, len(st.Props))
		for _, p := range st.Props {
			rt.declared[p] = struct{}{}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.types[st.Name] = rt
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
	if st.Strict {
		for name := range props {
			if _, ok := st.declared[name]; !ok {
				return "", fmt.Errorf("trading: offer property %q not declared by type %q", name, serviceType)
			}
		}
	}
	t.nextID++
	t.statExports.Add(1)
	id := "offer-" + strconv.Itoa(t.nextID)
	copied := make(map[string]PropValue, len(props))
	for k, v := range props {
		copied[k] = v
	}
	rec := &offerRecord{
		offer: Offer{ID: id, ServiceType: serviceType, Ref: ref, Props: copied},
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

// Modify replaces the properties of an existing offer. It is lease-aware:
// modifying an expired offer reports ErrUnknownOffer without touching the
// record, so a later Renew resurrects the offer with its pre-expiry
// properties deterministically.
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
	copied := make(map[string]PropValue, len(props))
	for k, v := range props {
		copied[k] = v
	}
	rec.offer.Props = copied
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
// excluded from the results. Quarantined offers still have their dynamic
// properties resolved as *probes*, so a recovered monitor rehabilitates
// its offer and the next query sees it again.
//
// Resolution is demand-driven: dynamic properties are resolved only when
// the constraint or preference references them by name. Identical reads —
// same object, same aspect — are resolved once per query and the value
// shared; the distinct reads are grouped by object, each object is
// interrogated once for all of its aspects (BatchResolver), and the objects
// fan out across a bounded worker pool (SetResolveParallel). Memoization is
// per-query only, so repeated queries still observe fresh monitor values.
// Snapshots (every static property plus every referenced dynamic property
// that resolved) are built only for the rows returned.
func (t *Trader) Query(ctx context.Context, serviceType, constraint, preference string, maxResults int) ([]QueryResult, error) {
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
		return nil, err
	}
	pref, err := cachedPreference(preference)
	if err != nil {
		if tm != nil {
			tm.queryErrors.Inc()
		}
		return nil, err
	}
	sc := getQueryScratch()
	defer putQueryScratch(sc)
	t.mu.RLock()
	if _, ok := t.types[serviceType]; !ok {
		t.mu.RUnlock()
		if tm != nil {
			tm.queryErrors.Inc()
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownServiceType, serviceType)
	}
	workers := t.resolveParallel
	resolveTimeout := t.resolveTimeout
	// The type's list is already in export order, the deterministic base
	// order preferences refine. Capture each candidate's Props map pointer
	// while holding the lock: Export and Modify install a fresh map and
	// never mutate a published one, and an offer's other fields are
	// immutable after export, so the captured pair stays consistent after
	// the lock is released even if a concurrent Modify swaps in replacement
	// properties.
	candidates := sc.candidates[:0]
	now := t.clk.Now()
	recs := t.byType[serviceType]
	for _, rec := range recs {
		if !rec.expired(now) {
			candidates = append(candidates, offerView{rec: rec, props: rec.offer.Props, quarantined: rec.quarantined})
		}
	}
	t.mu.RUnlock()
	sc.candidates = candidates
	t.statScanned.Add(int64(len(recs)))
	t.statCandidates.Add(int64(len(candidates)))

	resolveCtx := ctx
	if resolveTimeout > 0 {
		var cancel context.CancelFunc
		resolveCtx, cancel = context.WithTimeout(ctx, resolveTimeout)
		defer cancel()
	}
	// The names worth resolving: what the constraint or preference can read.
	names := sc.names[:0]
	if t.resolver != nil {
		names = append(names, cons.refs...)
		for _, name := range pref.refs {
			if !slices.Contains(cons.refs, name) {
				names = append(names, name)
			}
		}
	}
	sc.names = names
	results := t.resolveReferenced(resolveCtx, candidates, names, workers, sc)
	t.noteResolveOutcomes(ctx, candidates, sc.outcomes)

	// One lookup serves every evaluation: cur selects the candidate, static
	// values come from its captured Props and dynamic ones from the resolve
	// results through its range in pend. A dynamic property that was not
	// resolved (unreferenced, failed, or no resolver) is absent.
	var cur *offerView
	pend := sc.pend
	lookup := func(name string) (wire.Value, bool) {
		pv, ok := cur.props[name]
		if !ok {
			return wire.Value{}, false
		}
		if !pv.IsDynamic() {
			return pv.Static, true
		}
		for _, p := range pend[cur.lo:cur.hi] {
			if p.name == name {
				r := &results[p.task]
				return r.Value, r.Err == nil
			}
		}
		return wire.Value{}, false
	}
	matched := sc.matched[:0]
	for i := range candidates {
		if candidates[i].quarantined {
			continue // probed above, but untrusted until rehabilitated
		}
		cur = &candidates[i]
		if ok, err := cons.Eval(lookup); err == nil && ok {
			matched = append(matched, i)
		}
	}
	sc.matched = matched
	sc.keys = slices.Grow(sc.keys[:0], len(candidates))[:len(candidates)]
	err = pref.rank(matched, sc.keys, func(i int) (string, PropLookup) {
		cur = &candidates[i]
		return cur.rec.offer.ID, lookup
	})
	if err != nil {
		return nil, err
	}
	if maxResults > 0 && len(matched) > maxResults {
		matched = matched[:maxResults]
	}
	out := make([]QueryResult, len(matched))
	for n, i := range matched {
		c := &candidates[i]
		snap := make(map[string]wire.Value, len(c.props))
		for name, pv := range c.props {
			if !pv.IsDynamic() {
				snap[name] = pv.Static
			}
		}
		for _, p := range pend[c.lo:c.hi] {
			if r := &results[p.task]; r.Err == nil {
				snap[p.name] = r.Value
			}
		}
		o := &c.rec.offer // Props may be changing; the other fields never do
		out[n] = QueryResult{
			Offer:    Offer{ID: o.ID, ServiceType: o.ServiceType, Ref: o.Ref, Props: c.props},
			Snapshot: snap,
		}
	}
	return out, nil
}

// offerView pairs an offer's record with the Props map captured under the
// trader lock, pinning a consistent property set for the rest of the query.
// quarantined marks offers resolved only as probes, never matched; lo:hi is
// the offer's range in the query's pend list.
type offerView struct {
	rec         *offerRecord
	props       map[string]PropValue
	quarantined bool
	lo, hi      int
}

// pendingProp records that one offer property awaits one task's result.
type pendingProp struct {
	name string
	task int // index into the query's results (into tasks until they are grouped)
}

// queryScratch is the recyclable working set of one query. Queries churn
// through several short-lived slices (candidate views, matched indices,
// sort keys, resolve tasks, groups and results); pooling them keeps
// steady-state allocation proportional to the result set instead of the
// candidates.
type queryScratch struct {
	candidates []offerView
	names      []string
	matched    []int
	keys       []prefKey
	tasks      []resolveTask
	groups     []resolveGroup
	aspects    []string
	pend       []pendingProp
	results    []Resolution
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
	// values between queries.
	clear(sc.candidates[:cap(sc.candidates)])
	clear(sc.tasks[:cap(sc.tasks)])
	clear(sc.groups[:cap(sc.groups)])
	clear(sc.aspects[:cap(sc.aspects)])
	clear(sc.pend[:cap(sc.pend)])
	clear(sc.results[:cap(sc.results)])
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

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Field separator so ("ab","c") and ("a","bc") hash differently.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

// resolveReferenced resolves, for every candidate, the dynamic properties
// among names (what the constraint or preference references). The reads are
// grouped by the object they address and, within a group, identical aspects
// are deduplicated into one task, across all offers; resolveAll then
// interrogates each object once. It leaves each candidate's lo:hi range of
// sc.pend and its sc.outcomes entry behind and returns the results those
// pend entries index.
func (t *Trader) resolveReferenced(ctx context.Context, offers []offerView, names []string, workers int, sc *queryScratch) []Resolution {
	outcomes := sc.outcomes[:0]
	tasks, groups, pend := sc.tasks[:0], sc.groups[:0], sc.pend[:0]
	// The index is reset lazily so purely static queries pay nothing for it.
	var gi *groupIndex
	for i := range offers {
		outcomes = append(outcomes, resolveNone)
		offers[i].lo = len(pend)
		for _, name := range names {
			pv, ok := offers[i].props[name]
			if !ok || !pv.IsDynamic() {
				continue
			}
			if gi == nil {
				gi = &sc.gi
				// Offers in the paper's scenario read their dynamic props
				// off one monitor each.
				gi.reset(len(offers))
			}
			h := fnvString(fnvString(fnvOffset64, pv.Dynamic.Endpoint), pv.Dynamic.Key)
			g := gi.lookup(groups, h, pv.Dynamic)
			if g < 0 {
				g = len(groups)
				groups = append(groups, resolveGroup{ref: pv.Dynamic, hash: h, head: -1, tail: -1})
				gi.insert(groups, g)
			}
			idx := groups[g].head
			for idx >= 0 && tasks[idx].aspect != pv.Aspect {
				idx = tasks[idx].next
			}
			if idx < 0 {
				idx = len(tasks)
				tasks = append(tasks, resolveTask{aspect: pv.Aspect, next: -1})
				if tail := groups[g].tail; tail >= 0 {
					tasks[tail].next = idx
				} else {
					groups[g].head = idx
				}
				groups[g].tail = idx
			}
			pend = append(pend, pendingProp{name: name, task: idx})
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
	return results
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
