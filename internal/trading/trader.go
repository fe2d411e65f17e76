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
	// Resolver fetches dynamic property values. In production this is an
	// *orb.Client; tests may stub it.
	resolver DynamicResolver

	// resolveParallel bounds how many dynamic-property resolutions a
	// single query runs concurrently; resolveTimeout caps the whole
	// resolution phase of one query (0 = no cap beyond the caller's ctx).
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

// ClientResolver adapts an orb.Client to DynamicResolver.
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

// NewTrader returns an empty trader using resolver for dynamic properties.
// A nil resolver makes every dynamic property evaluate as missing.
func NewTrader(resolver DynamicResolver) *Trader {
	return &Trader{
		resolver:        resolver,
		resolveParallel: defaultResolveParallel,
		types:           make(map[string]registeredType),
		offers:          make(map[string]*offerRecord),
		byType:          make(map[string][]*offerRecord),
		clk:             clock.Real{},
		quarThreshold:   DefaultQuarantineThreshold,
	}
}

// SetResolveParallel bounds how many dynamic properties one query resolves
// concurrently. n <= 1 forces serial resolution.
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
// the constraint or preference references them by name. Identical monitor
// calls — same object, same aspect — are resolved once per query and the
// value shared, and distinct resolutions fan out across a bounded worker
// pool (SetResolveParallel). Memoization is per-query only, so repeated
// queries still observe fresh monitor values. Snapshots (every static
// property plus every referenced dynamic property that resolved) are built
// only for the rows returned.
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
				return r.v, r.err == nil
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
			if r := &results[p.task]; r.err == nil {
				snap[p.name] = r.v
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
	task int // index into tasks
}

// queryScratch is the recyclable working set of one query. Queries churn
// through several short-lived slices (candidate views, matched indices,
// sort keys, resolve tasks and results); pooling them keeps steady-state
// allocation proportional to the result set instead of the candidates.
type queryScratch struct {
	candidates []offerView
	names      []string
	matched    []int
	keys       []prefKey
	tasks      []resolveTask
	pend       []pendingProp
	results    []resolveResult
	outcomes   []resolveOutcome
	ti         taskIndex
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
	clear(sc.pend[:cap(sc.pend)])
	clear(sc.results[:cap(sc.results)])
	queryScratchPool.Put(sc)
}

// resolveTask is one monitor interrogation: distinct offers whose dynamic
// properties point at the same object and aspect share a single task
// within a query. hash caches the key hash for the dedup index.
type resolveTask struct {
	ref    wire.ObjRef
	aspect string
	hash   uint64
}

// taskIndex is an open-addressing hash index over a resolveTask slice,
// deduplicating (ref, aspect) keys without a per-entry allocation: slots
// hold 1-based task indices and key data lives in the tasks themselves.
type taskIndex struct {
	slots []int32
	mask  uint64
	n     int
}

// reset prepares the index for about hint keys, reusing the slot table
// from a previous query when it is already large enough.
func (ti *taskIndex) reset(hint int) {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	if len(ti.slots) < size {
		ti.slots = make([]int32, size)
	} else {
		clear(ti.slots)
	}
	ti.mask = uint64(len(ti.slots) - 1)
	ti.n = 0
}

// lookup returns the index of the task matching (h, ref, aspect), or -1.
func (ti *taskIndex) lookup(tasks []resolveTask, h uint64, ref wire.ObjRef, aspect string) int {
	for i := h & ti.mask; ; i = (i + 1) & ti.mask {
		s := ti.slots[i]
		if s == 0 {
			return -1
		}
		t := &tasks[s-1]
		if t.hash == h && t.ref == ref && t.aspect == aspect {
			return int(s - 1)
		}
	}
}

// insert records task idx (which must already be in tasks), growing the
// table when it passes half full.
func (ti *taskIndex) insert(tasks []resolveTask, idx int) {
	if 2*(ti.n+1) > len(ti.slots) {
		bigger := &taskIndex{
			slots: make([]int32, 2*len(ti.slots)),
			mask:  uint64(2*len(ti.slots) - 1),
		}
		for _, s := range ti.slots {
			if s != 0 {
				bigger.place(tasks[s-1].hash, s)
			}
		}
		ti.slots, ti.mask = bigger.slots, bigger.mask
	}
	ti.place(tasks[idx].hash, int32(idx+1))
	ti.n++
}

func (ti *taskIndex) place(h uint64, slot int32) {
	i := h & ti.mask
	for ti.slots[i] != 0 {
		i = (i + 1) & ti.mask
	}
	ti.slots[i] = slot
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

func hashResolveKey(ref wire.ObjRef, aspect string) uint64 {
	h := fnvString(fnvOffset64, ref.Endpoint)
	h = fnvString(h, ref.Key)
	return fnvString(h, aspect)
}

type resolveResult struct {
	v   wire.Value
	err error
}

// resolveReferenced resolves, for every candidate, the dynamic properties
// among names (what the constraint or preference references), with
// identical monitor calls deduplicated across all offers and fanned out
// over resolveAll. It leaves each candidate's lo:hi range of sc.pend and
// its sc.outcomes entry behind and returns the per-task results those pend
// entries index.
func (t *Trader) resolveReferenced(ctx context.Context, offers []offerView, names []string, workers int, sc *queryScratch) []resolveResult {
	outcomes := sc.outcomes[:0]
	tasks, pend := sc.tasks[:0], sc.pend[:0]
	// The dedup index is reset lazily so purely static queries pay nothing
	// for it.
	var ti *taskIndex
	for i := range offers {
		outcomes = append(outcomes, resolveNone)
		offers[i].lo = len(pend)
		for _, name := range names {
			pv, ok := offers[i].props[name]
			if !ok || !pv.IsDynamic() {
				continue
			}
			if ti == nil {
				ti = &sc.ti
				// Offers in the paper's scenario carry ~2 referenced
				// dynamic props each (a monitor value plus an aspect).
				ti.reset(2 * len(offers))
			}
			h := hashResolveKey(pv.Dynamic, pv.Aspect)
			idx := ti.lookup(tasks, h, pv.Dynamic, pv.Aspect)
			if idx < 0 {
				idx = len(tasks)
				tasks = append(tasks, resolveTask{ref: pv.Dynamic, aspect: pv.Aspect, hash: h})
				ti.insert(tasks, idx)
			}
			pend = append(pend, pendingProp{name: name, task: idx})
		}
		offers[i].hi = len(pend)
	}
	sc.outcomes, sc.tasks, sc.pend = outcomes, tasks, pend
	results := t.resolveAll(ctx, tasks, workers, sc)
	if tm := t.tm.Load(); tm != nil {
		tm.resolveTasks.Observe(int64(len(tasks)))
		var failed uint64
		for i := range results {
			if results[i].err != nil {
				failed++
			}
		}
		if failed > 0 {
			tm.resolveErrors.Add(failed)
		}
	}
	for i := range offers {
		for _, p := range pend[offers[i].lo:offers[i].hi] {
			if results[p.task].err != nil {
				outcomes[i] = resolveSomeFailed
			} else if outcomes[i] == resolveNone {
				outcomes[i] = resolveAllOK
			}
		}
	}
	return results
}

// serialResolveBudget is how long resolveAll works serially before fanning
// out. In-process or stubbed monitors resolve a whole task list inside the
// budget without paying for a single goroutine; remote monitors blow
// through it after a couple of calls and the remainder goes parallel.
const serialResolveBudget = 100 * time.Microsecond

// resolveAll fetches every task's current value. It starts serially under
// serialResolveBudget, then fans the remaining tasks out across up to
// workers goroutines. Parallel work is handed out in contiguous chunks off
// an atomic counter: fast monitors do not idle behind slow ones, the
// counter is touched once per chunk rather than once per task, and each
// worker writes a contiguous run of results, avoiding cache-line ping-pong
// when resolutions are cheap.
func (t *Trader) resolveAll(ctx context.Context, tasks []resolveTask, workers int, sc *queryScratch) []resolveResult {
	// Every index in results is written below before it is read, so a
	// recycled slice needs no clearing here.
	var results []resolveResult
	if cap(sc.results) >= len(tasks) {
		results = sc.results[:len(tasks)]
	} else {
		results = make([]resolveResult, len(tasks))
		sc.results = results
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	start := 0
	if workers > 1 {
		begin := time.Now()
		for ; start < len(tasks); start++ {
			// The clock check runs per-task for the first 8 tasks so one
			// slow remote resolution escapes to the parallel path at once,
			// then amortizes over 8 tasks to stay out of the fast path.
			if start > 0 && (start < 8 || start%8 == 0) && time.Since(begin) > serialResolveBudget {
				break
			}
			task := &tasks[start]
			results[start].v, results[start].err = t.resolver.ResolveDynamic(ctx, task.ref, task.aspect)
		}
	} else {
		for i := range tasks {
			results[i].v, results[i].err = t.resolver.ResolveDynamic(ctx, tasks[i].ref, tasks[i].aspect)
		}
		return results
	}
	rest := len(tasks) - start
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
				if lo >= len(tasks) {
					return
				}
				hi := lo + chunk
				if hi > len(tasks) {
					hi = len(tasks)
				}
				for i := lo; i < hi; i++ {
					results[i].v, results[i].err = t.resolver.ResolveDynamic(ctx, tasks[i].ref, tasks[i].aspect)
				}
			}
		}()
	}
	wg.Wait()
	return results
}
