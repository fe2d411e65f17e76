package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"time"
	"unsafe"

	"autoadapt/internal/core"
	"autoadapt/internal/monitor"
	"autoadapt/internal/orb"
	"autoadapt/internal/trading"
	"autoadapt/internal/wire"
)

// world is one workload's deployment — servers, trader, monitors, the
// caller's proxy — inside this process, plus the closed-loop driver.
type world interface {
	// segment runs n ops back to back, stores each op's latency in lat[:n]
	// and returns how many ops failed or answered wrongly.
	segment(n int, lat []time.Duration) int
	// finish checks what can only be checked once the ops are done.
	finish() error
	// hash identifies the op stream generated so far.
	hash() uint64
	counters() counters
	close()
}

// counters are the activity counts the per-layer metrics need from a world.
type counters struct {
	shed                    uint64 // requests its servers refused or dropped
	invokes, selections     int64  // core.Stats of its smart proxy
	switches, eventsHandled int64
	aspects, predicates     int64 // script evaluations inside its monitors, counted by the driver
	fired                   int64 // predicates that fired
	offers                  int   // offers its trader holds
	typeSize                int   // offers per service type
}

// since returns the activity between an earlier reading and c.
func (c counters) since(c0 counters) counters {
	c.shed -= c0.shed
	c.invokes -= c0.invokes
	c.selections -= c0.selections
	c.switches -= c0.switches
	c.eventsHandled -= c0.eventsHandled
	c.aspects -= c0.aspects
	c.predicates -= c0.predicates
	c.fired -= c0.fired
	return c
}

// spec is one entry of the workload table.
type spec struct {
	name      string
	why       string
	opsPerSeg int
	setups    int  // world builds behind setup_s
	inproc    bool // the ORB runs on net.Pipe, not TCP loopback
	build     func(seed int64, tr *tracer) (world, error)
}

var specs = []spec{
	{"invoke_steady", "the common case: one smart-proxy call per message over TCP; orb, wire and core work, trading, script and monitor idle",
		4000, 301, false, buildSteady},
	{"invoke_bulk", "the same orb and wire layers used differently: async 4 KiB echoes, window 32, batched writes, so per-byte and per-syscall cost shows",
		3000, 151, false, buildBulk},
	{"select_dynamic", "reads where the trader does the work: 3-best query over 10000 offers with dynamic properties; script, monitor and core idle",
		200, 41, false, buildSelect},
	{"offer_churn", "writes beside reads on the same 10000-offer trader: renew, modify, withdraw+export and query mixed, so an index that taxes writes shows",
		500, 41, false, buildChurn},
	{"adapt_cycle", "the paper's loop end to end: monitor event, postponed script strategy, re-query with remote dynamic properties, rebind; 8 offers only",
		250, 201, true, buildAdapt},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

var bg = context.Background()

// stream is a workload's seeded source of inputs. Everything an op depends
// on is drawn through it, so hash identifies the op stream.
type stream struct {
	rng *rand.Rand
	h   uint64
}

func newStream(seed int64) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), h: 14695981039346656037}
}

// mix folds one generated input into the hash (FNV-1a step).
func (s *stream) mix(v uint64) { s.h = (s.h ^ v) * 1099511628211 }

func (s *stream) intn(n int) int {
	v := s.rng.Intn(n)
	s.mix(uint64(v + 1))
	return v
}

func (s *stream) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// cleanup collects what a world must close, closed in reverse order.
type cleanup []func()

func (c *cleanup) add(f func()) { *c = append(*c, f) }

func (c *cleanup) close() {
	for i := len(*c) - 1; i >= 0; i-- {
		(*c)[i]()
	}
	*c = nil
}

// closeOnError closes what a failed builder had already opened.
func closeOnError(c *cleanup, err *error) {
	if *err != nil {
		c.close()
	}
}

func (c *cleanup) newServer(nw orb.Network, addr string, opts orb.ServerOptions) (*orb.Server, error) {
	opts.Network, opts.Address = nw, addr
	srv, err := orb.NewServer(opts)
	if err != nil {
		return nil, err
	}
	c.add(func() { _ = srv.Close() })
	return srv, nil
}

func (c *cleanup) newClient(opts orb.ClientOptions) *orb.Client {
	cl := orb.NewClientOpts(opts)
	c.add(func() { _ = cl.Close() })
	return cl
}

func echoServant() orb.Servant {
	return orb.ServantFunc(func(op string, args []wire.Value) ([]wire.Value, error) {
		return args, nil
	})
}

const loopback = "127.0.0.1:0" // TCP workloads cross the host's loopback interface, not a link

// ---- invoke_steady ----

type steadyWorld struct {
	cleanup
	s   *stream
	tr  *tracer
	sp  *core.SmartProxy
	srv *orb.Server
}

func buildSteady(seed int64, tr *tracer) (_ world, err error) {
	w := &steadyWorld{s: newStream(seed), tr: tr}
	defer closeOnError(&w.cleanup, &err)
	nw := tracedNetwork(orb.TCPNetwork{}, tr)
	if w.srv, err = w.newServer(nw, loopback, orb.ServerOptions{}); err != nil {
		return nil, err
	}
	ref := w.srv.Register("echo", "", tracedServant(echoServant(), kAppServant, tr))
	client := w.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})
	if w.sp, err = core.New(core.Options{Client: client}); err != nil {
		return nil, err
	}
	w.add(w.sp.Close)
	if err := w.sp.BindTo(bg, trading.QueryResult{Offer: trading.Offer{ID: "offer-1", Ref: ref}}); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *steadyWorld) segment(n int, lat []time.Duration) (failed int) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		v := w.s.intn(1 << 20)
		op := w.tr.now()
		rs, err := w.sp.Invoke(bg, "echo", wire.Int(v))
		w.tr.span(kCoreInvoke, op)
		w.tr.span(kOp, op)
		if err != nil || len(rs) != 1 || rs[0].Num() != float64(v) {
			failed++
		}
		t1 := time.Now()
		lat[i] = t1.Sub(t0)
		t0 = t1
	}
	return failed
}

func (w *steadyWorld) finish() error { return nil }
func (w *steadyWorld) hash() uint64  { return w.s.h }

func (w *steadyWorld) counters() counters {
	st, ss := w.sp.Stats(), w.srv.Stats()
	return counters{shed: ss.ShedRequests + ss.ExpiredShed, invokes: st.Invocations}
}

// ---- invoke_bulk ----

const (
	bulkWindow   = 32
	bulkPayloads = 64
	bulkBytes    = 4096
)

type bulkWorld struct {
	cleanup
	s        *stream
	tr       *tracer
	client   *orb.Client
	srv      *orb.Server
	ref      wire.ObjRef
	vals     [bulkPayloads]wire.Value
	sums     [bulkPayloads]uint32
	inflight [bulkWindow]struct {
		fut     *orb.Future
		issued  time.Time
		payload int
	}
}

func buildBulk(seed int64, tr *tracer) (_ world, err error) {
	w := &bulkWorld{s: newStream(seed), tr: tr}
	defer closeOnError(&w.cleanup, &err)
	nw := tracedNetwork(orb.TCPNetwork{}, tr)
	if w.srv, err = w.newServer(nw, loopback, orb.ServerOptions{BatchWindow: 100 * time.Microsecond}); err != nil {
		return nil, err
	}
	w.ref = w.srv.Register("echo", "", tracedServant(echoServant(), kAppServant, tr))
	w.client = w.newClient(orb.ClientOptions{Networks: []orb.Network{nw},
		BatchWindow: 100 * time.Microsecond, MaxInFlight: 64})
	buf := make([]byte, bulkBytes)
	for p := range w.vals {
		w.s.rng.Read(buf)
		for i, b := range buf {
			buf[i] = 'a' + b%26
		}
		w.vals[p] = wire.String(string(buf))
		w.sums[p] = crc32.ChecksumIEEE(buf)
		w.s.mix(uint64(w.sums[p]))
	}
	return w, nil
}

// segment keeps bulkWindow echoes in flight on one connection; an op's
// latency runs from its issue to the caller seeing it complete.
func (w *bulkWorld) segment(n int, lat []time.Duration) (failed int) {
	complete := func(i int) {
		slot := &w.inflight[i%bulkWindow]
		ok := false
		if slot.fut != nil {
			rs, err := slot.fut.Result()
			if err == nil && len(rs) == 1 {
				s := rs[0].Str()
				ok = len(s) == bulkBytes &&
					crc32.ChecksumIEEE(unsafe.Slice(unsafe.StringData(s), len(s))) == w.sums[slot.payload]
			}
		}
		if !ok {
			failed++
		}
		lat[i] = time.Since(slot.issued)
	}
	seg := w.tr.now()
	for i := 0; i < n; i++ {
		if i >= bulkWindow {
			complete(i - bulkWindow)
		}
		slot := &w.inflight[i%bulkWindow]
		slot.payload = w.s.intn(bulkPayloads)
		slot.issued = time.Now()
		slot.fut, _ = w.client.InvokeAsync(bg, w.ref, "echo", w.vals[slot.payload])
	}
	for i := max(n-bulkWindow, 0); i < n; i++ {
		complete(i)
	}
	w.tr.span(kOrbAsync, seg)
	w.tr.span(kOp, seg)
	return failed
}

func (w *bulkWorld) finish() error { return nil }
func (w *bulkWorld) hash() uint64  { return w.s.h }

func (w *bulkWorld) counters() counters {
	ss := w.srv.Stats()
	return counters{shed: ss.ShedRequests + ss.ExpiredShed}
}

// ---- the 10000-offer trader of select_dynamic and offer_churn ----

const (
	traderTypes   = 200
	traderPerType = 50
	queryCons     = "LoadAvg < 50 and LoadAvgIncreasing == no and Cores >= 2"
	queryPref     = "min LoadAvg"
)

// slot is one offer position of a service type: the host behind it stays,
// the offer id changes when the offer is withdrawn and exported again.
type slot struct {
	id    string
	svc   wire.ObjRef
	mon   wire.ObjRef
	load  float64
	incr  string
	cores int
}

func (sl *slot) matches() bool { return sl.load < 50 && sl.incr == "no" && sl.cores >= 2 }

func (sl *slot) props() map[string]trading.PropValue {
	return map[string]trading.PropValue{
		"LoadAvg":           {Dynamic: sl.mon, Aspect: monitor.Load1Aspect},
		"LoadAvgIncreasing": {Dynamic: sl.mon, Aspect: "Increasing"},
		"Cores":             {Static: wire.Int(sl.cores)},
		"Host":              {Static: wire.String(sl.mon.Endpoint)},
	}
}

// loadTable is the benchmark's in-memory DynamicResolver and, at the same
// time, the oracle's view of every host.
type loadTable map[wire.ObjRef]*slot

func (t loadTable) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	sl, ok := t[ref]
	if !ok {
		return wire.Nil(), fmt.Errorf("no monitor %s", ref)
	}
	if aspect == "Increasing" {
		return wire.String(sl.incr), nil
	}
	return wire.Number(sl.load), nil
}

type traderWorld struct {
	cleanup
	s      *stream
	tr     *tracer
	trader *trading.Trader
	dir    trading.Directory // the caller's view: a Lookup over TCP
	srv    *orb.Server
	types  [traderTypes]string
	slots  [traderTypes][traderPerType]slot
	best   [traderTypes]int // slot of the least loaded match of each type
	table  loadTable
	churn  bool
	block  [10]byte // the current shuffled block of churn ops
	at     int      // position in block
}

// buildTrader exports traderTypes x traderPerType offers. Within a type
// the loads are a seeded permutation of one fixed ladder and the other
// properties follow the rung, so every type has the same number of matches
// whatever the seed: a run's cost does not depend on which types it draws.
func buildTrader(seed int64, tr *tracer, churn bool) (_ *traderWorld, err error) {
	w := &traderWorld{s: newStream(seed), tr: tr, churn: churn, table: make(loadTable, traderTypes*traderPerType)}
	defer closeOnError(&w.cleanup, &err)
	w.trader = trading.NewTrader(tracedResolver(w.table, tr))
	if churn {
		w.trader.SetLeaseTTL(time.Hour)
	}
	for t := range w.slots {
		w.types[t] = fmt.Sprintf("T%03d", t)
		w.trader.AddType(trading.ServiceType{Name: w.types[t], Interface: "Service",
			Props: []string{"LoadAvg", "LoadAvgIncreasing", "Cores", "Host"}})
		offset := float64(w.s.intn(50)) / 100
		rungs := w.s.perm(traderPerType)
		var ranked [traderPerType]int // slot of each rung
		for j := range w.slots[t] {
			k := rungs[j]
			ranked[k] = j
			host := fmt.Sprintf("mem|h%03d-%02d", t, j)
			sl := &w.slots[t][j]
			*sl = slot{
				svc:   wire.ObjRef{Endpoint: host, Key: "service"},
				mon:   wire.ObjRef{Endpoint: host, Key: "monitor/LoadAvg"},
				load:  2 + 1.9*float64(k) + offset,
				incr:  [...]string{"yes", "no", "no"}[k%3],
				cores: [...]int{1, 2, 4, 8}[k%4],
			}
			w.table[sl.mon] = sl
			id, err := w.trader.Export(w.types[t], sl.svc, sl.props())
			if err != nil {
				return nil, err
			}
			sl.id = id
		}
		for k := traderPerType - 1; k >= 0; k-- { // the lowest matching rung wins
			if w.slots[t][ranked[k]].matches() {
				w.best[t] = ranked[k]
			}
		}
	}
	nw := tracedNetwork(orb.TCPNetwork{}, tr)
	if w.srv, err = w.newServer(nw, loopback, orb.ServerOptions{}); err != nil {
		return nil, err
	}
	ref := w.srv.Register(trading.DefaultObjectKey, "", tracedServant(trading.NewServant(w.trader), kTradingServant, tr))
	client := w.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})
	w.dir = tracedDirectory(trading.NewLookup(client, ref), tr)
	return w, nil
}

// A nil *traderWorld must not become a non-nil world.
func buildSelect(seed int64, tr *tracer) (world, error) {
	w, err := buildTrader(seed, tr, false)
	if err != nil {
		return nil, err
	}
	return w, nil
}

func buildChurn(seed int64, tr *tracer) (world, error) {
	w, err := buildTrader(seed, tr, true)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// checkQuery is the oracle for one query answer: every row satisfies the
// constraint by the benchmark's own table, and the first is the minimum.
func (w *traderWorld) checkQuery(t int, rs []trading.QueryResult, err error, want int) bool {
	if err != nil || len(rs) != want {
		return false
	}
	for i, r := range rs {
		mon, _ := r.Offer.MonitorFor("LoadAvg")
		sl := w.table[mon]
		if sl == nil || !sl.matches() || r.Offer.ID != sl.id || r.Snapshot["LoadAvg"].Num() != sl.load {
			return false
		}
		if i == 0 && sl != &w.slots[t][w.best[t]] {
			return false
		}
	}
	return true
}

func (w *traderWorld) segment(n int, lat []time.Duration) (failed int) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op := w.tr.now()
		ok := false
		if w.churn {
			ok = w.churnOp()
		} else {
			t := w.s.intn(traderTypes)
			rs, err := w.dir.Query(bg, w.types[t], queryCons, queryPref, 3)
			ok = w.checkQuery(t, rs, err, 3)
		}
		w.tr.span(kOp, op)
		if !ok {
			failed++
		}
		t1 := time.Now()
		lat[i] = t1.Sub(t0)
		t0 = t1
	}
	return failed
}

// churnOp runs the next op of the mix: of every 10 ops 3 renew a lease, 2
// modify an offer, 3 withdraw one and export its successor, 2 query. The
// order within each block of 10 is seeded, the proportions are exact.
func (w *traderWorld) churnOp() bool {
	if w.at == 0 {
		w.block = [10]byte{'r', 'r', 'r', 'm', 'm', 'p', 'p', 'p', 'q', 'q'}
		for i, j := range w.s.perm(len(w.block)) {
			w.block[i], w.block[j] = w.block[j], w.block[i]
		}
	}
	kind := w.block[w.at]
	w.at = (w.at + 1) % len(w.block)
	t := w.s.intn(traderTypes)
	sl := &w.slots[t][w.s.intn(traderPerType)]
	switch kind {
	case 'r':
		return w.dir.Renew(bg, sl.id) == nil
	case 'm':
		if sl.cores >= 2 { // stays on its side of "Cores >= 2"
			sl.cores = [...]int{2: 4, 4: 8, 8: 2}[sl.cores]
		}
		return w.dir.Modify(bg, sl.id, sl.props()) == nil
	case 'p':
		if w.dir.Withdraw(bg, sl.id) != nil {
			return false
		}
		id, err := w.dir.Export(bg, w.types[t], sl.svc, sl.props())
		sl.id = id
		return err == nil
	default:
		rs, err := w.dir.Query(bg, w.types[t], queryCons, queryPref, 1)
		return w.checkQuery(t, rs, err, 1)
	}
}

// finish checks, on the trader itself, that churn kept the offer count and
// that every type still answers with the oracle's best offer.
func (w *traderWorld) finish() error {
	if n := w.trader.OfferCount(); n != traderTypes*traderPerType {
		return fmt.Errorf("trader holds %d offers, want %d", n, traderTypes*traderPerType)
	}
	for t := range w.types {
		rs, err := w.trader.Query(bg, w.types[t], queryCons, queryPref, 1)
		if !w.checkQuery(t, rs, err, 1) {
			return fmt.Errorf("final query on %s does not match the oracle (err %v)", w.types[t], err)
		}
	}
	return nil
}

func (w *traderWorld) hash() uint64 { return w.s.h }

func (w *traderWorld) counters() counters {
	ss := w.srv.Stats()
	return counters{shed: ss.ShedRequests + ss.ExpiredShed, offers: traderTypes * traderPerType, typeSize: traderPerType}
}

// ---- adapt_cycle ----

const (
	adaptHosts = 8
	adaptType  = "LoadShared"
	adaptLimit = 50
	adaptCons  = "LoadAvg < 50 and LoadAvgIncreasing == no"
)

// adaptStrategy has the shape of the paper's Fig. 7: read the monitor,
// keep a smoothed history, look for an alternative server.
const adaptStrategy = `
local history, n = {}, 0
return function(self)
	self._loadavg = self._loadavgmon:getValue()
	n = n + 1
	history[(n - 1) % 8 + 1] = self._loadavg[1]
	local sum, cnt = 0, 0
	for i = 1, 8 do
		if history[i] then
			sum = sum + history[i]
			cnt = cnt + 1
		end
	end
	self._smoothed = sum / cnt
	local query = "` + adaptCons + `"
	self:_select(query)
end`

type adaptWorld struct {
	cleanup
	s       *stream
	tr      *tracer
	sp      *core.SmartProxy
	servers []*orb.Server
	mons    [adaptHosts]*monitor.Monitor
	loads   [adaptHosts]float64 // the oracle's view of each host's 1-minute load
	cur     int                 // host the proxy is bound to, by the last reply
	cycles  int64
	c       counters
}

// hotSample is a 1-minute load of 80 over a 5-minute load of 40: above the
// limit and rising, so the Fig. 4 predicate fires. Monitors copy what they
// are given, so one value serves every SetValue.
var hotSample = wire.TableVal(wire.NewList(wire.Number(80), wire.Number(40), wire.Number(30)))

// loadTriple is a cool sample: the 5-minute load lies above the 1-minute
// load, so the host does not count as rising.
func loadTriple(one float64) wire.Value {
	return wire.TableVal(wire.NewList(wire.Number(one), wire.Number(one+10), wire.Number(one+10)))
}

// newLoadMonitor is a push-fed LoadAvg monitor with the Fig. 3 aspects.
func newLoadMonitor(c *cleanup) (*monitor.Monitor, error) {
	m, err := monitor.New(monitor.Options{Name: "LoadAvg"})
	if err != nil {
		return nil, err
	}
	c.add(m.Close)
	if err := m.DefineAspect("Increasing", monitor.IncreasingAspectSrc); err != nil {
		return nil, err
	}
	if err := m.DefineAspect(monitor.Load1Aspect, monitor.Load1AspectSrc); err != nil {
		return nil, err
	}
	return m, nil
}

// loadWatch is the paper's Fig. 4 watch: the LoadIncrease predicate shipped
// to the monitor behind the offer's LoadAvg property.
var loadWatch = []core.Watch{{Prop: "LoadAvg", Event: monitor.LoadIncreaseEvent,
	Predicate: monitor.LoadIncreasePredicateSrc(adaptLimit)}}

func buildAdapt(seed int64, tr *tracer) (_ world, err error) {
	w := &adaptWorld{s: newStream(seed), tr: tr}
	defer closeOnError(&w.cleanup, &err)
	nw := tracedNetwork(orb.NewInprocNetwork(), tr)
	resolver := w.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})
	trader := trading.NewTrader(tracedResolver(trading.ClientResolver{Client: resolver}, tr))
	// Serial resolution: the fan-out starts goroutines depending on timing,
	// and allocs_per_op has to repeat.
	trader.SetResolveParallel(1)
	trader.AddType(trading.ServiceType{Name: adaptType, Interface: "Service",
		Props: []string{"LoadAvg", "LoadAvgIncreasing", "Host"}})
	traderSrv, err := w.newServer(nw, "trader", orb.ServerOptions{})
	if err != nil {
		return nil, err
	}
	w.servers = append(w.servers, traderSrv)
	traderRef := traderSrv.Register(trading.DefaultObjectKey, "",
		tracedServant(trading.NewServant(trader), kTradingServant, tr))
	client := w.newClient(orb.ClientOptions{Networks: []orb.Network{nw}})

	for i := range w.mons {
		srv, err := w.newServer(nw, fmt.Sprintf("host-%d", i), orb.ServerOptions{})
		if err != nil {
			return nil, err
		}
		w.servers = append(w.servers, srv)
		m, err := newLoadMonitor(&w.cleanup)
		if err != nil {
			return nil, err
		}
		w.mons[i] = m
		w.loads[i] = w.coolLoad()
		if err := m.SetValue(loadTriple(w.loads[i])); err != nil {
			return nil, err
		}
		if err := m.Tick(); err != nil {
			return nil, err
		}
		monRef := srv.Register("monitor/LoadAvg", "", tracedServant(monitor.NewServant(m), kMonServant, tr))
		id := wire.Int(i)
		svcRef := srv.Register("service", "", tracedServant(orb.ServantFunc(
			func(string, []wire.Value) ([]wire.Value, error) { return []wire.Value{id}, nil }), kAppServant, tr))
		if _, err := trader.Export(adaptType, svcRef, map[string]trading.PropValue{
			"LoadAvg":           {Dynamic: monRef, Aspect: monitor.Load1Aspect},
			"LoadAvgIncreasing": {Dynamic: monRef, Aspect: "Increasing"},
			"Host":              {Static: wire.String(srv.Endpoint())},
		}); err != nil {
			return nil, err
		}
	}

	w.sp, err = core.New(core.Options{
		Client:      client,
		Lookup:      tracedDirectory(trading.NewLookup(client, traderRef), tr),
		ServiceType: adaptType,
		Constraint:  adaptCons,
		Preference:  queryPref,
		Watches:     loadWatch,
	})
	if err != nil {
		return nil, err
	}
	w.add(w.sp.Close)
	if err := w.sp.SetScriptStrategy(monitor.LoadIncreaseEvent, adaptStrategy); err != nil {
		return nil, err
	}
	if err := w.sp.Bind(bg); err != nil {
		return nil, err
	}
	rs, err := w.sp.Invoke(bg, "whoami")
	if err != nil || len(rs) != 1 {
		return nil, fmt.Errorf("first invocation: %v", err)
	}
	w.cur = int(rs[0].Num())
	return w, nil
}

// coolLoad draws a 1-minute load well under the limit; the 5-minute load
// is set 10 above it, so the host does not count as rising.
func (w *adaptWorld) coolLoad() float64 { return 5 + float64(w.s.intn(2500))/100 }

// detect accounts, in the traced pass, for the script evaluations monitor
// m is about to make: a tick always recomputes both aspects and evaluates
// every observer's predicate, SetValue only when it has an observer.
func (w *adaptWorld) detect(m *monitor.Monitor, tick, fires bool) {
	if w.tr == nil {
		return
	}
	obs := int64(m.ObserverCount())
	if obs == 0 && !tick {
		return
	}
	w.c.aspects += 2
	w.c.predicates += obs
	if fires {
		w.c.fired += obs
	}
}

// segment runs n adaptation cycles. One cycle: the bound host turns hot,
// the proxy's next invocation runs the strategy and lands on another host,
// the old host cools down. Latency is the reaction time, from the hot
// sample to the first reply from elsewhere.
func (w *adaptWorld) segment(n int, lat []time.Duration) (failed int) {
	for i := 0; i < n; i++ {
		op := w.tr.now()
		t0 := time.Now()
		old := w.cur
		oldMon := w.mons[old]
		w.loads[old] = 80

		w.detect(oldMon, false, true)
		s := w.tr.now()
		err := oldMon.SetValue(hotSample)
		w.tr.span(kMonSet, s)

		// The event travels on the proxy's push subscription. Waiting until
		// it is queued makes every cycle take exactly one invocation, so
		// the counted metrics repeat; the wait is part of the reaction time.
		s = w.tr.now()
		for spin := 0; err == nil && len(w.sp.PendingEvents()) == 0; spin++ {
			if spin > 1<<20 {
				err = fmt.Errorf("event never arrived")
			}
			runtime.Gosched()
		}
		w.tr.span(kWaitEvent, s)

		if w.tr != nil { // separate strategy time from invocation time
			s = w.tr.now()
			_ = w.sp.Adapt(bg)
			w.tr.span(kCoreAdapt, s)
		}
		now := old
		for tries := 0; err == nil && now == old; tries++ {
			if tries == 2000 {
				err = fmt.Errorf("no switch after %d invocations", tries)
				break
			}
			s = w.tr.now()
			rs, ierr := w.sp.Invoke(bg, "whoami")
			w.tr.span(kCoreInvoke, s)
			if ierr != nil || len(rs) != 1 {
				err = fmt.Errorf("invoke: %v", ierr)
				break
			}
			now = int(rs[0].Num())
		}
		lat[i] = time.Since(t0)

		cool := w.coolLoad()
		w.detect(oldMon, false, false)
		s = w.tr.now()
		serr := oldMon.SetValue(loadTriple(cool))
		w.tr.span(kMonSet, s)
		// Without an observer SetValue stores the value but leaves the
		// aspects stale; the tick recomputes them, or the host would stay
		// excluded as "rising" for good.
		w.detect(oldMon, true, false)
		s = w.tr.now()
		terr := oldMon.Tick()
		w.tr.span(kMonTick, s)
		w.tr.span(kOp, op)

		// Oracle: the reply came from another host, and by the benchmark's
		// own table that host is cool and no other cool host is less loaded.
		ok := err == nil && serr == nil && terr == nil && now != old && w.loads[now] < adaptLimit
		for h, l := range w.loads {
			if h != old && l < w.loads[now] {
				ok = false
			}
		}
		if !ok {
			failed++
		}
		w.loads[old] = cool
		w.cur = now
		w.cycles++
	}
	return failed
}

func (w *adaptWorld) finish() error {
	if st := w.sp.Stats(); st.Switches != w.cycles {
		return fmt.Errorf("%d switches in %d cycles", st.Switches, w.cycles)
	}
	return nil
}

func (w *adaptWorld) hash() uint64 { return w.s.h }

func (w *adaptWorld) counters() counters {
	c := w.c
	st := w.sp.Stats()
	c.invokes, c.selections, c.switches, c.eventsHandled = st.Invocations, st.Selections, st.Switches, st.EventsHandled
	for _, srv := range w.servers {
		ss := srv.Stats()
		c.shed += ss.ShedRequests + ss.ExpiredShed
	}
	c.offers, c.typeSize = adaptHosts, adaptHosts
	return c
}
