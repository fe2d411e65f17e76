package trading

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/orb"
	"autoadapt/internal/strikes"
	"autoadapt/internal/wire"
)

// fakeMonitor is a scripted monitor servant: a property value, a set of
// defined aspects, and the ways a real one can misbehave.
type fakeMonitor struct {
	value   wire.Value
	aspects map[string]wire.Value
	legacy  bool          // predates getAspectValues
	wedged  chan struct{} // non-nil: every call waits for it to close
}

func (m *fakeMonitor) read(name string) (wire.Value, error) {
	if name == "" {
		return m.value, nil
	}
	v, ok := m.aspects[name]
	if !ok {
		return wire.Nil(), orb.Appf("monitor: no such aspect %q", name)
	}
	return v, nil
}

func (m *fakeMonitor) Invoke(op string, args []wire.Value) ([]wire.Value, error) {
	if m.wedged != nil {
		<-m.wedged
	}
	switch {
	case op == "getValue":
		return []wire.Value{m.value}, nil
	case op == "getAspectValue" && len(args) == 1:
		v, err := m.read(args[0].Str())
		return []wire.Value{v}, err
	case op == "getAspectValues" && !m.legacy:
		out := make([]wire.Value, len(args))
		for i, a := range args {
			var err error
			if out[i], err = m.read(a.Str()); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return nil, orb.Appf("monitor: no such operation %q", op)
}

// dialCounter counts connection attempts per address, which is how a test
// sees calls to an endpoint nothing listens on.
type dialCounter struct {
	orb.Network
	mu    sync.Mutex
	dials map[string]int
}

func (n *dialCounter) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	n.dials[addr]++
	n.mu.Unlock()
	return n.Network.Dial(addr)
}

func (n *dialCounter) count(addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials[addr]
}

// onlyDynamic hides every method of a resolver but ResolveDynamic, so the
// trader drives it through the per-aspect adapter.
type onlyDynamic struct{ DynamicResolver }

// batchWorld is a set of monitors behind one server, a dead endpoint, and an
// offer list any number of traders can be populated with identically.
type batchWorld struct {
	net     *dialCounter
	client  *orb.Client
	mons    []*fakeMonitor
	monRefs []wire.ObjRef
	offers  []map[string]PropValue
}

const deadHost = "dead-host"

// newBatchWorld draws monitors and offers from seed. Monitor kinds: healthy,
// one lacking the Trend aspect, one that rejects getAspectValues, and dead
// (an endpoint nothing listens on). Offers are static-only, or read two or
// three aspects of one monitor; monitors are shared between offers, under
// differing aspect sets.
func newBatchWorld(t *testing.T, seed int64, wedge bool) *batchWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &batchWorld{net: &dialCounter{Network: orb.NewInprocNetwork(), dials: map[string]int{}}}
	srv, err := orb.NewServer(orb.ServerOptions{Network: w.net, Address: "monitors"})
	if err != nil {
		t.Fatal(err)
	}
	w.client = orb.NewClient(w.net)
	// Registered first, so it runs after the wedged monitors are released:
	// closing the server waits for their servants to return.
	t.Cleanup(func() {
		_ = w.client.Close()
		_ = srv.Close()
	})
	nMons := 4 + rng.Intn(5)
	for i := 0; i < nMons; i++ {
		m := &fakeMonitor{
			value: wire.Number(float64(rng.Intn(100))),
			aspects: map[string]wire.Value{
				"Load1":      wire.Number(float64(rng.Intn(100))),
				"Increasing": wire.String([]string{"yes", "no"}[rng.Intn(2)]),
				"Trend":      wire.Number(float64(rng.Intn(7))),
			},
		}
		ref := wire.ObjRef{}
		switch kind := rng.Intn(6); {
		case kind == 0:
			delete(m.aspects, "Trend") // undefined beside defined ones
		case kind == 1:
			m.legacy = true
		case kind == 2:
			ref = wire.ObjRef{Endpoint: w.net.Name() + "|" + deadHost, Key: fmt.Sprintf("mon-%d", i)}
		case kind == 3 && wedge:
			m.wedged = make(chan struct{})
			t.Cleanup(func() { close(m.wedged) })
		}
		if ref.IsZero() {
			ref = srv.Register(fmt.Sprintf("mon-%d", i), "", m)
		}
		w.mons = append(w.mons, m)
		w.monRefs = append(w.monRefs, ref)
	}
	for i, n := 0, 6+rng.Intn(10); i < n; i++ {
		props := map[string]PropValue{"Cores": {Static: wire.Int(1 + rng.Intn(8))}}
		if rng.Intn(5) == 0 {
			props["LoadAvg"] = PropValue{Static: wire.Number(float64(rng.Intn(100)))}
			props["LoadAvgIncreasing"] = PropValue{Static: wire.String("no")}
		} else {
			mon := w.monRefs[rng.Intn(nMons)]
			props["LoadAvg"] = PropValue{Dynamic: mon, Aspect: []string{"", "Load1"}[rng.Intn(2)]}
			props["LoadAvgIncreasing"] = PropValue{Dynamic: mon, Aspect: "Increasing"}
			if rng.Intn(2) == 0 {
				props["Trend"] = PropValue{Dynamic: mon, Aspect: "Trend"}
			}
		}
		w.offers = append(w.offers, props)
	}
	return w
}

func (w *batchWorld) trader(t *testing.T, r DynamicResolver, workers int) *Trader {
	t.Helper()
	tr := NewTrader(r)
	tr.SetResolveParallel(workers)
	tr.AddType(ServiceType{Name: "S"})
	for i, props := range w.offers {
		if _, err := tr.Export("S", serverRef(i), props); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// offerStrikes is each offer's quarantine bookkeeping, by offer id.
func offerStrikes(tr *Trader) map[string]strikes.Count {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	out := make(map[string]strikes.Count, len(tr.offers))
	for id, rec := range tr.offers {
		out[id] = rec.strikes
	}
	return out
}

// sameOutcome compares what one query left behind on the batch trader and
// on the per-aspect one: the rows with their snapshots, and every offer's
// quarantine bookkeeping.
func sameOutcome(batch, loop *Trader, got, want []QueryResult) error {
	if err := sameResults(got, want); err != nil {
		return fmt.Errorf("batch vs per-aspect: %w", err)
	}
	gs := offerStrikes(batch)
	for id, want := range offerStrikes(loop) {
		if gs[id] != want {
			return fmt.Errorf("%s strikes = %d, per-aspect %d", id, gs[id], want)
		}
	}
	return nil
}

var batchQueries = []struct{ cons, pref string }{
	{"LoadAvg < 60 and LoadAvgIncreasing == no", "min LoadAvg"},
	{"Cores >= 2", ""}, // static only: resolves nothing
	{"LoadAvg >= 0", "max LoadAvg"},
	{"LoadAvg < 90 and LoadAvgIncreasing == no and Trend < 5", "min Trend"},
	{"exist Trend or LoadAvgIncreasing == yes", "max LoadAvg"},
}

// TestBatchMatchesPerAspect is the differential test of monitor-grouped
// resolution: the same offers queried through ClientResolver's batch path
// and through the per-aspect adapter over the same client must produce the
// same rows, the same snapshots and the same quarantine bookkeeping, query
// after query — across healthy monitors, an undefined aspect beside defined
// ones, a peer without getAspectValues and a dead endpoint — while the batch
// path calls a dead monitor at most once per query.
func TestBatchMatchesPerAspect(t *testing.T) {
	batchDials, loopDials := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		for _, workers := range []int{1, 16} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				w := newBatchWorld(t, seed, false)
				batch := w.trader(t, ClientResolver{Client: w.client}, workers)
				loop := w.trader(t, onlyDynamic{ClientResolver{Client: w.client}}, workers)
				if _, ok := loop.batch.(perAspect); !ok {
					t.Fatalf("loop trader resolves through %T, want the per-aspect adapter", loop.batch)
				}
				dead := 0
				for _, ref := range w.monRefs {
					if ref.Endpoint == w.net.Name()+"|"+deadHost {
						dead++
					}
				}
				ctx := context.Background()
				// Several rounds, so offers pass the quarantine threshold
				// and are then resolved only as probes.
				for round := 0; round < 4; round++ {
					for _, q := range batchQueries {
						before := w.net.count(deadHost)
						got, err := batch.Query(ctx, "S", q.cons, q.pref, 0)
						if err != nil {
							t.Fatal(err)
						}
						mid := w.net.count(deadHost)
						if mid-before > dead {
							t.Fatalf("round %d %q: %d calls to %d dead monitors in one query", round, q.cons, mid-before, dead)
						}
						want, err := loop.Query(ctx, "S", q.cons, q.pref, 0)
						if err != nil {
							t.Fatal(err)
						}
						batchDials += mid - before
						loopDials += w.net.count(deadHost) - mid
						if err := sameOutcome(batch, loop, got, want); err != nil {
							t.Fatalf("round %d %q: %v", round, q.cons, err)
						}
					}
				}
			})
		}
	}
	// The bound above means something only if the worlds do put several
	// aspects of a dead monitor into one query.
	if batchDials == 0 || loopDials <= batchDials {
		t.Fatalf("calls to dead monitors: %d batched, %d per-aspect; want fewer batched", batchDials, loopDials)
	}
}

// TestBatchMatchesPerAspectUnderTimeout adds a wedged monitor and a resolve
// timeout: the batch call and the first per-aspect call each use up the
// query's resolution budget, every later resolution fails on the expired
// deadline, and both traders reach the same rows and strikes. Resolution is
// serial, so which monitors come before the wedged one does not depend on
// timing.
func TestBatchMatchesPerAspectUnderTimeout(t *testing.T) {
	worlds := 0
	for seed := int64(1); worlds < 3; seed++ {
		w := newBatchWorld(t, seed, true)
		wedged := false
		for i, m := range w.mons {
			for _, props := range w.offers {
				wedged = wedged || (m.wedged != nil && props["LoadAvg"].Dynamic == w.monRefs[i])
			}
		}
		if !wedged {
			continue // no offer reads a wedged monitor
		}
		worlds++
		batch := w.trader(t, ClientResolver{Client: w.client}, 1)
		loop := w.trader(t, onlyDynamic{ClientResolver{Client: w.client}}, 1)
		batch.SetResolveTimeout(50 * time.Millisecond)
		loop.SetResolveTimeout(50 * time.Millisecond)
		ctx := context.Background()
		for round := 0; round < 4; round++ {
			q := batchQueries[round%len(batchQueries)]
			got, err := batch.Query(ctx, "S", q.cons, q.pref, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := loop.Query(ctx, "S", q.cons, q.pref, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameOutcome(batch, loop, got, want); err != nil {
				t.Fatalf("seed %d round %d %q: %v", seed, round, q.cons, err)
			}
		}
	}
}
