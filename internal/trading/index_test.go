package trading

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"autoadapt/internal/clock"
	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// The per-type index, snapshot-free evaluation and index-sorting Query are
// checked against the implementation they replaced, kept here as the
// reference: scan every record, sort candidates by the sequence number
// parsed out of the offer id, build a snapshot map per candidate, evaluate
// on the snapshots, order with the original preference sort.

// loadResolver answers from loads unless the monitor is marked down.
type loadResolver struct {
	mu    sync.Mutex
	loads map[wire.ObjRef]float64
	down  map[wire.ObjRef]bool
}

func (r *loadResolver) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down[ref] {
		return wire.Nil(), errors.New("monitor down")
	}
	if aspect == "Increasing" {
		return wire.String([]string{"no", "yes"}[int(r.loads[ref])%2]), nil
	}
	return wire.Number(r.loads[ref]), nil
}

// referenceQuery is the pre-index Trader.Query, minus scratch pooling,
// resolve deduplication and the quarantine bookkeeping (it must not change
// the state the real query is about to see). props is the reference's own
// record of what each offer id was last exported or modified with.
func referenceQuery(t *Trader, props map[string]map[string]PropValue, serviceType string, cons *Constraint, pref *Preference, maxResults int) []QueryResult {
	type candidate struct {
		o           *Offer // only the immutable fields are read
		props       map[string]PropValue
		quarantined bool
	}
	t.mu.RLock()
	var candidates []candidate
	now := t.clk.Now()
	for _, rec := range t.offers {
		if o := &rec.offer; o.ServiceType == serviceType && !rec.expired(now) {
			candidates = append(candidates, candidate{o, props[o.ID], rec.strikes.Out()})
		}
	}
	t.mu.RUnlock()
	offerSeq := func(id string) int {
		n, _ := strconv.Atoi(id[len("offer-"):])
		return n
	}
	sort.Slice(candidates, func(i, j int) bool { return offerSeq(candidates[i].o.ID) < offerSeq(candidates[j].o.ID) })
	matched := []QueryResult{}
	for _, c := range candidates {
		snap := make(map[string]wire.Value, len(c.props))
		for name, pv := range c.props {
			if !pv.IsDynamic() {
				snap[name] = pv.Static
			} else if t.resolver != nil && (slices.Contains(cons.refs, name) || slices.Contains(pref.refs, name)) {
				if v, err := t.resolver.ResolveDynamic(context.Background(), pv.Dynamic, pv.Aspect); err == nil {
					snap[name] = v
				}
			}
		}
		if c.quarantined {
			continue
		}
		ok, err := cons.Eval(func(name string) (wire.Value, bool) {
			v, ok := snap[name]
			return v, ok
		})
		if err != nil || !ok {
			continue
		}
		matched = append(matched, QueryResult{
			Offer:    Offer{ID: c.o.ID, ServiceType: c.o.ServiceType, Ref: c.o.Ref, Props: c.props},
			Snapshot: snap,
		})
	}
	referenceSort(pref, matched)
	if maxResults > 0 && len(matched) > maxResults {
		matched = matched[:maxResults]
	}
	return matched
}

// referenceSort is the pre-index Preference.Sort.
func referenceSort(p *Preference, results []QueryResult) {
	switch p.kind {
	case prefRandom:
		sort.SliceStable(results, func(i, j int) bool {
			return offerHash(results[i].Offer.ID) < offerHash(results[j].Offer.ID)
		})
	case prefMin, prefMax, prefWith:
		type keyed struct {
			ok  bool
			num float64
		}
		keys := make([]keyed, len(results))
		for i := range results {
			snap := results[i].Snapshot
			v, err := p.expr.eval(func(name string) (wire.Value, bool) {
				val, ok := snap[name]
				return val, ok
			})
			if err != nil {
				continue
			}
			if p.kind == prefWith {
				keys[i] = keyed{ok: true, num: 1}
				if v.Truthy() {
					keys[i].num = 0
				}
			} else if n, isNum := v.AsNumber(); isNum {
				if p.kind == prefMax {
					n = -n
				}
				keys[i] = keyed{ok: true, num: n}
			}
		}
		idx := make([]int, len(results))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ka, kb := keys[idx[a]], keys[idx[b]]
			if ka.ok != kb.ok {
				return ka.ok
			}
			return ka.ok && ka.num < kb.num
		})
		out := make([]QueryResult, len(results))
		for i, j := range idx {
			out[i] = results[j]
		}
		copy(results, out)
	}
}

func sameResults(got, want []QueryResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Offer.ID != w.Offer.ID || g.Offer.ServiceType != w.Offer.ServiceType || g.Offer.Ref != w.Offer.Ref {
			return fmt.Errorf("row %d is %s, want %s", i, g.Offer.ID, w.Offer.ID)
		}
		if len(g.Offer.Props) != len(w.Offer.Props) || len(g.Snapshot) != len(w.Snapshot) {
			return fmt.Errorf("row %d (%s): props/snapshot %d/%d entries, want %d/%d", i, g.Offer.ID,
				len(g.Offer.Props), len(g.Snapshot), len(w.Offer.Props), len(w.Snapshot))
		}
		for name, v := range w.Snapshot {
			if gv, ok := g.Snapshot[name]; !ok || !gv.Equal(v) {
				return fmt.Errorf("row %d (%s): snapshot[%s] = %v (present %v), want %v", i, g.Offer.ID, name, gv, ok, v)
			}
		}
	}
	return nil
}

// checkIndex asserts the byType invariants: the lists hold exactly the
// records of t.offers, each under its own type, in strictly ascending
// export order.
func checkIndex(t *Trader) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	total := 0
	for typ, list := range t.byType {
		total += len(list)
		for i, rec := range list {
			if rec.gone || t.offers[rec.offer.ID] != rec || rec.offer.ServiceType != typ {
				return fmt.Errorf("byType[%s][%d] = %s: gone=%v, not the live record of its type", typ, i, rec.offer.ID, rec.gone)
			}
			if i > 0 && list[i-1].seq >= rec.seq {
				return fmt.Errorf("byType[%s] out of export order at %d", typ, i)
			}
		}
	}
	if total != len(t.offers) {
		return fmt.Errorf("index holds %d records, offers %d", total, len(t.offers))
	}
	return nil
}

var diffQueries = struct{ constraints, preferences []string }{
	constraints: []string{"", "Load < 50", "Load < 70 and Trend == no and Cores >= 2", "exist Load and Tier == gold", "Cores > 8"},
	preferences: []string{"first", "random", "min Load", "max Load", "with Cores >= 4", "min Missing"},
}

func TestQueryMatchesFullScanReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { diffRun(t, seed, 400) })
	}
}

func diffRun(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	sim := clock.NewSim(leaseEpoch)
	res := &loadResolver{loads: map[wire.ObjRef]float64{}, down: map[wire.ObjRef]bool{}}
	tr := NewTrader(res)
	tr.SetClock(sim)
	tr.SetLeaseTTL(30 * time.Second)
	types := []string{"A", "B", "C"}
	for _, n := range types {
		tr.AddType(ServiceType{Name: n, Props: []string{"Load", "Trend", "Cores", "Tier"}})
	}
	randProps := func(host int) map[string]PropValue {
		mon := monitorRef(host)
		res.mu.Lock()
		res.loads[mon] = float64(rng.Intn(100))
		res.mu.Unlock()
		props := map[string]PropValue{
			"Load":  {Dynamic: mon},
			"Cores": {Static: wire.Int(1 << rng.Intn(5))},
		}
		if rng.Intn(2) == 0 {
			props["Trend"] = PropValue{Dynamic: mon, Aspect: "Increasing"}
		}
		if rng.Intn(3) == 0 {
			props["Tier"] = PropValue{Static: wire.String([]string{"gold", "tin"}[rng.Intn(2)])}
		}
		return props
	}
	var ids []string // every id ever exported: stale ones exercise the error paths
	exported := map[string]map[string]PropValue{}
	pick := func() string {
		if len(ids) == 0 {
			return "offer-0"
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < steps; step++ {
		var op string
		switch n := rng.Intn(20); {
		case n < 7:
			op = "export"
			props := randProps(rng.Intn(12))
			id, err := tr.Export(types[rng.Intn(len(types))], serverRef(step), props)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			exported[id] = props
		case n < 10:
			op = "withdraw"
			_ = tr.Withdraw(pick())
		case n < 12:
			op = "modify"
			id, props := pick(), randProps(rng.Intn(12))
			if tr.Modify(id, props) == nil {
				exported[id] = props
			}
		case n < 15:
			op = "renew"
			_ = tr.Renew(pick())
		case n < 16:
			op = "reap"
			tr.Reap()
		case n < 18:
			op = "advance"
			sim.Advance(time.Duration(1+rng.Intn(20)) * time.Second)
		default:
			op = "flip monitor"
			mon := monitorRef(rng.Intn(12))
			res.mu.Lock()
			res.down[mon] = !res.down[mon]
			res.mu.Unlock()
		}
		if err := checkIndex(tr); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		typ := types[rng.Intn(len(types))]
		consSrc := diffQueries.constraints[rng.Intn(len(diffQueries.constraints))]
		cons, err := ParseConstraint(consSrc)
		if err != nil {
			t.Fatal(err)
		}
		for _, prefSrc := range diffQueries.preferences {
			pref, err := ParsePreference(prefSrc)
			if err != nil {
				t.Fatal(err)
			}
			for _, max := range []int{0, 1, 3} {
				// The reference runs first: the real query may quarantine.
				want := referenceQuery(tr, exported, typ, cons, pref, max)
				got, err := tr.Query(context.Background(), typ, consSrc, prefSrc, max)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResults(got, want); err != nil {
					t.Fatalf("step %d (%s): query %s %q %q max %d: %v", step, op, typ, consSrc, prefSrc, max, err)
				}
			}
		}
	}
	st := tr.Stats()
	if st.Scanned < st.Candidates || st.Candidates == 0 {
		t.Fatalf("scanned %d, candidates %d", st.Scanned, st.Candidates)
	}
}

// TestQueryWireMatchesResultsToWire: the servant's query reply, written
// straight from the offers' slots, and resultsToWire's over Query's rows
// are byte for byte the generic codec's encoding of the same rows built as
// tables (resultsToTables) — for every differential query shape, over
// offers with static, dynamic, failing and quarantined properties, a
// property exported with a nil value, and names first seen by Export and by
// Modify; and so is resultsToWire over the fuzzers' random offers.
func TestQueryWireMatchesResultsToWire(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res := &loadResolver{loads: map[wire.ObjRef]float64{}, down: map[wire.ObjRef]bool{}}
	local, remote := NewTrader(res), NewTrader(res)
	traders := []*Trader{local, remote}
	sv := NewServant(remote)
	for _, tr := range traders {
		tr.AddType(ServiceType{Name: "A", Props: []string{"Load", "Trend", "Cores", "Tier"}})
	}
	var ids []string
	for i := 0; i < 40; i++ {
		mon := monitorRef(i % 12)
		res.loads[mon] = float64(rng.Intn(100))
		props := map[string]PropValue{"Cores": {Static: wire.Int(1 << rng.Intn(5))}}
		if rng.Intn(4) > 0 {
			props["Load"] = PropValue{Dynamic: mon}
		}
		if rng.Intn(2) == 0 {
			props["Trend"] = PropValue{Dynamic: mon, Aspect: "Increasing"}
		}
		switch rng.Intn(4) {
		case 0:
			props["Tier"] = PropValue{Static: wire.String([]string{"gold", "tin"}[rng.Intn(2)])}
		case 1:
			props["Tier"] = PropValue{} // present, with a nil value
		case 2:
			props[fmt.Sprint("Extra", i%3)] = PropValue{Static: wire.TableVal(wire.NewList(wire.Int(i)))}
		}
		for _, tr := range traders {
			id, err := tr.Export("A", serverRef(i), props)
			if err != nil {
				t.Fatal(err)
			}
			if tr == local {
				ids = append(ids, id)
			}
		}
	}
	quarantined := 0
	for round := 0; round < 4; round++ {
		res.mu.Lock()
		for i := 0; i < 12; i++ {
			if rng.Intn(3) == 0 {
				res.down[monitorRef(i)] = !res.down[monitorRef(i)]
			}
		}
		res.mu.Unlock()
		if round == 2 {
			for _, tr := range traders {
				props := map[string]PropValue{"Late": {Static: wire.String("x")}, "Load": {Dynamic: monitorRef(3)}}
				if err := tr.Modify(ids[5], props); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, cons := range diffQueries.constraints {
			for _, pref := range diffQueries.preferences {
				for _, max := range []int{0, 1, 3} {
					rs, err := local.Query(context.Background(), "A", cons, pref, max)
					if err != nil {
						t.Fatal(err)
					}
					want, err := wire.EncodeValue(resultsToTables(rs))
					if err != nil {
						t.Fatal(err)
					}
					got, err := sv.appendQuery(nil, []wire.Value{wire.String("A"), wire.String(cons), wire.String(pref), wire.Int(max)})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("round %d, query %q %q max %d: servant reply\n%x\nreference\n%x", round, cons, pref, max, got, want)
					}
					if got, _ := resultsToWire(nil, rs); !bytes.Equal(got, want) {
						t.Fatalf("round %d, query %q %q max %d: resultsToWire\n%x\nreference\n%x", round, cons, pref, max, got, want)
					}
				}
			}
		}
		for _, id := range ids {
			if local.Quarantined(id) {
				quarantined++
			}
		}
	}
	if quarantined == 0 {
		t.Fatal("no offer was ever quarantined: the test covers less than it claims")
	}
	// The fuzzers' offers: every kind of value, names that sort around the
	// row's own keys, dynamic properties with and without an aspect.
	for seed := int64(0); seed < 300; seed++ {
		checkWritten(t, randomResults(rand.New(rand.NewSource(seed))))
	}
}

// TestScannedEqualsCandidatesUntilExpiry pins the invariant a later
// trading.scan_ratio reads: a query visits only records of its type, and
// every visited record is a candidate unless its lease has run out.
func TestScannedEqualsCandidatesUntilExpiry(t *testing.T) {
	tr, sim, ids := newLeasedTrader(t, "a", "b", "c")
	tr.AddType(ServiceType{Name: "Other"})
	for i := 0; i < 5; i++ {
		if _, err := tr.Export("Other", serverRef(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	queryNames(t, tr)
	if st := tr.Stats(); st.Scanned != 3 || st.Candidates != 3 {
		t.Fatalf("scanned/candidates = %d/%d, want 3/3", st.Scanned, st.Candidates)
	}
	sim.Advance(20 * time.Second)
	if err := tr.Renew(ids[0]); err != nil {
		t.Fatal(err)
	}
	sim.Advance(20 * time.Second) // b and c expired, still unreaped
	queryNames(t, tr)
	if st := tr.Stats(); st.Scanned != 6 || st.Candidates != 4 {
		t.Fatalf("scanned/candidates = %d/%d, want 6/4", st.Scanned, st.Candidates)
	}
}

// TestWithdrawnMidQueryIsGone: a record withdrawn between candidate
// collection and the quarantine bookkeeping must be left alone, as when the
// bookkeeping looked records up by id.
func TestWithdrawnMidQueryIsGone(t *testing.T) {
	tr := NewTrader(nil)
	tr.AddType(ServiceType{Name: "S"})
	id, _ := tr.Export("S", serverRef(0), nil)
	tr.mu.RLock()
	rec := tr.offers[id]
	tr.mu.RUnlock()
	if err := tr.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	tr.noteResolveOutcomes(context.Background(), []offerView{{rec: rec}}, []resolveOutcome{resolveSomeFailed})
	if rec.strikes != 0 {
		t.Fatalf("withdrawn record was charged a failure")
	}
}

// TestIndexConcurrentQueriesAndWrites runs queries, local and through the
// servant, against concurrent Export/Withdraw/Modify on one type, some of
// them with property names the type has never seen, so its slot table grows
// while queries read it; it is meaningful under -race.
func TestIndexConcurrentQueriesAndWrites(t *testing.T) {
	res := &loadResolver{loads: map[wire.ObjRef]float64{}, down: map[wire.ObjRef]bool{monitorRef(1): true}}
	for i := 0; i < 4; i++ {
		res.loads[monitorRef(i)] = float64(10 * i)
	}
	tr := NewTrader(res)
	tr.AddType(ServiceType{Name: "S"})
	sv := NewServant(tr)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		props := func(i int) map[string]PropValue {
			p := map[string]PropValue{"Load": {Dynamic: monitorRef(i % 4)}, "Cores": {Static: wire.Int(i)}}
			if i%5 == 0 {
				p[fmt.Sprintf("Fresh%d-%d", w, i)] = PropValue{Static: wire.Int(i)}
			}
			return p
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []string
			for i := 0; i < 300; i++ {
				id, err := tr.Export("S", serverRef(i), props(i))
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, id)
				if i%3 == 0 {
					if err := tr.Modify(mine[len(mine)/2], props(i+1)); err != nil {
						t.Error(err)
					}
				}
				if i%2 == 1 {
					if err := tr.Withdraw(mine[0]); err != nil {
						t.Error(err)
					}
					mine = mine[1:]
				}
			}
		}()
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var rs []QueryResult
				var err error
				if q == 0 {
					rs, err = tr.Query(context.Background(), "S", "Load < 25", "min Load", 3)
				} else {
					var reply []wire.Value
					if reply, err = sv.Invoke("query", []wire.Value{wire.String("S"), wire.String("Load < 25"), wire.String("min Load"), wire.Int(3)}); err == nil {
						rs, err = ResultsFromWire(reply[0])
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(rs); j++ {
					if rs[j-1].Snapshot["Load"].Num() > rs[j].Snapshot["Load"].Num() {
						t.Errorf("results out of preference order: %v", rs)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := checkIndex(tr); err != nil {
		t.Fatal(err)
	}
}

// TestQueryAllocsIndependentOfCandidates is the alloc guard of the
// snapshot-free evaluation: what a query allocates depends on the rows it
// returns, not on how many offers of the type it had to consider.
func TestQueryAllocsIndependentOfCandidates(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector disables the pooled query scratch")
	}
	measure := func(n int) float64 {
		res := &loadResolver{loads: map[wire.ObjRef]float64{}}
		tr := NewTrader(res)
		tr.SetResolveParallel(1) // no fan-out goroutines in the count
		tr.AddType(ServiceType{Name: "LoadShared"})
		for i := 0; i < n; i++ {
			res.loads[monitorRef(i)] = float64(2 * ((i * 37) % n))
			_, err := tr.Export("LoadShared", serverRef(i), map[string]PropValue{
				"LoadAvg":           {Dynamic: monitorRef(i)},
				"LoadAvgIncreasing": {Dynamic: monitorRef(i), Aspect: "Increasing"},
				"Cores":             {Static: wire.Int(4)},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		query := func() {
			rs, err := tr.Query(context.Background(), "LoadShared", "LoadAvg < 2000 and LoadAvgIncreasing == no and Cores >= 2", "min LoadAvg", 3)
			if err != nil || len(rs) != 3 {
				t.Fatalf("%d rows, err %v", len(rs), err)
			}
		}
		query() // size the pooled scratch
		return testing.AllocsPerRun(50, query)
	}
	small, large := measure(50), measure(500)
	// Measured 13: the result slice, and for each of the three rows a
	// snapshot map and a Props map of two allocations each. The bound is
	// what the query allocated before resolution was grouped by monitor
	// (10: grouping through a plain DynamicResolver must cost no
	// allocation), plus the rows' Props maps, which Query builds from the
	// offers' slots since offers stopped keeping a map of their own.
	if small != large || small > 10+3*2 {
		t.Fatalf("allocs per query: %.0f for 50 candidates, %.0f for 500; want equal and <= 16", small, large)
	}
}
