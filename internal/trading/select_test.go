package trading

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"autoadapt/internal/testutil"
	"autoadapt/internal/wire"
)

// The query of the repository benchmark's select_dynamic workload.
const (
	selectCons = "LoadAvg < 50 and LoadAvgIncreasing == no and Cores >= 2"
	selectPref = "min LoadAvg"
)

// selectHost is what select_dynamic's in-memory resolver knows of one host.
type selectHost struct {
	load float64
	incr string
}

// selectResolver is select_dynamic's resolver: a plain DynamicResolver, so
// the trader reads it one aspect at a time, over a map of every monitor.
type selectResolver map[wire.ObjRef]*selectHost

func (r selectResolver) ResolveDynamic(_ context.Context, ref wire.ObjRef, aspect string) (wire.Value, error) {
	h, ok := r[ref]
	if !ok {
		return wire.Nil(), fmt.Errorf("no monitor %s", ref)
	}
	if aspect == "Increasing" {
		return wire.String(h.incr), nil
	}
	return wire.Number(h.load), nil
}

// selectTrader builds select_dynamic's trader: 200 types of 50 offers, each
// with LoadAvg and LoadAvgIncreasing dynamic on a monitor of its own and
// Cores and Host static. Within a type the loads are a seeded permutation
// of one ladder and the other properties follow the rung, so 37 offers of
// each type pass Cores >= 2 and every type matches at least 3.
func selectTrader(tb testing.TB) (*Trader, []string) {
	tb.Helper()
	res := selectResolver{}
	tr := NewTrader(res)
	rng := rand.New(rand.NewSource(1))
	types := make([]string, 200)
	for t := range types {
		types[t] = fmt.Sprintf("T%03d", t)
		tr.AddType(ServiceType{Name: types[t], Interface: "Service", Props: []string{"LoadAvg", "LoadAvgIncreasing", "Cores", "Host"}})
		offset := float64(rng.Intn(50)) / 100
		for j, k := range rng.Perm(50) {
			host := fmt.Sprintf("mem|h%03d-%02d", t, j)
			mon := wire.ObjRef{Endpoint: host, Key: "monitor/LoadAvg"}
			res[mon] = &selectHost{load: 2 + 1.9*float64(k) + offset, incr: [...]string{"yes", "no", "no"}[k%3]}
			_, err := tr.Export(types[t], wire.ObjRef{Endpoint: host, Key: "service"}, map[string]PropValue{
				"LoadAvg":           {Dynamic: mon, Aspect: "Load1"},
				"LoadAvgIncreasing": {Dynamic: mon, Aspect: "Increasing"},
				"Cores":             {Static: wire.Int([...]int{1, 2, 4, 8}[k%4])},
				"Host":              {Static: wire.String(host)},
			})
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	return tr, types
}

// selectOnce writes select_dynamic's 3-row reply for type typ into dst.
func selectOnce(tb testing.TB, tr *Trader, typ string, dst []byte) []byte {
	dst, err := tr.queryWire(context.Background(), typ, selectCons, selectPref, 3, dst[:0])
	if err != nil {
		tb.Fatal(err)
	}
	return dst
}

// BenchmarkQuerySelect10k is the trader's share of a select_dynamic op: one
// 3-best query over a type of the 10 000-offer trader, written as the
// servant's reply into a reused buffer, the types taken in turn.
func BenchmarkQuerySelect10k(b *testing.B) {
	tr, types := selectTrader(b)
	dst := selectOnce(b, tr, types[0], nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = selectOnce(b, tr, types[i%len(types)], dst)
	}
}

// TestAllocGuardQuerySelect pins what BenchmarkQuerySelect10k's query
// allocates: nothing, once the pooled scratch and the reply buffer are
// sized. Resolution is serial, so no fan-out goroutine enters the count.
func TestAllocGuardQuerySelect(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector disables the pooled query scratch")
	}
	tr, types := selectTrader(t)
	tr.SetResolveParallel(1)
	dst := selectOnce(t, tr, types[0], nil)
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		dst = selectOnce(t, tr, types[i%len(types)], dst)
		i++
	})
	const want = 0
	if allocs > want {
		t.Fatalf("select_dynamic query: %.1f allocs/op, want <= %d", allocs, want)
	}
}
