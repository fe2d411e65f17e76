package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketRoundTrip pins the histogram's resolution contract: exact
// below 16, ≤6.25% relative error above (16 sub-buckets per octave).
func TestBucketRoundTrip(t *testing.T) {
	for v := int64(0); v < 16; v++ {
		if got := bucketMid(bucketIndex(v)); got != float64(v) {
			t.Fatalf("small value %d: mid %v", v, got)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		v := rng.Int63n(1 << 40)
		if v < 16 {
			continue
		}
		mid := bucketMid(bucketIndex(v))
		if rel := math.Abs(mid-float64(v)) / float64(v); rel > 0.0625 {
			t.Fatalf("value %d: mid %v rel err %.4f", v, mid, rel)
		}
	}
	// Extremes must stay in range, not panic.
	for _, v := range []int64{-5, 0, 15, 16, 17, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("value %d: index %d out of range", v, idx)
		}
	}
}

// TestQuantileOracle compares histogram quantiles against a sorted
// sample oracle across several distributions.
func TestQuantileOracle(t *testing.T) {
	distros := map[string]func(r *rand.Rand) int64{
		"uniform": func(r *rand.Rand) int64 { return r.Int63n(100000) },
		"exp":     func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 5000) },
		"bimodal": func(r *rand.Rand) int64 {
			if r.Intn(10) == 0 {
				return 50000 + r.Int63n(5000)
			}
			return 100 + r.Int63n(200)
		},
		"constant": func(r *rand.Rand) int64 { return 777 },
	}
	for name, gen := range distros {
		t.Run(name, func(t *testing.T) {
			h := NewHistogram()
			rng := rand.New(rand.NewSource(42))
			samples := make([]int64, 0, 20000)
			for i := 0; i < 20000; i++ {
				v := gen(rng)
				h.Observe(v)
				samples = append(samples, v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			if s.Count != uint64(len(samples)) {
				t.Fatalf("count %d want %d", s.Count, len(samples))
			}
			for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
				oracle := float64(samples[int(q*float64(len(samples)-1))])
				got := s.Quantile(q)
				// Bucket resolution bounds relative error at 6.25%; allow a
				// little slack for the oracle landing on a bucket edge.
				tol := 0.07*oracle + 1
				if math.Abs(got-oracle) > tol {
					t.Errorf("q=%.2f: got %v oracle %v (tol %v)", q, got, oracle, tol)
				}
			}
		})
	}
}

// TestSnapshotSub checks windowed differencing: the delta between two
// snapshots sees only the samples in between.
func TestSnapshotSub(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(10)
	}
	before := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(1000)
	}
	win := h.Snapshot().Sub(before)
	if win.Count != 50 {
		t.Fatalf("window count %d want 50", win.Count)
	}
	if q := win.Quantile(0.5); math.Abs(q-1000) > 70 {
		t.Fatalf("window median %v want ~1000", q)
	}
	if win.Sum != 50*1000 {
		t.Fatalf("window sum %d want 50000", win.Sum)
	}
	// Sub with swapped order clamps instead of underflowing.
	if neg := before.Sub(h.Snapshot()); neg.Count != 0 || neg.Sum != 0 {
		t.Fatalf("reversed sub not clamped: %+v", neg)
	}
}

// TestRegistryConcurrency hammers get-or-create, increments, and
// exposition from many goroutines; run under -race this is the
// registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter(names[i%len(names)]).Inc()
				r.Gauge("g_" + names[(i+g)%len(names)]).Set(int64(i))
				r.Histogram("h").Observe(int64(i))
				if i%100 == 0 {
					r.GaugeFunc("f", func() float64 { return float64(g) })
					_ = r.Text()
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, n := range names {
		total += r.Counter(n).Value()
	}
	if total != 8*1000 {
		t.Fatalf("lost increments: %d want 8000", total)
	}
	if got := r.Histogram("h").Snapshot().Count; got != 8*1000 {
		t.Fatalf("lost observations: %d want 8000", got)
	}
}

// TestAllocGuards pins the hot-path allocation contract: counter
// increments and histogram observes must not allocate at all (the issue
// allows ≤1; we hold the stronger line so instrumented ORB paths keep
// their own guards).
func TestAllocGuards(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	h := r.Histogram("hot_hist")
	g := r.Gauge("hot_gauge")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n > 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n > 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(7) }); n > 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	// Cached-handle lookup (the steady state of per-endpoint instruments)
	// must not allocate either.
	if n := testing.AllocsPerRun(1000, func() { r.Counter("hot").Inc() }); n > 0 {
		t.Errorf("Registry.Counter lookup allocates %v/op", n)
	}
}

// TestExpositionFormat pins the sorted "name value" text format.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Add(3)
	r.Gauge("alpha").Set(-2)
	r.GaugeFunc("mid", func() float64 { return 1.5 })
	for i := 1; i <= 100; i++ {
		r.Histogram("lat").Observe(int64(i))
	}
	text := r.Text()
	want := []string{
		"alpha -2",
		"lat_count 100",
		"lat_p50 51", // bucket midpoint of the exact median 50
		"lat_sum 5050",
		"mid 1.500",
		"zeta 3",
	}
	for _, line := range want {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, text)
		}
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Errorf("exposition not sorted:\n%s", text)
	}
	// A panicking gauge func is skipped, not fatal.
	r.GaugeFunc("boom", func() float64 { panic("x") })
	if got := r.Text(); strings.Contains(got, "boom") {
		t.Errorf("panicking gauge func leaked into exposition")
	}
}

// TestNilRegistry checks the disabled path: nil registries hand back
// nil instruments whose methods all no-op.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(2)
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(5)
	r.GaugeFunc("f", func() float64 { return 1 })
	if got := r.Text(); got != "" {
		t.Fatalf("nil registry exposition = %q", got)
	}
	var c *Counter
	c.Inc()
	var g *Gauge
	g.Set(3)
	var h *Histogram
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot non-empty")
	}
}

// TestSLOFeedWindows drives the feed through distinct load phases and
// checks each Sample reflects only its own window, including the decay
// of an abandoned (empty-window) feed.
func TestSLOFeedWindows(t *testing.T) {
	f := NewSLOFeed(nil, "srv")
	for i := 0; i < 200; i++ {
		f.ObserveLatency(2000, false) // 2ms
	}
	s := f.Sample()
	if math.Abs(s.P99ms-2) > 0.2 {
		t.Fatalf("window 1 p99 %.3f want ~2", s.P99ms)
	}
	if s.ErrRate != 0 || s.Count != 200 {
		t.Fatalf("window 1 sample %+v", s)
	}
	// Second window: slower and failing.
	for i := 0; i < 100; i++ {
		f.ObserveLatency(80000, i%4 == 0) // 80ms, 25% errors
	}
	s = f.Sample()
	if math.Abs(s.P99ms-80) > 6 {
		t.Fatalf("window 2 p99 %.3f want ~80", s.P99ms)
	}
	if math.Abs(s.ErrRate-0.25) > 0.01 {
		t.Fatalf("window 2 err rate %.3f want 0.25", s.ErrRate)
	}
	// Empty windows decay toward zero so the server can be re-admitted.
	prev := s.P99ms
	for i := 0; i < 4; i++ {
		s = f.Sample()
		if s.Count != 0 || s.P99ms >= prev {
			t.Fatalf("decay window %d: %+v (prev %.3f)", i, s, prev)
		}
		prev = s.P99ms
	}
	if s.P99ms > 10 {
		t.Fatalf("p99 did not decay: %.3f", s.P99ms)
	}
	// A window after the decay reports only its own requests.
	f.ObserveLatency(3000, true)
	s = f.Sample()
	if s.Count != 1 || s.ErrRate != 1 {
		t.Fatalf("sample after decay %+v", s)
	}
}

// TestSLOFeedRegistered checks the feed's instruments surface in the
// registry exposition under the given prefix.
func TestSLOFeedRegistered(t *testing.T) {
	r := NewRegistry()
	f := NewSLOFeed(r, "work")
	f.ObserveLatency(1500, true)
	text := r.Text()
	for _, want := range []string{"work_latency_us_count 1", "work_requests 1", "work_errors 1"} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
