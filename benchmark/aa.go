package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// endToEnd lists the end-to-end metrics with the bound BENCHMARK.json gives
// each: the share of the parent's median by which it may get worse.
var endToEnd = []struct {
	name  string
	bound float64
}{
	{"setup_s", 0.25},
	{"op_x", 0.25},
	{"lat_p50_x", 0.25},
	{"cpu_x", 0.20},
	{"allocs_per_op", 0.01},
	{"alloc_kb_per_op", 0.01},
	{"live_heap_mb", 0.10},
}

// selfCheck runs passes of every workload in todo, each with its own seed,
// alternating them into two sets, and compares the sets: two sets of runs
// of the same code must agree within half of each metric's bound.
func selfCheck(todo []*spec, opts options, passes int, out io.Writer) ([]*result, error) {
	opts.trace = false
	var last []*result
	ok := true
	for _, sp := range todo {
		sets := [2]map[string][]float64{{}, {}}
		var r *result
		for i := 0; i < passes; i++ {
			o := opts
			o.seed = opts.seed + int64(i)
			var err error
			if r, err = runWorkload(sp, o, io.Discard); err != nil {
				return nil, err
			}
			if !r.correct() {
				return nil, fmt.Errorf("%s: pass %d incorrect: %d failed, %v", sp.name, i, r.failed, r.problems)
			}
			for _, m := range r.metrics {
				sets[i%2][m.name] = append(sets[i%2][m.name], m.value)
			}
		}
		last = append(last, r)
		fmt.Fprintf(out, "\n== A/A %s: %d passes, seeds %d..%d ==\n", sp.name, passes, opts.seed, opts.seed+int64(passes)-1)
		fmt.Fprintf(out, "%-16s %12s %12s %8s %8s %8s %10s\n", "metric", "median A", "median B", "gap", "limit", "spread", "verdict")
		row := func(name string, bound float64) {
			a, b := sets[0][name], sets[1][name]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma
			_, spread := quartiles(append(slices.Clone(a), b...))
			verdict := "ok"
			switch {
			case bound == 0:
				verdict = "not gated"
			case gap > bound/2:
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(out, "%-16s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %10s\n",
				name, ma, mb, 100*gap, 100*bound/2, 100*spread, verdict)
		}
		for _, e := range endToEnd {
			row(e.name, e.bound)
		}
		// The tail, and the absolute figures to compare their spread with the ratios'.
		row("bench.lat_p95_x", 0)
		row("bench.op_us", 0)
		row("bench.ref_rtt_us", 0)
	}
	if !ok {
		return nil, fmt.Errorf("A/A self-check: two sets of runs of the same code differ by more than half a bound")
	}
	return last, nil
}

// quartiles returns the median and the distance between the first and the
// third quartile as a share of it, the way Python's
// statistics.quantiles(values, n=4) cuts them, which is how the driver
// computes a metric's spread.
func quartiles(vs []float64) (med, spread float64) {
	slices.Sort(vs)
	q := func(i int) float64 {
		m := len(vs) + 1
		j := min(max(i*m/4, 1), len(vs)-1)
		delta := float64(i*m - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	if len(vs) < 2 {
		return median(vs), 0
	}
	return q(2), (q(3) - q(1)) / q(2)
}
