// Command aabench is the repository's benchmark: five closed-loop
// workloads, end-to-end metrics normalised by an interleaved raw loopback
// round trip, and a traced pass that attributes each workload's op time to
// the layers. See README.md in this directory.
//
// Everything runs in this one process — servers, trader, monitors and the
// single caller goroutine — and nothing is spawned, so when the process
// has exited nothing is left running.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples string // what the value was computed from
	extra   bool   // printed for the reader, not part of the result line
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	problems  []string // correctness failures other than failed ops
	hash      uint64
}

func (r *result) add(name string, value float64, unit, samples string) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples, false})
}

// note adds a number for the reader only. In an end-to-end run these are
// the tail latency, the absolute figures and fail_ratio: the first two do
// not repeat well enough on this machine to carry a bound (README), the
// last travels in attempted and failed.
func (r *result) note(name string, value float64, unit, samples string) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples, true})
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// options are the command-line settings of one run.
type options struct {
	seed     int64
	seconds  float64
	segments int // when > 0, measure exactly this many segments (smoke test)
	trace    bool
	outDir   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the op stream")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	segments := fs.Int("segments", 0, "measure exactly this many segments instead of -seconds")
	ops := fs.Int("ops", 0, "ops per segment instead of the workload's own (smoke test)")
	trace := fs.Int("trace", 0, "1: traced pass and probes, per-layer metrics; 0: end-to-end metrics")
	aa := fs.Int("aa", 0, "self-check: run this many passes alternating into two sets and compare them")
	outDir := fs.String("out", "benchmark/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []*spec
	if *workload == "all" {
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if sp := specByName(*workload); sp != nil {
		todo = []*spec{sp}
	} else {
		fmt.Fprintf(stderr, "aabench: unknown workload %q\n", *workload)
		return 2
	}
	if *ops > 0 {
		for i, sp := range todo {
			resized := *sp
			resized.opsPerSeg = *ops
			todo[i] = &resized
		}
	}
	opts := options{seed: *seed, seconds: *seconds, segments: *segments, trace: *trace != 0, outDir: *outDir}

	// One deadline for the whole run: abort rather than hang.
	passes := len(todo) * max(*aa, 1)
	limit := time.Duration(float64(passes) * (60 + 3*opts.seconds) * float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "aabench: watchdog: run exceeded %v, aborting\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	baseline := runtime.NumGoroutine()
	var results []*result
	var err error
	if *aa > 0 {
		results, err = selfCheck(todo, opts, *aa, stdout)
	} else {
		for _, sp := range todo {
			var r *result
			if r, err = runWorkload(sp, opts, stdout); err != nil {
				break
			}
			printResult(stdout, r)
			results = append(results, r)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "aabench: %v\n", err)
		return 1
	}
	leak := goroutineLeak(baseline)
	if leak != "" {
		fmt.Fprintf(stderr, "aabench: %s\n", leak)
	}
	return printJSON(stdout, results, leak == "", len(todo) > 1)
}

// goroutineLeak waits for the goroutine count to return to the baseline
// taken before the first world was built; everything the run started has
// been closed by now.
func goroutineLeak(baseline int) string {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Sprintf("goroutine leak: %d before the run, %d after\n%s", baseline, runtime.NumGoroutine(), buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ""
}

// runWorkload runs one workload once: the untraced measurement for the
// end-to-end metrics, or (opts.trace) the traced pass and the probes for
// the per-layer ones.
func runWorkload(sp *spec, opts options, log io.Writer) (*result, error) {
	transport := "TCP = real sockets on the 127.0.0.1 loopback interface, not a link"
	if sp.inproc {
		transport = "ORB on orb.InprocNetwork (net.Pipe)"
	}
	fmt.Fprintf(log, "\n== %s  seed %d  closed loop, 1 caller, 1 connection; %s ==\n", sp.name, opts.seed, transport)
	ref, err := newRefEcho()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	r := &result{workload: sp.name}
	if opts.trace {
		err = runTraced(sp, opts, ref, r, log)
	} else {
		err = runEndToEnd(sp, opts, ref, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	return r, nil
}

// measure builds sp's world and runs one pass on it. The counters it
// returns cover the measured segments only.
func measure(sp *spec, opts options, tr *tracer, share float64, ref *refEcho, r *result) (*pass, counters, error) {
	w, err := sp.build(opts.seed, tr)
	if err != nil {
		return nil, counters{}, err
	}
	defer w.close()
	warm, minSegs, budget := 5, 3, time.Duration(share*opts.seconds*float64(time.Second))
	if opts.segments > 0 {
		warm, minSegs, budget = 1, opts.segments, 0
	}
	var warmed *counters
	after := func() {
		switch {
		case warmed == nil: // warm-up is over: start counting and recording
			c := w.counters()
			warmed = &c
			tr.start()
		case tr != nil:
			tr.fold(sp.opsPerSeg)
		}
	}
	p, err := runPass(w, sp.opsPerSeg, warm, minSegs, budget, ref, after)
	if err != nil {
		return nil, counters{}, err
	}
	if err := w.finish(); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	r.attempted += p.ops
	r.failed += p.failed
	r.hash = w.hash()
	return p, w.counters().since(*warmed), nil
}

func runEndToEnd(sp *spec, opts options, ref *refEcho, r *result) error {
	setups := sp.setups
	if opts.segments > 0 {
		setups = 3
	}
	setup := make([]float64, 0, setups)
	lat := make([]time.Duration, 1)
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		w, err := sp.build(opts.seed, nil)
		if err != nil {
			return err
		}
		failed := w.segment(1, lat)
		setup = append(setup, time.Since(t0).Seconds())
		w.close()
		r.attempted++
		r.failed += failed
	}
	p, _, err := measure(sp, opts, nil, 1, ref, r)
	if err != nil {
		return err
	}
	segs := fmt.Sprintf("median of %d segments x %d ops", len(p.opX), sp.opsPerSeg)
	ops := float64(p.measuredOps(sp.opsPerSeg))
	r.add("setup_s", median(setup), "s", fmt.Sprintf("median of %d builds", setups))
	r.add("op_x", median(p.opX), "ref_rtt", segs)
	r.add("lat_p50_x", median(p.p50X), "ref_rtt", segs)
	r.add("cpu_x", median(p.cpuX), "ref_rtt", segs)
	r.add("allocs_per_op", float64(p.mallocs)/ops, "1", fmt.Sprintf("%d ops", int(ops)))
	r.add("alloc_kb_per_op", float64(p.bytes)/1024/ops, "KiB", fmt.Sprintf("%d ops", int(ops)))
	r.add("live_heap_mb", median(p.liveHeap), "MiB", fmt.Sprintf("median of %d samples", len(p.liveHeap)))
	r.note("bench.lat_p95_x", median(p.p95X), "ref_rtt", segs)
	r.note("bench.op_us", median(p.opSec)*1e6, "us", segs)
	r.note("bench.ref_rtt_us", median(p.refSec)*1e6, "us", segs)
	r.note("fail_ratio", float64(r.failed)/float64(r.attempted), "1", fmt.Sprintf("%d ops", r.attempted))
	return nil
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%-28s %16s  %-8s %s\n", "metric", "value", "unit", "from")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %16.6g  %-8s %s\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Fprintf(w, "op-stream hash %016x; %d ops attempted, %d failed", r.hash, r.attempted, r.failed)
	if len(r.problems) > 0 {
		fmt.Fprintf(w, "; INCORRECT: %s", strings.Join(r.problems, "; "))
	}
	fmt.Fprintln(w)
}

// printJSON prints the result line the driver reads and returns the exit
// code.
func printJSON(w io.Writer, results []*result, clean, prefix bool) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: clean, Metrics: map[string]value{}}
	for _, r := range results {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range r.metrics {
			if m.extra {
				continue
			}
			name := m.name
			if prefix {
				name = r.workload + "." + name
			}
			out.Metrics[name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(w, "aabench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}
