package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The measuring method (README "Method"): a pass is a sequence of segments
// of a fixed op count; a burst of raw loopback round trips runs before the
// first and after every segment, and every timing of a segment is divided
// by the mean round trip of the two bursts around it. The reported value is
// the median over segments, so a segment hit by a noisy neighbour on this
// shared machine moves neither the ratio (both sides slow down together)
// nor the median.

const (
	refBurst = 400 // round trips per reference burst
	refBytes = 32  // payload of one reference round trip
)

// refEcho is the reference: one raw TCP loopback connection to an echo
// goroutine, owned by the benchmark and using no repo code.
type refEcho struct {
	ln   net.Listener
	conn net.Conn
	done chan struct{} // closed when the echo goroutine has exited
	buf  [refBytes]byte
}

func newRefEcho() (*refEcho, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ref echo: %w", err)
	}
	r := &refEcho{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var b [refBytes]byte
		for {
			if _, err := io.ReadFull(c, b[:]); err != nil {
				return
			}
			if _, err := c.Write(b[:]); err != nil {
				return
			}
		}
	}()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		_ = ln.Close()
		<-r.done
		return nil, fmt.Errorf("ref echo: %w", err)
	}
	return r, nil
}

// burst returns the mean duration in seconds of refBurst blocking round trips.
func (r *refEcho) burst() (float64, error) {
	start := time.Now()
	for i := 0; i < refBurst; i++ {
		if _, err := r.conn.Write(r.buf[:]); err != nil {
			return 0, fmt.Errorf("ref echo: %w", err)
		}
		if _, err := io.ReadFull(r.conn, r.buf[:]); err != nil {
			return 0, fmt.Errorf("ref echo: %w", err)
		}
	}
	return time.Since(start).Seconds() / refBurst, nil
}

func (r *refEcho) close() {
	_ = r.conn.Close()
	_ = r.ln.Close()
	<-r.done
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// pass holds one measured pass: a value per segment for the timing
// metrics, totals for the counted ones.
type pass struct {
	ops, failed    int
	opX            []float64 // segment wall / ops / ref_rtt
	p50X           []float64
	p95X           []float64
	p99X           []float64
	cpuX           []float64
	opSec          []float64 // segment wall / ops, seconds
	refSec         []float64 // ref_rtt of the segment, seconds
	mallocs, bytes uint64    // summed over measured segments only
	liveHeap       []float64 // MiB after two GCs, sampled every heapEvery segments
}

const heapEvery = 5

// runPass warms w up for warm segments, then measures segments of n ops
// until budget has elapsed (at least minSegs). after, when non-nil, runs
// after every measured segment outside the timed region.
func runPass(w world, n, warm, minSegs int, budget time.Duration, ref *refEcho, after func()) (*pass, error) {
	lat := make([]time.Duration, n)
	sorted := make([]float64, n)
	p := &pass{}
	for i := 0; i < warm; i++ {
		p.failed += w.segment(n, lat)
		p.ops += n
	}
	if after != nil {
		after() // drop what warm-up recorded
	}
	before, err := ref.burst()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	began := time.Now()
	for seg := 0; seg < minSegs || time.Since(began) < budget; seg++ {
		if seg%heapEvery == 0 {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			p.liveHeap = append(p.liveHeap, float64(ms0.HeapAlloc)/(1<<20))
			if before, err = ref.burst(); err != nil { // the GCs cooled the caches
				return nil, err
			}
		}
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		t0 := time.Now()
		failed := w.segment(n, lat)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms1)
		afterRef, err := ref.burst()
		if err != nil {
			return nil, err
		}
		rtt := (before + afterRef) / 2
		before = afterRef

		for i, d := range lat {
			sorted[i] = d.Seconds()
		}
		slices.Sort(sorted)
		p.ops += n
		p.failed += failed
		p.opSec = append(p.opSec, wall/float64(n))
		p.refSec = append(p.refSec, rtt)
		p.opX = append(p.opX, wall/float64(n)/rtt)
		p.cpuX = append(p.cpuX, cpu/float64(n)/rtt)
		p.p50X = append(p.p50X, quantile(sorted, 0.50)/rtt)
		p.p95X = append(p.p95X, quantile(sorted, 0.95)/rtt)
		p.p99X = append(p.p99X, quantile(sorted, 0.99)/rtt)
		p.mallocs += ms1.Mallocs - ms0.Mallocs
		p.bytes += ms1.TotalAlloc - ms0.TotalAlloc
		if after != nil {
			after()
		}
	}
	return p, nil
}

// measuredOps is the number of ops in measured (not warm-up) segments.
func (p *pass) measuredOps(n int) int { return len(p.opX) * n }

// quantile reads the q-quantile from sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
