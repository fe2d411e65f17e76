// Package hostenv simulates execution hosts: the substitution (DESIGN.md
// §2.3) for the Linux machines the paper ran its load-sharing example on.
//
// Each Host models a CPU with a run queue. Work comes from two sources:
// background load (what the paper injects by hand to unbalance the system)
// and the service demands of actual requests flowing through the ORB. The
// host computes 1/5/15-minute load averages with the same exponentially
// damped update the Linux kernel uses, sampled every 5 seconds (LOAD_FREQ),
// so a monitor reading a simulated host sees exactly the signal the paper's
// Fig. 3 monitor reads from /proc/loadavg.
//
// Service times dilate with contention: a host has one CPU, and a request
// whose base demand is d completes after d·max(1, runnable) — a
// processor-sharing approximation. That preserves the behaviour the paper's experiment
// depends on: a loaded server answers slowly, and moving clients away from
// it lowers both its load average and its response times.
package hostenv

import (
	"math"
	"sync"
	"time"
)

// SamplePeriod is the load-average sampling interval (Linux LOAD_FREQ).
const SamplePeriod = 5 * time.Second

// Damping periods for the three load averages.
var loadPeriods = [3]time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}

// Host is one simulated machine with one CPU. The embedding experiment
// drives its clock: it calls SampleWindow once per period.
type Host struct {
	name string

	mu       sync.Mutex
	bg       float64 // background runnable tasks (may be fractional)
	loads    [3]float64
	served   int64
	busyTime time.Duration

	// Windowed accounting (see window.go).
	windowWork time.Duration
	lastRho    float64
}

// New creates an idle host.
func New(name string) *Host { return &Host{name: name} }

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// SetBackground sets the host's background runnable-task count — the
// knob the experiments turn to unbalance the system, standing in for the
// paper's externally submitted load.
func (h *Host) SetBackground(n float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n < 0 {
		n = 0
	}
	h.bg = n
}

// sampleDecay is the kernel damping coefficient e^(−Δt/τ).
func sampleDecay(dt, period time.Duration) float64 {
	return math.Exp(-dt.Seconds() / period.Seconds())
}

// LoadAvg implements monitor.LoadSource: the simulated /proc/loadavg.
func (h *Host) LoadAvg() (one, five, fifteen float64, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loads[0], h.loads[1], h.loads[2], nil
}

// SetLoadAvg forces the averages directly (tests and warm starts).
func (h *Host) SetLoadAvg(one, five, fifteen float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.loads = [3]float64{one, five, fifteen}
}

// Served reports how many requests completed on this host.
func (h *Host) Served() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.served
}

// BusyTime reports accumulated dilated service time.
func (h *Host) BusyTime() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.busyTime
}
