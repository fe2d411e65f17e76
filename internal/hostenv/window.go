package hostenv

import "time"

// Windowed accounting, as the experiment driver (internal/experiment) runs
// a host: requests deposit their CPU demand into the current accounting
// window with RecordWork; SampleWindow then
// converts the window's accumulated demand into an average runnable-task
// contribution (utilization) and feeds the kernel-style load averages.
// This keeps multi-minute experiments single-threaded and deterministic
// while preserving the feedback loop the paper's example depends on:
// offered work raises the load average, and the load average dilates
// response times.

// RecordWork accounts one request with the given base CPU demand and
// returns the dilated response time it experienced, computed from the
// host's current contention (background + previous window's utilization).
func (h *Host) RecordWork(demand time.Duration) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := time.Duration(float64(demand) * h.dilationLocked())
	h.windowWork += demand
	h.served++
	h.busyTime += d
	return d
}

// dilationLocked is the service-time dilation factor:
// max(1, background + window utilization) on the host's one CPU.
func (h *Host) dilationLocked() float64 {
	d := h.bg + h.lastRho
	if d < 1 {
		return 1
	}
	return d
}

// SampleWindow closes the current accounting window of length dt: the
// window's demand becomes a utilization term (demand/dt), the load
// averages take one damped step against runnable n = background + that
// utilization, exactly as the Linux kernel's calc_load does
// (load' = load·e^(−dt/τ) + n·(1−e^(−dt/τ))), and the window resets.
func (h *Host) SampleWindow(dt time.Duration) {
	if dt <= 0 {
		dt = SamplePeriod
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastRho = h.windowWork.Seconds() / dt.Seconds()
	h.windowWork = 0
	n := h.bg + h.lastRho
	for i, period := range loadPeriods {
		e := sampleDecay(dt, period)
		h.loads[i] = h.loads[i]*e + n*(1-e)
	}
}
