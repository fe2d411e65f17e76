package monitor

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"autoadapt/internal/wire"
)

// LoadSource yields 1/5/15-minute load averages. Implementations: ProcFile
// (a real Linux /proc/loadavg, as in the paper's footnote), and the
// simulated hosts in internal/hostenv.
type LoadSource interface {
	LoadAvg() (one, five, fifteen float64, err error)
}

// LoadSourceFunc adapts a function to LoadSource.
type LoadSourceFunc func() (one, five, fifteen float64, err error)

// LoadAvg implements LoadSource.
func (f LoadSourceFunc) LoadAvg() (float64, float64, float64, error) { return f() }

// ProcFile reads Linux-format load averages from a file (normally
// /proc/loadavg). This is the paper's original data source (Fig. 3 reads
// /proc/loadavg directly from Lua).
type ProcFile struct {
	// Path defaults to /proc/loadavg.
	Path string
}

// LoadAvg implements LoadSource.
func (p ProcFile) LoadAvg() (float64, float64, float64, error) {
	path := p.Path
	if path == "" {
		path = "/proc/loadavg"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("monitor: read %s: %w", path, err)
	}
	fields := strings.Fields(string(data))
	if len(fields) < 3 {
		return 0, 0, 0, fmt.Errorf("monitor: malformed loadavg %q", strings.TrimSpace(string(data)))
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("monitor: malformed loadavg field %q", fields[i])
		}
		out[i] = v
	}
	return out[0], out[1], out[2], nil
}

// IncreasingAspectSrc is the paper's Fig. 3 "Increasing" aspect evaluator,
// verbatim: it reports whether the 1-minute average exceeds the 5-minute
// average, "as a simple way to detect an increase in the load submitted to
// the system".
const IncreasingAspectSrc = `function(self, currval, monitor)
	if currval[1] > currval[2] then
		return "yes"
	else
		return "no"
	end
end`

// LoadIncreasePredicateSrc is the paper's Fig. 4 event-diagnosing function,
// verbatim: fire when the 1-minute load exceeds a limit AND the load is
// increasing. The limit is interpolated (the paper hard-codes 50, then
// relaxes to 70 in Fig. 7).
func LoadIncreasePredicateSrc(limit float64) string {
	return fmt.Sprintf(`function(observer, value, monitor)
	local incr
	incr = monitor:getAspectValue("Increasing")
	return value[1] > %g and incr == "yes"
end`, limit)
}

// LoadIncreaseEvent is the event identifier used throughout the paper's §V
// example.
const LoadIncreaseEvent = "LoadIncrease"

// Load1AspectSrc projects the 1-minute average out of the monitored
// triple. Offers export their scalar "LoadAvg" trader property through this
// aspect, so constraints like "LoadAvg < 50" evaluate against a number
// while getValue still returns the full {1, 5, 15} table.
const Load1AspectSrc = `function(self, currval, monitor)
	return currval[1]
end`

// Load1Aspect is the aspect name installed from Load1AspectSrc.
const Load1Aspect = "Load1"

// NewLoadAverage builds the paper's Fig. 3 LoadAverageMonitor: property
// "LoadAvg" whose value is the table {one, five, fifteen} read from src,
// refreshed every opts.Period (60s in the paper), with the "Increasing"
// aspect pre-defined from the verbatim Fig. 3 script. It sets opts.Name and
// opts.Update; the caller fills in the rest.
func NewLoadAverage(src LoadSource, o Options) (*Monitor, error) {
	o.Name = "LoadAvg"
	o.Update = func() (wire.Value, error) {
		one, five, fifteen, err := src.LoadAvg()
		if err != nil {
			return wire.Nil(), err
		}
		return wire.TableVal(wire.NewList(
			wire.Number(one), wire.Number(five), wire.Number(fifteen))), nil
	}
	m, err := New(o)
	if err != nil {
		return nil, err
	}
	if err := m.DefineAspect("Increasing", IncreasingAspectSrc); err != nil {
		m.Close()
		return nil, err
	}
	if err := m.DefineAspect(Load1Aspect, Load1AspectSrc); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}
