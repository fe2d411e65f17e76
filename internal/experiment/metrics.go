package experiment

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. Empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CoV returns the coefficient of variation (σ/μ); 0 when the mean is 0.
// It is the load-imbalance measure used by experiment E1: 0 means the
// servers did identical amounts of work.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// MaxOverMean returns max(xs)/mean(xs), the other E1 imbalance measure;
// 1 is perfectly balanced. It returns 0 for empty or all-zero input.
func MaxOverMean(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	mx := xs[0]
	for _, x := range xs[1:] {
		if x > mx {
			mx = x
		}
	}
	return mx / m
}
