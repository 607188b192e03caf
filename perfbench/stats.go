package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// xs need not be sorted; +Inf entries (failed requests) sort last, so a
// percentile whose rank lands on one is +Inf. An empty sample gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is the arithmetic mean (NaN for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// jain is Jain's fairness index (Σx)² / (n·Σx²): 1 when every share is
// equal, 1/n when one party gets everything. All-zero shares give NaN.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if len(xs) == 0 || sq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// windowRates returns, for every run of k consecutive completions in the
// sorted times ts, k divided by the time the run took. Their median is a
// throughput that a stretch in which the host stalled the process, or the
// burst that follows one, does not move as it moves a plain count over
// time.
func windowRates(ts []time.Duration, k int) []float64 {
	var rates []float64
	for i := 0; i+k < len(ts); i++ {
		rates = append(rates, float64(k)/(ts[i+k]-ts[i]).Seconds())
	}
	return rates
}
