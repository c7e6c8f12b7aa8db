package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed closed-loop operation.
type sample struct {
	start, end time.Time
	updates    int  // fact updates (or jobs) the operation confirmed
	traced     bool // ran while the span recorder was on
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
// xs is sorted in place. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// slicedP99 splits [start, start+window) into n equal slices by completion
// time, takes each slice's p99 latency, and returns the median over the
// slices that hold samples. One stall lands in one slice and cannot move
// the median of ten, which is what makes the tail repeat from run to run.
func slicedP99(ss []sample, start time.Time, window time.Duration, n int) float64 {
	slices := make([][]float64, n)
	for _, s := range ss {
		i := int(s.end.Sub(start) * time.Duration(n) / window)
		if i < 0 || i >= n {
			continue
		}
		slices[i] = append(slices[i], s.ms())
	}
	var p99s []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			p99s = append(p99s, percentile(sl, 99))
		}
	}
	return median(p99s)
}

// tailPercentile picks the highest of a few percentiles that still has at
// least ten of n samples beyond it; below 40 samples there is none and it
// returns 0.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, safe against 99.9's rounding
			return p
		}
	}
	return 0
}

// spread is the interquartile range of xs as a share of their median, the
// run-to-run spread the acceptance rule and -compare use. It needs at least
// two values (statistics.quantiles' exclusive method, as the driver uses).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	q := func(k int) float64 { // k-th quartile, as Python's exclusive method
		j := min(max(k*(m+1)/4, 1), m-1)
		delta := float64(k*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
