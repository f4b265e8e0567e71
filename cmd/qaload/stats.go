package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which must be sorted ascending: the smallest sample with at least
// q·n samples at or below it. An empty input yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// quartiles returns the three quartile cut points of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) computes them — the definition the benchmark contract uses
// for a metric's spread. Fewer than two samples yield the sample (or 0)
// three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// upperQuartileRate is the throughput estimator: the upper quartile of
// the per-window completion counts, as a rate. Interference from the
// host only ever slows a window down, so the upper quartile tracks the
// program's own speed more steadily than the whole-run mean does.
func upperQuartileRate(windows []int, windowSeconds float64) float64 {
	rates := make([]float64, len(windows))
	for i, c := range windows {
		rates[i] = float64(c) / windowSeconds
	}
	_, _, q3 := quartiles(rates)
	return q3
}

// spread is the contract's noise figure for repeated values of one
// metric: the interquartile distance as a share of the median.
// maxDev is the largest relative deviation of any value from the median.
func spread(xs []float64) (med, q1, q3, iqrShare, maxDev float64) {
	q1, med, q3 = quartiles(xs)
	if med == 0 {
		return med, q1, q3, 0, 0
	}
	for _, x := range xs {
		if d := math.Abs(x-med) / math.Abs(med); d > maxDev {
			maxDev = d
		}
	}
	return med, q1, q3, (q3 - q1) / math.Abs(med), maxDev
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
