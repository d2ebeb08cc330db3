package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending slice,
// interpolating linearly between ranks. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// tailCandidates are the percentiles a report may quote as its tail,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// minBeyond is the choosing-metrics rule: quote the highest percentile
// that still has at least ten samples beyond it.
const minBeyond = 10

// highestPercentile picks the tail percentile n samples support, or 50
// when even p75 has fewer than ten samples beyond it.
func highestPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(xs, n=4)
// gives them (the "exclusive" method), which is what the driver uses to
// judge a metric's run-to-run spread. Fewer than two values read as that
// value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
