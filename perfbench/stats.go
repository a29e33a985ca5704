package main

import (
	"math"
	"slices"
)

// minTail is the number of samples that must lie beyond a percentile
// before the benchmark reports it: with fewer, one outlier decides the
// value.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minTail samples lie strictly beyond its rank. xs need
// not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := nearestRank(len(s), q)
	return s[rank-1], len(s)-rank >= minTail
}

// nearestRank is the 1-based rank of the q-quantile among n samples.
func nearestRank(n int, q float64) int {
	// The epsilon keeps q·n from rounding up past an exact integer
	// (0.99·1000 is not exactly 990 in binary).
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supportedTail returns the highest of the usual reporting percentiles
// that n samples support under the minTail rule, or 0 when none does.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if n > 0 && n-nearestRank(n, q) >= minTail {
			best = q
		}
	}
	return best
}

// summary is how a timing is reported in a run's report line: its
// sample count, median, and the highest percentile its count supports.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailQ  float64 `json:"tail_q,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if q := supportedTail(len(xs)); q > 0 {
		s.TailQ = q
		s.Tail, _ = percentile(xs, q)
	}
	return s
}
