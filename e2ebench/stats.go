package main

import (
	"fmt"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the middle value, or the mean
// of the two middle values. It returns 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the benchmark's spreads match the ones computed over its
// results by that function. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3), nil
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailMinBeyond = 10

// tail picks the highest percentile that has at least minBeyond samples
// above it. With n samples sorted ascending that is the nearest-rank
// value s[n-1-minBeyond], whose percentile is 100·(n-minBeyond)/n. It
// returns the value, the percentile and the number of samples beyond
// it, and fails when there are too few samples for any percentile to
// qualify.
func tail(xs []float64, minBeyond int) (value, pct float64, beyond int, err error) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, 0, fmt.Errorf("tail needs more than %d samples, got %d", minBeyond, n)
	}
	s := sortedCopy(xs)
	i := n - 1 - minBeyond
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i, nil
}
