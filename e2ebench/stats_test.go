package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected quartiles are what Python's statistics.quantiles(xs,
// n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 5.5, 4.0}, 1.675, 5.125},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value succeeded")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 values = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", m)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{100, 90, 90, 10}, // p90 of 100 samples leaves 91..100 beyond it
		{50, 40, 80, 10},  // 50 samples reach only p80
		{21, 11, 100 * 11.0 / 21, 10},
		{1000, 990, 99, 10},
	}
	for _, c := range cases {
		v, pct, beyond, err := tail(seq(c.n), tailMinBeyond)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if v != c.value || !near(pct, c.pct) || beyond != c.beyond {
			t.Errorf("n=%d: tail = %v at p%.4g with %d beyond; want %v at p%.4g with %d beyond",
				c.n, v, pct, beyond, c.value, c.pct, c.beyond)
		}
	}
	if _, _, _, err := tail(seq(tailMinBeyond), tailMinBeyond); err == nil {
		t.Errorf("tail of %d samples succeeded; no percentile has %d beyond it", tailMinBeyond, tailMinBeyond)
	}
}

// A run times at least minJobs jobs so that its tail lies above its
// median.
func TestMinJobsPutsTailAboveMedian(t *testing.T) {
	_, pct, _, err := tail(seq(minJobs), tailMinBeyond)
	if err != nil {
		t.Fatal(err)
	}
	if pct <= 50 {
		t.Errorf("with %d jobs the tail is p%.4g, not above the median", minJobs, pct)
	}
}
