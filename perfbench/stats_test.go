package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.9, 3.7},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single value: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty input: got %v, want NaN", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count: got %v, want 3", got)
	}
	if got := medianDur([]time.Duration{3 * time.Second, time.Second}); got != 2 {
		t.Errorf("medianDur: got %v, want 2", got)
	}
	if got := medianDur(nil); got != 0 {
		t.Errorf("medianDur of nothing: got %v, want 0", got)
	}
}
