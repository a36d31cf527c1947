package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two closest ranks, the same rule as
// numpy's default and statistics.quantiles(method="inclusive"). It
// returns NaN for an empty slice and leaves xs unchanged.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// medianDur is the median of a set of durations, in seconds, or 0 for
// an empty set (a workload without that set-up phase).
func medianDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// usage is a snapshot of the process counters the end-to-end metrics
// are deltas of.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system time of the whole process
	allocs uint64        // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) cannot fail on a valid struct pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
	}
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) cannot fail on a valid struct pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
