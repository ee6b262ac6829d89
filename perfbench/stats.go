package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// A tail is the highest percentile with at least tailBeyond samples
// beyond it: the (tailBeyond+1)-th largest sample. Below 2·tailBeyond
// samples that would not be a tail, and the maximum is reported.
const tailBeyond = 10

// tail returns the tail of the whole series.
func (d dist) tail() float64 {
	sorted := append([]float64(nil), d...)
	sort.Float64s(sorted)
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n < 2*tailBeyond:
		return sorted[n-1]
	}
	return sorted[n-tailBeyond-1]
}

// tailPercentile is the percentile tail reports for n samples, or 1
// for the maximum.
func tailPercentile(n int) float64 {
	if n < 2*tailBeyond {
		return 1
	}
	return 1 - float64(tailBeyond)/float64(n)
}

// rank is the 1-based nearest-rank position of quantile q among n
// samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// dist is a series of samples of one quantity, in the order taken.
type dist []float64

// add appends one sample.
func (d *dist) add(v float64) { *d = append(*d, v) }

// addDur appends a duration in milliseconds.
func (d *dist) addDur(x time.Duration) { d.add(ms(x)) }

// quantile returns the nearest-rank q-quantile, or 0 for no samples.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// A median is the median over consecutive segments of the run, each of
// at least p50Segment samples and at most maxSegments of them: a burst
// of noise from outside the benchmark then moves one segment's median,
// not the reported one.
const (
	p50Segment  = 20
	maxSegments = 100
)

// p50 returns the median of the segments' medians.
func (d dist) p50() float64 {
	k := min(maxSegments, max(1, len(d)/p50Segment))
	vs := make([]float64, k)
	for i := range vs {
		vs[i] = d[i*len(d)/k : (i+1)*len(d)/k].quantile(0.5)
	}
	return median(vs)
}

// tailName says which statistic a tail over n samples reports, e.g.
// "p99 of 1000".
func tailName(n int) string {
	name := "max"
	if q := tailPercentile(n); q < 1 {
		name = fmt.Sprintf("p%g", math.Round(100*q*1000)/1000)
	}
	return fmt.Sprintf("%s of %d", name, n)
}

func ms(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
