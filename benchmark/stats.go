package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[max(1, rank(len(asc), p))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples
// (the epsilon keeps 99.9 % of 10000 at 9990, not one float ulp above it).
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile's position.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

// supported reports whether n samples carry the p-th percentile under the
// rule this benchmark uses for every timing: at least ten samples beyond it.
func supported(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// highestSupported returns the highest of the usual percentiles that n
// samples support, or 0 when not even the median has ten samples beyond it.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// quartileSpread is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the default, exclusive method): the
// driver judges run-to-run spread with exactly this figure.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }

func durationsTo(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
