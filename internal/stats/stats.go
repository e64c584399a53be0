// Package stats provides the summary statistics and scaling-law fits used
// by the experiment harness: means, quantiles, confidence intervals, and
// least-squares fits (linear and power-law) for verifying that measured
// stopping times grow with the exponents the theorems predict.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary condenses a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs)}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P90 = Quantile(sorted, 0.9)
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.0f med=%.1f p90=%.1f max=%.0f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P90, s.Max)
}

// Mean returns the arithmetic mean. An empty sample yields NaN: the
// aggregation paths (worker ranges where every trial failed, filtered
// query cells) feed empty slices here, and a quiet NaN propagates into
// reports where a panic would kill the whole sweep.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator);
// 0 for samples of size < 2.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 <= q <= 1) of an already sorted
// sample, with linear interpolation. An empty sample yields NaN (see
// Mean); a singleton returns its only element for every q.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// TailQuantiles returns the requested quantiles of xs (unsorted; a copy
// is sorted internally), e.g. TailQuantiles(xs, 0.99, 0.999) for the
// P99/P99.9 stopping times of a result-store cell. Empty samples yield
// NaN per quantile.
func TailQuantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = Quantile(sorted, q)
	}
	return out
}

// LinearFit fits y = a + b·x by ordinary least squares and returns a, b and
// the coefficient of determination R². It panics when fewer than two
// points are supplied or all x are equal.
func LinearFit(x, y []float64) (a, b, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: need >= 2 paired points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: degenerate x values")
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

// PowerFit fits y = a·x^b by least squares in log-log space, returning a, b
// and the log-space R². All x and y must be positive. Use it to recover
// empirical scaling exponents (e.g. rounds ~ n^2 on the barbell).
func PowerFit(x, y []float64) (a, b, r2 float64) {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			panic("stats: PowerFit requires positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	la, b, r2 := LinearFit(lx, ly)
	return math.Exp(la), b, r2
}
