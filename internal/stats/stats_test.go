package stats

import (
	"math"
	"testing"
	"testing/quick"

	"algossip/internal/core"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if sd := StdDev(xs); !almost(sd, 2.138089935299395, 1e-9) {
		t.Errorf("StdDev = %v", sd)
	}
	if StdDev([]float64{3}) != 0 {
		t.Error("StdDev of singleton must be 0")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); !almost(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almost(s.Median, 3, 1e-12) {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Summarize(nil)
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := LinearFit(x, y)
	if !almost(a, 1, 1e-9) || !almost(b, 2, 1e-9) || !almost(r2, 1, 1e-9) {
		t.Errorf("fit = (%v, %v, %v)", a, b, r2)
	}
}

func TestPowerFitRecoversExponent(t *testing.T) {
	// y = 3 x^2 with mild noise.
	rng := core.NewRand(5)
	var x, y []float64
	for n := 10.0; n <= 200; n += 10 {
		x = append(x, n)
		noise := 1 + 0.02*(rng.Float64()-0.5)
		y = append(y, 3*n*n*noise)
	}
	a, b, r2 := PowerFit(x, y)
	if !almost(b, 2, 0.05) {
		t.Errorf("exponent = %v, want ~2", b)
	}
	if !almost(a, 3, 0.5) {
		t.Errorf("prefactor = %v, want ~3", a)
	}
	if r2 < 0.99 {
		t.Errorf("r2 = %v", r2)
	}
}

func TestPowerFitRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PowerFit([]float64{1, -2}, []float64{1, 2})
}

// TestMeanQuantileEmptyAndSingleton pins the aggregation-facing
// edge-case contract: empty samples yield NaN (an all-failed worker
// range must not kill a sweep), singletons return their only element.
func TestMeanQuantileEmptyAndSingleton(t *testing.T) {
	if m := Mean(nil); !math.IsNaN(m) {
		t.Errorf("Mean(nil) = %v, want NaN", m)
	}
	if q := Quantile(nil, 0.5); !math.IsNaN(q) {
		t.Errorf("Quantile(nil, 0.5) = %v, want NaN", q)
	}
	for _, tq := range TailQuantiles(nil, 0.99, 0.999) {
		if !math.IsNaN(tq) {
			t.Errorf("TailQuantiles(nil) = %v, want NaNs", tq)
		}
	}
	if m := Mean([]float64{7}); m != 7 {
		t.Errorf("Mean singleton = %v", m)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("Quantile(singleton, %v) = %v", q, got)
		}
	}
	if got := TailQuantiles([]float64{3, 1, 2}, 0, 1); got[0] != 1 || got[1] != 3 {
		t.Errorf("TailQuantiles sorts internally: got %v", got)
	}
}

// Property: mean is within [min, max], and quantiles are monotone in q.
func TestQuantileMonotoneQuick(t *testing.T) {
	check := func(seed uint64) bool {
		rng := core.NewRand(seed)
		n := 2 + rng.IntN(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := Summarize(xs)
		if s.Mean < s.Min || s.Mean > s.Max {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.P90 && s.P90 <= s.Max
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
