package metrics

import (
	"math"
	"testing"
)

func TestMeanStdDevMinMax(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %g, want 5", m)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Fatalf("StdDev = %g, want 2 (population)", sd)
	}
	// with no floors the half-width is the sample range max − min = 7
	if iv, err := ToleranceInterval(xs, 0, 0); err != nil || iv.Lo != -2 || iv.Hi != 12 {
		t.Fatalf("ToleranceInterval = %+v, %v; want [-2, 12] from min 2, max 9", iv, err)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Fatal("empty/singleton aggregates should be 0")
	}
}

func TestIntervalContainsIsNaNSafe(t *testing.T) {
	iv := Interval{Lo: -1, Hi: 1}
	cases := []struct {
		v    float64
		want bool
	}{
		{0, true},
		{-1, true}, // closed bounds
		{1, true},
		{1.0000001, false},
		{math.NaN(), false}, // the whole point: NaN must FAIL a gate
		{math.Inf(1), false},
		{math.Inf(-1), false},
	}
	for _, c := range cases {
		if got := iv.Contains(c.v); got != c.want {
			t.Errorf("Contains(%g) = %v, want %v", c.v, got, c.want)
		}
	}
	// Poisoned bounds never contain anything, including a finite value.
	if (Interval{Lo: math.NaN(), Hi: 1}).Contains(0) {
		t.Error("NaN lower bound must not contain 0")
	}
	if (Interval{Lo: -1, Hi: math.Inf(1)}).Contains(0) {
		t.Error("infinite upper bound must not contain 0")
	}
}

func TestToleranceIntervalSpread(t *testing.T) {
	// Spread-dominated: range 4 > 5%·mean, so tol = max − min.
	iv, err := ToleranceInterval([]float64{8, 10, 12}, 0.05, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 6 || iv.Hi != 14 {
		t.Fatalf("interval [%g, %g], want [6, 14]", iv.Lo, iv.Hi)
	}
	// Agreement-dominated: identical samples fall back to the relative
	// floor so benign float drift does not trip the gate.
	iv, err = ToleranceInterval([]float64{10, 10, 10}, 0.05, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 9.5 || iv.Hi != 10.5 {
		t.Fatalf("interval [%g, %g], want [9.5, 10.5]", iv.Lo, iv.Hi)
	}
	// All-zero samples still get a non-degenerate interval from the
	// absolute floor.
	iv, err = ToleranceInterval([]float64{0, 0, 0}, 0.05, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !(iv.Lo < 0 && iv.Hi > 0) || !iv.Contains(0) || iv.Contains(1e-6) {
		t.Fatalf("zero-sample interval [%g, %g] malformed", iv.Lo, iv.Hi)
	}
}

func TestToleranceIntervalRejectsPoisonedSamples(t *testing.T) {
	for _, xs := range [][]float64{
		nil,
		{},
		{1, math.NaN(), 3},
		{1, 2, math.Inf(1)},
		{math.Inf(-1)},
	} {
		if _, err := ToleranceInterval(xs, 0.05, 1e-9); err == nil {
			t.Errorf("ToleranceInterval(%v) accepted poisoned/empty input", xs)
		}
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{0, -1, 1e300}) || !AllFinite(nil) {
		t.Fatal("finite input misreported")
	}
	if AllFinite([]float64{0, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite input misreported")
	}
}
