package metrics

import (
	"fmt"
	"math"
	"slices"
)

// interval.go holds the sample-aggregation helpers behind the fidelity
// gate (DESIGN.md §12): summarising a per-seed error distribution into a
// tolerance interval, and the NaN-safe containment check the gate uses.
// They are deliberately strict about non-finite input — a NaN that slips
// into a baseline would make every later comparison vacuously false
// (NaN < x and NaN > x are both false), silently disarming the gate.

// Interval is a closed tolerance interval [Lo, Hi].
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Contains reports whether v lies inside the interval. It is NaN-safe in
// the failing direction: a NaN or ±Inf value, or a non-finite bound, is
// never contained, so a poisoned measurement fails a gate built on it
// rather than sliding through a false comparison.
func (iv Interval) Contains(v float64) bool {
	if !isFinite(v) || !isFinite(iv.Lo) || !isFinite(iv.Hi) {
		return false
	}
	return v >= iv.Lo && v <= iv.Hi
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// AllFinite reports whether every element of xs is finite (neither NaN
// nor ±Inf).
func AllFinite(xs []float64) bool {
	for _, v := range xs {
		if !isFinite(v) {
			return false
		}
	}
	return true
}

// Mean returns the arithmetic mean of xs; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs (the same
// convention CellResult.StdDev uses); 0 for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// ToleranceInterval summarises a sample of measurements (one per pinned
// seed, in the fidelity gate) into the interval a future measurement of
// the same quantity must fall into. The half-width is the largest of:
//
//   - the observed sample range (max − min), so the interval covers at
//     least the spread the pinned seeds themselves produce;
//   - relFloor·|mean|, slack for benign numerical drift (e.g. a refactor
//     reordering a float accumulation) on entries whose seeds happen to
//     agree tightly;
//   - absFloor, so an all-zero sample (many mechanisms preserve |V|
//     exactly) still yields a non-degenerate interval.
//
// Non-finite samples are an error, not a wide interval: a NaN here means
// a poisoned profile upstream, and the caller must fail loudly.
func ToleranceInterval(xs []float64, relFloor, absFloor float64) (Interval, error) {
	if len(xs) == 0 {
		return Interval{}, fmt.Errorf("metrics: tolerance interval of an empty sample")
	}
	if !AllFinite(xs) {
		return Interval{}, fmt.Errorf("metrics: non-finite sample in %v", xs)
	}
	m := Mean(xs)
	tol := slices.Max(xs) - slices.Min(xs)
	if r := relFloor * math.Abs(m); r > tol {
		tol = r
	}
	if absFloor > tol {
		tol = absFloor
	}
	return Interval{Lo: m - tol, Hi: m + tol}, nil
}
