// Package dp implements the differential-privacy primitives PGB's
// generation algorithms are built from: the Laplace mechanism,
// randomized-response flip probabilities, smooth-sensitivity
// calibration (Nissim, Raskhodnikova & Smith 2007), and a privacy-budget
// accountant enforcing sequential composition.
//
// All randomness flows through an explicit *rand.Rand so experiments are
// reproducible from a seed.
package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// Laplace draws one sample from the Laplace distribution with mean 0 and
// scale b > 0 using inverse-CDF sampling.
//
// A zero scale is the degenerate noiseless distribution and returns 0 —
// the documented behaviour for sensitivity-0 queries. A negative scale is
// always a caller bug (a mis-derived sensitivity or budget) and panics,
// matching the epsilon validation of the mechanism wrappers.
func Laplace(rng *rand.Rand, b float64) float64 {
	if b < 0 {
		panic("dp: negative Laplace scale")
	}
	if b == 0 {
		return 0
	}
	// u uniform on (-1/2, 1/2); avoid u == ±1/2 exactly.
	u := rng.Float64() - 0.5
	for u == -0.5 {
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// LaplaceMechanism perturbs value with Laplace noise calibrated to
// sensitivity/epsilon, satisfying ε-DP for a query with the given global
// L1 sensitivity.
func LaplaceMechanism(rng *rand.Rand, value, sensitivity, epsilon float64) float64 {
	if epsilon <= 0 {
		panic("dp: non-positive epsilon")
	}
	return value + Laplace(rng, sensitivity/epsilon)
}

// LaplaceVector perturbs each entry of values with i.i.d. Laplace noise of
// scale sensitivity/epsilon, where sensitivity is the L1 sensitivity of the
// whole vector. The input is not modified.
func LaplaceVector(rng *rand.Rand, values []float64, sensitivity, epsilon float64) []float64 {
	if epsilon <= 0 {
		panic("dp: non-positive epsilon")
	}
	b := sensitivity / epsilon
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v + Laplace(rng, b)
	}
	return out
}

// LaplaceVectorInto is LaplaceVector without the allocation: it writes
// values[i] + noise into dst, which must be at least len(values) long, and
// returns dst[:len(values)]. dst and values may be the same slice for
// in-place perturbation. Draws are identical to LaplaceVector's — one per
// entry, in order — so the two are interchangeable on a fixed rng stream.
func LaplaceVectorInto(rng *rand.Rand, dst, values []float64, sensitivity, epsilon float64) []float64 {
	if epsilon <= 0 {
		panic("dp: non-positive epsilon")
	}
	if len(dst) < len(values) {
		panic("dp: LaplaceVectorInto dst shorter than values")
	}
	b := sensitivity / epsilon
	dst = dst[:len(values)]
	for i, v := range values {
		dst[i] = v + Laplace(rng, b)
	}
	return dst
}

// FlipProbability returns the flip probability 1/(e^ε+1) of Warner's
// randomized response: a bit kept with probability e^ε/(e^ε+1) and
// flipped otherwise satisfies ε-DP for that bit.
func FlipProbability(epsilon float64) float64 {
	return 1 / (math.Exp(epsilon) + 1)
}

// SmoothSensitivity computes the β-smooth upper bound on local sensitivity
// given localSensAt(d), the maximum local sensitivity over all databases at
// Hamming distance d from the input, evaluated for d = 0..maxDist:
//
//	S = max_d localSensAt(d) * exp(-β d)
//
// Callers supply the query-specific localSensAt; the loop terminates early
// once the exponential damping makes further terms irrelevant.
func SmoothSensitivity(beta float64, maxDist int, localSensAt func(d int) float64) float64 {
	if beta <= 0 {
		panic("dp: non-positive beta")
	}
	s := 0.0
	for d := 0; d <= maxDist; d++ {
		ls := localSensAt(d)
		v := ls * math.Exp(-beta*float64(d))
		if v > s {
			s = v
		}
		// Once even a generous upper bound on future local sensitivity
		// cannot beat the current max, stop.
		if ls > 0 && v < s*1e-12 {
			break
		}
	}
	return s
}

// SmoothLaplace perturbs value using noise calibrated to a β-smooth
// sensitivity bound, providing (ε, δ)-DP per Nissim et al. (2007): with
// β = ε / (2 ln(2/δ)), adding Laplace noise of scale 2S/ε suffices.
func SmoothLaplace(rng *rand.Rand, value, smoothSens, epsilon float64) float64 {
	if epsilon <= 0 {
		panic("dp: non-positive epsilon")
	}
	return value + Laplace(rng, 2*smoothSens/epsilon)
}

// Beta returns the smooth-sensitivity damping parameter β = ε/(2 ln(2/δ)).
func Beta(epsilon, delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		panic("dp: delta must be in (0,1)")
	}
	return epsilon / (2 * math.Log(2/delta))
}

// CheckEpsilon accepts only a finite ε > 0 — the one validity test of a
// privacy budget, shared by the accountant, the public API and the
// server, which prefix the message with their own context. It is
// written so NaN fails: under NaN every ordered comparison is false, so
// a plain eps <= 0 test lets it through.
func CheckEpsilon(eps float64) error {
	if !(eps > 0) {
		return fmt.Errorf("privacy budget must be positive, got %g", eps)
	}
	if math.IsInf(eps, 1) {
		return fmt.Errorf("privacy budget must be finite, got %g", eps)
	}
	return nil
}

// Accountant tracks privacy-budget consumption under sequential
// composition. Spend returns an error if the request would exceed the
// total budget; algorithms use it to prove (in tests) that their stage-wise
// splits sum to ε.
type Accountant struct {
	total float64
	spent float64
}

// NewAccountant returns an accountant with the given total ε budget.
func NewAccountant(epsilon float64) *Accountant {
	return &Accountant{total: epsilon}
}

// Spend consumes eps from the budget. A spend that fails CheckEpsilon is
// refused, so a NaN or infinite budget never reaches the noise scales.
func (a *Accountant) Spend(eps float64) error {
	if err := CheckEpsilon(eps); err != nil {
		return fmt.Errorf("dp: %w", err)
	}
	// Tolerate float rounding at the boundary.
	if a.spent+eps > a.total*(1+1e-9) {
		return fmt.Errorf("dp: budget exceeded: spent %g + %g > total %g", a.spent, eps, a.total)
	}
	a.spent += eps
	return nil
}

// Spent returns the consumed budget.
func (a *Accountant) Spent() float64 { return a.spent }

// Remaining returns the unconsumed budget.
func (a *Accountant) Remaining() float64 {
	r := a.total - a.spent
	if r < 0 {
		return 0
	}
	return r
}

// Total returns the total budget.
func (a *Accountant) Total() float64 { return a.total }
