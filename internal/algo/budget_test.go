package algo_test

import (
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/gen"
)

// The DP guarantee rests on each algorithm's internal stages composing
// within the total ε. The generators spend through a dp.Accountant
// constructed with the budget; this test re-derives the stage splits the
// way each algorithm does and asserts the accountant never rejects — i.e.
// the splits sum to ε (sequential composition holds). A split that
// over-spent would silently violate the privacy claim.
//
// We exercise the composition arithmetic directly against the accountant
// for the documented splits, across a range of budgets.
func TestBudgetCompositionWithinEpsilon(t *testing.T) {
	budgets := []float64{0.1, 0.5, 1, 2, 5, 10}
	// (name, stage fractions of eps) as each algorithm documents them.
	splits := map[string][]float64{
		"TmF":       {0.1, 0.9},                  // edge count + cell noise
		"PrivGraph": {1.0 / 3, 1.0 / 3, 1.0 / 3}, // community + degrees + inter
		"PrivHRG":   {0.5, 0.5},                  // structure + counts
		"PrivSKG":   {1.0 / 3, 1.0 / 3, 1.0 / 3}, // three moments
		"DPdK-2K":   {0.1, 0.9},                  // edge anchor + JDM noise
		"DGG":       {1.0},                       // single Laplace
		"LDPGen":    {0.5, 0.5},                  // two phases
	}
	for _, eps := range budgets {
		//pgb:deterministic each split gets a fresh accountant; iterations share no state
		for name, fracs := range splits {
			acct := dp.NewAccountant(eps)
			spent := 0.0
			for i, f := range fracs {
				if err := acct.Spend(f * eps); err != nil {
					t.Errorf("%s at eps=%g: stage %d over-spent: %v", name, eps, i, err)
				}
				spent += f * eps
			}
			if spent > eps*(1+1e-9) {
				t.Errorf("%s at eps=%g: total spent %g exceeds budget", name, eps, spent)
			}
		}
	}
}

// Utility-recovery: at a very large budget every mechanism's noise
// vanishes, so the synthetic edge count should converge toward the true
// one. This is the complement of the budget test — it confirms the noise
// actually scales with 1/ε rather than being mis-wired.
func TestUtilityRecoveryAtLargeBudget(t *testing.T) {
	g := gen.PlantedPartition(120, 3, 0.4, 0.02, rand.New(rand.NewSource(1)))
	m := float64(g.M())
	for _, a := range generators() {
		// average over reps to smooth single-run variance
		var sum float64
		const reps = 4
		for rep := int64(0); rep < reps; rep++ {
			syn, err := a.Generate(g, 1000, rand.New(rand.NewSource(rep)), algo.Params{})
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			sum += float64(syn.M())
		}
		mean := sum / reps
		tol := 0.3
		if a.Name() == "DER" || a.Name() == "DP-dK" || a.Name() == "PrivHRG" {
			tol = 0.6 // coarser constructions
		}
		if mean < m*(1-tol) || mean > m*(1+tol) {
			t.Errorf("%s at eps=1000: mean edges %.0f, true %0.f (tol %g)", a.Name(), mean, m, tol)
		}
	}
}
