package privskg

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/gen"
	"pgb/internal/stats"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDelta(t *testing.T) {
	if delta != 0.01 {
		t.Fatalf("delta = %g, want 0.01", delta)
	}
}

func TestEdgeCountTracking(t *testing.T) {
	g := gen.GNM(256, 1000, rng(1))
	syn, err := Default().Generate(g, 10, rng(2), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.3*float64(g.M()) {
		t.Fatalf("m = %d vs true %d", syn.M(), g.M())
	}
}

func TestPowerLawInputKeepsSkew(t *testing.T) {
	g := gen.BarabasiAlbert(512, 4, rng(3))
	syn, err := Default().Generate(g, 5, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Kronecker graphs are skewed: max degree must exceed 2× average
	if float64(syn.MaxDegree()) < 2*stats.AvgDegree(syn) {
		t.Fatalf("no skew: max %d vs avg %g", syn.MaxDegree(), stats.AvgDegree(syn))
	}
}

func TestSmallBudgetStillRuns(t *testing.T) {
	g := gen.GNM(128, 400, rng(6))
	syn, err := Default().Generate(g, 0.1, rng(7), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Validate(); err != nil {
		t.Fatal(err)
	}
}
