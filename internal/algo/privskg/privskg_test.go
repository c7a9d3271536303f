package privskg

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/gen"
	"pgb/internal/stats"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestDelta(t *testing.T) {
	if Default().Delta() != 0.01 {
		t.Fatalf("delta = %g, want 0.01", Default().Delta())
	}
	if New(Options{Delta: 0.05}).Delta() != 0.05 {
		t.Fatal("custom delta ignored")
	}
}

func TestEdgeCountTracking(t *testing.T) {
	g := gen.GNM(256, 1000, rng(1))
	syn, err := Default().Generate(g, 10, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.3*float64(g.M()) {
		t.Fatalf("m = %d vs true %d", syn.M(), g.M())
	}
}

func TestPowerLawInputKeepsSkew(t *testing.T) {
	g := gen.BarabasiAlbert(512, 4, rng(3))
	syn, err := Default().Generate(g, 5, rng(4))
	if err != nil {
		t.Fatal(err)
	}
	// Kronecker graphs are skewed: max degree must exceed 2× average
	if float64(syn.MaxDegree()) < 2*stats.AvgDegree(syn) {
		t.Fatalf("no skew: max %d vs avg %g", syn.MaxDegree(), stats.AvgDegree(syn))
	}
}

func TestCountTrianglesMatchesStats(t *testing.T) {
	g := gen.GNM(100, 400, rng(5))
	if got, want := countTriangles(g), stats.TrianglesParallel(g, 1, nil); got != want {
		t.Fatalf("countTriangles = %g, stats = %g", got, want)
	}
}

func TestSmallBudgetStillRuns(t *testing.T) {
	g := gen.GNM(128, 400, rng(6))
	syn, err := Default().Generate(g, 0.1, rng(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Validate(); err != nil {
		t.Fatal(err)
	}
}
