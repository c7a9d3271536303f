package privgraph

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/community"
	"pgb/internal/gen"
	"pgb/internal/metrics"
	"pgb/internal/stats"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSplitNormalisation(t *testing.T) {
	a := New(Options{Split: [3]float64{2, 1, 1}})
	sum := a.opt.Split[0] + a.opt.Split[1] + a.opt.Split[2]
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("split sums to %g", sum)
	}
	if math.Abs(a.opt.Split[0]-0.5) > 1e-12 {
		t.Fatalf("split[0] = %g, want 0.5", a.opt.Split[0])
	}
	d := Default()
	if math.Abs(d.opt.Split[0]-1.0/3) > 1e-12 {
		t.Fatal("default split should be equal thirds")
	}
}

func TestCommunityPreservation(t *testing.T) {
	g := gen.PlantedPartition(150, 3, 0.5, 0.01, rng(1))
	truth := community.Louvain(g, rng(2))
	syn, err := Default().Generate(g, 20, rng(3), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	det := community.Louvain(syn, rng(4))
	if nmi := metrics.NMI(truth.Labels, det.Labels); nmi < 0.3 {
		t.Fatalf("NMI = %g; PrivGraph should preserve planted communities at eps=20", nmi)
	}
}

func TestModularityRetention(t *testing.T) {
	g := gen.PlantedPartition(150, 4, 0.5, 0.02, rng(5))
	truthMod := community.Louvain(g, rng(6)).Modularity
	syn, err := Default().Generate(g, 10, rng(7), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	synMod := community.Louvain(syn, rng(8)).Modularity
	if math.Abs(truthMod-synMod) > 0.45 {
		t.Fatalf("modularity %g vs true %g", synMod, truthMod)
	}
}

func TestEdgeCountTracking(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.4, 0.03, rng(9))
	syn, err := Default().Generate(g, 20, rng(10), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.35*float64(g.M()) {
		t.Fatalf("m = %d vs true %d", syn.M(), g.M())
	}
}

func TestSmallEpsilonDegradesGracefully(t *testing.T) {
	g := gen.PlantedPartition(100, 3, 0.4, 0.02, rng(11))
	syn, err := Default().Generate(g, 0.1, rng(12), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Validate(); err != nil {
		t.Fatal(err)
	}
	if syn.M() == 0 {
		t.Fatal("no edges at eps=0.1")
	}
}

func TestRandomizeEdgesDensifiesAtLowEps(t *testing.T) {
	g := gen.GNM(100, 200, rng(13))
	noisy := randomizeEdges(g, 0.1, rng(14))
	// RR at eps=0.1 flips nearly half of everything; with the 4m cap the
	// noisy graph must still be substantially denser than the original
	if noisy.M() < 2*g.M() {
		t.Fatalf("RR graph m=%d; expected densification over %d", noisy.M(), g.M())
	}
	hi := randomizeEdges(g, 10, rng(15))
	if d := math.Abs(float64(hi.M() - g.M())); d > 0.2*float64(g.M()) {
		t.Fatalf("RR at eps=10 m=%d, want ≈%d", hi.M(), g.M())
	}
}

func TestDegreeShapeWithinCommunities(t *testing.T) {
	g := gen.PlantedPartition(150, 3, 0.5, 0.01, rng(16))
	syn, err := Default().Generate(g, 50, rng(17), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	ta, sa := stats.AvgDegree(g), stats.AvgDegree(syn)
	if math.Abs(ta-sa) > ta*0.35 {
		t.Fatalf("avg degree %g vs true %g", sa, ta)
	}
}
