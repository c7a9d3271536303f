package ldpgen

import (
	"math"
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/community"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/metrics"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	var vecs [][]float64
	for i := 0; i < 20; i++ {
		vecs = append(vecs, []float64{0, 0})
	}
	for i := 0; i < 20; i++ {
		vecs = append(vecs, []float64{100, 100})
	}
	assign := kmeans(vecs, 2, 20, rng(1), algo.Params{Workers: 1})
	for i := 1; i < 20; i++ {
		if assign[i] != assign[0] {
			t.Fatal("first cluster split")
		}
		if assign[20+i] != assign[20] {
			t.Fatal("second cluster split")
		}
	}
	if assign[0] == assign[20] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansDegenerate(t *testing.T) {
	vecs := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	assign := kmeans(vecs, 5, 10, rng(2), algo.Params{Workers: 1}) // k > n clamps
	if len(assign) != 3 {
		t.Fatalf("len = %d", len(assign))
	}
}

func TestGenerateValidAndSized(t *testing.T) {
	g := gen.PlantedPartition(200, 4, 0.3, 0.02, rng(3))
	a := Default()
	syn, err := a.Generate(g, 5, rng(4), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.Validate(); err != nil {
		t.Fatal(err)
	}
	if syn.N() != g.N() {
		t.Fatalf("n = %d", syn.N())
	}
	if d := math.Abs(float64(syn.M() - g.M())); d > 0.6*float64(g.M()) {
		t.Fatalf("m = %d vs true %d", syn.M(), g.M())
	}
}

func TestCommunitySignalAtHighBudget(t *testing.T) {
	g := gen.PlantedPartition(200, 2, 0.4, 0.005, rng(5))
	truth := community.Louvain(g, rng(6))
	syn, err := Default().Generate(g, 50, rng(7), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	det := community.Louvain(syn, rng(8))
	if nmi := metrics.NMI(truth.Labels, det.Labels); nmi < 0.1 {
		t.Fatalf("NMI = %g; LDPGen clustering lost all signal at eps=50", nmi)
	}
}

func TestTinyGraph(t *testing.T) {
	syn, err := Default().Generate(graph.New(2), 1, rng(9), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if syn.N() != 2 || syn.M() != 0 {
		t.Fatalf("tiny graph: n=%d m=%d", syn.N(), syn.M())
	}
}

func TestDeterminism(t *testing.T) {
	g := gen.PlantedPartition(100, 3, 0.3, 0.02, rng(10))
	a, err := Default().Generate(g, 2, rng(42), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Default().Generate(g, 2, rng(42), algo.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatalf("non-deterministic: %d vs %d", a.M(), b.M())
	}
}
