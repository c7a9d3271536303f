package core

import (
	"math/rand"
	"testing"

	"pgb/internal/algo"
	"pgb/internal/datasets"
)

// Integration: the benchmark's central premise — utility improves as the
// privacy budget grows. Tested per algorithm on one clustered dataset by
// comparing the mean error over headline queries at ε = 0.1 vs ε = 50
// (averaged over repetitions; generous margin since single queries are
// noisy at any fixed seed).
func TestEpsilonMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	spec, err := datasets.ByName("Facebook")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Load(0.04, 3)
	truth := ComputeProfileSeeded(g, ProfileOptions{}, rand.New(rand.NewSource(4)).Int63())
	queries := []QueryID{QNumEdges, QAvgDegree, QDegreeDistribution, QGlobalClustering}
	const reps = 3
	meanErr := func(algName string, eps float64) float64 {
		alg, err := NewAlgorithm(algName)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for rep := int64(0); rep < reps; rep++ {
			r := rand.New(rand.NewSource(100 + rep))
			syn, err := alg.Generate(g, eps, r, algo.Params{})
			if err != nil {
				t.Fatalf("%s: %v", algName, err)
			}
			prof := ComputeProfileSeeded(syn, ProfileOptions{}, r.Int63())
			for _, q := range queries {
				v, _ := Score(q, truth, prof)
				total += v
			}
		}
		return total / float64(reps*len(queries))
	}
	for _, algName := range AlgorithmNames() {
		lo := meanErr(algName, 0.1)
		hi := meanErr(algName, 50)
		// generous: high budget should not be meaningfully worse. PrivHRG
		// gets extra slack — its accuracy is bounded by how well the MCMC
		// dendrogram fits the graph, not by the noise level, and the paper
		// itself reports its "mixed performance" across settings.
		margin := lo*1.5 + 0.05
		if algName == "PrivHRG" {
			margin = lo*2.5 + 0.2
		}
		if hi > margin {
			t.Errorf("%s: error at eps=50 (%.3f) worse than at eps=0.1 (%.3f)", algName, hi, lo)
		}
	}
}

// Integration: the full pipeline through the extension mechanisms — the
// Remark-4 Edge-LDP algorithms run under the same harness.
func TestExtensionsThroughHarness(t *testing.T) {
	cfg := Config{
		Algorithms: []string{"DGG", "LDPGen", "RNL"},
		Datasets:   []string{"BA"},
		Epsilons:   []float64{2},
		Reps:       1,
		Scale:      0.02,
		Seed:       8,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Algorithm, c.Err)
		}
	}
	// Definition 5 still sums to 15 with extension mechanisms present
	counts := res.BestCounts7()
	total := 0
	for _, alg := range cfg.Algorithms {
		total += counts[2]["BA"][alg]
	}
	if total < NumQueries || total > NumQueries*len(cfg.Algorithms) {
		t.Fatalf("best counts sum to %d", total)
	}
}

// Integration: centralised DGG should dominate its own local ancestor
// (LDPGen) and the RNL baseline at moderate ε on edge count — the
// CDP-vs-LDP utility gap the paper's M1 principle is about.
func TestCDPBeatsLDPOnEdgeCount(t *testing.T) {
	spec, err := datasets.ByName("Facebook")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Load(0.04, 5)
	truth := ComputeProfileSeeded(g, ProfileOptions{}, rand.New(rand.NewSource(6)).Int63())
	errOf := func(name string) float64 {
		alg, err := NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for rep := int64(0); rep < 3; rep++ {
			r := rand.New(rand.NewSource(50 + rep))
			syn, err := alg.Generate(g, 1, r, algo.Params{})
			if err != nil {
				t.Fatal(err)
			}
			prof := ComputeProfileSeeded(syn, ProfileOptions{}, r.Int63())
			v, _ := Score(QNumEdges, truth, prof)
			sum += v
		}
		return sum / 3
	}
	dggErr := errOf("DGG")
	rnlErr := errOf("RNL")
	if dggErr >= rnlErr {
		t.Errorf("DGG |E| error %.3f not below RNL %.3f at eps=1", dggErr, rnlErr)
	}
}
