package core

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/metrics"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestQueryMetadata(t *testing.T) {
	if len(AllQueries()) != 15 {
		t.Fatalf("queries = %d, want 15", len(AllQueries()))
	}
	wantMetric := map[QueryID]string{
		QDegreeDistribution:    "KL",
		QDistanceDistribution:  "KL",
		QCommunityDetection:    "NMI",
		QEigenvectorCentrality: "MAE",
		QNumEdges:              "RE",
	}
	//pgb:deterministic pure per-query assertions; iterations share no state
	for q, m := range wantMetric {
		if q.Metric() != m {
			t.Errorf("%s metric = %s, want %s", q, q.Metric(), m)
		}
	}
	seen := map[string]bool{}
	for _, q := range AllQueries() {
		if q.String() == "" || seen[q.String()] {
			t.Fatalf("query %d has empty or duplicate symbol", q)
		}
		seen[q.String()] = true
	}
}

func TestProfileSelfScoreIsPerfect(t *testing.T) {
	g := gen.PlantedPartition(120, 4, 0.4, 0.02, rng(1))
	p := ComputeProfileSeeded(g, ProfileOptions{}, rng(2).Int63())
	for _, q := range AllQueries() {
		v, higher := Score(q, p, p)
		if higher {
			if v < 1-1e-9 {
				t.Errorf("%s self-NMI = %g, want 1", q, v)
			}
		} else if v > 1e-6 {
			t.Errorf("%s self-error = %g, want 0", q, v)
		}
	}
	if metrics.NMI(p.CommunityLabels, p.CommunityLabels) != 1 || metrics.RelativeError(p.NumEdges, p.NumEdges) != 0 {
		t.Fatal("NMI/RE identity check failed")
	}
}

func TestProfileValues(t *testing.T) {
	g := gen.GNM(200, 800, rng(3))
	p := ComputeProfileSeeded(g, ProfileOptions{}, rng(4).Int63())
	if p.NumEdges != 800 {
		t.Fatalf("edges = %g", p.NumEdges)
	}
	if math.Abs(p.AvgDegree-8) > 1e-9 {
		t.Fatalf("avg degree = %g, want 8", p.AvgDegree)
	}
	if p.Diameter <= 0 || p.AvgPath <= 0 {
		t.Fatal("path stats missing")
	}
	if len(p.CommunityLabels) != 200 || len(p.EVC) != 200 {
		t.Fatal("vector stats wrong length")
	}
}

// The auto distance mode runs exact BFS up to exactPathLimit nodes and
// sampled BFS above it, bit for bit.
func TestProfileAutoDistanceMode(t *testing.T) {
	dist := func(g *graph.Graph, mode DistanceMode) *Profile {
		opt := ProfileOptions{Queries: []QueryID{QDiameter, QAvgPath, QDistanceDistribution}, DistanceMode: mode}
		return ComputeProfileSeeded(g, opt, 7)
	}
	for _, tc := range []struct {
		n    int
		want DistanceMode
	}{{exactPathLimit, DistanceExact}, {exactPathLimit + 1, DistanceSampled}} {
		g := gen.GNM(tc.n, 3*tc.n, rng(5))
		if got, want := dist(g, DistanceAuto), dist(g, tc.want); !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d: auto profile differs from the %s profile", tc.n, tc.want)
		}
		if reflect.DeepEqual(dist(g, DistanceExact), dist(g, DistanceSampled)) {
			t.Fatalf("n=%d: exact and sampled profiles coincide; the test cannot tell the modes apart", tc.n)
		}
	}
}

func TestRegistry(t *testing.T) {
	if len(AlgorithmNames()) != 6 {
		t.Fatalf("algorithms = %v", AlgorithmNames())
	}
	for _, n := range append(AlgorithmNames(), "DER") {
		if _, err := NewAlgorithm(n); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := NewAlgorithm("bogus"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestEpsilonsMatchPaper(t *testing.T) {
	want := []float64{0.1, 0.5, 1, 2, 5, 10}
	got := Epsilons()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eps grid %v", got)
		}
	}
}

func smallConfig() Config {
	return Config{
		Algorithms: []string{"TmF", "DGG"},
		Datasets:   []string{"ER", "Facebook"},
		Epsilons:   []float64{0.5, 5},
		Reps:       1,
		Scale:      0.02,
		Seed:       11,
	}
}

func TestRunSmallGrid(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Fatalf("%s/%s: %v", c.Algorithm, c.Dataset, c.Err)
		}
		if c.GenSeconds <= 0 {
			t.Fatalf("no timing for %s/%s", c.Algorithm, c.Dataset)
		}
		for i, e := range c.Errors {
			if math.IsNaN(e) {
				t.Fatalf("%s/%s query %d: NaN", c.Algorithm, c.Dataset, i+1)
			}
		}
	}
	if len(res.DatasetSummaries) != 2 {
		t.Fatal("missing dataset summaries")
	}
}

func TestRunUnknownDataset(t *testing.T) {
	cfg := smallConfig()
	cfg.Datasets = []string{"nope"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBestCountsDefinitions(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Definition 5: per (dataset, eps) every query has at least one winner;
	// exact ties are credited to all best performers (as in the paper's
	// published tables), so the sum is >= 15 and bounded by 15·|M|.
	c7 := res.BestCounts7()
	for _, eps := range res.Config.Epsilons {
		for _, ds := range res.Config.Datasets {
			total := 0
			for _, alg := range res.Config.Algorithms {
				total += c7[eps][ds][alg]
			}
			if total < NumQueries || total > NumQueries*len(res.Config.Algorithms) {
				t.Fatalf("Definition 5 counts sum to %d for %s eps=%g", total, ds, eps)
			}
		}
	}
	// Definition 6: per query the counts cover all #datasets × #eps cases
	c12 := res.BestCounts12()
	cases := len(res.Config.Datasets) * len(res.Config.Epsilons)
	for _, q := range AllQueries() {
		total := 0
		for _, alg := range res.Config.Algorithms {
			total += c12[q][alg]
		}
		if total < cases || total > cases*len(res.Config.Algorithms) {
			t.Fatalf("Definition 6 counts sum to %d for %s", total, q)
		}
	}
}

func TestTableFormatters(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	//pgb:deterministic each formatter output is checked independently
	for name, s := range map[string]string{
		"table7":   res.FormatTable7(),
		"table12":  res.FormatTable12(),
		"table9":   res.FormatTable9(),
		"table10":  res.FormatTable10(),
		"datasets": res.FormatDatasets(),
		"fig2":     res.FormatFig2(),
		"table8":   FormatTable8(),
	} {
		if len(s) < 50 {
			t.Errorf("%s output suspiciously short:\n%s", name, s)
		}
	}
	if !strings.Contains(res.FormatTable7(), "TmF") {
		t.Fatal("table7 missing algorithm rows")
	}
	if !strings.Contains(FormatTable8(), "O(n^2)") {
		t.Fatal("table8 missing complexity entries")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		for q := range a.Cells[i].Errors {
			if a.Cells[i].Errors[q] != b.Cells[i].Errors[q] {
				t.Fatalf("run not deterministic at cell %d query %d", i, q)
			}
		}
	}
}

func TestVerifyDPdK(t *testing.T) {
	out, err := VerifyDPdK(0.05, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range verificationQueries() {
		if !strings.Contains(out, q) {
			t.Fatalf("verification output missing %s:\n%s", q, out)
		}
	}
}

// TestVerifyDPdKGolden pins Table XI's exact text.
// testdata/table11.golden was captured when the exact iFUB diameter
// was still a profile option; the table now computes it beside the
// profile and must print the same bytes.
func TestVerifyDPdKGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/table11.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyDPdK(0.05, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("VerifyDPdK drifted from testdata/table11.golden:\n%s\nwant:\n%s", got, want)
	}
}

// Table XI treats reps ≤ 0 as the default ten like every other -reps,
// instead of averaging over no repetitions and printing zeros.
func TestVerifyDPdKDefaultReps(t *testing.T) {
	want, err := VerifyDPdK(0.05, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, reps := range []int{0, -2} {
		got, err := VerifyDPdK(0.05, reps, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("VerifyDPdK(reps=%d) differs from reps=10:\n%s\nwant:\n%s", reps, got, want)
		}
	}
}

// TestFormatTable8Golden pins Table VIII's exact text: the six
// benchmarked rows of the mechanism table with their complexities.
// testdata/table8.golden was captured from the per-generator
// Complexity methods the table replaced.
func TestFormatTable8Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/table8.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatTable8(); got != string(want) {
		t.Fatalf("FormatTable8 drifted from testdata/table8.golden:\n%s\nwant:\n%s", got, want)
	}
}

func TestVerifyTmF(t *testing.T) {
	out, err := VerifyTmF(0.02, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DegDist") || !strings.Contains(out, "CD") {
		t.Fatalf("TmF verification output:\n%s", out)
	}
}

func TestVerifyPrivSKG(t *testing.T) {
	out, err := VerifyPrivSKG(0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "degree") || !strings.Contains(out, "generated") {
		t.Fatalf("PrivSKG verification output:\n%s", out)
	}
}

func TestFig7(t *testing.T) {
	out, err := Fig7(Config{Scale: 0.02, Reps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DER") || !strings.Contains(out, "PrivGraph") {
		t.Fatalf("fig7 output:\n%s", out)
	}
}

func TestFormatTypeAnalysis(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.FormatTypeAnalysis()
	if !strings.Contains(out, "Synthetic") || !strings.Contains(out, "Social") {
		t.Fatalf("type analysis missing domains:\n%s", out)
	}
}
