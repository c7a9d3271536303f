package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/metrics"
	"pgb/internal/par"
)

// legacyScore is a verbatim copy of the 15-way switch the registry
// replaced. It pins the registry to the pre-refactor scoring behavior:
// any divergence between the two is a regression in the registry table.
func legacyScore(q QueryID, truth, syn *Profile) (float64, bool) {
	switch q {
	case QNumNodes:
		return metrics.RelativeError(truth.NumNodes, syn.NumNodes), false
	case QNumEdges:
		return metrics.RelativeError(truth.NumEdges, syn.NumEdges), false
	case QTriangles:
		return metrics.RelativeError(truth.Triangles, syn.Triangles), false
	case QAvgDegree:
		return metrics.RelativeError(truth.AvgDegree, syn.AvgDegree), false
	case QDegreeVariance:
		return metrics.RelativeError(truth.DegreeVariance, syn.DegreeVariance), false
	case QDegreeDistribution:
		return metrics.KLDivergence(truth.DegreeDist, syn.DegreeDist), false
	case QDiameter:
		return metrics.RelativeError(truth.Diameter, syn.Diameter), false
	case QAvgPath:
		return metrics.RelativeError(truth.AvgPath, syn.AvgPath), false
	case QDistanceDistribution:
		return metrics.KLDivergence(truth.DistanceDist, syn.DistanceDist), false
	case QGlobalClustering:
		return metrics.RelativeError(truth.GCC, syn.GCC), false
	case QAvgClustering:
		return metrics.RelativeError(truth.ACC, syn.ACC), false
	case QCommunityDetection:
		return metrics.NMI(truth.CommunityLabels, syn.CommunityLabels), true
	case QModularity:
		return metrics.RelativeError(truth.Modularity, syn.Modularity), false
	case QAssortativity:
		return metrics.RelativeError(truth.Assortativity, syn.Assortativity), false
	case QEigenvectorCentrality:
		return metrics.MeanAbsoluteError(truth.EVC, syn.EVC), false
	}
	panic(fmt.Sprintf("unknown query %d", int(q)))
}

// legacyScalarValues is the pre-refactor scalar-extraction switch from
// the public facade.
func legacyScalarValues(q QueryID, t, s *Profile) (float64, float64) {
	switch q {
	case QNumNodes:
		return t.NumNodes, s.NumNodes
	case QNumEdges:
		return t.NumEdges, s.NumEdges
	case QTriangles:
		return t.Triangles, s.Triangles
	case QAvgDegree:
		return t.AvgDegree, s.AvgDegree
	case QDegreeVariance:
		return t.DegreeVariance, s.DegreeVariance
	case QDiameter:
		return t.Diameter, s.Diameter
	case QAvgPath:
		return t.AvgPath, s.AvgPath
	case QGlobalClustering:
		return t.GCC, s.GCC
	case QAvgClustering:
		return t.ACC, s.ACC
	case QModularity:
		return t.Modularity, s.Modularity
	case QAssortativity:
		return t.Assortativity, s.Assortativity
	default:
		return 0, 0
	}
}

func TestRegistryParityWithLegacySwitch(t *testing.T) {
	truthGraph := gen.PlantedPartition(150, 5, 0.35, 0.03, rng(11))
	synGraph := gen.GNM(150, truthGraph.M(), rng(12))
	truth := ComputeProfileSeeded(truthGraph, ProfileOptions{Workers: 1}, 21)
	syn := ComputeProfileSeeded(synGraph, ProfileOptions{Workers: 1}, 22)

	wantSymbol := map[QueryID]string{
		QNumNodes: "|V|", QNumEdges: "|E|", QTriangles: "Tri", QAvgDegree: "d_avg",
		QDegreeVariance: "d_var", QDegreeDistribution: "DegDist", QDiameter: "Diam",
		QAvgPath: "AvgPath", QDistanceDistribution: "DistDist", QGlobalClustering: "GCC",
		QAvgClustering: "ACC", QCommunityDetection: "CD", QModularity: "Mod",
		QAssortativity: "Ass", QEigenvectorCentrality: "EVC",
	}
	wantMetric := map[QueryID]string{
		QDegreeDistribution: "KL", QDistanceDistribution: "KL",
		QCommunityDetection: "NMI", QEigenvectorCentrality: "MAE",
	}
	for _, q := range AllQueries() {
		if q.String() != wantSymbol[q] {
			t.Errorf("query %d symbol = %q, want %q", int(q), q.String(), wantSymbol[q])
		}
		want := wantMetric[q]
		if want == "" {
			want = "RE"
		}
		if q.Metric() != want {
			t.Errorf("%s metric = %q, want %q", q, q.Metric(), want)
		}

		gotV, gotH := Score(q, truth, syn)
		wantV, wantH := legacyScore(q, truth, syn)
		if gotV != wantV || gotH != wantH {
			t.Errorf("%s: Score = (%g, %t), legacy switch = (%g, %t)", q, gotV, gotH, wantV, wantH)
		}
		if q.HigherBetter() != wantH {
			t.Errorf("%s: HigherBetter = %t, want %t", q, q.HigherBetter(), wantH)
		}

		gotT, gotS, ok := ScalarValues(q, truth, syn)
		wantT, wantS := legacyScalarValues(q, truth, syn)
		if !ok {
			gotT, gotS = 0, 0 // facade renders distributions as 0, as before
		}
		if gotT != wantT || gotS != wantS {
			t.Errorf("%s: ScalarValues = (%g, %g), legacy = (%g, %g)", q, gotT, gotS, wantT, wantS)
		}
	}
}

// TestComputeProfileParallelMatchesSerial pins the worker-pool execution
// to the serial one: per-pass RNG streams are derived from the seed, so
// scheduling must not change any value. The graph exceeds the exact-BFS
// limit so the sampled (RNG-consuming) distance path is exercised.
func TestComputeProfileParallelMatchesSerial(t *testing.T) {
	g := gen.PlantedPartition(2500, 8, 0.02, 0.002, rng(31))
	if g.N() <= 2000 {
		t.Fatal("test graph must exceed the exact-BFS limit")
	}
	opt := ProfileOptions{}
	serial := opt
	serial.Workers = 1

	want := ComputeProfileSeeded(g, serial, 77)
	for trial := 0; trial < 3; trial++ {
		got := ComputeProfileSeeded(g, opt, 77)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: parallel profile diverges from serial result", trial)
		}
	}
	if reflect.DeepEqual(ComputeProfileSeeded(g, serial, 78).DistanceDist, want.DistanceDist) {
		t.Log("note: distance sampling insensitive to seed on this graph")
	}
}

// TestComputeProfileWorkerCountInvariant extends the parallel-matches-
// serial pin down into the sharded kernels: every worker count, with and
// without an externally shared budget, must reproduce the serial profile
// bit for bit — triangle counts, the clustering coefficients, and the
// sampled-BFS distance distribution included (DESIGN.md §2).
func TestComputeProfileWorkerCountInvariant(t *testing.T) {
	g := gen.PlantedPartition(2500, 8, 0.02, 0.002, rng(33))
	if g.N() <= 2000 {
		t.Fatal("test graph must exceed the exact-BFS limit")
	}
	base := ProfileOptions{}
	serial := base
	serial.Workers = 1
	want := ComputeProfileSeeded(g, serial, 99)
	for _, workers := range []int{1, 2, 8} {
		opt := base
		opt.Workers = workers
		if got := ComputeProfileSeeded(g, opt, 99); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: profile diverges from serial", workers)
		}
		opt.Budget = par.NewBudget(workers - 1)
		if got := ComputeProfileSeeded(g, opt, 99); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d with shared budget: profile diverges from serial", workers)
		}
	}
}

func TestComputeProfileSubsetSkipsGroups(t *testing.T) {
	g := gen.GNM(300, 900, rng(41))
	p := ComputeProfileSeeded(g, ProfileOptions{Queries: []QueryID{QNumEdges, QAvgDegree}}, 5)
	if p.NumEdges != 900 {
		t.Fatalf("NumEdges = %g", p.NumEdges)
	}
	if p.CommunityLabels != nil || p.EVC != nil || p.DistanceDist != nil {
		t.Fatal("unselected compute groups ran")
	}
	if p.Triangles != 0 || p.GCC != 0 {
		t.Fatal("triangle pass ran despite no triangle queries selected")
	}
}

func TestProfileCacheMemoizes(t *testing.T) {
	g := gen.GNM(200, 600, rng(51))
	opt := ProfileOptions{}
	a := ComputeProfileCached(g, opt, 9)
	b := ComputeProfileCached(g, opt, 9)
	if a != b {
		t.Fatal("identical (graph, options, seed) not memoized")
	}
	if c := ComputeProfileCached(g, opt, 10); c == a {
		t.Fatal("different seed must not share a cache entry")
	}
	if d := ComputeProfileCached(g, ProfileOptions{ExactDiameter: true}, 9); d == a {
		t.Fatal("different options must not share a cache entry")
	}
	g2 := gen.GNM(200, 600, rng(52))
	if g2.Fingerprint() != g.Fingerprint() {
		if e := ComputeProfileCached(g2, opt, 9); e == a {
			t.Fatal("different graph must not share a cache entry")
		}
	}
}

func TestRegisterCustomQuery(t *testing.T) {
	id, err := RegisterQuery(QuerySpec{
		Symbol: "TestMaxDeg",
		Compute: func(g *graph.Graph, _ ProfileOptions, _ *rand.Rand) float64 {
			return float64(g.MaxDegree())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if id <= NumQueries {
		t.Fatalf("custom id = %d, want > %d", id, NumQueries)
	}
	if _, err := RegisterQuery(QuerySpec{Symbol: "testmaxdeg", Compute: func(*graph.Graph, ProfileOptions, *rand.Rand) float64 { return 0 }}); err == nil {
		t.Fatal("case-insensitive duplicate symbol accepted")
	}
	if _, err := RegisterQuery(QuerySpec{Symbol: "NoCompute"}); err == nil {
		t.Fatal("registration without Compute accepted")
	}

	g := gen.GNM(100, 300, rng(61))
	p := ComputeProfileSeeded(g, ProfileOptions{Queries: []QueryID{id}}, 3)
	if got := p.Custom[id]; got != float64(g.MaxDegree()) {
		t.Fatalf("custom query value = %g, want %d", got, g.MaxDegree())
	}
	v, higher := Score(id, p, p)
	if v != 0 || higher {
		t.Fatalf("custom self-score = (%g, %t), want (0, false)", v, higher)
	}

	qs, err := ParseQueries([]string{"testMAXdeg", "CD"})
	if err != nil || len(qs) != 2 || qs[0] != id || qs[1] != QCommunityDetection {
		t.Fatalf("ParseQueries = %v, %v", qs, err)
	}
	if _, err := ParseQueries([]string{"nope"}); err == nil {
		t.Fatal("unknown symbol accepted")
	}
}

// TestRunWithQuerySubsetAndCustomQuery drives the registry through the
// full grid: a config restricted to two built-ins plus a custom query
// must produce cells, tables, and CSV rows for exactly that selection.
func TestRunWithQuerySubsetAndCustomQuery(t *testing.T) {
	id, err := RegisterQuery(QuerySpec{
		Symbol: "TestDensity",
		Compute: func(g *graph.Graph, _ ProfileOptions, _ *rand.Rand) float64 {
			return g.Density()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Queries = []QueryID{QNumEdges, QAvgClustering, id}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Fatalf("%s/%s: %v", c.Algorithm, c.Dataset, c.Err)
		}
		if len(c.Errors) != 3 || len(c.Queries) != 3 {
			t.Fatalf("cell evaluated %d queries, want 3", len(c.Errors))
		}
		if _, ok := c.ErrorFor(id); !ok {
			t.Fatal("custom query missing from cell")
		}
		if _, ok := c.ErrorFor(QDiameter); ok {
			t.Fatal("unselected query present in cell")
		}
	}
	//pgb:deterministic each formatter output is checked independently
	for name, out := range map[string]string{
		"table7":  res.FormatTable7(),
		"table12": res.FormatTable12(),
	} {
		if len(out) < 40 {
			t.Fatalf("%s output too short:\n%s", name, out)
		}
	}
	if got := res.FormatTable12(); !strings.Contains(got, "TestDensity") {
		t.Fatalf("table12 missing custom query column:\n%s", got)
	}

	bad := smallConfig()
	bad.Queries = []QueryID{QueryID(9999)}
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown query id accepted by Run")
	}
}
