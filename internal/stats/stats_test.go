package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgb/internal/graph"
	"pgb/internal/par"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(7)) }

// k4 returns the complete graph on 4 nodes.
func k4() *graph.Graph {
	return graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
}

// path5 returns the path 0-1-2-3-4.
func path5() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
}

// star returns a star with c leaves.
func star(c int) *graph.Graph {
	edges := make([]graph.Edge, c)
	for i := 0; i < c; i++ {
		edges[i] = graph.Edge{U: 0, V: int32(i + 1)}
	}
	return graph.FromEdges(c+1, edges)
}

func TestNumNodesCountsNonIsolated(t *testing.T) {
	g := graph.FromEdges(10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if v := NumNodes(g); v != 4 {
		t.Fatalf("NumNodes = %g, want 4 (non-isolated)", v)
	}
}

func TestNumEdges(t *testing.T) {
	if v := NumEdges(k4()); v != 6 {
		t.Fatalf("NumEdges(K4) = %g, want 6", v)
	}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K4", k4(), 4},
		{"path", path5(), 0},
		{"star", star(5), 0},
		{"triangle", graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}), 1},
	}
	for _, c := range cases {
		if got, _, _ := TriangleProfileParallel(c.g, 1, nil); got != c.want {
			t.Errorf("TriangleProfileParallel(%s) = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestAvgDegree(t *testing.T) {
	if v := AvgDegree(k4()); v != 3 {
		t.Fatalf("AvgDegree(K4) = %g, want 3", v)
	}
	if v := AvgDegree(graph.New(0)); v != 0 {
		t.Fatalf("AvgDegree(empty) = %g, want 0", v)
	}
}

func TestDegreeVariance(t *testing.T) {
	if v := DegreeVariance(k4()); v != 0 {
		t.Fatalf("DegreeVariance(K4) = %g, want 0 (regular)", v)
	}
	// star(3): degrees 3,1,1,1; mean 1.5; var = (2.25+0.25*3)/4 = 0.75
	if v := DegreeVariance(star(3)); math.Abs(v-0.75) > 1e-12 {
		t.Fatalf("DegreeVariance(star3) = %g, want 0.75", v)
	}
}

func TestDegreeDistribution(t *testing.T) {
	d := DegreeDistribution(star(3))
	// degrees: one node 3, three nodes 1 → P(1)=0.75, P(3)=0.25
	if math.Abs(d[1]-0.75) > 1e-12 || math.Abs(d[3]-0.25) > 1e-12 {
		t.Fatalf("distribution = %v", d)
	}
	sum := 0.0
	for _, p := range d {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distribution sums to %g", sum)
	}
}

func TestExactDistancesPath(t *testing.T) {
	ds := ExactDistancesParallel(path5(), 1, nil)
	if ds.Diameter != 4 {
		t.Fatalf("diameter = %g, want 4", ds.Diameter)
	}
	// avg shortest path of P5: Σd over ordered pairs / pairs = 2
	if math.Abs(ds.AvgPath-2) > 1e-12 {
		t.Fatalf("avg path = %g, want 2", ds.AvgPath)
	}
	sum := 0.0
	for _, p := range ds.Distribution {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distance distribution sums to %g", sum)
	}
}

func TestDistancesDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	ds := ExactDistancesParallel(g, 1, nil)
	if ds.Diameter != 1 {
		t.Fatalf("diameter = %g, want 1 (finite pairs only)", ds.Diameter)
	}
}

func TestSampledDistancesApproximatesExact(t *testing.T) {
	r := rng()
	// ring of 100 nodes: diameter 50, avg ~25
	edges := make([]graph.Edge, 100)
	for i := 0; i < 100; i++ {
		edges[i] = graph.Canon(int32(i), int32((i+1)%100))
	}
	g := graph.FromEdges(100, edges)
	exact := ExactDistancesParallel(g, 1, nil)
	sampled := SampledDistancesParallel(g, 30, r, 1, nil)
	if sampled.Diameter > exact.Diameter {
		t.Fatalf("sampled diameter %g exceeds exact %g", sampled.Diameter, exact.Diameter)
	}
	if math.Abs(sampled.AvgPath-exact.AvgPath) > 2 {
		t.Fatalf("sampled avg %g too far from exact %g", sampled.AvgPath, exact.AvgPath)
	}
}

// Sampling at least as many sources as the graph has nodes falls back
// to the exact sweep.
func TestDistancesSwitchesModes(t *testing.T) {
	g := path5()
	exact := ExactDistancesParallel(g, 1, nil)
	got := SampledDistancesParallel(g, 10, rng(), 1, nil)
	assertDistanceStatsEqual(t, "sampled above n", 1, got, exact)
	if got.Diameter != 4 {
		t.Fatal("exact mode should be used when samples cover every node")
	}
}

// globalClustering is Q10 as the profile forms it.
func globalClustering(g *graph.Graph) float64 {
	tri, wedges, _ := TriangleProfileParallel(g, 1, nil)
	return GlobalClusteringFrom(tri, wedges)
}

// avgClustering is Q11 as the profile reads it.
func avgClustering(g *graph.Graph) float64 {
	_, _, acc := TriangleProfileParallel(g, 1, nil)
	return acc
}

func TestGlobalClustering(t *testing.T) {
	if v := globalClustering(k4()); math.Abs(v-1) > 1e-12 {
		t.Fatalf("GCC(K4) = %g, want 1", v)
	}
	if v := globalClustering(star(5)); v != 0 {
		t.Fatalf("GCC(star) = %g, want 0", v)
	}
	// triangle plus pendant: 3 triangles*3=3... wedges: deg 2,2,3,1 →
	// 1+1+3+0 = 5; GCC = 3·1/5 = 0.6
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	if v := globalClustering(g); math.Abs(v-0.6) > 1e-12 {
		t.Fatalf("GCC = %g, want 0.6", v)
	}
}

func TestLocalAndAvgClustering(t *testing.T) {
	if v := avgClustering(k4()); math.Abs(v-1) > 1e-12 {
		t.Fatalf("ACC(K4) = %g, want 1", v)
	}
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	cc := LocalClusteringParallel(g, 1, nil)
	// node 2 has neighbors {0,1,3}; edges among them: {0,1} → 2/6... C = 2·1/(3·2) = 1/3
	if math.Abs(cc[2]-1.0/3) > 1e-12 {
		t.Fatalf("C(2) = %g, want 1/3", cc[2])
	}
	if cc[3] != 0 {
		t.Fatalf("C(3) = %g, want 0 (degree 1)", cc[3])
	}
}

func TestModularityTwoCliques(t *testing.T) {
	// two triangles joined by one edge
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	})
	good := Modularity(g, []int{0, 0, 0, 1, 1, 1})
	bad := Modularity(g, []int{0, 1, 0, 1, 0, 1})
	if good <= bad {
		t.Fatalf("true partition modularity %g should beat scrambled %g", good, bad)
	}
	if good < 0.3 {
		t.Fatalf("two-clique modularity = %g, want > 0.3", good)
	}
}

func TestModularitySingleCommunityIsZero(t *testing.T) {
	g := k4()
	if v := Modularity(g, []int{0, 0, 0, 0}); math.Abs(v) > 1e-12 {
		t.Fatalf("single-community modularity = %g, want 0", v)
	}
}

func TestAssortativity(t *testing.T) {
	// star: perfectly disassortative → -1
	if v := Assortativity(star(5)); math.Abs(v+1) > 1e-9 {
		t.Fatalf("Assortativity(star) = %g, want -1", v)
	}
	// regular graph: degenerate denominator → 0 by convention
	if v := Assortativity(k4()); v != 0 {
		t.Fatalf("Assortativity(K4) = %g, want 0", v)
	}
}

func TestEigenvectorCentralityStar(t *testing.T) {
	evc := EigenvectorCentrality(star(4), 200, 1e-12)
	// center strictly larger than all leaves; leaves equal
	for i := 2; i <= 4; i++ {
		if math.Abs(evc[i]-evc[1]) > 1e-6 {
			t.Fatalf("leaf centralities differ: %v", evc)
		}
	}
	if evc[0] <= evc[1] {
		t.Fatalf("center %g not above leaf %g", evc[0], evc[1])
	}
	// L2 norm 1
	norm := 0.0
	for _, v := range evc {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("EVC norm² = %g, want 1", norm)
	}
}

func TestEigenvectorCentralityEmpty(t *testing.T) {
	evc := EigenvectorCentrality(graph.New(3), 10, 0)
	if len(evc) != 3 {
		t.Fatalf("len = %d", len(evc))
	}
}

// refEVC is EigenvectorCentrality the slow way: power iteration on A+I
// over a dense adjacency matrix. Each y[v] starts from the identity term
// x[v] and adds x[u] for every neighbor u in ascending order, the
// kernel's summation order, so the two must agree bit for bit.
func refEVC(g *graph.Graph, iterations int, tol float64) []float64 {
	n := g.N()
	adj := make([][]bool, n)
	for u := range adj {
		adj[u] = make([]bool, n)
	}
	for _, e := range g.Edges() {
		adj[e.U][e.V], adj[e.V][e.U] = true, true
	}
	x := make([]float64, n)
	if n == 0 {
		return x
	}
	if iterations <= 0 {
		iterations = 100
	}
	if tol <= 0 {
		tol = 1e-10
	}
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	for it := 0; it < iterations; it++ {
		y := make([]float64, n)
		for v := range y {
			y[v] = x[v]
			for u := 0; u < n; u++ {
				if adj[u][v] {
					y[v] += x[u]
				}
			}
		}
		norm := 0.0
		for _, yv := range y {
			norm += yv * yv
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return x
		}
		diff := 0.0
		for i := range y {
			y[i] /= norm
			diff += math.Abs(y[i] - x[i])
		}
		x = y
		if diff < tol {
			break
		}
	}
	return x
}

// FuzzEVCMatchesReference: on byte-derived graphs of up to 200 nodes,
// any iteration cap and tolerance (0 selects the defaults),
// EigenvectorCentrality equals the dense power iteration bit for bit.
func FuzzEVCMatchesReference(f *testing.F) {
	for _, c := range degenerateGraphs() {
		f.Add(encodeGraph(c.g), uint8(60), uint8(0))
	}
	f.Add(encodeGraph(k4()), uint8(0), uint8(12))
	f.Add(encodeGraph(star(9)), uint8(7), uint8(3))
	f.Add(encodeGraph(randomGraph(5, 65)), uint8(60), uint8(0))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, iterations, tolExp uint8) {
		g := decodeGraph(data)
		tol := 0.0
		if e := tolExp % 16; e > 0 {
			tol = math.Pow(10, -float64(e))
		}
		got, want := EigenvectorCentrality(g, int(iterations%130), tol), refEVC(g, int(iterations%130), tol)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d values, want %d", g.N(), len(got), len(want))
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("n=%d m=%d iterations=%d tol=%g: EVC[%d] = %v, reference %v", g.N(), g.M(), iterations%130, tol, v, got[v], want[v])
			}
		}
	})
}

// randomGraph builds a moderately sized graph with both clustered and
// heavy-tail structure so parallel shards are non-trivial.
func randomGraph(seed int64, n int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < 4*n; i++ {
		edges = append(edges, graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
	}
	// plant some triangles so the triangle kernel has real work
	for i := 0; i < n/2; i++ {
		u, v, w := int32(r.Intn(n)), int32(r.Intn(n)), int32(r.Intn(n))
		edges = append(edges, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: w}, graph.Edge{U: u, V: w})
	}
	return graph.FromEdges(n, edges)
}

// Parallel triangle counting and clustering must be bit-identical to
// serial at every worker count, with and without a shared budget
// (the DESIGN.md §2 kernel determinism contract).
func TestTrianglesAndClusteringParallelMatchSerial(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomGraph(seed, 300)
		wantCC := LocalClusteringParallel(g, 1, nil)
		wantTri, wantWedges, wantACC := TriangleProfileParallel(g, 1, nil)
		// ACC is the mean of the local coefficients, reduced in node order.
		sum := 0.0
		for _, c := range wantCC {
			sum += c
		}
		if mean := sum / float64(len(wantCC)); mean != wantACC {
			t.Fatalf("seed %d: ACC %g != mean local coefficient %g", seed, wantACC, mean)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []*par.Budget{nil, par.NewBudget(workers - 1)} {
				cc := LocalClusteringParallel(g, workers, budget)
				for u := range cc {
					if cc[u] != wantCC[u] {
						t.Fatalf("seed %d workers %d: cc[%d] %g != serial %g", seed, workers, u, cc[u], wantCC[u])
					}
				}
				tri, wedges, acc := TriangleProfileParallel(g, workers, budget)
				if tri != wantTri || wedges != wantWedges || acc != wantACC {
					t.Fatalf("seed %d workers %d: triangle profile (%g, %g, %g) != serial (%g, %g, %g)",
						seed, workers, tri, wedges, acc, wantTri, wantWedges, wantACC)
				}
			}
		}
	}
}

// Parallel BFS sweeps (exact and sampled) must be bit-identical to
// serial at every worker count, including the distance distribution.
func TestDistancesParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		g := randomGraph(seed, 250)
		wantExact := ExactDistancesParallel(g, 1, nil)
		wantSampled := SampledDistancesParallel(g, 40, rand.New(rand.NewSource(99)), 1, nil)
		for _, workers := range []int{1, 2, 8} {
			got := ExactDistancesParallel(g, workers, nil)
			assertDistanceStatsEqual(t, "exact", workers, got, wantExact)
			got = SampledDistancesParallel(g, 40, rand.New(rand.NewSource(99)), workers, par.NewBudget(workers-1))
			assertDistanceStatsEqual(t, "sampled", workers, got, wantSampled)
		}
	}
}

func assertDistanceStatsEqual(t *testing.T, mode string, workers int, got, want DistanceStats) {
	t.Helper()
	if got.Diameter != want.Diameter || got.AvgPath != want.AvgPath {
		t.Fatalf("%s workers %d: (diam, avg) = (%g, %g), want (%g, %g)",
			mode, workers, got.Diameter, got.AvgPath, want.Diameter, want.AvgPath)
	}
	if len(got.Distribution) != len(want.Distribution) {
		t.Fatalf("%s workers %d: distribution length %d != %d", mode, workers, len(got.Distribution), len(want.Distribution))
	}
	for i := range got.Distribution {
		if got.Distribution[i] != want.Distribution[i] {
			t.Fatalf("%s workers %d: distribution[%d] %g != %g", mode, workers, i, got.Distribution[i], want.Distribution[i])
		}
	}
}

// property: GCC and ACC are in [0, 1] for arbitrary graphs.
func TestQuickClusteringBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		var edges []graph.Edge
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
		}
		g := graph.FromEdges(n, edges)
		gcc, acc := globalClustering(g), avgClustering(g)
		return gcc >= 0 && gcc <= 1 && acc >= 0 && acc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// property: triangle count via forward intersection matches the
// trace-based O(n³) definition on small graphs.
func TestQuickTrianglesAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(12)
		var edges []graph.Edge
		for i := 0; i < 3*n; i++ {
			edges = append(edges, graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
		}
		g := graph.FromEdges(n, edges)
		naive := 0.0
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				for w := v + 1; w < int32(n); w++ {
					if g.HasEdge(u, v) && g.HasEdge(v, w) && g.HasEdge(u, w) {
						naive++
					}
				}
			}
		}
		tri, _, _ := TriangleProfileParallel(g, 1, nil)
		return tri == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// property: assortativity lies in [-1, 1].
func TestQuickAssortativityBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(25)
		var edges []graph.Edge
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))})
		}
		g := graph.FromEdges(n, edges)
		a := Assortativity(g)
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
