package gen

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pgb/internal/graph"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(17)) }

func TestGNMExactEdgeCount(t *testing.T) {
	for _, m := range []int{0, 10, 100, 499} {
		g := GNM(50, m, rng())
		if g.M() != m {
			t.Fatalf("GNM(50, %d) has %d edges", m, g.M())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGNMClampsToComplete(t *testing.T) {
	g := GNM(5, 100, rng())
	if g.M() != 10 {
		t.Fatalf("GNM over-full: %d edges, want 10", g.M())
	}
}

func TestGNPDensity(t *testing.T) {
	g := GNP(400, 0.05, rng())
	want := 0.05 * 400 * 399 / 2
	if math.Abs(float64(g.M())-want) > want*0.25 {
		t.Fatalf("GNP edges = %d, want ~%g", g.M(), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(20, 0, rng()); g.M() != 0 {
		t.Fatalf("GNP p=0 has %d edges", g.M())
	}
	if g := GNP(20, 1, rng()); g.M() != 190 {
		t.Fatalf("GNP p=1 has %d edges, want 190", g.M())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(500, 3, rng())
	// m edges ≈ (n - m0)·attach
	if g.M() < 1400 || g.M() > 1600 {
		t.Fatalf("BA edges = %d, want ~1490", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// hubs exist: max degree well above attachment count
	if g.MaxDegree() < 10 {
		t.Fatalf("BA max degree = %d, want hubs", g.MaxDegree())
	}
}

func TestChungLuExpectedDegrees(t *testing.T) {
	r := rng()
	n := 2000
	w := make([]float64, n)
	for i := range w {
		w[i] = 10
	}
	g := ChungLu(w, r)
	// expected m = Σw/2 = 10000... with min() clamp slightly below
	want := float64(n) * 10 / 2
	if math.Abs(float64(g.M())-want) > want*0.1 {
		t.Fatalf("ChungLu edges = %d, want ~%g", g.M(), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChungLuZeroWeights(t *testing.T) {
	g := ChungLu(make([]float64, 50), rng())
	if g.M() != 0 {
		t.Fatalf("zero weights gave %d edges", g.M())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(10, 10, 0, 0, rng())
	if g.M() != 180 { // 2·10·9
		t.Fatalf("grid edges = %d, want 180", g.M())
	}
	g2 := Grid2D(10, 10, 0.5, 0, rng())
	if g2.M() >= g.M() {
		t.Fatalf("dropProb did not remove edges: %d", g2.M())
	}
}

func TestPowerLawWeightsSum(t *testing.T) {
	w := PowerLawWeights(1000, 2.5, 5000, rng())
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum-10000) > 1 {
		t.Fatalf("weight sum = %g, want 10000", sum)
	}
}

func TestIsGraphical(t *testing.T) {
	cases := []struct {
		d    []int
		want bool
	}{
		{[]int{3, 3, 3, 3}, true},     // K4
		{[]int{1, 1}, true},           // single edge
		{[]int{3, 1}, false},          // degree exceeds n-1
		{[]int{1, 1, 1}, false},       // odd sum
		{[]int{2, 2, 2}, true},        // triangle
		{[]int{0, 0, 0}, true},        // empty
		{[]int{4, 4, 4, 1, 1}, false}, // Erdős–Gallai violation
	}
	for _, c := range cases {
		if got := IsGraphical(c.d); got != c.want {
			t.Errorf("IsGraphical(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestSanitizeDegreesAlwaysGraphical(t *testing.T) {
	noisy := []float64{-3.2, 100.9, 2.4, 2.4, 0.1, 7.8}
	d := SanitizeDegrees(noisy)
	if !IsGraphical(d) {
		t.Fatalf("sanitized %v not graphical", d)
	}
}

func TestHavelHakimiRealizesSequence(t *testing.T) {
	d := []int{3, 3, 2, 2, 2}
	if !IsGraphical(d) {
		t.Fatal("test sequence should be graphical")
	}
	g := HavelHakimi(d)
	got := g.Degrees()
	// HH on a graphical sequence realises it exactly (node order matches
	// the input order)
	for i, want := range d {
		if got[i] != want {
			t.Fatalf("degree[%d] = %d, want %d (%v)", i, got[i], want, got)
		}
	}
}

func TestJDMRoundTrip(t *testing.T) {
	r := rng()
	g := GNM(60, 150, r)
	// the graph's joint degree matrix as sorted (J, K) entries
	counts := map[[2]int]float64{}
	for e := range g.EdgeSeq() {
		j, k := g.Degree(e.U), g.Degree(e.V)
		counts[[2]int{min(j, k), max(j, k)}]++
	}
	var entries []JDMEntry
	total := 0.0
	for key, c := range counts { //pgb:deterministic entries are sorted below; counts are integer-valued, so the sum is exact
		entries = append(entries, JDMEntry{J: key[0], K: key[1], Count: c})
		total += c
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].J != entries[b].J {
			return entries[a].J < entries[b].J
		}
		return entries[a].K < entries[b].K
	})
	if int(total) != g.M() {
		t.Fatalf("JDM total = %g, want %d", total, g.M())
	}
	rebuilt := BuildFrom2KEntries(entries, 60, r)
	if rebuilt.M() == 0 {
		t.Fatal("2K rebuild produced empty graph")
	}
	// edge count within 30% of the original
	if math.Abs(float64(rebuilt.M()-g.M())) > 0.3*float64(g.M()) {
		t.Fatalf("2K rebuild m = %d, original %d", rebuilt.M(), g.M())
	}
}

func TestBTERPreservesDegreesAndClusters(t *testing.T) {
	r := rng()
	d := make([]int, 300)
	for i := range d {
		d[i] = 6
	}
	g := BTER(d, r)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// degree roughly preserved
	avg := 2 * float64(g.M()) / 300
	if avg < 3 || avg > 9 {
		t.Fatalf("BTER avg degree = %g, want ~6", avg)
	}
	// clustering above a plain Chung-Lu with the same degrees (the whole
	// point of the blocks)
	w := make([]float64, 300)
	for i := range w {
		w[i] = 6
	}
	cl := ChungLu(w, r)
	if acc(g) <= acc(cl) {
		t.Fatalf("BTER ACC %g not above Chung-Lu ACC %g", acc(g), acc(cl))
	}
}

func acc(g *graph.Graph) float64 {
	n := g.N()
	mark := make([]bool, n)
	total := 0.0
	for u := 0; u < n; u++ {
		nb := g.Neighbors(int32(u))
		if len(nb) < 2 {
			continue
		}
		for _, v := range nb {
			mark[v] = true
		}
		links := 0
		for _, v := range nb {
			for _, w := range g.Neighbors(v) {
				if w > v && mark[w] {
					links++
				}
			}
		}
		for _, v := range nb {
			mark[v] = false
		}
		total += 2 * float64(links) / float64(len(nb)*(len(nb)-1))
	}
	return total / float64(n)
}

func TestKroneckerSampling(t *testing.T) {
	r := rng()
	init := Initiator{A: 0.9, B: 0.5, C: 0.2}
	g := SampleKronecker(init, 8, 256, 500, r)
	if g.N() != 256 {
		t.Fatalf("n = %d", g.N())
	}
	if g.M() < 400 || g.M() > 500 {
		t.Fatalf("Kronecker edges = %d, want ~500", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKroneckerLevels(t *testing.T) {
	if KroneckerLevels(1024) != 10 || KroneckerLevels(1000) != 10 || KroneckerLevels(2) != 1 {
		t.Fatal("KroneckerLevels wrong")
	}
}

func TestFitInitiatorMatchesEdgeMoment(t *testing.T) {
	r := rng()
	init, k := FitInitiatorMoments(1024, 5000, 40000, 3000, r)
	em, _, _ := kroneckerMoments(init, k)
	if math.Abs(em-5000) > 2500 {
		t.Fatalf("fitted edge moment = %g, want ~5000", em)
	}
}

func TestInitiatorClamp(t *testing.T) {
	i := Initiator{A: 2, B: -1, C: 0.5}
	i.Clamp(0, 1)
	if i.A != 1 || i.B != 0 || i.C != 0.5 {
		t.Fatalf("clamp: %+v", i)
	}
}

func TestPlantedPartitionStructure(t *testing.T) {
	g := PlantedPartition(100, 4, 0.5, 0.01, rng())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// within-block density ≫ cross-block: count intra vs inter edges
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if int(e.U)*4/100 == int(e.V)*4/100 {
			intra++
		} else {
			inter++
		}
	}
	if intra < 5*inter {
		t.Fatalf("intra=%d inter=%d; expected strong community structure", intra, inter)
	}
}

func TestCliqueCoverClusters(t *testing.T) {
	g := CliqueCover(200, 60, 4, 6, 0.1, rng())
	// clique members have local CC near 1; a GNM graph with the same
	// size/edge budget sits far below
	ref := GNM(g.N(), g.M(), rng())
	if acc(g) < 3*acc(ref) || acc(g) < 0.3 {
		t.Fatalf("clique cover ACC = %g (GNM ref %g), want much higher", acc(g), acc(ref))
	}
}

func TestTriadicClosureRaisesClustering(t *testing.T) {
	r := rng()
	g := GNM(200, 600, r)
	closed := TriadicClosure(g, 300, r)
	if closed.M() <= g.M() {
		t.Fatalf("closure added no edges: %d vs %d", closed.M(), g.M())
	}
	if acc(closed) <= acc(g) {
		t.Fatalf("closure did not raise ACC: %g vs %g", acc(closed), acc(g))
	}
}

// property: SanitizeDegrees output is always graphical with entries in
// [0, n-1].
func TestQuickSanitizeGraphical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		noisy := make([]float64, n)
		for i := range noisy {
			noisy[i] = r.NormFloat64() * float64(n)
		}
		d := SanitizeDegrees(noisy)
		if !IsGraphical(d) {
			return false
		}
		for _, x := range d {
			if x < 0 || x > n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// property: HavelHakimi realises every graphical sequence exactly.
func TestQuickHavelHakimiExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(20)
		// generate a graphical sequence by reading degrees off a random graph
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		d := b.Build().Degrees()
		g := HavelHakimi(d)
		got := g.Degrees()
		for i := range d {
			if got[i] != d[i] {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// property: every generator yields a valid simple graph.
func TestQuickGeneratorsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(60)
		gs := []*graph.Graph{
			GNM(n, n, r),
			GNP(n, 0.1, r),
			BarabasiAlbert(n, 2, r),
			PlantedPartition(n, 3, 0.3, 0.05, r),
			CliqueCover(n, 5, 3, 5, 0.2, r),
		}
		for _, g := range gs {
			if g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
