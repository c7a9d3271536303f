package community

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pgb/internal/datasets"
	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/stats"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(11)) }

func TestLouvainTwoCliques(t *testing.T) {
	// two K5s joined by a single edge: Louvain must find the two cliques
	var edges []graph.Edge
	for a := int32(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			edges = append(edges, graph.Edge{U: a, V: b})
			edges = append(edges, graph.Edge{U: a + 5, V: b + 5})
		}
	}
	edges = append(edges, graph.Edge{U: 4, V: 5})
	g := graph.FromEdges(10, edges)
	res := Louvain(g, rng())
	if res.NumCommunities != 2 {
		t.Fatalf("communities = %d, want 2 (labels %v)", res.NumCommunities, res.Labels)
	}
	for i := 1; i < 5; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("clique 1 split: %v", res.Labels)
		}
		if res.Labels[i+5] != res.Labels[5] {
			t.Fatalf("clique 2 split: %v", res.Labels)
		}
	}
	if res.Labels[0] == res.Labels[5] {
		t.Fatalf("cliques merged: %v", res.Labels)
	}
	if res.Modularity < 0.3 {
		t.Fatalf("modularity = %g, want > 0.3", res.Modularity)
	}
}

func TestLouvainEmptyAndEdgeless(t *testing.T) {
	res := Louvain(graph.New(0), rng())
	if res.NumCommunities != 0 {
		t.Fatalf("empty graph: %d communities", res.NumCommunities)
	}
	res = Louvain(graph.New(4), rng())
	if res.NumCommunities != 4 {
		t.Fatalf("edgeless graph: %d communities, want 4 singletons", res.NumCommunities)
	}
}

func TestLouvainPlantedPartition(t *testing.T) {
	r := rng()
	g := gen.PlantedPartition(120, 4, 0.5, 0.01, r)
	res := Louvain(g, r)
	if res.NumCommunities < 3 || res.NumCommunities > 8 {
		t.Fatalf("communities = %d, want near 4", res.NumCommunities)
	}
	if res.Modularity < 0.4 {
		t.Fatalf("modularity = %g, want > 0.4", res.Modularity)
	}
}

func TestLouvainDeterministicForSeed(t *testing.T) {
	g := gen.PlantedPartition(80, 4, 0.5, 0.02, rng())
	a := Louvain(g, rand.New(rand.NewSource(99)))
	b := Louvain(g, rand.New(rand.NewSource(99)))
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("Louvain not deterministic for fixed seed")
		}
	}
}

func TestLouvainLabelsCompact(t *testing.T) {
	g := gen.PlantedPartition(60, 3, 0.6, 0.02, rng())
	res := Louvain(g, rng())
	seen := map[int]bool{}
	maxL := 0
	for _, l := range res.Labels {
		seen[l] = true
		if l > maxL {
			maxL = l
		}
	}
	if len(seen) != res.NumCommunities || maxL != res.NumCommunities-1 {
		t.Fatalf("labels not compact: %d distinct, max %d, reported %d",
			len(seen), maxL, res.NumCommunities)
	}
}

// property: Louvain labels are valid (in range) and modularity is in
// [-0.5, 1] for arbitrary random graphs.
func TestQuickLouvainValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		res := Louvain(g, r)
		if len(res.Labels) != n {
			return false
		}
		for _, l := range res.Labels {
			if l < 0 || l >= res.NumCommunities {
				return false
			}
		}
		return res.Modularity >= -0.5-1e-9 && res.Modularity <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// property: Louvain's reported modularity is never worse than the trivial
// single-community partition (which scores ~0) minus tolerance.
func TestQuickLouvainBeatsTrivial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.PlantedPartition(40+r.Intn(40), 3, 0.4, 0.02, r)
		if g.M() == 0 {
			return true
		}
		res := Louvain(g, r)
		return res.Modularity >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refLouvain is the straightforward Louvain the fast path must match bit
// for bit: refLocalMove at every level and map-based first-seen label
// compaction.
func refLouvain(g *graph.Graph, rng *rand.Rand) Result {
	n := g.N()
	if n == 0 {
		return Result{Labels: []int{}, NumCommunities: 0}
	}
	if g.M() == 0 {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return Result{Labels: labels, NumCommunities: n}
	}
	w := fromGraph(g)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}
	for level := 0; level < 64; level++ {
		comm, moved := refLocalMove(w, rng)
		if !moved && level > 0 {
			break
		}
		k := refCompact(comm)
		for i := range assign {
			assign[i] = comm[assign[i]]
		}
		if k == w.n {
			break
		}
		w = aggregate(w, comm, k)
		if !moved {
			break
		}
	}
	k := refCompact(assign)
	return Result{Labels: assign, NumCommunities: k, Modularity: stats.Modularity(g, assign)}
}

func refCompact(xs []int) int {
	remap := make(map[int]int)
	for _, c := range xs {
		if _, ok := remap[c]; !ok {
			remap[c] = len(remap)
		}
	}
	for i := range xs {
		xs[i] = remap[xs[i]]
	}
	return len(remap)
}

// refLocalMove is phase one as first written: every touched community,
// self entries skipped, fully sorted and scanned.
func refLocalMove(w *wgraph, rng *rand.Rand) ([]int, bool) {
	n := w.n
	comm := make([]int, n)
	commTotDeg := make([]float64, n)
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		comm[u] = u
		d := w.selfLoop[u] * 2
		for i := w.off[u]; i < w.off[u+1]; i++ {
			d += w.wt[i]
		}
		deg[u] = d
		commTotDeg[u] = d
	}
	m2 := 2 * w.totalW
	if m2 == 0 {
		return comm, false
	}
	nbw := make([]float64, n)
	var cands []int
	order := rng.Perm(n)
	movedAny := false
	for pass := 0; pass < 32; pass++ {
		movedThisPass := false
		for _, u := range order {
			cu := comm[u]
			cands = cands[:0]
			for i := w.off[u]; i < w.off[u+1]; i++ {
				v := int(w.nbr[i])
				if v == u {
					continue
				}
				c := comm[v]
				if nbw[c] == 0 {
					cands = append(cands, c)
				}
				nbw[c] += w.wt[i]
			}
			commTotDeg[cu] -= deg[u]
			bestC, bestGain := cu, 0.0
			baseGain := nbw[cu] - commTotDeg[cu]*deg[u]/m2
			sort.Ints(cands)
			for _, c := range cands {
				gain := nbw[c] - commTotDeg[c]*deg[u]/m2
				if gain-baseGain > bestGain+1e-12 {
					bestGain = gain - baseGain
					bestC = c
				}
			}
			for _, c := range cands {
				nbw[c] = 0
			}
			comm[u] = bestC
			commTotDeg[bestC] += deg[u]
			if bestC != cu {
				movedThisPass = true
				movedAny = true
			}
		}
		if !movedThisPass {
			break
		}
	}
	return comm, movedAny
}

// assertSameResult fails unless got and want agree on every label, the
// community count and the modularity's bits.
func assertSameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.NumCommunities != want.NumCommunities || !slices.Equal(got.Labels, want.Labels) ||
		math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
		t.Fatalf("%s: Louvain = (%d communities, Q=%v), reference = (%d, Q=%v), labels equal: %v",
			what, got.NumCommunities, got.Modularity, want.NumCommunities, want.Modularity,
			slices.Equal(got.Labels, want.Labels))
	}
}

func TestLouvainMatchesReference(t *testing.T) {
	for _, name := range datasets.Names() {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Load(0.1, 1)
		for seed := int64(1); seed <= 5; seed++ {
			got := Louvain(g, rand.New(rand.NewSource(seed)))
			want := refLouvain(g, rand.New(rand.NewSource(seed)))
			assertSameResult(t, name, got, want)
		}
	}
}

// TestLocalMoveMatchesReferenceOnLevels checks phase one directly on
// every aggregation level, where weights exceed 1 and self loops carry
// intra-community weight: same communities, same moved flag, and the
// rng left in the same state.
func TestLocalMoveMatchesReferenceOnLevels(t *testing.T) {
	for _, name := range datasets.Names() {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w := fromGraph(spec.Load(0.1, 2))
		rng := rand.New(rand.NewSource(7))
		for level := 0; ; level++ {
			seed := rng.Int63()
			ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, gotMoved := localMove(w, ra)
			want, wantMoved := refLocalMove(w, rb)
			if !slices.Equal(got, want) || gotMoved != wantMoved || ra.Int63() != rb.Int63() {
				t.Fatalf("%s level %d: localMove differs from the reference", name, level)
			}
			k := refCompact(want)
			if !wantMoved || k == w.n {
				if level == 0 {
					t.Fatalf("%s: no weighted level exercised", name)
				}
				break
			}
			w = aggregate(w, want, k)
		}
	}
}

// FuzzLouvainMatchesReference: for arbitrary small graphs and seeds the
// fast Louvain equals the reference bit for bit. The first byte is the
// node count; each following byte pair is one edge (self loops and
// duplicates are dropped by FromEdges).
func FuzzLouvainMatchesReference(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3, 2, 3}, int64(1))
	f.Add([]byte{4, 0, 1, 2, 3}, int64(2))
	f.Add([]byte{5, 0, 0, 1, 1, 0, 1, 1, 0}, int64(3))
	f.Add([]byte{}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%64) + 1
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			u, v := int32(int(data[i])%n), int32(int(data[i+1])%n)
			if u != v {
				edges = append(edges, graph.Canon(u, v))
			}
		}
		g := graph.FromEdges(n, edges)
		got := Louvain(g, rand.New(rand.NewSource(seed)))
		want := refLouvain(g, rand.New(rand.NewSource(seed)))
		assertSameResult(t, "fuzz", got, want)
	})
}

// TestBestMoveMatchesSortedScan pins bestMove to the sorted scan it
// replaces on gains that tie exactly or sit within 1e-12 of each other,
// where the tolerance decides the winner.
func TestBestMoveMatchesSortedScan(t *testing.T) {
	levels := []float64{2e-12, 2.5e-12, 3.2e-12, 1, 1 + 5e-13, 1 + 1e-12, 1 + 1.5e-12, 1 + 3e-12, 2}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		ups := make([]move, r.Intn(12))
		for i, c := range r.Perm(40)[:len(ups)] {
			ups[i] = move{c, levels[r.Intn(len(levels))]}
		}
		sorted := slices.Clone(ups)
		slices.SortFunc(sorted, func(a, b move) int { return a.c - b.c })
		want, bestGain := -1, 0.0
		for _, mv := range sorted {
			if mv.gain > bestGain+1e-12 {
				want, bestGain = mv.c, mv.gain
			}
		}
		if got := bestMove(slices.Clone(ups), -1); got != want {
			t.Fatalf("bestMove(%v) = %d, sorted scan %d", ups, got, want)
		}
	}
}
