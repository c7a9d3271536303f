package stats

import (
	"math/rand"
	"strconv"
	"testing"

	"pgb/internal/graph"
)

// refDistances is the slow reference for the path queries Q7–Q9: one
// textbook queue BFS per source on freshly allocated slices, with the
// same integer accumulators and the same final divisions the contract
// fixes (DESIGN.md §2). It shares no code, scratch or pool with the
// production kernel, so a kernel bug cannot cancel out against it.
func refDistances(g *graph.Graph, sources []int) DistanceStats {
	n := g.N()
	var (
		maxDist, sum, pairs int64
		hist                []int64
	)
	for _, s := range sources {
		dist := make([]int64, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(int32(u)) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, int(v))
				}
			}
		}
		for _, d := range dist {
			if d <= 0 {
				continue
			}
			maxDist = max(maxDist, d)
			sum += d
			pairs++
			for int64(len(hist)) <= d {
				hist = append(hist, 0)
			}
			hist[d]++
		}
	}
	st := DistanceStats{Diameter: float64(maxDist)}
	if pairs > 0 {
		st.AvgPath = float64(sum) / float64(pairs)
		st.Distribution = make([]float64, len(hist))
		for i, c := range hist {
			st.Distribution[i] = float64(c) / float64(pairs)
		}
	}
	return st
}

// refExact is refDistances from every node.
func refExact(g *graph.Graph) DistanceStats {
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	return refDistances(g, all)
}

// sparseGraph is an Erdős–Rényi-like graph with about avgDeg·n/2 edges:
// several components and long paths, unlike the dense randomGraph.
func sparseGraph(seed int64, n int, avgDeg float64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < int(avgDeg*float64(n)/2); i++ {
		_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Build()
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		_ = b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func completeGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_ = b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// twoComponents lays a path over nodes [0, pathLen) and a star over the
// rest. With the path first, the longest shortest path starts in the
// first 64-source batch while the final batch only sees the star's
// depth 2; with the star first the order flips.
func twoComponents(pathLen, starSize int, pathFirst bool) *graph.Graph {
	n := pathLen + starSize
	pathAt, starAt := 0, pathLen
	if !pathFirst {
		pathAt, starAt = starSize, 0
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < pathLen; i++ {
		_ = b.AddEdge(int32(pathAt+i), int32(pathAt+i+1))
	}
	for i := 1; i < starSize; i++ {
		_ = b.AddEdge(int32(starAt), int32(starAt+i))
	}
	return b.Build()
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// degenerateGraphs are the edge cases every distance check covers.
func degenerateGraphs() []namedGraph {
	return []namedGraph{
		{"empty", graph.FromEdges(0, nil)},
		{"single", graph.FromEdges(1, nil)},
		{"isolated", graph.FromEdges(7, nil)},
		{"isolated+edge", graph.FromEdges(70, []graph.Edge{{U: 3, V: 68}})},
		{"star", star(80)},
		{"complete", completeGraph(66)},
		{"path", pathGraph(130)},
		{"two-comp/path-first", twoComponents(100, 100, true)},
		{"two-comp/star-first", twoComponents(100, 100, false)},
		{"two-comp/short-path", twoComponents(60, 140, true)},
	}
}

func distanceCases() []namedGraph {
	cases := degenerateGraphs()
	for _, n := range []int{1, 63, 64, 65, 129, 300} {
		cases = append(cases,
			namedGraph{"random/" + strconv.Itoa(n), randomGraph(int64(n), n)},
			namedGraph{"sparse/" + strconv.Itoa(n), sparseGraph(int64(n), n, 1.5)})
	}
	return cases
}

// Exact Q7–Q9 must equal the slow reference bit for bit — diameter,
// average path and every distribution entry — at every worker count.
// TestDistancesParallelMatchesSerial only compares the kernel to itself;
// this gate catches a kernel that is consistently wrong (a batched sweep
// that kept the last batch's depth instead of the running maximum
// passed that test).
func TestDistancesMatchReference(t *testing.T) {
	for _, c := range distanceCases() {
		want := refExact(c.g)
		for _, workers := range []int{1, 2, 8} {
			got := ExactDistancesParallel(c.g, workers, nil)
			assertDistanceStatsEqual(t, "exact "+c.name, workers, got, want)
		}
	}
}

// Sampled Q7–Q9 must equal the reference run from the same rng.Perm
// prefix, and the kernel must consume the rng exactly as the contract
// says: one Perm(n) call, and no draw at all when samples ≥ n (the
// exact fallback).
func TestSampledDistancesMatchReference(t *testing.T) {
	for _, c := range []namedGraph{
		{"random/300", randomGraph(11, 300)},
		{"sparse/300", sparseGraph(12, 300, 1.5)},
		{"two-comp", twoComponents(100, 100, true)},
		{"random/100", randomGraph(13, 100)},
	} {
		g, n := c.g, c.g.N()
		for _, samples := range []int{1, 40, 64, 65, 130} {
			want := refExact(g)
			after := rand.New(rand.NewSource(77))
			if samples < n {
				perm := after.Perm(n)
				want = refDistances(g, perm[:samples])
			}
			wantNext := after.Int63()
			for _, workers := range []int{1, 2, 8} {
				r := rand.New(rand.NewSource(77))
				got := SampledDistancesParallel(g, samples, r, workers, nil)
				label := "sampled " + c.name + "/" + strconv.Itoa(samples)
				assertDistanceStatsEqual(t, label, workers, got, want)
				if next := r.Int63(); next != wantNext {
					t.Fatalf("%s workers %d: rng consumed differently from one Perm(%d) (samples < n: %v)",
						label, workers, n, samples < n)
				}
			}
		}
	}
}

// decodeGraph turns fuzz bytes into a graph: the first byte picks
// n ∈ [0, 200], each following byte pair is an edge taken mod n.
func decodeGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.FromEdges(0, nil)
	}
	n := int(data[0]) % 201
	b := graph.NewBuilder(n)
	if n > 0 {
		for i := 1; i+1 < len(data); i += 2 {
			_ = b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
	}
	return b.Build()
}

// encodeGraph is decodeGraph's inverse for graphs with n ≤ 200, used to
// seed the corpus.
func encodeGraph(g *graph.Graph) []byte {
	out := []byte{byte(g.N())}
	for _, e := range g.Edges() {
		out = append(out, byte(e.U), byte(e.V))
	}
	return out
}

func FuzzDistances(f *testing.F) {
	for _, c := range degenerateGraphs() {
		f.Add(encodeGraph(c.g))
	}
	f.Add(encodeGraph(randomGraph(5, 65)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeGraph(data)
		want := refExact(g)
		for _, workers := range []int{1, 3} {
			assertDistanceStatsEqual(t, "fuzz", workers, ExactDistancesParallel(g, workers, nil), want)
		}
	})
}
