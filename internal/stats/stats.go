// Package stats implements the fifteen PGB graph queries (Table III/IV of
// the paper): counting queries (|V|, |E|, triangles), degree information
// (average degree, degree variance, degree distribution), path conditions
// (diameter, average shortest path, distance distribution), topology
// structure (global/average clustering coefficient, community detection,
// modularity) and centrality (assortativity, eigenvector centrality).
//
// Path queries offer both exact all-pairs BFS and a sampled estimator for
// large graphs; PGB's harness switches automatically based on graph size.
package stats

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pgb/internal/graph"
	"pgb/internal/par"
)

// NumNodes is query Q1: |V|. PGB counts non-isolated nodes, since synthetic
// generators materialise a fixed node universe and the informative signal
// is how many nodes participate in edges.
func NumNodes(g *graph.Graph) float64 {
	c := 0
	for u := 0; u < g.N(); u++ {
		if g.Degree(int32(u)) > 0 {
			c++
		}
	}
	return float64(c)
}

// NumEdges is query Q2: |E|.
func NumEdges(g *graph.Graph) float64 { return float64(g.M()) }

// TrianglesParallel is query Q3: the number of triangles, computed by
// forward neighbor-intersection over the degree-ordered orientation,
// O(m^{3/2}), sharded over contiguous node ranges on up to workers
// goroutines (0 selects GOMAXPROCS); helper workers beyond the calling
// goroutine are drawn from budget when non-nil (the shared allowance of
// DESIGN.md §2). The result is bit-identical at every worker count: each
// shard contributes an exact integer count and integer addition is
// order-free.
func TrianglesParallel(g *graph.Graph, workers int, budget *par.Budget) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	s := getScratch()
	defer s.Release()
	fwdOff, fwdNbr, _ := forwardCSR(g, s)
	workers = normWorkers(workers, n)
	if workers == 1 {
		return float64(countFwdTriangles(fwdOff, fwdNbr, 0, n))
	}
	chunks := chunkByMass(fwdOff, 8*workers)
	claim := par.Queue(len(chunks) - 1)
	var total atomic.Int64
	budget.Do(workers-1, func() {
		local := int64(0)
		for i, ok := claim(); ok; i, ok = claim() {
			local += countFwdTriangles(fwdOff, fwdNbr, chunks[i], chunks[i+1])
		}
		total.Add(local)
	})
	return float64(total.Load())
}

// degreeRankInto orders nodes by (degree, id) via counting sort over the
// flat cnt array (length ≥ maxDegree+2, caller scratch) and fills rank —
// the orientation that makes every triangle counted exactly once by
// forward intersection.
func degreeRankInto(g *graph.Graph, rank []int32, cnt []int32) {
	n := g.N()
	for i := range cnt {
		cnt[i] = 0
	}
	for u := 0; u < n; u++ {
		cnt[g.Degree(int32(u))+1]++
	}
	for d := 1; d < len(cnt); d++ {
		cnt[d] += cnt[d-1]
	}
	// Node-ID order within a degree class reproduces the (degree, id)
	// ordering of the legacy bucket sort.
	for u := 0; u < n; u++ {
		d := g.Degree(int32(u))
		rank[u] = cnt[d]
		cnt[d]++
	}
}

// forwardCSR builds the degree-ordered forward orientation in rank
// space: node r's list holds the ranks (> r) of its higher-rank
// neighbors, sorted ascending by construction — rank s is scattered to
// its lower-rank neighbors in increasing s, so every segment comes out
// sorted without a per-segment sort. Sorted segments are what lets the
// triangle kernels intersect by merging/galloping instead of probing an
// O(n) mark array. All arrays live in s and die with it; rank maps
// original node IDs to rank space.
func forwardCSR(g *graph.Graph, s *Scratch) (off []int64, nbr []int32, rank []int32) {
	n := g.N()
	rank = s.rank(n)
	degreeRankInto(g, rank, s.i32scr(n+1))
	origOf := s.origOf(n)
	for u := 0; u < n; u++ {
		origOf[rank[u]] = int32(u)
	}
	off = s.offs(n + 1)
	off[0] = 0
	for r := 0; r < n; r++ {
		u := origOf[r]
		c := int64(0)
		ru := rank[u]
		for _, v := range g.Neighbors(u) {
			if rank[v] > ru {
				c++
			}
		}
		off[r+1] = off[r] + c
	}
	nbr = s.fwdNbr(int(off[n]))
	pos := s.counts(n)
	copy(pos, off[:n])
	for sr := 0; sr < n; sr++ {
		u := origOf[sr]
		for _, v := range g.Neighbors(u) {
			if r := rank[v]; r < int32(sr) {
				nbr[pos[r]] = int32(sr)
				pos[r]++
			}
		}
	}
	return off, nbr, rank
}

// countFwdTriangles counts triangles rooted at nodes [lo, hi) of the
// rank-space forward adjacency by sorted-list intersection: a triangle
// r < s < t appears exactly once, as t ∈ fwd(r) ∩ fwd(s) with s ∈
// fwd(r). Each pair is intersected with probeCount — a textbook
// two-pointer merge is a serial dependency chain the pipeline cannot
// overlap, and measured ~1.6× slower here than probing the shorter
// list into the longer.
func countFwdTriangles(off []int64, nbr []int32, lo, hi int) int64 {
	count := int64(0)
	for u := lo; u < hi; u++ {
		ue := off[u+1]
		for p := off[u]; p < ue; p++ {
			v := nbr[p]
			a := nbr[p+1 : ue]
			b := nbr[off[v]:off[v+1]]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			count += probeCount(a, b)
		}
	}
	return count
}

// probeCount returns |a ∩ b| for sorted slices: each element of the
// shorter list binary-searches the longer one. The search step is
// branchless (the comparison becomes an arithmetic mask, compiled to
// conditional moves), so consecutive probes overlap in the pipeline
// instead of mispredicting — unlike a merge, whose pointer advance is
// a loop-carried dependency. Range pruning against b's endpoints skips
// probes that cannot match; ranks are < 2³¹, so the int32 subtraction
// below cannot overflow.
func probeCount(a, b []int32) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	var c int64
	b0, bl := b[0], b[len(b)-1]
	for _, x := range a {
		if x > bl {
			break
		}
		if x < b0 {
			continue
		}
		base, n := 0, len(b)
		for n > 1 {
			half := n >> 1
			lt := int(uint32(b[base+half-1]-x) >> 31)
			base += half & -lt
			n -= half
		}
		if b[base] == x {
			c++
		}
	}
	return c
}

// perNodeFwdTriangles adds each triangle rooted in [lo, hi) to the
// per-rank-node counters of all three corners. Adds are atomic — corner
// slots s and t belong to other shards — and integer addition is
// order-free, so cnt is bit-identical at any worker count.
func perNodeFwdTriangles(off []int64, nbr []int32, lo, hi int, cnt []int64) {
	for u := lo; u < hi; u++ {
		fu := nbr[off[u]:off[u+1]]
		for i, v := range fu {
			a := fu[i+1:]
			b := nbr[off[v]:off[v+1]]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			// Same probe kernel as probeCount, inlined because each
			// match must attribute the triangle to corner t (= the
			// matched rank, whichever list drove the probe).
			if len(a) > len(b) {
				a, b = b, a
			}
			found := int64(0)
			b0, bl := b[0], b[len(b)-1]
			for _, x := range a {
				if x > bl {
					break
				}
				if x < b0 {
					continue
				}
				base, n := 0, len(b)
				for n > 1 {
					half := n >> 1
					lt := int(uint32(b[base+half-1]-x) >> 31)
					base += half & -lt
					n -= half
				}
				if b[base] == x {
					atomic.AddInt64(&cnt[x], 1) // corner t
					found++
				}
			}
			if found > 0 {
				atomic.AddInt64(&cnt[v], found) // corner s
				atomic.AddInt64(&cnt[u], found) // root r
			}
		}
	}
}

// normWorkers resolves a worker request against the amount of work:
// 0 (or negative) selects GOMAXPROCS, and the count never exceeds items.
func normWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// chunkByMass splits [0, len(off)-1) into up to k contiguous ranges of
// roughly equal cumulative mass (off is a prefix-sum table, e.g. CSR
// offsets). Returned boundaries are strictly increasing and bracket the
// full range. Chunking is a pure function of off and k — never of
// scheduling — so shard assignment cannot affect results.
func chunkByMass(off []int64, k int) []int {
	n := len(off) - 1
	if k < 1 {
		k = 1
	}
	bounds := []int{0}
	for i := 1; i < k; i++ {
		target := off[n] * int64(i) / int64(k)
		j := sort.Search(n, func(j int) bool { return off[j] >= target })
		if j > bounds[len(bounds)-1] && j < n {
			bounds = append(bounds, j)
		}
	}
	return append(bounds, n)
}

// AvgDegree is query Q4: 2m/n.
func AvgDegree(g *graph.Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// DegreeVariance is query Q5: the population variance of the degree
// sequence.
func DegreeVariance(g *graph.Graph) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	mean := AvgDegree(g)
	s := 0.0
	for u := 0; u < n; u++ {
		d := float64(g.Degree(int32(u)))
		s += (d - mean) * (d - mean)
	}
	return s / float64(n)
}

// DegreeDistribution is query Q6: the degree histogram normalised to a
// probability distribution, indexed by degree 0..maxDegree.
func DegreeDistribution(g *graph.Graph) []float64 {
	n := g.N()
	if n == 0 {
		return nil
	}
	hist := make([]float64, g.MaxDegree()+1)
	for u := 0; u < n; u++ {
		hist[g.Degree(int32(u))]++
	}
	for i := range hist {
		hist[i] /= float64(n)
	}
	return hist
}

// DistanceStats bundles the three path queries Q7-Q9, which share the BFS
// work: Diameter (longest shortest path), AvgPath (mean finite shortest-
// path length) and Distribution (probability mass over distances 1..max).
// Infinite distances (disconnected pairs) are excluded, following the
// convention of the paper's query suite.
type DistanceStats struct {
	Diameter     float64
	AvgPath      float64
	Distribution []float64
}

// ExactDistancesParallel runs BFS from every node: O(nm), suitable for
// graphs up to a few thousand nodes. The BFS sources are spread over up
// to workers goroutines (0 selects GOMAXPROCS; helpers come from budget
// when non-nil). Bit-identical at every worker count — see bfsDistances.
func ExactDistancesParallel(g *graph.Graph, workers int, budget *par.Budget) DistanceStats {
	return bfsDistances(g, nil, workers, budget)
}

// SampledDistancesParallel estimates the path queries by running BFS
// from a uniform sample of source nodes on a bounded worker pool. The
// diameter estimate is the maximum eccentricity over sampled sources (a
// lower bound, standard practice for large-graph benchmarking). Graphs
// with at most samples nodes fall back to exact BFS. The source sample
// is drawn from rng before any parallel work starts, so rng consumption
// — and therefore the result — is identical at every worker count.
func SampledDistancesParallel(g *graph.Graph, samples int, rng *rand.Rand, workers int, budget *par.Budget) DistanceStats {
	n := g.N()
	if samples >= n {
		return ExactDistancesParallel(g, workers, budget)
	}
	perm := rng.Perm(n)
	sources := make([]int32, samples)
	for i := 0; i < samples; i++ {
		sources[i] = int32(perm[i])
	}
	return bfsDistances(g, sources, workers, budget)
}

// bfsDistances runs one BFS per source on up to workers goroutines.
// Worker-count invariance (DESIGN.md §2): every accumulator is an exact
// integer — max eccentricity, pair count, distance-sum, histogram — and
// integer max/sum are order-free, so merging per-worker partials yields
// the same totals as the serial sweep, and the final floating-point
// divisions see identical operands.
func bfsDistances(g *graph.Graph, sources []int32, workers int, budget *par.Budget) DistanceStats {
	n := g.N()
	if n == 0 {
		return DistanceStats{}
	}
	if sources == nil {
		sources = make([]int32, n)
		for i := range sources {
			sources[i] = int32(i)
		}
	}
	workers = normWorkers(workers, len(sources))
	var (
		mu       sync.Mutex
		maxDist  int32
		sumDist  int64
		numPairs int64
		hist     []int64
	)
	claim := par.Queue(len(sources))
	budget.Do(workers-1, func() {
		s := getScratch()
		defer s.Release()
		dist := s.dist(n)
		queue := s.queue(n)[:0]
		var lmax int32
		var lsum, lpairs int64
		var lhist []int64
		for i, ok := claim(); ok; i, ok = claim() {
			s := sources[i]
			for j := range dist {
				dist[j] = -1
			}
			dist[s] = 0
			// head-indexed FIFO: re-slicing queue[1:] would shed capacity
			// and reallocate every sweep
			queue = queue[:0]
			queue = append(queue, s)
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				du := dist[u]
				for _, v := range g.Neighbors(u) {
					if dist[v] < 0 {
						dist[v] = du + 1
						queue = append(queue, v)
					}
				}
			}
			for u := 0; u < n; u++ {
				d := dist[u]
				if d <= 0 {
					continue // unreachable or self
				}
				if d > lmax {
					lmax = d
				}
				lsum += int64(d)
				lpairs++
				for int(d) >= len(lhist) {
					lhist = append(lhist, 0)
				}
				lhist[d]++
			}
		}
		mu.Lock()
		if lmax > maxDist {
			maxDist = lmax
		}
		sumDist += lsum
		numPairs += lpairs
		for len(hist) < len(lhist) {
			hist = append(hist, 0)
		}
		for i, c := range lhist {
			hist[i] += c
		}
		mu.Unlock()
	})
	st := DistanceStats{Diameter: float64(maxDist)}
	if numPairs > 0 {
		st.AvgPath = float64(sumDist) / float64(numPairs)
		st.Distribution = make([]float64, len(hist))
		for i, c := range hist {
			st.Distribution[i] = float64(c) / float64(numPairs)
		}
	}
	return st
}

// GlobalClusteringFrom is query Q10: the transitivity 3*triangles /
// wedges (connected triples), formed from the counts
// TriangleProfileParallel returns — the single definition of the GCC
// formula.
func GlobalClusteringFrom(triangles, wedges float64) float64 {
	if wedges == 0 {
		return 0
	}
	return 3 * triangles / wedges
}

// LocalClusteringParallel returns the per-node clustering coefficient
// C_i = e_i / C(d_i, 2), sharded over node ranges; nodes with degree < 2
// have C_i = 0. The per-node triangle counts come from the
// degree-ordered intersection kernel (exact integers, order-free atomic
// accumulation), and each C_i is then the same d_i-normalisation the
// mark-probe implementation applied to the same integer, so the vector
// is bit-identical at every worker count and to the legacy
// implementation.
func LocalClusteringParallel(g *graph.Graph, workers int, budget *par.Budget) []float64 {
	n := g.N()
	cc := make([]float64, n)
	if n == 0 {
		return cc
	}
	s := getScratch()
	defer s.Release()
	cnt, rank := perNodeTriangles(g, s, workers, budget)
	for u := range cc {
		if d := g.Degree(int32(u)); d >= 2 {
			cc[u] = 2 * float64(cnt[rank[u]]) / (float64(d) * float64(d-1))
		}
	}
	return cc
}

// perNodeTriangles computes the per-node triangle counts in rank space
// (indexed by rank; rank maps node → rank). cnt and rank live in s.
func perNodeTriangles(g *graph.Graph, s *Scratch, workers int, budget *par.Budget) (cnt []int64, rank []int32) {
	n := g.N()
	fwdOff, fwdNbr, rank := forwardCSR(g, s)
	cnt = s.counts(n) // reuses the scatter-cursor arena, dead after the build
	for i := range cnt {
		cnt[i] = 0
	}
	workers = normWorkers(workers, n)
	if workers == 1 {
		perNodeFwdTriangles(fwdOff, fwdNbr, 0, n, cnt)
		return cnt, rank
	}
	chunks := chunkByMass(fwdOff, 8*workers)
	claim := par.Queue(len(chunks) - 1)
	budget.Do(workers-1, func() {
		for i, ok := claim(); ok; i, ok = claim() {
			perNodeFwdTriangles(fwdOff, fwdNbr, chunks[i], chunks[i+1], cnt)
		}
	})
	return cnt, rank
}

// TriangleProfileParallel answers the whole triangle query group — Q3
// (triangle count), Q10's numerator and denominator, and Q11 (average
// clustering, the Watts-Strogatz mean of the local coefficients) — from
// ONE pass of the intersection kernel: per-node counts give the global
// total (Σ t_u = 3T, exactly, in integers) and the clustering
// coefficients. The profile's triangle pass uses this instead of running
// TrianglesParallel and LocalClusteringParallel back-to-back. Values are
// bit-identical to the separate calls: the total is the same integer and
// ACC reduces the same per-node floats in the same serial node order.
func TriangleProfileParallel(g *graph.Graph, workers int, budget *par.Budget) (triangles, wedges, acc float64) {
	n := g.N()
	if n == 0 {
		return 0, 0, 0
	}
	s := getScratch()
	defer s.Release()
	cnt, rank := perNodeTriangles(g, s, workers, budget)
	var tri3 int64
	for _, c := range cnt {
		tri3 += c
	}
	sum := 0.0
	for u := 0; u < n; u++ {
		d := g.Degree(int32(u))
		dd := float64(d)
		wedges += dd * (dd - 1) / 2
		if d < 2 {
			continue
		}
		sum += 2 * float64(cnt[rank[u]]) / (dd * (dd - 1))
	}
	return float64(tri3 / 3), wedges, sum / float64(n)
}

// Modularity is query Q13 given a partition (community label per node):
// Q = Σ_c [ m_c/m − (d_c/2m)² ].
func Modularity(g *graph.Graph, labels []int) float64 {
	m := float64(g.M())
	if m == 0 {
		return 0
	}
	maxL := 0
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	intra := make([]float64, maxL+1)
	degSum := make([]float64, maxL+1)
	for u := 0; u < g.N(); u++ {
		lu := labels[u]
		degSum[lu] += float64(g.Degree(int32(u)))
		for _, v := range g.Neighbors(int32(u)) {
			if int32(u) < v && labels[v] == lu {
				intra[lu]++
			}
		}
	}
	q := 0.0
	for c := range intra {
		q += intra[c]/m - (degSum[c]/(2*m))*(degSum[c]/(2*m))
	}
	return q
}

// Assortativity is query Q14: the Pearson degree-degree correlation over
// edges (Newman's assortativity coefficient).
func Assortativity(g *graph.Graph) float64 {
	var s1, s2, s3 float64 // Σ(j*k), Σ(j+k)/2, Σ(j²+k²)/2 over edges
	m := float64(g.M())
	if m == 0 {
		return 0
	}
	for u := 0; u < g.N(); u++ {
		du := float64(g.Degree(int32(u)))
		for _, v := range g.Neighbors(int32(u)) {
			if int32(u) < v {
				dv := float64(g.Degree(v))
				s1 += du * dv
				s2 += (du + dv) / 2
				s3 += (du*du + dv*dv) / 2
			}
		}
	}
	num := s1/m - (s2/m)*(s2/m)
	den := s3/m - (s2/m)*(s2/m)
	if den == 0 {
		return 0
	}
	return num / den
}

// EigenvectorCentrality is query Q15: the principal-eigenvector scores via
// power iteration, L2-normalised. Returns the zero vector for an empty
// graph. iterations=0 uses a default of 100.
func EigenvectorCentrality(g *graph.Graph, iterations int, tol float64) []float64 {
	n := g.N()
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
	s := getScratch()
	defer s.Release()
	out := x
	y := s.floats(n)
	for it := 0; it < iterations; it++ {
		// iterate on A + I: the shift breaks the ±λ oscillation on
		// bipartite graphs without changing the principal eigenvector
		copy(y, x)
		for u := 0; u < n; u++ {
			xu := x[u]
			for _, v := range g.Neighbors(int32(u)) {
				y[v] += xu
			}
		}
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			if &x[0] != &out[0] {
				copy(out, x)
			}
			return out
		}
		diff := 0.0
		for i := range y {
			y[i] /= norm
			diff += math.Abs(y[i] - x[i])
		}
		x, y = y, x
		if diff < tol {
			break
		}
	}
	// x may point at the pooled y-buffer after an odd number of swaps;
	// results must never alias scratch memory (DESIGN.md §11).
	if &x[0] != &out[0] {
		copy(out, x)
	}
	return out
}
