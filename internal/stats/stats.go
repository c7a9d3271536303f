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
	"math/bits"
	"math/rand"
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

// sum3 returns Σ cnt / 3: every triangle credits each of its three
// corners once, so the sum is exactly three times the triangle count.
func sum3(cnt []int64) int64 {
	var tri3 int64
	for _, c := range cnt {
		tri3 += c
	}
	return tri3 / 3
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
	// Node-ID order within a degree class breaks degree ties, so the
	// order is the total (degree, id) order.
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
// sorted without a per-segment sort. Orienting by degree bounds every
// forward list by O(√m), which is what makes fwdTriangles' stamp-and-scan
// pass O(m^{3/2}). All arrays live in s and die with it; rank maps
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

// fwdTriangles credits each triangle rooted at ranks [lo, hi) of the
// rank-space forward adjacency to the counters of all three corners by
// compact-forward intersection (Schank & Wagner, WEA 2005; Latapy, TCS
// 2008): for root r, stamp r+1 on every rank in fwd(r), then for each
// s ∈ fwd(r) count the t ∈ fwd(s) carrying that stamp. A triangle
// r < s < t is found exactly once, at root r. A stamp matches only the
// root that wrote it, so stamp (length n) may carry stamps of other
// ranges but must hold no value in (lo, hi] on entry: callers clear it
// on acquisition, since a pooled plane holds an earlier call's stamps
// and a stale one would count false triangles. Adds are atomic, since
// corner slots s and t belong to other shards, and integer addition is
// order-free, so cnt is bit-identical at any worker count.
func fwdTriangles(off []int64, nbr []int32, lo, hi int, stamp []uint32, cnt []int64) {
	for r := lo; r < hi; r++ {
		fr := nbr[off[r]:off[r+1]]
		tag := uint32(r + 1)
		for _, s := range fr {
			stamp[s] = tag
		}
		for _, s := range fr {
			found := int64(0)
			for _, t := range nbr[off[s]:off[s+1]] {
				if stamp[t] == tag {
					atomic.AddInt64(&cnt[t], 1) // corner t
					found++
				}
			}
			if found > 0 {
				atomic.AddInt64(&cnt[s], found) // corner s
				atomic.AddInt64(&cnt[r], found) // root r
			}
		}
	}
}

// normWorkers resolves a worker request against the amount of work:
// 0 (or negative) selects GOMAXPROCS, and the count never exceeds items.
func normWorkers(workers, items int) int {
	workers = par.Workers(workers)
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

// ExactDistancesParallel runs BFS from every node, 64 sources at a time
// (see bfsDistances): ⌈n/64⌉·(D+1)·(n+2m) word operations for a graph of
// diameter D. The source batches are spread over up to workers
// goroutines (0 selects GOMAXPROCS; helpers come from budget when
// non-nil). Bit-identical at every worker count — see bfsDistances.
func ExactDistancesParallel(g *graph.Graph, workers int, budget *par.Budget) DistanceStats {
	return bfsDistances(g, nil, workers, budget)
}

// SampledDistancesParallel estimates the path queries by running BFS
// from a uniform sample of source nodes, 64 sources at a time, on a
// bounded worker pool. The diameter estimate is the maximum eccentricity
// over sampled sources (a lower bound, standard practice for large-graph
// benchmarking). Graphs with at most samples nodes fall back to exact
// BFS. The source sample is drawn from rng before any parallel work
// starts, so rng consumption — and therefore the result — is identical
// at every worker count.
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

// bfsDistances runs an exact multi-source bit-parallel BFS (MS-BFS; Then
// et al., "The More the Merrier", VLDB 2015) from sources (nil: every
// node). Sources are cut into batches of one machine word — 64 — and
// workers claim whole batches. Within a batch, source i owns bit i of
// every plane word, so one sweep over the CSR advances all 64 searches
// by one level, and the popcounts of the newly reached words are the
// exact number of (source, target) pairs at that distance.
//
// Worker-count invariance (DESIGN.md §2): the only accumulator is the
// integer histogram of pair counts per distance, merged by integer
// addition, which is order-free. Diameter, pair count and distance sum
// are read off the merged histogram, so the final floating-point
// divisions see identical operands at every worker count.
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
	batches := (len(sources) + 63) / 64
	workers = normWorkers(workers, batches)
	var (
		mu   sync.Mutex
		hist []int64 // hist[d]: (source, target) pairs at distance d
	)
	claim := par.Queue(batches)
	budget.Do(workers-1, func() {
		s := getScratch()
		defer s.Release()
		seen, frontier, next := s.bitPlanes(n)
		var lhist []int64
		for b, ok := claim(); ok; b, ok = claim() {
			batch := sources[b*64 : min(b*64+64, len(sources))]
			lhist = msbfs(g, batch, seen, frontier, next, lhist)
		}
		mu.Lock()
		for len(hist) < len(lhist) {
			hist = append(hist, 0)
		}
		for d, c := range lhist {
			hist[d] += c
		}
		mu.Unlock()
	})
	var sumDist, numPairs int64
	for d, c := range hist {
		sumDist += int64(d) * c
		numPairs += c
	}
	st := DistanceStats{}
	if numPairs > 0 {
		// hist only grows on a level that reached someone
		st.Diameter = float64(len(hist) - 1)
		st.AvgPath = float64(sumDist) / float64(numPairs)
		st.Distribution = make([]float64, len(hist))
		for i, c := range hist {
			st.Distribution[i] = float64(c) / float64(numPairs)
		}
	}
	return st
}

// msbfs runs one BFS from each of up to 64 distinct sources at once and
// adds the number of (source, target) pairs at each distance d ≥ 1 to
// hist[d], growing hist only for levels that reach at least one pair.
// Bit i of seen[v] records that source i has reached v, frontier[v] that
// it reached v on the previous level. Each level is one pull over the
// CSR — next[v] = OR of frontier over N(v), minus seen[v] — skipping
// nodes every source has already reached. All three planes (length
// g.N()) are fully initialised here, so stale contents never matter.
func msbfs(g *graph.Graph, batch []int32, seen, frontier, next []uint64, hist []int64) []int64 {
	clear(seen)
	clear(frontier)
	for i, s := range batch {
		seen[s] |= 1 << i
		frontier[s] |= 1 << i
	}
	full := ^uint64(0) >> (64 - len(batch))
	for d := 1; ; d++ {
		var reached int64
		for v, sv := range seen {
			if sv == full {
				next[v] = 0
				continue
			}
			var acc uint64
			for _, u := range g.Neighbors(int32(v)) {
				acc |= frontier[u]
			}
			nv := acc &^ sv
			next[v] = nv
			seen[v] = sv | nv
			reached += int64(bits.OnesCount64(nv))
		}
		if reached == 0 {
			return hist
		}
		for len(hist) <= d {
			hist = append(hist, 0)
		}
		hist[d] += reached
		frontier, next = next, frontier
	}
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
// have C_i = 0. The per-node triangle counts come from perNodeTriangles
// (exact integers, order-free atomic accumulation), and each C_i is one
// d_i-normalisation of its node's integer, so the vector is
// bit-identical at every worker count.
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
// (indexed by rank; rank maps node → rank) — the one triangle driver.
// cnt and rank live in s. Serially fwdTriangles stamps into s; each
// worker of a sharded pass draws its own Scratch for its stamp plane.
func perNodeTriangles(g *graph.Graph, s *Scratch, workers int, budget *par.Budget) ([]int64, []int32) {
	n := g.N()
	off, nbr, rank := forwardCSR(g, s)
	cnt := s.counts(n) // reuses the scatter-cursor arena, dead after the build
	clear(cnt)
	workers = normWorkers(workers, n)
	if workers == 1 {
		stamp := s.stamps(n)
		clear(stamp)
		fwdTriangles(off, nbr, 0, n, stamp, cnt)
		return cnt, rank
	}
	chunks := chunkByMass(off, 8*workers)
	claim := par.Queue(len(chunks) - 1)
	budget.Do(workers-1, func() {
		ws := getScratch()
		defer ws.Release()
		stamp := ws.stamps(n)
		clear(stamp)
		for i, ok := claim(); ok; i, ok = claim() {
			fwdTriangles(off, nbr, chunks[i], chunks[i+1], stamp, cnt)
		}
	})
	return cnt, rank
}

// TriangleProfileParallel answers the whole triangle query group — Q3
// (triangle count), Q10's numerator and denominator, and Q11 (average
// clustering, the Watts-Strogatz mean of the local coefficients) — from
// ONE perNodeTriangles pass: the stamped forward pass, O(m^{3/2}),
// sharded over contiguous node ranges on up to workers goroutines (0
// selects GOMAXPROCS), with helpers beyond the calling goroutine drawn
// from budget when non-nil (DESIGN.md §2). The per-node counts give the
// global total (Σ t_u = 3T, exactly, in integers) and the clustering
// coefficients, so every value is bit-identical at every worker count,
// and ACC equals the mean of LocalClusteringParallel: it reduces the
// same per-node floats in the same serial node order.
func TriangleProfileParallel(g *graph.Graph, workers int, budget *par.Budget) (triangles, wedges, acc float64) {
	n := g.N()
	if n == 0 {
		return 0, 0, 0
	}
	s := getScratch()
	defer s.Release()
	cnt, rank := perNodeTriangles(g, s, workers, budget)
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
	return float64(sum3(cnt)), wedges, sum / float64(n)
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
