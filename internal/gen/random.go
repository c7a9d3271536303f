// Package gen implements the graph-constructor models PGB's algorithms
// build synthetic graphs with — Erdős–Rényi, Barabási–Albert, Chung-Lu,
// BTER, Havel-Hakimi, joint-degree-matrix (2K) construction and stochastic
// Kronecker sampling — plus the structured generators (grids, planted
// communities, clique covers, triadic closure) used to simulate the
// benchmark's real-world datasets offline.
//
// Construction discipline: generators whose control flow never reads the
// partial edge set accumulate a flat []graph.Edge and finish with
// graph.FromEdges (duplicates and self-loops are dropped there);
// generators that probe membership mid-loop (rejection sampling,
// rewiring) use graph.EdgeSet, which keeps the probe O(1) on a
// single hash set instead of one map per node. Either way the RNG draw
// sequence is untouched, so every graph remains the same pure function
// of its seed as before the refactor.
package gen

import (
	"math"
	"math/rand"

	"pgb/internal/graph"
)

// GNM returns an Erdős–Rényi G(n, m) graph: m distinct edges chosen
// uniformly from all node pairs. m is clamped to the number of available
// pairs.
func GNM(n, m int, rng *rand.Rand) *graph.Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	// Dense regime: sample by enumeration; sparse: rejection sampling.
	if m > maxM/2 && n <= 4096 {
		// Reservoir over all pairs.
		edges := make([]graph.Edge, 0, maxM)
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		return graph.FromEdges(n, edges[:m])
	}
	s := graph.NewEdgeSet(n, m)
	for s.M() < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		s.Add(u, v)
	}
	return s.Build()
}

// GNP returns an Erdős–Rényi G(n, p) graph using geometric skipping
// (Batagelj-Brandes), O(n + m) expected time.
func GNP(n int, p float64, rng *rand.Rand) *graph.Graph {
	if p <= 0 || n < 2 {
		return graph.FromEdges(n, nil)
	}
	if p >= 1 {
		edges := make([]graph.Edge, 0, n*(n-1)/2)
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		return graph.FromEdges(n, edges)
	}
	edges := make([]graph.Edge, 0, int(p*float64(n)*float64(n-1)/2)+16)
	lp := math.Log(1 - p)
	v := 1
	w := -1
	for v < n {
		lr := math.Log(1 - rng.Float64())
		w += 1 + int(lr/lp)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			edges = append(edges, graph.Edge{U: int32(w), V: int32(v)})
		}
	}
	return graph.FromEdges(n, edges)
}

// BarabasiAlbert returns a preferential-attachment graph: starting from a
// small seed clique, each new node attaches to mAttach existing nodes with
// probability proportional to their degree.
func BarabasiAlbert(n, mAttach int, rng *rand.Rand) *graph.Graph {
	if mAttach < 1 {
		mAttach = 1
	}
	if n <= mAttach {
		return GNM(n, n*(n-1)/2, rng)
	}
	edges := make([]graph.Edge, 0, n*mAttach)
	// repeated-nodes list implements preferential attachment in O(1)/draw
	repeated := make([]int32, 0, 2*n*mAttach)
	// seed: star over the first mAttach+1 nodes
	for i := 1; i <= mAttach; i++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(i)})
		repeated = append(repeated, 0, int32(i))
	}
	// targets keeps draw order: appending to `repeated` in map-iteration
	// order would make the attachment sequence — and the whole graph —
	// nondeterministic for a fixed seed.
	targets := make([]int32, 0, mAttach)
	seen := make(map[int32]struct{}, mAttach)
	for u := int32(mAttach + 1); u < int32(n); u++ {
		targets = targets[:0]
		clear(seen)
		for len(targets) < mAttach {
			t := repeated[rng.Intn(len(repeated))]
			if t == u {
				continue
			}
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			targets = append(targets, t)
		}
		for _, t := range targets {
			edges = append(edges, graph.Canon(u, t))
			repeated = append(repeated, u, t)
		}
	}
	return graph.FromEdges(n, edges)
}

// ChungLu samples a graph where edge {u,v} appears with probability
// min(1, w_u·w_v / Σw), preserving the expected degree sequence w.
// Implemented with the efficient sorted-weight skipping algorithm
// (Miller & Hagberg 2011), O(n + m) expected.
func ChungLu(weights []float64, rng *rand.Rand) *graph.Graph {
	return graph.FromEdges(len(weights), chungLuEdges(weights, rng, nil))
}

// chungLuEdges appends the Chung-Lu edge sample to dst and returns the
// extended slice — the allocation-light core of ChungLu, used directly
// by BTER's phase 2 so the sample never round-trips through a second
// graph. Every emitted pair is distinct (i < j over a permutation), so
// callers may feed the result straight to FromEdges.
func chungLuEdges(weights []float64, rng *rand.Rand, dst []graph.Edge) []graph.Edge {
	n := len(weights)
	if n < 2 {
		return dst
	}
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		return dst
	}
	// order nodes by weight, descending
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sortByWeightDesc(order, weights)
	for i := 0; i < n-1; i++ {
		u := order[i]
		wu := weights[u]
		if wu <= 0 {
			break
		}
		j := i + 1
		p := math.Min(1, wu*weights[order[j]]/sum)
		for j < n && p > 0 {
			if p < 1 {
				r := rng.Float64()
				skip := int(math.Floor(math.Log(r) / math.Log(1-p)))
				j += skip
			}
			if j >= n {
				break
			}
			v := order[j]
			q := math.Min(1, wu*weights[v]/sum)
			if rng.Float64() < q/p {
				dst = append(dst, graph.Canon(int32(u), int32(v)))
			}
			p = q
			j++
		}
	}
	return dst
}

func sortByWeightDesc(order []int, weights []float64) {
	// simple insertion-free sort via sort.Slice equivalent without import cycle
	quickSortDesc(order, weights, 0, len(order)-1)
}

func quickSortDesc(order []int, w []float64, lo, hi int) {
	for lo < hi {
		p := w[order[(lo+hi)/2]]
		i, j := lo, hi
		for i <= j {
			for w[order[i]] > p {
				i++
			}
			for w[order[j]] < p {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSortDesc(order, w, lo, j)
			lo = i
		} else {
			quickSortDesc(order, w, i, hi)
			hi = j
		}
	}
}

// Grid2D returns an rows×cols lattice graph (used to simulate road
// networks such as Minnesota). extraEdges random chords are added and
// dropProb fraction of lattice edges removed, to roughen the mesh.
func Grid2D(rows, cols int, dropProb float64, extraEdges int, rng *rand.Rand) *graph.Graph {
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*n+extraEdges)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && rng.Float64() >= dropProb {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows && rng.Float64() >= dropProb {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	for i := 0; i < extraEdges; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		edges = append(edges, graph.Canon(u, v))
	}
	return graph.FromEdges(n, edges)
}

// PowerLawWeights returns n Chung-Lu weights following a discrete power
// law with the given exponent (>1), scaled so the weights sum to 2·m.
func PowerLawWeights(n int, exponent float64, m int, rng *rand.Rand) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		// inverse-CDF sample of Pareto with x_min=1
		u := rng.Float64()
		w[i] = math.Pow(1-u, -1/(exponent-1))
		sum += w[i]
	}
	scale := 2 * float64(m) / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}
