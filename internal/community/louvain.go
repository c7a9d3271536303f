// Package community implements Louvain modularity optimisation
// (Blondel et al. 2008). It serves two roles in PGB: the community
// detection query Q12 evaluated on true and synthetic graphs, and the
// non-private community phase inside the PrivGraph algorithm.
package community

import (
	"math/rand"
	"sort"

	"pgb/internal/graph"
	"pgb/internal/stats"
)

// Result holds a detected partition: Labels[u] is the community of node u,
// with labels compacted to 0..NumCommunities-1.
type Result struct {
	Labels         []int
	NumCommunities int
	Modularity     float64
}

// weighted multigraph used for Louvain aggregation levels, in the same
// flat CSR layout as graph.Graph (off/nbr plus a parallel weight arena).
// The dominant Louvain cost is the neighbor-community scan in localMove;
// on the flat arenas it is a contiguous sweep with no per-node maps or
// allocations. Every weight is an exact integer held in a float64 (level
// 0 weights are 1, aggregation only sums them), so accumulation order
// can never change a value — the determinism lever the whole package
// leans on (DESIGN.md §2).
type wgraph struct {
	n        int
	off      []int64   // len n+1
	nbr      []int32   // neighbor ids
	wt       []float64 // parallel to nbr
	selfLoop []float64 // intra weight (counted once per collapsed edge)
	totalW   float64   // sum of edge weights (each undirected edge once), incl. self loops
}

func fromGraph(g *graph.Graph) *wgraph {
	n := g.N()
	w := &wgraph{n: n, off: make([]int64, n+1), selfLoop: make([]float64, n), totalW: float64(g.M())}
	for u := 0; u < n; u++ {
		w.off[u+1] = w.off[u] + int64(g.Degree(int32(u)))
	}
	w.nbr = make([]int32, w.off[n])
	w.wt = make([]float64, w.off[n])
	for u := 0; u < n; u++ {
		copy(w.nbr[w.off[u]:w.off[u+1]], g.Neighbors(int32(u)))
	}
	for i := range w.wt {
		w.wt[i] = 1
	}
	return w
}

// Louvain runs the two-phase Louvain algorithm to convergence and returns
// the final partition on the original nodes. The node visit order is
// shuffled with rng, so different seeds may yield different (valid) local
// optima; passing a fixed seed makes detection deterministic.
func Louvain(g *graph.Graph, rng *rand.Rand) Result {
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
	// mapping from original node -> current community label chain
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i
	}

	for level := 0; level < 64; level++ {
		comm, moved := localMove(w, rng)
		if !moved && level > 0 {
			break
		}
		// compact community ids
		remap := make(map[int]int)
		for _, c := range comm {
			if _, ok := remap[c]; !ok {
				remap[c] = len(remap)
			}
		}
		for i := range comm {
			comm[i] = remap[comm[i]]
		}
		// update assignment of original nodes
		for i := range assign {
			assign[i] = comm[assign[i]]
		}
		if len(remap) == w.n {
			break // no aggregation happened
		}
		w = aggregate(w, comm, len(remap))
		if !moved {
			break
		}
	}

	// compact final labels
	remap := make(map[int]int)
	for _, c := range assign {
		if _, ok := remap[c]; !ok {
			remap[c] = len(remap)
		}
	}
	labels := make([]int, n)
	for i, c := range assign {
		labels[i] = remap[c]
	}
	return Result{
		Labels:         labels,
		NumCommunities: len(remap),
		Modularity:     stats.Modularity(g, labels),
	}
}

// localMove is Louvain phase one: greedily move nodes to the neighboring
// community with the highest modularity gain until no move improves.
// Neighbor-community weights accumulate into a reused scratch vector
// (weights are strictly positive, so nbw[c] == 0 means "not seen"), and
// candidate communities are evaluated in sorted order so tie-breaking —
// and hence the whole run — is deterministic.
func localMove(w *wgraph, rng *rand.Rand) ([]int, bool) {
	n := w.n
	comm := make([]int, n)
	commTotDeg := make([]float64, n) // Σ degree of nodes in community
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

	nbw := make([]float64, n)   // weight from u to community c, zeroed after each node
	cands := make([]int, 0, 64) // communities touched for the current node
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
			// remove u from its community
			commTotDeg[cu] -= deg[u]
			bestC, bestGain := cu, 0.0
			baseW := nbw[cu]
			baseGain := baseW - commTotDeg[cu]*deg[u]/m2
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

// aggregate is Louvain phase two: collapse each community into a super
// node, preserving edge weights and intra-community weight as self loops.
// Members are visited in ascending node order per community and the super
// adjacency is emitted in sorted community order, keeping the output a
// pure function of (w, comm).
func aggregate(w *wgraph, comm []int, k int) *wgraph {
	out := &wgraph{n: k, selfLoop: make([]float64, k), totalW: w.totalW}

	// counting-sort nodes by community
	bucketOff := make([]int, k+1)
	for _, c := range comm {
		bucketOff[c+1]++
	}
	for c := 0; c < k; c++ {
		bucketOff[c+1] += bucketOff[c]
	}
	members := make([]int32, w.n)
	pos := append([]int(nil), bucketOff[:k]...)
	for u := 0; u < w.n; u++ {
		c := comm[u]
		members[pos[c]] = int32(u)
		pos[c]++
	}

	nbw := make([]float64, k)
	var cands []int
	off := make([]int64, 1, k+1)
	var nbr []int32
	var wts []float64
	for cu := 0; cu < k; cu++ {
		cands = cands[:0]
		for _, u32 := range members[bucketOff[cu]:bucketOff[cu+1]] {
			u := int(u32)
			out.selfLoop[cu] += w.selfLoop[u]
			for i := w.off[u]; i < w.off[u+1]; i++ {
				v := int(w.nbr[i])
				cv := comm[v]
				if cv == cu {
					if u < v {
						out.selfLoop[cu] += w.wt[i]
					}
				} else {
					if nbw[cv] == 0 {
						cands = append(cands, cv)
					}
					nbw[cv] += w.wt[i]
				}
			}
		}
		sort.Ints(cands)
		for _, cv := range cands {
			nbr = append(nbr, int32(cv))
			wts = append(wts, nbw[cv])
			nbw[cv] = 0
		}
		off = append(off, int64(len(nbr)))
	}
	out.off, out.nbr, out.wt = off, nbr, wts
	return out
}
