package gen

import (
	"math/rand"

	"pgb/internal/graph"
)

// PlantedPartition generates a graph with `blocks` equal-sized communities:
// pIn within-community edge probability, pOut across. Used both by dataset
// simulation (social graphs) and by tests that need a known community
// structure.
func PlantedPartition(n, blocks int, pIn, pOut float64, rng *rand.Rand) *graph.Graph {
	if blocks < 1 {
		blocks = 1
	}
	label := make([]int, n)
	for u := 0; u < n; u++ {
		label[u] = u * blocks / n
	}
	edges := make([]graph.Edge, 0, n*4)
	// within-block: ER per block
	for blk := 0; blk < blocks; blk++ {
		lo := blk * n / blocks
		hi := (blk + 1) * n / blocks
		sub := GNP(hi-lo, pIn, rng)
		for e := range sub.EdgeSeq() {
			edges = append(edges, graph.Edge{U: e.U + int32(lo), V: e.V + int32(lo)})
		}
	}
	// across-block: sparse ER over all pairs, keep only cross pairs
	if pOut > 0 {
		expected := int(pOut * float64(n) * float64(n) / 2)
		for i := 0; i < expected; i++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u != v && label[u] != label[v] {
				edges = append(edges, graph.Canon(u, v))
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// CliqueCover generates an overlapping-clique graph in the style of
// co-authorship networks: numCliques cliques with sizes drawn uniformly
// from [minSize, maxSize], membership drawn with preferential reuse
// (probability reuse, clamped into [0, 0.9]) so prolific nodes appear in
// many cliques. Produces very high clustering; higher reuse trades
// clustering for hub overlap.
func CliqueCover(n, numCliques, minSize, maxSize int, reuse float64, rng *rand.Rand) *graph.Graph {
	if maxSize < minSize {
		maxSize = minSize
	}
	if reuse < 0 {
		reuse = 0
	}
	if reuse > 0.9 {
		reuse = 0.9
	}
	edges := make([]graph.Edge, 0, numCliques*maxSize*(maxSize-1)/2)
	// preferential member pool
	pool := make([]int32, 0, 4*numCliques)
	for i := 0; i < numCliques; i++ {
		size := minSize + rng.Intn(maxSize-minSize+1)
		// list keeps draw order — feeding the preferential pool in
		// map-iteration order would make later draws nondeterministic.
		members := make(map[int32]struct{}, size)
		list := make([]int32, 0, size)
		for len(list) < size {
			var u int32
			if len(pool) > 0 && rng.Float64() < reuse {
				u = pool[rng.Intn(len(pool))]
			} else {
				u = int32(rng.Intn(n))
			}
			if _, dup := members[u]; dup {
				continue
			}
			members[u] = struct{}{}
			list = append(list, u)
		}
		pool = append(pool, list...)
		for a := 0; a < len(list); a++ {
			for c := a + 1; c < len(list); c++ {
				edges = append(edges, graph.Canon(list[a], list[c]))
			}
		}
	}
	return graph.FromEdges(n, edges)
}

// TriadicClosure adds up to extra edges by closing open wedges: pick a
// random node, join two of its neighbors. Raises the clustering
// coefficient of an existing graph in place (returns a new graph).
func TriadicClosure(g *graph.Graph, extra int, rng *rand.Rand) *graph.Graph {
	n := g.N()
	s := graph.NewEdgeSetOver(g, extra)
	added, tries := 0, 0
	for added < extra && tries < extra*20+100 {
		tries++
		u := int32(rng.Intn(n))
		nb := g.Neighbors(u)
		if len(nb) < 2 {
			continue
		}
		a := nb[rng.Intn(len(nb))]
		c := nb[rng.Intn(len(nb))]
		if !s.Add(a, c) {
			continue
		}
		added++
	}
	return s.Build()
}
