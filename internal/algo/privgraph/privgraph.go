// Package privgraph implements PrivGraph (Yuan et al., USENIX Security
// 2023): differentially private graph publication by exploiting community
// information.
//
// Representation: a community partition plus, per community, the
// intra-community degree sequence, plus the matrix of inter-community edge
// counts. Perturbation: Phase 1 obtains the partition privately — the
// graph is randomised by edge flips (randomized response at budget ε1,
// which satisfies edge DP by itself) and Louvain runs on the randomised
// graph as post-processing; Phase 2 adds Laplace noise to the
// intra-community degree sequences (sensitivity 2, budget ε2) and to the
// inter-community edge counts (sensitivity 1, budget ε3). Construction:
// the Chung-Lu model inside each community and uniform random bipartite
// edges between communities.
package privgraph

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"

	"pgb/internal/algo"
	"pgb/internal/community"
	"pgb/internal/dp"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// shardGrain is the node-block size of the sharded accumulation pass;
// fixed so the decomposition never depends on the worker count.
const shardGrain = 256

// maxDenseInter caps the dense inter-community count arena at 2M entries
// (16 MB): beyond that — degenerate partitions with thousands of
// communities — the sparse map accumulator is used instead.
const maxDenseInter = 1 << 21

// Options configures PrivGraph.
type Options struct {
	// Split is the ε share (ε1, ε2, ε3) for the community phase, the
	// intra-community degrees, and the inter-community edge counts.
	// Must sum to 1; zero value selects the paper's (1/3, 1/3, 1/3).
	Split [3]float64
}

// PrivGraph is the community-based generator.
type PrivGraph struct {
	opt Options
}

// New returns a PrivGraph generator with the given options.
func New(opt Options) *PrivGraph {
	s := opt.Split[0] + opt.Split[1] + opt.Split[2]
	if s <= 0 {
		opt.Split = [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	} else if math.Abs(s-1) > 1e-9 {
		for i := range opt.Split {
			opt.Split[i] /= s
		}
	}
	return &PrivGraph{opt: opt}
}

// Default returns PrivGraph with the paper's equal budget split.
func Default() *PrivGraph { return New(Options{}) }

// Generate implements algo.Generator. The phase-2 statistics scan —
// intra-community degrees and inter-community edge counts over every
// adjacency — is node-sharded across prm's workers into flat arenas
// with exact integer merges (atomic counts), so the output is
// bit-identical at any worker count; the randomized-response draws,
// Louvain post-processing, Laplace noise and construction sampling all
// stay on rng in the serial order.
func (p *PrivGraph) Generate(g *graph.Graph, eps float64, rng *rand.Rand, prm algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	eps1 := eps * p.opt.Split[0]
	eps2 := eps * p.opt.Split[1]
	eps3 := eps * p.opt.Split[2]
	for _, e := range []float64{eps1, eps2, eps3} {
		if err := acct.Spend(e); err != nil {
			return nil, err
		}
	}
	n := g.N()

	// ---- Phase 1: private community partition via randomized response +
	// Louvain post-processing.
	noisy := randomizeEdges(g, eps1, rng)
	part := community.Louvain(noisy, rng)
	labels := part.Labels
	k := part.NumCommunities
	members := make([][]int32, k)
	for u := 0; u < n; u++ {
		c := labels[u]
		members[c] = append(members[c], int32(u))
	}

	// ---- Phase 2a+2b: one node-sharded scan accumulates both the
	// intra-community degree sequences (disjoint per-node writes) and the
	// inter-community edge counts (integer adds — atomic on the dense
	// arena, so the merged values are exact regardless of schedule).
	// A node's intra degree is its count of same-community neighbors —
	// identical to the legacy per-edge double increment.
	intraDegrees := make([][]float64, k)
	for c := range members {
		intraDegrees[c] = make([]float64, len(members[c]))
	}
	// index of node inside its community
	pos := make([]int32, n)
	for _, ms := range members {
		for i, u := range ms {
			pos[u] = int32(i)
		}
	}
	var interArena []int64
	var interMap map[[2]int]float64
	if k > 0 && k <= maxDenseInter/k {
		interArena = make([]int64, k*k)
		prm.ForEach(n, shardGrain, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				cu := labels[u]
				intra := 0
				for _, v := range g.Neighbors(int32(u)) {
					cv := labels[v]
					if cv == cu {
						intra++
					} else if int32(u) < v {
						a, b := cu, cv
						if a > b {
							a, b = b, a
						}
						atomic.AddInt64(&interArena[a*k+b], 1)
					}
				}
				intraDegrees[cu][pos[u]] = float64(intra)
			}
		})
	} else {
		interMap = make(map[[2]int]float64)
		for u := 0; u < n; u++ {
			cu := labels[u]
			intra := 0
			for _, v := range g.Neighbors(int32(u)) {
				cv := labels[v]
				if cv == cu {
					intra++
				} else if int32(u) < v {
					a, b := cu, cv
					if a > b {
						a, b = b, a
					}
					interMap[[2]int{a, b}]++
				}
			}
			intraDegrees[cu][pos[u]] = float64(intra)
		}
	}
	for c := range intraDegrees {
		for i := range intraDegrees[c] {
			intraDegrees[c][i] += dp.Laplace(rng, 2/eps2)
		}
	}

	// ---- Phase 3: construction.
	b := graph.NewEdgeSet(n, 0)
	// Chung-Lu inside each community.
	for c, ms := range members {
		if len(ms) < 2 {
			continue
		}
		w := make([]float64, len(ms))
		for i, d := range intraDegrees[c] {
			if d > 0 {
				w[i] = d
			}
		}
		sub := gen.ChungLu(w, rng)
		for _, e := range sub.Edges() {
			b.Add(ms[e.U], ms[e.V])
		}
	}
	// Uniform bipartite edges between communities, iterating community
	// pairs in ascending (a, b) order so noise draws are reproducible —
	// the same sequence the legacy sorted-map-key loop produced, since
	// only observed pairs (count > 0) are visited.
	var interKeys [][2]int
	interCount := func(key [2]int) float64 { return interMap[key] }
	if interArena != nil {
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				if interArena[a*k+b] > 0 {
					interKeys = append(interKeys, [2]int{a, b})
				}
			}
		}
		interCount = func(key [2]int) float64 { return float64(interArena[key[0]*k+key[1]]) }
	} else {
		for key := range interMap {
			interKeys = append(interKeys, key)
		}
		sort.Slice(interKeys, func(a, b int) bool {
			if interKeys[a][0] != interKeys[b][0] {
				return interKeys[a][0] < interKeys[b][0]
			}
			return interKeys[a][1] < interKeys[b][1]
		})
	}
	for _, key := range interKeys {
		noisyCnt := interCount(key) + dp.Laplace(rng, 1/eps3)
		count := int(math.Round(noisyCnt))
		if count <= 0 {
			continue
		}
		ca, cb := members[key[0]], members[key[1]]
		maxPairs := len(ca) * len(cb)
		if count > maxPairs {
			count = maxPairs
		}
		placed, tries := 0, 0
		for placed < count && tries < 20*count+50 {
			tries++
			u := ca[rng.Intn(len(ca))]
			v := cb[rng.Intn(len(cb))]
			if b.Has(u, v) {
				continue
			}
			b.Add(u, v)
			placed++
		}
	}
	return b.Build(), nil
}

// randomizeEdges applies symmetric randomized response to the adjacency
// bits at budget eps (each bit flips with probability 1/(e^ε+1), giving
// ε-edge-DP since neighboring graphs differ in one bit): existing edges
// are dropped with the RR flip probability; the expected number of
// flipped-in non-edges is sampled in
// aggregate and placed uniformly (the exchangeability shortcut also used
// by TmF, avoiding the O(n²) scan). For small ε this densifies the graph
// substantially — the known RR weakness on sparse graphs that the paper's
// G1/G2 principles discuss; Louvain then runs as post-processing.
func randomizeEdges(g *graph.Graph, eps float64, rng *rand.Rand) *graph.Graph {
	n := g.N()
	q := dp.FlipProbability(eps)
	// Collect surviving and flipped-in edges into a flat list and build
	// the CSR arena directly: FromEdges deduplicates exactly like the
	// legacy per-node Builder maps did, without their allocations. The
	// rng draw sequence (one Float64 per true edge in canonical order,
	// then two Intn per flip-in attempt) is unchanged.
	edges := make([]graph.Edge, 0, g.M())
	for e := range g.EdgeSeq() {
		if rng.Float64() >= q {
			edges = append(edges, e)
		}
	}
	nonEdges := float64(n)*float64(n-1)/2 - float64(g.M())
	// Cap the flip-ins: Louvain on an RR-densified graph is both slow and
	// uninformative beyond ~4m extra edges, so the phase-1 post-processing
	// subsamples the flipped-in population (post-processing preserves DP).
	expected := nonEdges * q
	cap4m := 4 * float64(g.M())
	if expected > cap4m {
		expected = cap4m
	}
	count := int(expected)
	for i := 0; i < count; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			edges = append(edges, graph.Canon(u, v))
		}
	}
	return graph.FromEdges(n, edges)
}
