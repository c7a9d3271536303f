// Package ldpgen implements LDPGen (Qin, Yu, Yang, Khalil, Xiao & Ren,
// CCS 2017): synthetic decentralized social graphs with local differential
// privacy — the Edge-LDP algorithm PGB's DGG baseline was centralised
// from. PGB's Remark 4 notes the benchmark extends to Edge-LDP mechanisms
// once the privacy definition is held fixed; this package (together with
// the RNL baseline) instantiates that extension.
//
// Protocol (each user holds her adjacency bit vector; the server is
// untrusted):
//
//	Phase 1 — users are assigned to k0 random groups; each user reports
//	her noisy degree vector toward the groups (Laplace, sensitivity 1
//	per Edge LDP since neighboring bit vectors differ in one bit).
//	The server k-means-clusters users by these vectors.
//
//	Phase 2 — users report noisy degree vectors toward the learned
//	clusters; the server estimates intra-cluster degrees and
//	inter-cluster edge totals.
//
//	Construction — BTER-style: Chung-Lu within clusters driven by the
//	estimated intra-cluster degrees, uniform bipartite edges between
//	clusters matching the estimated totals.
package ldpgen

import (
	"math"
	"math/rand"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/gen"
	"pgb/internal/graph"
)

// shardGrain is the node-block size of the sharded passes; fixed (never
// derived from the worker count) so the block decomposition — and with it
// every merge — is identical at any parallelism (DESIGN.md §10).
const shardGrain = 256

// phase1Fraction is the ε share of phase 1; phase 2 spends the rest.
const phase1Fraction = 0.5

// LDPGen is the two-phase Edge-LDP generator.
type LDPGen struct{}

// Default returns LDPGen with the paper's parameterisation.
func Default() *LDPGen { return &LDPGen{} }

// Generate implements algo.Generator. Every user's reports are
// simulated from her adjacency list; the server side sees only the
// noisy vectors. The deterministic heavy passes — the two per-user
// degree-vector scans and the k-means distance loops — are node-sharded
// across p's workers; every Laplace draw and every sampling decision
// stays on rng in the serial order, so the output is bit-identical at
// any worker count.
func (l *LDPGen) Generate(g *graph.Graph, eps float64, rng *rand.Rand, p algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	eps1 := eps * phase1Fraction
	eps2 := eps - eps1
	if err := acct.Spend(eps1); err != nil {
		return nil, err
	}
	if err := acct.Spend(eps2); err != nil {
		return nil, err
	}
	n := g.N()
	if n < 4 {
		return graph.New(n), nil
	}
	// k0 random groups of phase 1 (the paper's heuristic) and k1 learned
	// clusters of phase 2.
	k0 := clampInt(n/200, 2, 16)
	k1 := clampInt(int(math.Sqrt(float64(n))/4), 2, 32)

	// Phase 1: noisy degree vectors toward k0 random groups. The raw
	// group-count scan is deterministic and node-sharded into one flat
	// arena (disjoint writes — exact at any worker count); the Laplace
	// pass then draws from rng serially in user order, exactly the
	// legacy sequence.
	group := make([]int, n)
	for u := range group {
		group[u] = rng.Intn(k0)
	}
	arena1 := make([]float64, n*k0)
	p.ForEach(n, shardGrain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			vec := arena1[u*k0 : (u+1)*k0]
			for _, v := range g.Neighbors(int32(u)) {
				vec[group[v]]++
			}
		}
	})
	vectors := make([][]float64, n)
	for u := 0; u < n; u++ {
		vec := arena1[u*k0 : (u+1)*k0]
		dp.LaplaceVectorInto(rng, vec, vec, 1, eps1)
		vectors[u] = vec
	}
	assign := kmeans(vectors, k1, 25, rng, p)

	// Phase 2: noisy degree vectors toward the learned clusters — the
	// same shape: sharded raw counts, then a serial noise-and-accumulate
	// pass (the interTotals float sums are order-sensitive, so they stay
	// on the calling goroutine in user order).
	intraDeg := make([]float64, n)       // user's (noisy) degree into own cluster
	interTotals := make([][]float64, k1) // symmetric cluster-pair totals
	for i := range interTotals {
		interTotals[i] = make([]float64, k1)
	}
	arena2 := make([]float64, n*k1)
	p.ForEach(n, shardGrain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			vec := arena2[u*k1 : (u+1)*k1]
			for _, v := range g.Neighbors(int32(u)) {
				vec[assign[v]]++
			}
		}
	})
	for u := 0; u < n; u++ {
		vec := arena2[u*k1 : (u+1)*k1]
		dp.LaplaceVectorInto(rng, vec, vec, 1, eps2)
		cu := assign[u]
		for c := 0; c < k1; c++ {
			if c == cu {
				intraDeg[u] = vec[c]
			} else {
				interTotals[cu][c] += vec[c]
			}
		}
	}

	// Construction. Intra-cluster: BTER blocks from estimated degrees.
	members := make([][]int32, k1)
	for u := 0; u < n; u++ {
		members[assign[u]] = append(members[assign[u]], int32(u))
	}
	b := graph.NewEdgeSet(n, 0)
	for c := 0; c < k1; c++ {
		ms := members[c]
		if len(ms) < 2 {
			continue
		}
		deg := make([]float64, len(ms))
		for i, u := range ms {
			deg[i] = intraDeg[u]
		}
		target := gen.SanitizeDegrees(deg)
		sub := gen.BTER(target, rng)
		for _, e := range sub.Edges() {
			b.Add(ms[e.U], ms[e.V])
		}
	}
	// Inter-cluster: each unordered pair's total is the average of the
	// two directed estimates (each edge reported once per side).
	for a := 0; a < k1; a++ {
		for c := a + 1; c < k1; c++ {
			est := (interTotals[a][c] + interTotals[c][a]) / 2
			count := int(math.Round(est))
			if count <= 0 {
				continue
			}
			ma, mc := members[a], members[c]
			if len(ma) == 0 || len(mc) == 0 {
				continue
			}
			if max := len(ma) * len(mc); count > max {
				count = max
			}
			placed, tries := 0, 0
			for placed < count && tries < 20*count+50 {
				tries++
				u := ma[rng.Intn(len(ma))]
				v := mc[rng.Intn(len(mc))]
				if b.Has(u, v) {
					continue
				}
				b.Add(u, v)
				placed++
			}
		}
	}
	return b.Build(), nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// kmeans clusters the vectors with Lloyd's algorithm, k-means++-style
// seeding, returning a cluster index per vector. Empty clusters are
// re-seeded with the farthest point. The distance loops — the O(iters ·
// n · k · dim) hot path — are node-sharded across p's workers; each
// shard writes disjoint dist/assign entries, so results are identical at
// any worker count. All rng draws and the order-sensitive float
// reductions (the seeding total, the center sums) stay serial.
func kmeans(vectors [][]float64, k, iters int, rng *rand.Rand, p algo.Params) []int {
	n := len(vectors)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	dim := len(vectors[0])
	centers := make([][]float64, k)
	// k-means++ seeding
	first := rng.Intn(n)
	centers[0] = append([]float64(nil), vectors[first]...)
	dist := make([]float64, n)
	for c := 1; c < k; c++ {
		c := c
		p.ForEach(n, shardGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := vectors[i]
				d := math.Inf(1)
				for j := 0; j < c; j++ {
					if dd := sqDist(v, centers[j]); dd < d {
						d = dd
					}
				}
				dist[i] = d
			}
		})
		total := 0.0
		for _, d := range dist {
			total += d
		}
		pick := 0
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range dist {
				acc += d
				if r < acc {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(n)
		}
		centers[c] = append([]float64(nil), vectors[pick]...)
	}

	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([][]float64, k)
	for i := range sums {
		sums[i] = make([]float64, dim)
	}
	changedShard := make([]bool, (n+shardGrain-1)/shardGrain+1)
	for it := 0; it < iters; it++ {
		for i := range changedShard {
			changedShard[i] = false
		}
		p.ForEach(n, shardGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := vectors[i]
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					if d := sqDist(v, centers[c]); d < bestD {
						best, bestD = c, d
					}
				}
				if assign[i] != best {
					assign[i] = best
					changedShard[lo/shardGrain] = true
				}
			}
		})
		changed := false
		for _, ch := range changedShard {
			changed = changed || ch
		}
		if !changed && it > 0 {
			break
		}
		for c := 0; c < k; c++ {
			counts[c] = 0
			for j := range sums[c] {
				sums[c][j] = 0
			}
		}
		for i, v := range vectors {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				sums[c][j] += x
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// re-seed an empty cluster with a random vector
				centers[c] = append([]float64(nil), vectors[rng.Intn(n)]...)
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return assign
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
