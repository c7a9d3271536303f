// Package privhrg implements PrivHRG (Xiao, Chen & Tan, KDD 2014):
// differentially private network release via structural inference over
// hierarchical random graphs.
//
// Representation: a hierarchical random graph (HRG) dendrogram (Clauset,
// Moore & Newman 2008) — a binary tree whose n leaves are the graph's
// nodes; each internal node r records the number of edges e_r crossing
// between its left and right subtrees, defining a connection probability
// p_r = e_r / (n_L·n_R). Perturbation: the dendrogram itself is sampled
// privately by Markov-Chain Monte Carlo whose stationary distribution is
// the exponential mechanism over the HRG log-likelihood (budget ε1);
// afterwards the per-node edge counts receive Laplace noise of sensitivity
// 1 (budget ε2 — an edge flip changes exactly one e_r, at the endpoints'
// lowest common ancestor). Construction: for every internal node, a
// binomial number of cross edges is sampled between its two leaf sets at
// probability p̃_r.
package privhrg

import (
	"math"
	"math/rand"
	"sync/atomic"

	"pgb/internal/algo"
	"pgb/internal/dp"
	"pgb/internal/graph"
)

// shardGrain is the block size of the sharded counting passes; fixed so
// the decomposition never depends on the worker count.
const shardGrain = 256

// structureFraction is the share of ε spent sampling the dendrogram (ε1);
// the rest perturbs edge counts (ε2).
const structureFraction = 0.5

// Options configures PrivHRG.
type Options struct {
	// MCMCSteps is the number of Metropolis steps; <= 0 selects
	// min(40·n, 60000).
	MCMCSteps int
}

// PrivHRG is the hierarchical-random-graph generator.
type PrivHRG struct {
	opt Options
}

// New returns a PrivHRG generator with the given options.
func New(opt Options) *PrivHRG { return &PrivHRG{opt: opt} }

// Default returns PrivHRG with the paper's parameterisation.
func Default() *PrivHRG { return New(Options{}) }

// dendrogram over n leaves: nodes 0..n-1 are leaves, n..2n-2 internal.
type dendrogram struct {
	n       int
	parent  []int32
	left    []int32 // children (internal nodes only; -1 for leaves)
	right   []int32
	nLeaves []int32
	e       []float64 // crossing edge count (internal nodes)
	root    int32
	g       *graph.Graph
	// prm is the execution-only worker allowance of the sharded counting
	// passes; it never affects values (exact integer merges only).
	prm algo.Params
	// leafA is the reusable leaf-collection scratch buffer of the
	// per-MCMC-step edgesBetween calls; mark[u] == stamp marks u as a
	// leaf of the call's larger side.
	leafA []int32
	mark  []uint32
	stamp uint32
}

func newDendrogram(g *graph.Graph, rng *rand.Rand, prm algo.Params) *dendrogram {
	n := g.N()
	total := 2*n - 1
	d := &dendrogram{
		n:       n,
		parent:  make([]int32, total),
		left:    make([]int32, total),
		right:   make([]int32, total),
		nLeaves: make([]int32, total),
		e:       make([]float64, total),
		g:       g,
		prm:     prm,
		leafA:   make([]int32, 0, n),
		mark:    make([]uint32, n),
	}
	for i := range d.left {
		d.left[i] = -1
		d.right[i] = -1
		d.parent[i] = -1
	}
	for i := 0; i < n; i++ {
		d.nLeaves[i] = 1
	}
	// random balanced tree over a shuffled leaf order
	leaves := make([]int32, n)
	for i := range leaves {
		leaves[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
	next := int32(n)
	var build func(lo, hi int) int32
	build = func(lo, hi int) int32 {
		if hi-lo == 1 {
			return leaves[lo]
		}
		mid := (lo + hi) / 2
		l := build(lo, mid)
		r := build(mid, hi)
		id := next
		next++
		d.left[id] = l
		d.right[id] = r
		d.parent[l] = id
		d.parent[r] = id
		d.nLeaves[id] = d.nLeaves[l] + d.nLeaves[r]
		return id
	}
	d.root = build(0, n)
	d.recountEdges()
	return d
}

// recountEdges recomputes all crossing counts from scratch via LCA. The
// per-edge LCA walk is node-sharded; each edge adds one exact integer
// count (atomically), so the totals are identical at any worker count.
func (d *dendrogram) recountEdges() {
	depth := make([]int32, len(d.parent))
	var computeDepth func(u int32) int32
	computeDepth = func(u int32) int32 {
		if depth[u] != 0 || u == d.root {
			return depth[u]
		}
		depth[u] = computeDepth(d.parent[u]) + 1
		return depth[u]
	}
	for i := range depth {
		computeDepth(int32(i))
	}
	counts := make([]int64, len(d.e))
	g := d.g
	d.prm.ForEach(d.n, shardGrain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(int32(u)) {
				if int32(u) < v {
					atomic.AddInt64(&counts[d.lca(int32(u), v, depth)], 1)
				}
			}
		}
	})
	for i, c := range counts {
		d.e[i] = float64(c)
	}
}

func (d *dendrogram) lca(u, v int32, depth []int32) int32 {
	for depth[u] > depth[v] {
		u = d.parent[u]
	}
	for depth[v] > depth[u] {
		v = d.parent[v]
	}
	for u != v {
		u = d.parent[u]
		v = d.parent[v]
	}
	return u
}

// collectLeaves appends the leaves under node u to out.
func (d *dendrogram) collectLeaves(u int32, out []int32) []int32 {
	if u < int32(d.n) {
		return append(out, u)
	}
	out = d.collectLeaves(d.left[u], out)
	return d.collectLeaves(d.right[u], out)
}

// stampLeaves sets mark[u] = stamp for every leaf u under node u.
func (d *dendrogram) stampLeaves(u int32) {
	for u >= int32(d.n) {
		d.stampLeaves(d.left[u])
		u = d.right[u]
	}
	d.mark[u] = d.stamp
}

// edgesBetween counts graph edges between the leaf sets of subtrees a and
// s. It stamps the larger side's leaves straight from the tree walk and
// scans the smaller side's neighbor lists. A scan of at most shardGrain
// leaves runs inline; a bigger one is sharded across the dendrogram's
// workers (the count is an exact integer merge). The leaf buffer and
// marks are reused, so a small step allocates nothing.
func (d *dendrogram) edgesBetween(a, s int32) float64 {
	if d.nLeaves[a] > d.nLeaves[s] {
		a, s = s, a
	}
	d.stamp++
	if d.stamp == 0 {
		clear(d.mark)
		d.stamp = 1
	}
	d.stampLeaves(s)
	la := d.collectLeaves(a, d.leafA[:0])
	d.leafA = la
	mark, stamp := d.mark, d.stamp
	if len(la) <= shardGrain {
		cnt := 0
		for _, u := range la {
			for _, v := range d.g.Neighbors(u) {
				if mark[v] == stamp {
					cnt++
				}
			}
		}
		return float64(cnt)
	}
	var cnt int64
	d.prm.ForEach(len(la), shardGrain, func(lo, hi int) {
		part := int64(0)
		for _, u := range la[lo:hi] {
			for _, v := range d.g.Neighbors(u) {
				if mark[v] == stamp {
					part++
				}
			}
		}
		atomic.AddInt64(&cnt, part)
	})
	return float64(cnt)
}

// swap applies an accepted move at internal node r, whose children are
// keep and move and whose sibling is sib: move and sib exchange parents,
// so r becomes (keep, sib) with crossing count eR and r's parent becomes
// (r, move) with crossing count eP. The parent's leaf set is unchanged.
func (d *dendrogram) swap(r, keep, move, sib int32, eR, eP float64) {
	par := d.parent[r]
	d.left[r] = keep
	d.right[r] = sib
	d.parent[sib] = r
	if d.left[par] == r {
		d.right[par] = move
	} else {
		d.left[par] = move
	}
	d.parent[move] = par
	d.e[r] = eR
	d.e[par] = eP
	d.nLeaves[r] = d.nLeaves[keep] + d.nLeaves[sib]
}

// termLL is one internal node's log-likelihood contribution:
// e·ln p + (nl·nr − e)·ln(1−p) with p = e/(nl·nr) and 0·ln 0 = 0.
func termLL(e, pairs float64) float64 {
	if pairs <= 0 {
		return 0
	}
	p := e / pairs
	ll := 0.0
	if p > 0 {
		ll += e * math.Log(p)
	}
	if p < 1 {
		ll += (pairs - e) * math.Log(1-p)
	}
	return ll
}

func (d *dendrogram) pairs(r int32) float64 {
	return float64(d.nLeaves[d.left[r]]) * float64(d.nLeaves[d.right[r]])
}

// Generate implements algo.Generator. The MCMC chain is inherently
// sequential (each Metropolis step conditions on the last), so PrivHRG
// shards the deterministic counting inside it instead: the initial LCA
// recount and each step's cross-subtree edge count split across prm's
// workers with exact integer merges. Every rng draw — the chain's
// proposals and acceptances, the Laplace noise, the construction
// sampling — stays on the calling goroutine in the serial order, so the
// output is bit-identical at any worker count.
func (p *PrivHRG) Generate(g *graph.Graph, eps float64, rng *rand.Rand, prm algo.Params) (*graph.Graph, error) {
	acct := dp.NewAccountant(eps)
	eps1 := eps * structureFraction
	eps2 := eps - eps1
	if err := acct.Spend(eps1); err != nil {
		return nil, err
	}
	if err := acct.Spend(eps2); err != nil {
		return nil, err
	}
	n := g.N()
	if n < 2 {
		return graph.New(n), nil
	}
	d := newDendrogram(g, rng, prm)

	steps := p.opt.MCMCSteps
	if steps <= 0 {
		steps = 40 * n
		if steps > 60000 {
			steps = 60000
		}
	}
	// Sensitivity of the HRG log-likelihood under a one-edge change
	// (Xiao et al.): bounded by 2·ln n for n ≥ 2.
	sens := 2 * math.Log(float64(n))
	if sens < 1 {
		sens = 1
	}

	for step := 0; step < steps; step++ {
		// pick a random internal node other than the root
		r := int32(n) + int32(rng.Intn(n-1))
		if r == d.root {
			continue
		}
		par := d.parent[r]
		var sib int32
		if d.left[par] == r {
			sib = d.right[par]
		} else {
			sib = d.left[par]
		}
		a, bb := d.left[r], d.right[r]
		// choose which child to swap with the sibling
		swapChild := a
		keepChild := bb
		if rng.Intn(2) == 1 {
			swapChild, keepChild = bb, a
		}
		// current terms
		pairsR := d.pairs(r)
		pairsP := d.pairs(par)
		oldLL := termLL(d.e[r], pairsR) + termLL(d.e[par], pairsP)
		// new configuration: r' = (keepChild, sib), par' = (r', swapChild)
		x := d.edgesBetween(keepChild, sib) // e(keep, sib)
		eRnew := x
		// e_par = e(keep∪swap, sib) = e(keep,sib) + e(swap,sib), so
		// e(swap,sib) = e_par − x; the new parent crosses keep∪sib with
		// swap: e(keep,swap) + e(sib,swap) = e_r + (e_par − x).
		ePnew := d.e[r] + d.e[par] - x
		nKeep := float64(d.nLeaves[keepChild])
		nSwap := float64(d.nLeaves[swapChild])
		nSib := float64(d.nLeaves[sib])
		pairsRnew := nKeep * nSib
		pairsPnew := (nKeep + nSib) * nSwap
		newLL := termLL(eRnew, pairsRnew) + termLL(ePnew, pairsPnew)
		// exponential-mechanism Metropolis acceptance
		delta := newLL - oldLL
		if delta < 0 && rng.Float64() >= math.Exp(eps1*delta/(2*sens)) {
			continue
		}
		d.swap(r, keepChild, swapChild, sib, eRnew, ePnew)
	}

	// Perturb crossing counts: sensitivity 1 (one edge maps to one LCA).
	// Then sample cross edges per internal node at probability p̃_r.
	//
	// The legacy recursion materialised a leaf slice per internal node
	// (O(n log n) appends). One in-order traversal instead lays all
	// leaves into a single array in which every subtree's leaf set is a
	// contiguous range; the post-order walk below visits internal nodes
	// in exactly the recursion's order (children first, left before
	// right) and indexes the same leaf sequences, so the draw stream is
	// unchanged while construction allocates O(n) once.
	leafOrder := make([]int32, 0, n)
	lo := make([]int32, len(d.parent)) // leaf range [lo, hi) per node
	hi := make([]int32, len(d.parent))
	var layout func(u int32)
	layout = func(u int32) {
		lo[u] = int32(len(leafOrder))
		if u < int32(d.n) {
			leafOrder = append(leafOrder, u)
		} else {
			layout(d.left[u])
			layout(d.right[u])
		}
		hi[u] = int32(len(leafOrder))
	}
	layout(d.root)
	edges := make([]graph.Edge, 0, g.M())
	var emit func(u int32)
	emit = func(u int32) {
		if u < int32(d.n) {
			return
		}
		emit(d.left[u])
		emit(d.right[u])
		lL := leafOrder[lo[d.left[u]]:hi[d.left[u]]]
		lR := leafOrder[lo[d.right[u]]:hi[d.right[u]]]
		pairs := float64(len(lL)) * float64(len(lR))
		noisyE := d.e[u] + dp.Laplace(rng, 1/eps2)
		prob := noisyE / pairs
		if prob < 0 {
			prob = 0
		}
		if prob > 1 {
			prob = 1
		}
		count := sampleBinomial(rng, pairs, prob)
		for i := 0; i < count; i++ {
			uu := lL[rng.Intn(len(lL))]
			vv := lR[rng.Intn(len(lR))]
			edges = append(edges, graph.Canon(uu, vv))
		}
	}
	emit(d.root)
	return graph.FromEdges(n, edges), nil
}

// sampleBinomial draws Binomial(n, p) — exactly for small n, by normal
// approximation for large n.
func sampleBinomial(rng *rand.Rand, n, p float64) int {
	if p <= 0 || n <= 0 {
		return 0
	}
	if p >= 1 {
		return int(n)
	}
	if n <= 64 {
		c := 0
		for i := 0; i < int(n); i++ {
			if rng.Float64() < p {
				c++
			}
		}
		return c
	}
	mean := n * p
	std := math.Sqrt(n * p * (1 - p))
	v := int(math.Round(mean + rng.NormFloat64()*std))
	if v < 0 {
		v = 0
	}
	if float64(v) > n {
		v = int(n)
	}
	return v
}
