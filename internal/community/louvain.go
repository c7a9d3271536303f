// Package community implements Louvain modularity optimisation
// (Blondel et al. 2008). It serves two roles in PGB: the community
// detection query Q12 evaluated on true and synthetic graphs, and the
// non-private community phase inside the PrivGraph algorithm.
package community

import (
	"math/rand"
	"slices"

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

// weighted multigraph used for Louvain levels, in the same flat CSR
// layout as graph.Graph (off/nbr plus a parallel weight arena). The
// dominant Louvain cost is the neighbor-community scan in localMove; on
// the flat arenas it is a contiguous sweep with no per-node maps or
// allocations. Level 0 is g itself: its off/nbr are g's own arenas and
// wt is nil, every weight being 1. Every weight is an exact integer
// (aggregation only sums unit weights), so accumulation order can never
// change a value — the determinism lever the whole package leans on
// (DESIGN.md §2).
type wgraph struct {
	n        int
	off      []int64   // len n+1
	nbr      []int32   // neighbor ids
	wt       []int64   // parallel to nbr; nil on a unit-weight level
	selfLoop []float64 // intra weight (counted once per collapsed edge)
	totalW   float64   // sum of edge weights (each undirected edge once), incl. self loops
}

// weight returns the weight of arc i: 1 on a unit-weight level.
func (w *wgraph) weight(i int64) int64 {
	if w.wt == nil {
		return 1
	}
	return w.wt[i]
}

// fromGraph views g as Louvain's level 0: g's CSR read in place, unit
// weights and no self loops. Nothing is copied.
func fromGraph(g *graph.Graph) *wgraph {
	n := g.N()
	return &wgraph{n: n, off: g.Offsets(), nbr: g.Arcs(), selfLoop: make([]float64, n), totalW: float64(g.M())}
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
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i)
	}
	first := make([]int32, n) // first-seen relabel table, reused by every compaction

	for level := 0; level < 64; level++ {
		comm, moved := localMove(w, rng)
		if !moved && level > 0 {
			break
		}
		k := compact(comm, first[:w.n])
		// update assignment of original nodes
		for i := range assign {
			assign[i] = comm[assign[i]]
		}
		if k == w.n {
			break // no aggregation happened
		}
		w = aggregate(w, comm, k)
		if !moved {
			break
		}
	}

	k := compact(assign, first)
	labels := make([]int, n)
	for i, c := range assign {
		labels[i] = int(c)
	}
	return Result{
		Labels:         labels,
		NumCommunities: k,
		Modularity:     stats.Modularity(g, labels),
	}
}

// compact relabels xs in place to 0..k-1 in first-seen order and
// returns k. Every x must lie in [0, len(first)); first is scratch.
func compact(xs, first []int32) int {
	for i := range first {
		first[i] = -1
	}
	k := int32(0)
	for i, c := range xs {
		if first[c] < 0 {
			first[c] = k
			k++
		}
		xs[i] = first[c]
	}
	return int(k)
}

// localMove is Louvain phase one: greedily move nodes to the neighboring
// community with the highest modularity gain until no move improves.
// Neighbor-community weights accumulate into a reused integer scratch
// vector (weights are strictly positive, so nbw[c] == 0 means "not
// seen"; no level's nbr holds u itself, so no self check is needed). A
// unit-weight level counts arcs, nbw[c]++, and reads no weight at all.
//
// Integer accumulation changes no gain: every weight is an exact
// integer, so float64(nbw[c]) is the value the float sum held. The gain
// keeps its float operands and operation order, because at aggregated
// levels the rounding of commTotDeg[c]*deg[u]/m2 decides near-ties.
//
// The move rule, which fixes tie-breaking and hence the whole run, is an
// ascending scan of the touched communities in which a community becomes
// the best when its gain beats the best so far, starting at 0, by more
// than 1e-12. Each gain is computed once, in touch order, and only the
// strict improvers over 0 are kept: the rest can never beat a best that
// starts at 0 and never falls. bestMove then finds the scan's winner
// among those few without sorting them.
func localMove(w *wgraph, rng *rand.Rand) ([]int32, bool) {
	n := w.n
	off, nbr, wt := w.off, w.nbr, w.wt
	comm := make([]int32, n)
	commTotDeg := make([]float64, n) // Σ degree of nodes in community
	deg := make([]float64, n)
	maxDeg := int64(0)
	for u := 0; u < n; u++ {
		comm[u] = int32(u)
		d := off[u+1] - off[u]
		if wt != nil {
			d = 0
			for _, x := range wt[off[u]:off[u+1]] {
				d += x
			}
		}
		deg[u] = w.selfLoop[u]*2 + float64(d)
		commTotDeg[u] = deg[u]
		maxDeg = max(maxDeg, off[u+1]-off[u])
	}
	m2 := 2 * w.totalW
	if m2 == 0 {
		return comm, false
	}

	nbw := make([]int64, n)        // weight from u to community c, zeroed after each node
	cands := make([]int32, maxDeg) // communities touched for the current node
	ups := make([]move, 0, maxDeg) // the touched communities that improve on staying
	order := rng.Perm(n)
	movedAny := false
	for pass := 0; pass < 32; pass++ {
		movedThisPass := false
		for _, u := range order {
			cu := comm[u]
			lo, hi := off[u], off[u+1]
			k := 0
			if wt == nil {
				for _, v := range nbr[lo:hi] {
					c := comm[v]
					cands[k] = c
					k += b2i(nbw[c] == 0)
					nbw[c]++
				}
			} else {
				for i, v := range nbr[lo:hi] {
					c := comm[v]
					cands[k] = c
					k += b2i(nbw[c] == 0)
					nbw[c] += wt[lo+int64(i)]
				}
			}
			// remove u from its community
			du := deg[u]
			commTotDeg[cu] -= du
			baseGain := float64(nbw[cu]) - commTotDeg[cu]*du/m2
			ups = ups[:0]
			for _, c := range cands[:k] {
				gain := float64(nbw[c]) - commTotDeg[c]*du/m2
				if gain-baseGain > 1e-12 {
					ups = append(ups, move{c, gain - baseGain})
				}
				nbw[c] = 0
			}
			bestC := bestMove(ups, cu)
			comm[u] = bestC
			commTotDeg[bestC] += du
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

// bestMove returns the community the ascending scan of localMove picks
// from ups, the touched communities whose gain over staying exceeds
// 1e-12, or stay when there is none. Since every entry beats the current
// best by more than 1e-12, the scan's next record is the smallest
// community. The entries whose gain beats that record's by more than
// 1e-12 are the candidates for the record after it; all of them are
// larger communities, since the record is the smallest. That is one pass
// per record, rarely more than a handful, over a shrinking set. ups is
// overwritten.
func bestMove(ups []move, stay int32) int32 {
	best := stay
	for len(ups) > 0 {
		i := 0
		for j := 1; j < len(ups); j++ {
			if ups[j].c < ups[i].c {
				i = j
			}
		}
		best = ups[i].c
		bar := ups[i].gain + 1e-12
		rest := ups[:0]
		for _, mv := range ups {
			if mv.gain > bar {
				rest = append(rest, mv)
			}
		}
		ups = rest
	}
	return best
}

// move is a candidate community and its modularity gain over staying.
type move struct {
	c    int32
	gain float64
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// aggregate is Louvain phase two: collapse each community into a super
// node, preserving edge weights and intra-community weight as self loops.
// Members are visited in ascending node order per community and the super
// adjacency is emitted in sorted community order, keeping the output a
// pure function of (w, comm).
func aggregate(w *wgraph, comm []int32, k int) *wgraph {
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

	nbw := make([]int64, k)
	var cands []int32
	off := make([]int64, 1, k+1)
	var nbr []int32
	var wts []int64
	for cu := int32(0); int(cu) < k; cu++ {
		cands = cands[:0]
		for _, u := range members[bucketOff[cu]:bucketOff[cu+1]] {
			out.selfLoop[cu] += w.selfLoop[u]
			for i := w.off[u]; i < w.off[u+1]; i++ {
				v := w.nbr[i]
				cv := comm[v]
				if cv == cu {
					if u < v {
						out.selfLoop[cu] += float64(w.weight(i))
					}
				} else {
					if nbw[cv] == 0 {
						cands = append(cands, cv)
					}
					nbw[cv] += w.weight(i)
				}
			}
		}
		slices.Sort(cands)
		for _, cv := range cands {
			nbr = append(nbr, cv)
			wts = append(wts, nbw[cv])
			nbw[cv] = 0
		}
		off = append(off, int64(len(nbr)))
	}
	out.off, out.nbr, out.wt = off, nbr, wts
	return out
}
