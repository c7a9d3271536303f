package gen

import (
	"math"
	"math/rand"
	"sort"

	"pgb/internal/graph"
)

// IsGraphical reports whether the degree sequence is realisable as a
// simple graph, by the Erdős–Gallai theorem.
func IsGraphical(degrees []int) bool {
	n := len(degrees)
	d := append([]int(nil), degrees...)
	sort.Sort(sort.Reverse(sort.IntSlice(d)))
	sum := 0
	for _, x := range d {
		if x < 0 || x >= n {
			return false
		}
		sum += x
	}
	if sum%2 != 0 {
		return false
	}
	prefix := 0
	for k := 1; k <= n; k++ {
		prefix += d[k-1]
		rhs := k * (k - 1)
		for i := k; i < n; i++ {
			if d[i] < k {
				rhs += d[i]
			} else {
				rhs += k
			}
		}
		if prefix > rhs {
			return false
		}
	}
	return true
}

// SanitizeDegrees clamps a noisy real-valued degree sequence into a
// graphical integer sequence: negative values go to zero, values are capped
// at n−1, the total is made even, and Erdős–Gallai violations are repaired
// by decrementing the largest degrees. The result is always graphical.
func SanitizeDegrees(noisy []float64) []int {
	n := len(noisy)
	d := make([]int, n)
	for i, v := range noisy {
		x := int(math.Round(v))
		if x < 0 {
			x = 0
		}
		if x > n-1 {
			x = n - 1
		}
		d[i] = x
	}
	// make the sum even by adjusting one degree
	sum := 0
	for _, x := range d {
		sum += x
	}
	if sum%2 != 0 {
		for i := range d {
			if d[i] > 0 {
				d[i]--
				break
			}
		}
		// if all zeros, bump two? A single odd unit on an all-zero vector is
		// impossible since sum was odd implies some d[i] > 0.
	}
	// repair until graphical: repeatedly reduce the largest degree
	for !IsGraphical(d) {
		maxI := 0
		for i := range d {
			if d[i] > d[maxI] {
				maxI = i
			}
		}
		if d[maxI] == 0 {
			break
		}
		d[maxI]--
		// keep parity: reduce next largest too
		nextI := -1
		for i := range d {
			if i != maxI && d[i] > 0 && (nextI < 0 || d[i] > d[nextI]) {
				nextI = i
			}
		}
		if nextI >= 0 {
			d[nextI]--
		} else {
			d[maxI]-- // degrade the same node again to keep sum even
			if d[maxI] < 0 {
				d[maxI] = 0
			}
		}
	}
	return d
}

// HavelHakimi realises a graphical degree sequence as a concrete simple
// graph via the Havel-Hakimi construction. The sequence must be graphical
// (see IsGraphical / SanitizeDegrees); otherwise the result realises a
// best-effort truncation.
func HavelHakimi(degrees []int) *graph.Graph {
	n := len(degrees)
	type nd struct {
		id  int32
		rem int
	}
	nodes := make([]nd, n)
	total := 0
	for i, d := range degrees {
		nodes[i] = nd{id: int32(i), rem: d}
		total += d
	}
	// Every edge is incident to the round's top node, which is zeroed and
	// never tops again, so no pair repeats — flat accumulation suffices.
	edges := make([]graph.Edge, 0, total/2+1)
	for {
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].rem > nodes[j].rem })
		if n == 0 || nodes[0].rem <= 0 {
			break
		}
		k := nodes[0].rem
		if k > n-1 {
			k = n - 1
		}
		nodes[0].rem = 0
		for i := 1; i <= k && i < n; i++ {
			if nodes[i].rem <= 0 {
				break
			}
			edges = append(edges, graph.Canon(nodes[0].id, nodes[i].id))
			nodes[i].rem--
		}
	}
	return graph.FromEdges(n, edges)
}

// JDMEntry is one joint-degree-matrix cell: Count edges between a
// degree-J and a degree-K node, J <= K.
type JDMEntry struct {
	J, K  int
	Count float64
}

// BuildFrom2KEntries constructs a graph targeting a (possibly noisy)
// joint degree matrix, given as a flat entry list in ascending (J, K)
// order — the representation DP-dK's arena-based JDM pass produces
// directly. It derives the implied degree sequence, sanitises it, then
// uses degree-class stub matching so edges connect the prescribed degree
// classes; residual stubs are matched randomly. This is the construction
// stage of DP-dK's 2K model. Entry order is the draw order of the stub
// matching, so callers must supply the sorted order for deterministic
// results.
func BuildFrom2KEntries(entries []JDMEntry, n int, rng *rand.Rand) *graph.Graph {
	// Derive per-degree-class stub demand: class j needs Σ_k count(j,k)
	// endpoints (diagonal contributes 2 per edge).
	classStubs := make(map[int]float64)
	for _, e := range entries {
		if e.Count <= 0 {
			continue
		}
		if e.J == e.K {
			classStubs[e.J] += 2 * e.Count
		} else {
			classStubs[e.J] += e.Count
			classStubs[e.K] += e.Count
		}
	}
	// Assign nodes to degree classes: class j needs ceil(stubs_j / j) nodes.
	type classInfo struct {
		deg   int
		nodes []int32
	}
	var classes []classInfo
	degs := make([]int, 0, len(classStubs))
	for d := range classStubs {
		if d > 0 {
			degs = append(degs, d)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	next := int32(0)
	for _, d := range degs {
		cnt := int(math.Ceil(classStubs[d] / float64(d)))
		if cnt < 1 {
			cnt = 1
		}
		ci := classInfo{deg: d}
		for i := 0; i < cnt && next < int32(n); i++ {
			ci.nodes = append(ci.nodes, next)
			next++
		}
		if len(ci.nodes) > 0 {
			classes = append(classes, ci)
		}
	}
	classByDeg := make(map[int]*classInfo)
	for i := range classes {
		classByDeg[classes[i].deg] = &classes[i]
	}
	b := graph.NewEdgeSet(n, 0)
	// Distribute each class's exact stub demand over its nodes (capacity
	// would be ceil(stubs/deg)·deg ≥ stubs; handing every node a full
	// `deg` overshoots the edge budget when leftovers are matched).
	// Residual stubs live in a flat node-indexed arena — node IDs are
	// assigned densely from 0, so the slice replaces the legacy map
	// without changing a single lookup.
	remaining := make([]int, n) // residual stub count per node
	for _, ci := range classes {
		demand := int(math.Round(classStubs[ci.deg]))
		for i, u := range ci.nodes {
			share := demand / len(ci.nodes)
			if i < demand%len(ci.nodes) {
				share++
			}
			if share > ci.deg {
				share = ci.deg
			}
			remaining[u] = share
		}
	}
	pick := func(ci *classInfo, exclude int32) (int32, bool) {
		// pick a random node in the class with residual stubs
		for tries := 0; tries < 4*len(ci.nodes)+8; tries++ {
			u := ci.nodes[rng.Intn(len(ci.nodes))]
			if u != exclude && remaining[u] > 0 {
				return u, true
			}
		}
		for _, u := range ci.nodes {
			if u != exclude && remaining[u] > 0 {
				return u, true
			}
		}
		return 0, false
	}
	// Place edges class-pair by class-pair, in the same sorted entry order.
	for _, e := range entries {
		count := int(math.Round(e.Count))
		cj, ok1 := classByDeg[e.J]
		ck, ok2 := classByDeg[e.K]
		if !ok1 || !ok2 {
			continue
		}
		for e := 0; e < count; e++ {
			u, ok := pick(cj, -1)
			if !ok {
				break
			}
			v, ok := pick(ck, u)
			if !ok {
				break
			}
			if !b.Add(u, v) {
				continue // skip duplicate; residual stubs stay for later matching
			}
			remaining[u]--
			remaining[v]--
		}
	}
	// Residual stubs: random matching to exhaust leftover degree demand.
	// Iterate classes (deterministic order) rather than the residual map
	// so the stub list — and hence the rng-driven matching — reproduces.
	var leftover []int32
	for _, ci := range classes {
		for _, u := range ci.nodes {
			for i := 0; i < remaining[u]; i++ {
				leftover = append(leftover, u)
			}
		}
	}
	rng.Shuffle(len(leftover), func(i, j int) { leftover[i], leftover[j] = leftover[j], leftover[i] })
	for i := 0; i+1 < len(leftover); i += 2 {
		b.Add(leftover[i], leftover[i+1])
	}
	return b.Build()
}
