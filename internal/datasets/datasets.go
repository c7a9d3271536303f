// Package datasets provides the eight graphs of PGB's dataset element G
// (Table VI) plus the CA-GrQC graph used by the verification appendix.
//
// The benchmark environment is offline, so the six real-world graphs
// (SNAP / NetworkRepository) are simulated: each stand-in is generated to
// match the published node count, edge count, average clustering
// coefficient, and the structural family of its domain (road mesh,
// social communities, power-law web graph, co-authorship cliques, sparse
// financial network, low-clustering P2P overlay). See DESIGN.md §3 for the
// substitution rationale. The two synthetic graphs (ER, BA) are generated
// exactly as in the paper. All generation is deterministic from the seed.
package datasets

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"pgb/internal/gen"
	"pgb/internal/graph"
	"pgb/internal/stats"
)

// Spec describes one benchmark dataset: the published statistics it
// targets and the generator that simulates it.
type Spec struct {
	Name string
	// Published statistics from Table VI of the paper.
	PaperNodes int
	PaperEdges int
	PaperACC   float64
	Type       string
	build      func(n, m int, rng *rand.Rand) *graph.Graph
}

// NormalizeScale clamps a dataset scale factor to (0, 1] exactly as
// Load does: out-of-range values, NaN included, mean "full size". Store
// references are built from the normalized value so that cosmetically
// different invalid scales never mint distinct snapshot-store keys.
func NormalizeScale(scale float64) float64 {
	if !(scale > 0 && scale <= 1) {
		return 1
	}
	return scale
}

// RefFor is the store reference addressing the graph Load(scale, seed)
// generates for the named dataset — the shared key vocabulary between
// `pgb ingest` (which writes under it) and every store-resolving loader.
func RefFor(name string, scale float64, seed int64) graph.Ref {
	return graph.Ref{Dataset: name, Scale: NormalizeScale(scale), Seed: seed}
}

// LoadVia resolves the dataset through st first — an ingested snapshot
// loads in O(file) instead of regenerating — and falls back to Load on
// a miss (or a nil store). fromStore reports which path produced the
// graph, for callers that report or count store hits. Store failures
// other than ErrNotFound are returned: a present-but-unreadable snapshot
// must fail loudly, not silently regenerate something the operator
// believes is pinned on disk.
func LoadVia(st graph.Store, s Spec, scale float64, seed int64) (g *graph.Graph, fromStore bool, err error) {
	if st != nil {
		g, err := st.Open(RefFor(s.Name, scale, seed))
		switch {
		case err == nil:
			return g, true, nil
		case !errors.Is(err, graph.ErrNotFound):
			return nil, false, fmt.Errorf("datasets: opening %s from store: %w", s.Name, err)
		}
	}
	return s.Load(scale, seed), false, nil
}

// Load generates the dataset at the given scale in (0, 1]: node and edge
// targets are multiplied by scale, enabling fast CI runs; scale = 1
// reproduces the paper sizes.
func (s Spec) Load(scale float64, seed int64) *graph.Graph {
	scale = NormalizeScale(scale)
	n := int(math.Round(float64(s.PaperNodes) * scale))
	m := int(math.Round(float64(s.PaperEdges) * scale))
	if n < 16 {
		n = 16
	}
	if m < n {
		m = n
	}
	rng := rand.New(rand.NewSource(seed))
	return s.build(n, m, rng)
}

// specs is the paper's dataset element G in table order (Table VI) —
// Minnesota, Facebook, Wiki-Vote, ca-HepPh, poli-large, Gnutella, ER, BA
// — followed by the CA-GrQC graph of the verification appendix. It is
// the only place in the codebase that enumerates the datasets.
var specs = []Spec{
	// Minnesota simulates the Minnesota road network: a sparse planar mesh
	// with very low clustering (ACC 0.016).
	{Name: "Minnesota", PaperNodes: 2600, PaperEdges: 3300,
		PaperACC: 0.0160, Type: "Traffic",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			// near-square grid with dropped edges, a few chords, and a
			// sprinkle of closed wedges for the small positive ACC
			rows := int(math.Sqrt(float64(n)))
			cols := (n + rows - 1) / rows
			g := gen.Grid2D(rows, cols, 0.42, m/60, rng)
			g = gen.TriadicClosure(g, m/90, rng)
			return trimToEdges(g, m, rng)
		},
	},
	// Facebook simulates the SNAP ego-Facebook network: dense social
	// communities with very high clustering (ACC 0.61).
	{Name: "Facebook", PaperNodes: 4039, PaperEdges: 88234,
		PaperACC: 0.6055, Type: "Social",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			// dense ego-network-like communities: fixed within-block
			// density ~0.65 (which dominates the node-level ACC), block
			// size solved so blocks supply ~88% of the edge budget
			const pIn = 0.65
			size := int(math.Round(1.76 * float64(m) / (float64(n) * pIn)))
			if size < 8 {
				size = 8
			}
			if size > n/2 {
				size = n / 2
			}
			blocks := max(2, n/size)
			pOut := 0.12 * float64(m) / (float64(n) * float64(n) / 2)
			g := gen.PlantedPartition(n, blocks, pIn, pOut, rng)
			if extra := m - g.M(); extra > 0 {
				g = gen.TriadicClosure(g, extra, rng)
			}
			return trimToEdges(g, m, rng)
		},
	},
	// Wiki simulates the SNAP wiki-Vote network: a power-law web graph
	// with moderate clustering (ACC 0.14).
	{Name: "Wiki", PaperNodes: 7115, PaperEdges: 103689,
		PaperACC: 0.1409, Type: "Web",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			w := gen.PowerLawWeights(n, 2.1, m, rng)
			g := gen.ChungLu(w, rng)
			// modest triadic closure lifts ACC to the ~0.14 target
			g = gen.TriadicClosure(g, m/55, rng)
			return trimToEdges(padToEdges(g, m, rng), m, rng)
		},
	},
	// HepPh simulates the SNAP ca-HepPh collaboration network: overlapping
	// co-authorship cliques with very high clustering (ACC 0.61).
	{Name: "HepPh", PaperNodes: 12008, PaperEdges: 118521,
		PaperACC: 0.6115, Type: "Academic",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			return cliqueGraph(n, m, 6, 22, rng)
		},
	},
	// Poli simulates the NetworkRepository econ-poli-large network: a
	// very sparse financial graph (m close to n) with small dense pockets
	// (ACC 0.40).
	{Name: "Poli", PaperNodes: 15600, PaperEdges: 17500,
		PaperACC: 0.3967, Type: "Financial",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			// ~45% of nodes sit in disjoint triangles/4-cliques (local
			// CC 1), the rest in a sparse random forest (local CC 0) —
			// yielding ACC near the 0.40 target with m ≈ 1.12·n
			edges := make([]graph.Edge, 0, 2*n)
			cliqueN := int(0.45 * float64(n))
			u := 0
			for u+2 < cliqueN {
				size := 3
				if rng.Float64() < 0.2 && u+3 < cliqueN {
					size = 4
				}
				for a := 0; a < size; a++ {
					for c := a + 1; c < size; c++ {
						edges = append(edges, graph.Edge{U: int32(u + a), V: int32(u + c)})
					}
				}
				u += size
			}
			// forest over the remaining nodes
			for v := cliqueN + 1; v < n; v++ {
				parent := cliqueN + rng.Intn(v-cliqueN)
				edges = append(edges, graph.Canon(int32(v), int32(parent)))
			}
			g := graph.FromEdges(n, edges)
			return trimToEdges(padToEdges(g, m, rng), m, rng)
		},
	},
	// Gnutella simulates the SNAP p2p-Gnutella25 overlay: a power-law
	// technology network with near-zero clustering (ACC 0.005).
	{Name: "Gnutella", PaperNodes: 22687, PaperEdges: 54705,
		PaperACC: 0.0053, Type: "Technology",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			w := gen.PowerLawWeights(n, 2.9, m, rng)
			g := gen.ChungLu(w, rng)
			return padToEdges(g, m, rng)
		},
	},
	// ER is the synthetic Erdős–Rényi dataset: G(10000, 250278), degree
	// distribution binomial.
	{Name: "ER", PaperNodes: 10000, PaperEdges: 250278,
		PaperACC: 0.0050, Type: "Synthetic",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			return gen.GNM(n, m, rng)
		},
	},
	// BA is the synthetic Barabási–Albert dataset: 10,000 nodes with
	// attachment 5 (49,975 edges), degree distribution power-law.
	{Name: "BA", PaperNodes: 10000, PaperEdges: 49975,
		PaperACC: 0.0074, Type: "Synthetic",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			attach := int(math.Round(float64(m) / float64(n)))
			if attach < 1 {
				attach = 1
			}
			return gen.BarabasiAlbert(n, attach, rng)
		},
	},
	// GrQC simulates the SNAP ca-GrQc collaboration network used by the
	// verification appendix (Table XI): 5,241 nodes, 14,484 edges, ACC 0.53.
	{Name: "GrQC", PaperNodes: 5241, PaperEdges: 14484,
		PaperACC: 0.529, Type: "Academic",
		build: func(n, m int, rng *rand.Rand) *graph.Graph {
			return cliqueGraph(n, m, 3, 8, rng)
		},
	},
}

// All returns the eight benchmark datasets in the paper's table order.
func All() []Spec { return append([]Spec(nil), specs[:8]...) }

// ByName returns the dataset with the given name, the verification
// appendix's GrQC included.
func ByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// cliqueGraph builds a co-authorship-style graph: clique batches are
// added until the edge budget is met, so clique overlap never leaves a
// shortfall that random padding (which would dilute clustering) must fill.
func cliqueGraph(n, m, minSize, maxSize int, rng *rand.Rand) *graph.Graph {
	avg := float64(minSize+maxSize) / 2
	edgesPerClique := avg * (avg - 1) / 2
	b := graph.NewEdgeSet(n, m+m/20)
	for iter := 0; iter < 40 && b.M() < m; iter++ {
		deficit := m - b.M()
		batch := int(float64(deficit)/edgesPerClique) + 1
		k := gen.CliqueCover(n, batch, minSize, maxSize, 0.1, rng)
		for e := range k.EdgeSeq() {
			if b.M() >= m+m/20 {
				break
			}
			b.Add(e.U, e.V)
		}
	}
	return trimToEdges(b.Build(), m, rng)
}

// trimToEdges removes uniformly random edges until the graph has at most
// m edges.
func trimToEdges(g *graph.Graph, m int, rng *rand.Rand) *graph.Graph {
	if g.M() <= m {
		return g
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.FromEdges(g.N(), edges[:m])
}

// padToEdges adds uniformly random edges until the graph has at least m
// edges.
func padToEdges(g *graph.Graph, m int, rng *rand.Rand) *graph.Graph {
	if g.M() >= m {
		return g
	}
	b := graph.NewEdgeSet(g.N(), m)
	for e := range g.EdgeSeq() {
		b.Add(e.U, e.V)
	}
	need := m - g.M()
	tries := 0
	for need > 0 && tries < 50*m {
		tries++
		u := int32(rng.Intn(g.N()))
		v := int32(rng.Intn(g.N()))
		if u == v || b.Has(u, v) {
			continue
		}
		b.Add(u, v)
		need--
	}
	return b.Build()
}

// Summary describes a generated dataset for reporting.
type Summary struct {
	Name  string
	Nodes int
	Edges int
	ACC   float64
	Type  string
}

// Summarize computes the headline statistics of a generated dataset.
// ACC is the profile's Q11 average clustering, computed serially.
func Summarize(s Spec, g *graph.Graph) Summary {
	_, _, acc := stats.TriangleProfileParallel(g, 1, nil)
	return Summary{Name: s.Name, Nodes: g.N(), Edges: g.M(), ACC: acc, Type: s.Type}
}

// Names returns the dataset names in table order.
func Names() []string {
	specs := All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
