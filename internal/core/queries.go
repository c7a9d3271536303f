// Package core is PGB's benchmark engine — the paper's primary
// contribution. It wires the 4-tuple (M, G, P, U) together: the algorithm
// registry (M), the dataset suite (G), the privacy-budget grid (P) and the
// fifteen-query/eleven-metric utility evaluation (U), and implements the
// best-count aggregations of Definitions 5 and 6 that produce Tables VII
// and XII, the Fig. 2 error series, the time/space measurements of Tables
// IX and X, and the verification appendix.
//
// The U axis is registry-driven: every query is a self-describing
// QuerySpec (paper symbol, error metric, compute group, scorer, scalar
// extractor) registered in a central table. The fifteen paper queries are
// pre-registered; RegisterQuery adds caller-defined queries that flow
// through the same profile computation, scoring, and table machinery.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"pgb/internal/graph"
	"pgb/internal/metrics"
)

// QueryID identifies a PGB graph query. IDs 1..15 are the paper's queries
// (Table III); higher IDs are assigned by RegisterQuery.
type QueryID int

// The fifteen queries in paper order.
const (
	QNumNodes QueryID = iota + 1
	QNumEdges
	QTriangles
	QAvgDegree
	QDegreeVariance
	QDegreeDistribution
	QDiameter
	QAvgPath
	QDistanceDistribution
	QGlobalClustering
	QAvgClustering
	QCommunityDetection
	QModularity
	QAssortativity
	QEigenvectorCentrality

	// NumQueries is the number of built-in paper queries.
	NumQueries = 15
)

// GroupID identifies one independent profile-computation pass. Queries in
// the same group share a pass (e.g. the three path queries share the BFS
// sweep); distinct groups run concurrently on the profile worker pool,
// each with its own deterministic RNG stream.
type GroupID int

// The built-in computation groups, roughly ordered by cost.
const (
	GroupStructure  GroupID = iota // degree-based scalars, histograms, assortativity
	GroupTriangles                 // triangle count and clustering coefficients
	GroupDistances                 // exact or sampled BFS (consumes RNG)
	GroupCommunity                 // Louvain community detection (consumes RNG)
	GroupCentrality                // eigenvector-centrality power iteration
	GroupCustom                    // user-registered queries, one sub-pass each
)

// CostClass declares the relative weight of a query's compute pass. The
// profile worker pool dispatches heavy passes first so the critical path
// is not left for last.
type CostClass int

// Cost classes from cheapest to most expensive.
const (
	CostLight  CostClass = iota // linear scans over nodes/edges
	CostMedium                  // bounded iterative passes (power iteration)
	CostHeavy                   // super-linear passes (BFS sweep, Louvain, triangles)
)

// QuerySpec is one self-describing query: identity and presentation
// (Symbol, Metric, HigherBetter), where its answer comes from (Group,
// Cost, Compute), and how it is evaluated against a baseline (Score,
// Scalar). Built-in queries are materialised by their group's pass and
// leave Compute nil; custom queries supply Compute and store their answer
// in Profile.Custom.
type QuerySpec struct {
	ID     QueryID
	Symbol string // paper symbol, e.g. "GCC"
	Metric string // error-metric label: "RE", "KL", "NMI", "MAE", ...
	// HigherBetter marks scores where larger is better (NMI-style
	// similarities) rather than smaller (errors and divergences).
	HigherBetter bool
	Group        GroupID
	Cost         CostClass
	// Score evaluates the synthetic profile against the truth profile.
	Score func(truth, syn *Profile) float64
	// Scalar extracts the query's raw per-graph value; ok=false for
	// distribution- or vector-valued queries with no single scalar.
	Scalar func(p *Profile) (value float64, ok bool)
	// Compute answers a custom query directly on the graph. rng is a
	// deterministic per-query stream derived from the profile seed.
	Compute func(g *graph.Graph, opt ProfileOptions, rng *rand.Rand) float64
}

// relQuery builds the spec for a scalar query scored by relative error.
func relQuery(id QueryID, symbol string, group GroupID, cost CostClass, get func(*Profile) float64) QuerySpec {
	return QuerySpec{
		ID: id, Symbol: symbol, Metric: "RE", Group: group, Cost: cost,
		Score:  func(t, s *Profile) float64 { return metrics.RelativeError(get(t), get(s)) },
		Scalar: func(p *Profile) (float64, bool) { return get(p), true },
	}
}

// builtinQuerySpecs is the central table defining the paper's fifteen
// queries — the only place in the codebase that enumerates them.
func builtinQuerySpecs() []QuerySpec {
	return []QuerySpec{
		relQuery(QNumNodes, "|V|", GroupStructure, CostLight, func(p *Profile) float64 { return p.NumNodes }),
		relQuery(QNumEdges, "|E|", GroupStructure, CostLight, func(p *Profile) float64 { return p.NumEdges }),
		relQuery(QTriangles, "Tri", GroupTriangles, CostHeavy, func(p *Profile) float64 { return p.Triangles }),
		relQuery(QAvgDegree, "d_avg", GroupStructure, CostLight, func(p *Profile) float64 { return p.AvgDegree }),
		relQuery(QDegreeVariance, "d_var", GroupStructure, CostLight, func(p *Profile) float64 { return p.DegreeVariance }),
		{
			ID: QDegreeDistribution, Symbol: "DegDist", Metric: "KL", Group: GroupStructure, Cost: CostLight,
			Score: func(t, s *Profile) float64 { return metrics.KLDivergence(t.DegreeDist, s.DegreeDist) },
		},
		relQuery(QDiameter, "Diam", GroupDistances, CostHeavy, func(p *Profile) float64 { return p.Diameter }),
		relQuery(QAvgPath, "AvgPath", GroupDistances, CostHeavy, func(p *Profile) float64 { return p.AvgPath }),
		{
			ID: QDistanceDistribution, Symbol: "DistDist", Metric: "KL", Group: GroupDistances, Cost: CostHeavy,
			Score: func(t, s *Profile) float64 { return metrics.KLDivergence(t.DistanceDist, s.DistanceDist) },
		},
		relQuery(QGlobalClustering, "GCC", GroupTriangles, CostHeavy, func(p *Profile) float64 { return p.GCC }),
		relQuery(QAvgClustering, "ACC", GroupTriangles, CostHeavy, func(p *Profile) float64 { return p.ACC }),
		{
			ID: QCommunityDetection, Symbol: "CD", Metric: "NMI", HigherBetter: true, Group: GroupCommunity, Cost: CostHeavy,
			Score: func(t, s *Profile) float64 { return metrics.NMI(t.CommunityLabels, s.CommunityLabels) },
		},
		relQuery(QModularity, "Mod", GroupCommunity, CostHeavy, func(p *Profile) float64 { return p.Modularity }),
		relQuery(QAssortativity, "Ass", GroupStructure, CostLight, func(p *Profile) float64 { return p.Assortativity }),
		{
			ID: QEigenvectorCentrality, Symbol: "EVC", Metric: "MAE", Group: GroupCentrality, Cost: CostMedium,
			Score: func(t, s *Profile) float64 { return metrics.MeanAbsoluteError(t.EVC, s.EVC) },
		},
	}
}

// queryRegistry holds every registered query, indexed by ID (specs[id-1])
// and by lower-cased symbol.
type queryRegistry struct {
	mu       sync.RWMutex
	specs    []QuerySpec
	bySymbol map[string]QueryID
}

var registry = newQueryRegistry()

func newQueryRegistry() *queryRegistry {
	r := &queryRegistry{bySymbol: make(map[string]QueryID)}
	for _, s := range builtinQuerySpecs() {
		r.specs = append(r.specs, s)
		r.bySymbol[strings.ToLower(s.Symbol)] = s.ID
	}
	return r
}

func (r *queryRegistry) spec(q QueryID) (QuerySpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if q < 1 || int(q) > len(r.specs) {
		return QuerySpec{}, false
	}
	return r.specs[q-1], true
}

func (r *queryRegistry) register(s QuerySpec) (QueryID, error) {
	if strings.TrimSpace(s.Symbol) == "" {
		return 0, fmt.Errorf("core: query symbol must be non-empty")
	}
	if s.Compute == nil {
		return 0, fmt.Errorf("core: custom query %q needs a Compute function", s.Symbol)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(s.Symbol)
	if _, dup := r.bySymbol[key]; dup {
		return 0, fmt.Errorf("core: query symbol %q already registered", s.Symbol)
	}
	id := QueryID(len(r.specs) + 1)
	s.ID = id
	s.Group = GroupCustom
	if s.Metric == "" {
		s.Metric = "RE"
	}
	if s.Cost == CostLight {
		// Unknown user code: schedule pessimistically unless told otherwise.
		s.Cost = CostHeavy
	}
	if s.Scalar == nil {
		s.Scalar = func(p *Profile) (float64, bool) {
			v, ok := p.Custom[id]
			return v, ok
		}
	}
	if s.Score == nil {
		if s.HigherBetter {
			return 0, fmt.Errorf("core: custom query %q sets HigherBetter but no Score; the default scorer is relative error, which is lower-better", s.Symbol)
		}
		s.Score = func(t, sy *Profile) float64 {
			return metrics.RelativeError(t.Custom[id], sy.Custom[id])
		}
	}
	r.specs = append(r.specs, s)
	r.bySymbol[key] = id
	return id, nil
}

func (r *queryRegistry) all() []QueryID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]QueryID, len(r.specs))
	for i := range r.specs {
		out[i] = QueryID(i + 1)
	}
	return out
}

// RegisterQuery adds a caller-defined query to the registry, assigning and
// returning its QueryID. The query participates in profile computation
// (its Compute runs as an independent pass on the profile worker pool),
// in Score, and in any Config.Queries selection. Registration is global
// and permanent for the process; symbols are case-insensitive and must be
// unique.
func RegisterQuery(s QuerySpec) (QueryID, error) {
	return registry.register(s)
}

// QuerySpecOf returns the registered spec for q.
func QuerySpecOf(q QueryID) (QuerySpec, bool) { return registry.spec(q) }

// String returns the query's registered symbol (the paper's symbol for
// the built-in fifteen).
func (q QueryID) String() string {
	if s, ok := registry.spec(q); ok {
		return s.Symbol
	}
	return fmt.Sprintf("Q%d", int(q))
}

// Metric returns the error metric the harness applies to the query
// (§V-D): RE for most, KL for the two distributions, NMI for community
// detection, MAE for eigenvector centrality.
func (q QueryID) Metric() string {
	if s, ok := registry.spec(q); ok {
		return s.Metric
	}
	return "RE"
}

// HigherBetter reports whether larger scores are better for the query
// (true only for NMI-style similarity scores).
func (q QueryID) HigherBetter() bool {
	if s, ok := registry.spec(q); ok {
		return s.HigherBetter
	}
	return false
}

// AllQueries returns the fifteen built-in query IDs in paper order.
func AllQueries() []QueryID {
	qs := make([]QueryID, NumQueries)
	for i := range qs {
		qs[i] = QueryID(i + 1)
	}
	return qs
}

// RegisteredQueries returns every registered query ID — the built-in
// fifteen followed by custom registrations in registration order.
func RegisteredQueries() []QueryID { return registry.all() }

// ParseQueries resolves comma-separable query symbols (case-insensitive,
// e.g. "CD", "DegDist") to their IDs.
func ParseQueries(symbols []string) ([]QueryID, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]QueryID, 0, len(symbols))
	for _, sym := range symbols {
		id, ok := registry.bySymbol[strings.ToLower(strings.TrimSpace(sym))]
		if !ok {
			known := make([]string, 0, len(registry.specs))
			for _, s := range registry.specs {
				known = append(known, s.Symbol)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("core: unknown query symbol %q (available: %s)", sym, strings.Join(known, ", "))
		}
		out = append(out, id)
	}
	return out, nil
}

// Score returns the error of the synthetic profile against the true
// profile for one query, along with whether higher is better (true only
// for NMI-style scores such as the community detection query).
func Score(q QueryID, truth, syn *Profile) (value float64, higherBetter bool) {
	s, ok := registry.spec(q)
	if !ok {
		panic(fmt.Sprintf("core: unknown query %d", int(q)))
	}
	return s.Score(truth, syn), s.HigherBetter
}

// ScalarValues returns the raw per-graph values behind a scalar query;
// ok=false for distribution- or vector-valued queries.
func ScalarValues(q QueryID, truth, syn *Profile) (truthValue, synValue float64, ok bool) {
	s, found := registry.spec(q)
	if !found || s.Scalar == nil {
		return 0, 0, false
	}
	tv, tok := s.Scalar(truth)
	sv, sok := s.Scalar(syn)
	return tv, sv, tok && sok
}

// CompareRow is one query's outcome of a truth-vs-synthetic comparison,
// tagged for the /v1/compare wire format.
type CompareRow struct {
	Query        string  `json:"query"`      // paper symbol, e.g. "GCC"
	Metric       string  `json:"metric"`     // "RE", "KL", "NMI" or "MAE"
	TrueValue    float64 `json:"true_value"` // scalar queries only; 0 for distributions
	SynValue     float64 `json:"syn_value"`
	Error        float64 `json:"error"` // metric value; for NMI higher is better
	HigherBetter bool    `json:"higher_better,omitempty"`
}

// CompareGraphs profiles truth and syn on opt.Queries and scores each
// query, one row per query in opt.Queries order. The two profiles draw
// from independent sub-seeds of seed; the truth profile is memoized, so
// repeated comparisons against one baseline pay only for the synthetic
// side.
func CompareGraphs(truth, syn *graph.Graph, seed int64, opt ProfileOptions) []CompareRow {
	pt := ComputeProfileCached(truth, opt, SubSeed(seed, 0))
	ps := ComputeProfileSeeded(syn, opt, SubSeed(seed, 1))
	rows := make([]CompareRow, 0, len(opt.Queries))
	for _, q := range opt.Queries {
		v, higher := Score(q, pt, ps)
		row := CompareRow{Query: q.String(), Metric: q.Metric(), Error: v, HigherBetter: higher}
		row.TrueValue, row.SynValue, _ = ScalarValues(q, pt, ps)
		rows = append(rows, row)
	}
	return rows
}
