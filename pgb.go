// Package pgb is the public API of PGB-Go, a reproduction of "PGB:
// Benchmarking Differentially Private Synthetic Graph Generation
// Algorithms" (ICDE 2025). It exposes the benchmark's 4-tuple
// (M, G, P, U):
//
//   - M — the six mechanisms (DP-dK, TmF, PrivSKG, PrivHRG, PrivGraph,
//     DGG, plus the DER appendix baseline) behind a single Generate call;
//   - G — the eight benchmark datasets (offline-simulated stand-ins for
//     the six real graphs, exact generators for ER and BA);
//   - P — the privacy-budget grid ε ∈ {0.1, 0.5, 1, 2, 5, 10};
//   - U — the fifteen graph queries and their error metrics.
//
// Quick start:
//
//	g, err := pgb.Load(pgb.Source{Dataset: "Facebook", Scale: 0.25, Seed: 42})
//	syn, err := pgb.Generate("PrivGraph", g, 1.0, 7)
//	report := pgb.Compare(g, syn, 7)
//	fmt.Println(report)
//
// Graphs can be resolved through a Store instead of being regenerated
// per process: `pgb ingest` persists a dataset as an on-disk binary CSR
// snapshot, and a Source carrying the matching store loads it in O(file):
//
//	store, err := pgb.OpenSnapshotStore("pgb-data/snapshots")
//	g, err := pgb.Load(pgb.Source{Dataset: "Facebook", Scale: 0.25, Seed: 42, Store: store})
//
// The full benchmark grid (Tables VII, IX, X, XII and Fig. 2) is driven
// by RunBenchmark, or from the command line via cmd/pgb.
//
// The query axis U is extensible: RegisterQuery adds a caller-defined
// query that participates in Compare, the benchmark grid, and every
// formatter exactly like the built-in fifteen:
//
//	maxDeg, _ := pgb.RegisterQuery(pgb.CustomQuery{
//		Symbol:  "MaxDeg",
//		Compute: func(g *pgb.Graph, _ *rand.Rand) float64 { return float64(g.MaxDegree()) },
//	})
//	report := pgb.CompareQueries(g, syn, 7, []pgb.QueryID{maxDeg})
//
// BenchmarkConfig.Queries restricts a grid run to a query subset (the
// cmd/pgb -queries flag exposes the same selection); profile computation
// skips the passes unselected queries would need, and the independent
// passes of a profile run concurrently with deterministic per-pass RNG
// streams.
package pgb

import (
	"fmt"
	"math/rand"
	"strings"

	"pgb/internal/algo"
	"pgb/internal/core"
	"pgb/internal/datasets"
	"pgb/internal/graph"
)

// Graph is the graph type accepted and produced by all PGB operations.
// Construct custom inputs with NewGraphFromEdges.
type Graph = graph.Graph

// Edge is an undirected edge with U < V.
type Edge = graph.Edge

// NewGraphFromEdges builds a simple undirected graph over n nodes from an
// edge list; self-loops and duplicates are dropped.
func NewGraphFromEdges(n int, edges []Edge) *Graph {
	return graph.FromEdges(n, edges)
}

// Algorithms returns the names of the six benchmarked mechanisms in the
// paper's order. "DER" is additionally accepted by Generate for the
// appendix comparison.
func Algorithms() []string { return core.AlgorithmNames() }

// Datasets returns the names of the eight benchmark datasets in the
// paper's order: Minnesota, Facebook, Wiki, HepPh, Poli, Gnutella, ER, BA.
func Datasets() []string { return datasets.Names() }

// Epsilons returns the paper's privacy-budget grid.
func Epsilons() []float64 { return core.Epsilons() }

// Store resolves dataset references to graphs: the storage-agnostic
// seam between graph sources and everything that consumes graphs. See
// NewMemStore (graphs held in RAM) and OpenSnapshotStore (graphs served
// from on-disk binary CSR snapshots written by `pgb ingest`).
type Store = graph.Store

// NewMemStore returns an in-memory Store: graphs Put into it live on
// the heap for the life of the process — the historical behaviour of
// every dataset load, now available behind the Store seam.
func NewMemStore() *graph.MemStore { return graph.NewMemStore() }

// OpenSnapshotStore opens (creating if needed) the snapshot store
// rooted at dir: CSR snapshot files addressed by graph fingerprint plus
// a reference index, as written by `pgb ingest`. Snapshots are opened
// read-only via mmap where the platform supports it, with a portable
// plain-read fallback. Close the store when done; graphs it returned
// must not be used afterwards.
func OpenSnapshotStore(dir string) (*graph.SnapshotStore, error) {
	return graph.OpenSnapshotStore(dir)
}

// Ref is the key a Store is addressed by: a dataset name with the
// normalized scale and seed that pin the exact graph. Obtain one with
// Source.Ref.
type Ref = graph.Ref

// Source names a benchmark graph to load: the dataset plus the
// (Scale, Seed) pair that makes generation deterministic, and an
// optional Store to resolve through before generating.
type Source struct {
	// Dataset is one of Datasets() (or "GrQC", the verification graph).
	Dataset string
	// Scale in (0, 1] shrinks the paper's node/edge targets
	// proportionally; 0 (and any out-of-range value) means full size.
	Scale float64
	// Seed makes generation deterministic; a Source is a pure name:
	// equal Sources always denote bit-identical graphs.
	Seed int64
	// Store, when non-nil, is consulted first: a reference previously
	// ingested (pgb ingest, Store.Put) loads from the store instead of
	// being re-materialized. On a store miss the dataset is generated;
	// the miss is NOT written back (use Store.Put or `pgb ingest` to
	// persist deliberately).
	Store Store
}

// Ref is the canonical store key of the source: the dataset name with
// scale normalized exactly as Load normalizes it, so the key under
// which `pgb ingest` (or Store.Put) recorded a graph is the key Load
// looks up.
func (s Source) Ref() Ref {
	return datasets.RefFor(s.Dataset, s.Scale, s.Seed)
}

// Load resolves a Source to its graph: through src.Store when the
// reference was ingested, by deterministic generation otherwise. It
// never panics — unknown dataset names and store failures are errors.
func Load(src Source) (*Graph, error) {
	spec, err := datasets.ByName(src.Dataset)
	if err != nil {
		return nil, err
	}
	g, _, err := datasets.LoadVia(src.Store, spec, src.Scale, src.Seed)
	return g, err
}

// Generate runs the named differentially private generation algorithm on
// g with total privacy budget eps, deterministically in seed. The
// returned graph spans the same node universe as g and the call satisfies
// ε-Edge-CDP (or (ε, δ=0.01) for DP-dK and PrivSKG).
//
// Seeding contract: each call constructs a private generator,
// rand.New(rand.NewSource(seed)), consumed sequentially by the
// algorithm — so the result is a pure function of (algorithm, g, eps,
// seed), and concurrent Generate calls (e.g. simultaneous pgb serve
// requests) never share RNG state. This is deliberately different from
// the benchmark grid, which derives independent SplitMix64 sub-seed
// streams per (cell, repetition, profile) via core.SubSeed so that no
// stream's draws depend on how much randomness another consumer used;
// a single Generate call has no other consumers, so the plain
// sequential source is the stable, documented behaviour. The two
// schemes never mix: a grid cell's generation stream is seeded from its
// own coordinates, not from this function.
//
// Execution: the heavy generators shard their deterministic passes
// across GOMAXPROCS workers (DESIGN.md §10). This never changes the
// result — every noise and sampling draw stays on the call's private
// rng in the serial order, so the output remains the same pure function
// of (algorithm, g, eps, seed) as the fully serial implementation.
func Generate(algorithm string, g *Graph, eps float64, seed int64) (*Graph, error) {
	alg, err := core.NewAlgorithm(algorithm)
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("pgb: Generate needs a non-nil input graph")
	}
	if eps <= 0 {
		return nil, fmt.Errorf("pgb: privacy budget must be positive, got %g", eps)
	}
	rng := rand.New(rand.NewSource(seed))
	return algo.GenerateWith(alg, g, eps, rng, algo.Params{})
}

// QueryReport holds the utility comparison of a synthetic graph against
// its source across all fifteen PGB queries.
type QueryReport struct {
	// Rows are ordered Q1..Q15.
	Rows []QueryRow
}

// QueryRow is one query's outcome.
type QueryRow struct {
	Query        string  // paper symbol, e.g. "GCC"
	Metric       string  // "RE", "KL", "NMI" or "MAE"
	TrueValue    float64 // scalar queries only; 0 for distributions
	SynValue     float64
	Error        float64 // metric value; for NMI higher is better
	HigherBetter bool
}

// String renders the report as an aligned table.
func (r QueryReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-7s %14s %14s %12s\n", "Query", "Metric", "True", "Synthetic", "Error")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %-7s %14.4f %14.4f %12.4f\n",
			row.Query, row.Metric, row.TrueValue, row.SynValue, row.Error)
	}
	return sb.String()
}

// Compare evaluates all fifteen queries on both graphs and scores the
// synthetic graph with the paper's metric per query. The two profiles are
// computed from independent deterministic sub-seeds of seed, so the
// sampled-BFS distance queries (and every other randomised pass) see
// unbiased, repetition-independent RNG streams for each graph; the truth
// profile is memoized, so repeated comparisons against the same baseline
// graph only pay for the synthetic side.
func Compare(truth, syn *Graph, seed int64) QueryReport {
	return CompareQueries(truth, syn, seed, nil)
}

// CompareQueries is Compare restricted to a query subset; nil evaluates
// the built-in fifteen. Custom queries from RegisterQuery are accepted.
// A nil graph on either side is profiled as the empty graph rather than
// panicking; the affected rows degrade to NaN/zero errors.
func CompareQueries(truth, syn *Graph, seed int64, queries []QueryID) QueryReport {
	if truth == nil {
		truth = graph.New(0)
	}
	if syn == nil {
		syn = graph.New(0)
	}
	if queries == nil {
		queries = core.AllQueries()
	}
	opt := core.ProfileOptions{Queries: queries}
	pt := core.ComputeProfileCached(truth, opt, core.SubSeed(seed, 0))
	ps := core.ComputeProfileSeeded(syn, opt, core.SubSeed(seed, 1))
	var rep QueryReport
	for _, q := range queries {
		v, higher := core.Score(q, pt, ps)
		row := QueryRow{Query: q.String(), Metric: q.Metric(), Error: v, HigherBetter: higher}
		row.TrueValue, row.SynValue, _ = core.ScalarValues(q, pt, ps)
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// QueryID identifies a benchmark query: 1..15 are the paper's fifteen,
// higher IDs come from RegisterQuery.
type QueryID = core.QueryID

// CustomQuery describes a caller-defined graph query for RegisterQuery.
type CustomQuery struct {
	// Symbol is the short display name, e.g. "MaxDeg". Case-insensitively
	// unique across all registered queries.
	Symbol string
	// Metric labels the error metric in reports; empty defaults to "RE".
	Metric string
	// HigherBetter marks similarity-style scores where larger is better
	// (like the built-in NMI community query); it controls how best-count
	// tables rank algorithms on this query. Requires a custom Score —
	// the default relative-error scorer is lower-better.
	HigherBetter bool
	// Compute answers the query on one graph. rng is a deterministic
	// stream derived from the comparison seed; use it for any sampling so
	// results stay reproducible.
	Compute func(g *Graph, rng *rand.Rand) float64
	// Score compares the two answers; nil defaults to relative error
	// |syn-truth| / |truth| (lower is better).
	Score func(truthValue, synValue float64) float64
}

// RegisterQuery adds a custom query to the global registry and returns
// its QueryID for use in CompareQueries, BenchmarkConfig.Queries, and the
// cmd/pgb -queries flag (by symbol). Registration is process-wide and
// permanent; it is typically done from an init function or main.
func RegisterQuery(q CustomQuery) (QueryID, error) {
	if q.Compute == nil {
		return 0, fmt.Errorf("pgb: RegisterQuery needs a Compute function")
	}
	spec := core.QuerySpec{
		Symbol:       q.Symbol,
		Metric:       q.Metric,
		HigherBetter: q.HigherBetter,
		Compute: func(g *Graph, _ core.ProfileOptions, rng *rand.Rand) float64 {
			return q.Compute(g, rng)
		},
	}
	var id QueryID // assigned below, before any scoring can run
	if q.Score != nil {
		score := q.Score
		spec.Score = func(t, s *core.Profile) float64 {
			return score(t.Custom[id], s.Custom[id])
		}
	}
	id, err := core.RegisterQuery(spec)
	return id, err
}

// Queries returns the symbols of every registered query — the paper's
// fifteen followed by custom registrations.
func Queries() []string {
	ids := core.RegisteredQueries()
	out := make([]string, len(ids))
	for i, q := range ids {
		out[i] = q.String()
	}
	return out
}

// BenchmarkConfig parameterises RunBenchmark; the zero value runs the
// paper's full grid (six algorithms × eight datasets × six budgets × ten
// repetitions at full dataset size).
//
// Two fields control execution rather than values: Workers is the run's
// single parallelism budget — it bounds the grid cells computed
// concurrently and the sharded triangle/BFS kernel workers inside each
// cell's profile, which share one allowance (0 = GOMAXPROCS; cell
// values are identical at any worker count, because every cell seeds
// its RNG streams from its own coordinates and the kernels are
// worker-count-invariant, DESIGN.md §2) — and CheckpointPath streams
// each finished cell to a durable JSONL run manifest so an interrupted
// run can be resumed — by calling RunBenchmark again with the same
// configuration and path, or in one call with Resume.
//
// A third execution field, Context, cancels a running grid between
// cells: no new cells start once the context is done, in-flight cells
// finish and are checkpointed, and RunBenchmark returns the context's
// error — resubmitting the same configuration and CheckpointPath later
// resumes from exactly what completed. The pgb serve job manager is
// built on this.
type BenchmarkConfig = core.Config

// BenchmarkResults is the outcome of a benchmark run, with formatters for
// each of the paper's tables and figures.
type BenchmarkResults = core.Results

// RunBenchmark executes the benchmark grid on a bounded worker pool of
// cfg.Workers goroutines, checkpointing to cfg.CheckpointPath when set.
func RunBenchmark(cfg BenchmarkConfig) (*BenchmarkResults, error) {
	return core.Run(cfg)
}

// Resume continues a benchmark run that was interrupted while writing
// the run manifest at path (BenchmarkConfig.CheckpointPath or the
// cmd/pgb -checkpoint flag): the grid configuration is restored from
// the manifest's header, completed cells are reloaded from their
// records, and only the missing cells are computed — appending to the
// same manifest, so a run can be interrupted and resumed any number of
// times. Resuming under a configuration digest that differs from the
// manifest's is an error. See DESIGN.md §5 for the manifest format.
func Resume(path string) (*BenchmarkResults, error) {
	return core.Resume(path)
}
