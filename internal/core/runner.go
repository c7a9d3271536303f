package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pgb/internal/algo"
	"pgb/internal/datasets"
	"pgb/internal/dp"
	"pgb/internal/graph"
	"pgb/internal/par"
)

// Config parameterises a benchmark run. The zero value is completed by
// withDefaults to the paper's grid: six algorithms, eight datasets, six
// privacy budgets, the fifteen queries, ten repetitions, full-size graphs.
type Config struct {
	Algorithms []string
	Datasets   []string
	Epsilons   []float64
	// Queries selects the utility queries evaluated per cell; empty runs
	// the paper's fifteen. Custom queries added through RegisterQuery may
	// be included, and profile computation skips the passes unselected
	// queries would need.
	Queries []QueryID
	Reps    int
	// Scale in (0, 1] shrinks dataset node/edge targets for fast runs.
	Scale float64
	Seed  int64
	// Workers is the run's single parallelism budget: it bounds the
	// concurrent (algorithm, dataset, ε) grid cells AND the kernel
	// workers inside each cell's profile computation, which draw helpers
	// from one shared allowance — so a tail of straggler cells
	// automatically spends the freed capacity inside its triangle/BFS
	// kernels. 0 selects GOMAXPROCS. Cell values are identical for every
	// worker count: per-cell seeds derive from the cell coordinates,
	// never from scheduling order, and the kernels are worker-count-
	// invariant (DESIGN.md §2). Only the measurement fields (GenSeconds,
	// GenBytes) vary, as they observe the shared process.
	Workers int
	// DistanceMode selects the Q7–Q9 estimator for every cell profile
	// (auto/exact/sampled/anf), at the fixed tuning the checkpoint
	// header records. See ParseDistanceMode for validation of user input.
	DistanceMode DistanceMode
	// CheckpointPath, when non-empty, streams every finished cell to a
	// JSONL run manifest at that path (DESIGN.md §5). If the file already
	// exists and was written by the same configuration, the run resumes:
	// recorded cells are restored and only the remainder is computed. A
	// manifest from a different configuration is an error.
	CheckpointPath string
	// Progress, when non-nil, receives one line per completed cell (and
	// per loaded dataset). Calls are serialised; the callback needs no
	// locking of its own.
	Progress func(string)
	// Context, when non-nil, cancels the run between grid cells: once it
	// is done, no further cells are dispatched, in-flight cells finish
	// (and are checkpointed — a cell is never recorded half-computed),
	// and Run returns the context's error. Like Progress it is
	// execution-only: it does not enter the checkpoint digest, so a
	// cancelled checkpointed run resumes under the same manifest. nil
	// means the run cannot be cancelled.
	Context context.Context
	// Store, when non-nil, resolves dataset graphs before generation: a
	// reference ingested into the store (pgb ingest) loads from its CSR
	// snapshot instead of being re-materialized. Like Workers it is
	// execution-only and excluded from the checkpoint digest — a stored
	// graph is bit-identical to the generated one (same fingerprint), so
	// where the bytes come from can never change a cell value.
	Store graph.Store

	// budget is the run-wide worker allowance Workers resolves to,
	// created by Run and shared by the cell scheduler and every profile
	// computation (pass pools and graph kernels) underneath it.
	budget *par.Budget
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = AlgorithmNames()
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datasets.Names()
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = Epsilons()
	}
	if len(c.Queries) == 0 {
		c.Queries = AllQueries()
	}
	if c.Reps <= 0 {
		c.Reps = 10
	}
	// Fails closed under NaN: the disjunctive form (c.Scale <= 0 ||
	// c.Scale > 1) is vacuously false for a poisoned Scale and would
	// let NaN flow into every dataset size.
	if !(c.Scale > 0 && c.Scale <= 1) {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	c.Workers = par.Workers(c.Workers)
	return c
}

// Normalized returns the configuration with every defaultable field
// resolved, exactly as Run resolves it: the grid a zero-value field
// denotes is made explicit (paper algorithms/datasets/budgets/queries,
// ten repetitions, scale 1, seed 42). Callers that need to reason about
// a run before executing it — digesting it, sizing its grid — should
// normalize first so their view matches Run's.
func (c Config) Normalized() Config { return c.withDefaults() }

// profileOptions is the per-cell profile configuration: the selected
// queries and distance estimator at default tuning, drawing parallelism
// from the run's single worker budget.
func (c Config) profileOptions() ProfileOptions {
	return ProfileOptions{Queries: c.Queries, DistanceMode: c.DistanceMode, Workers: c.Workers, Budget: c.budget}
}

// CellResult is the outcome of one (algorithm, dataset, ε) cell,
// averaged over repetitions: the per-query error values plus resource
// measurements.
type CellResult struct {
	Algorithm string
	Dataset   string
	Epsilon   float64
	// Queries lists the evaluated queries in configuration order; Errors
	// and StdDev are parallel to it.
	Queries []QueryID
	// Errors[i] is the mean error for Queries[i] (NMI for the community
	// detection query, where higher is better; all others lower is better).
	Errors []float64
	// StdDev[i] is the standard deviation of the error across
	// repetitions (0 for single-repetition runs).
	StdDev []float64
	// GenSeconds is the mean wall-clock generation time.
	GenSeconds float64
	// GenBytes is the mean heap allocation during generation.
	GenBytes float64
	// Err records a generation failure (cell excluded from aggregation).
	Err error
}

// ErrorFor returns the mean error recorded for query q; ok=false when the
// cell did not evaluate q.
func (c *CellResult) ErrorFor(q QueryID) (value float64, ok bool) {
	for i, qq := range c.Queries {
		if qq == q {
			return c.Errors[i], true
		}
	}
	return 0, false
}

// Results is the full outcome of a benchmark run.
type Results struct {
	Config Config
	Cells  []CellResult
	// DatasetSummaries is keyed by dataset name.
	DatasetSummaries map[string]datasets.Summary
}

// Queries returns the query set the run evaluated, in configuration order.
func (r *Results) Queries() []QueryID {
	if len(r.Config.Queries) > 0 {
		return r.Config.Queries
	}
	return AllQueries()
}

// Run executes the benchmark grid on a bounded worker pool of
// cfg.Workers goroutines. Dataset graphs and their true profiles are
// computed once (and memoized across runs via the profile cache). With
// cfg.CheckpointPath set, every finished cell is streamed to the JSONL
// run manifest and an interrupted run resumes from it — see Resume for
// the one-call form.
func Run(cfg Config) (*Results, error) { return run(cfg, mechanisms) }

// run is Run with the names in cfg.Algorithms looked up in axis instead
// of the mechanism table. The ablations use it to sweep their variant
// rows through the same grid engine.
func run(cfg Config, axis []mechanism) (*Results, error) {
	cfg = cfg.withDefaults()
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// One worker allowance for the whole run: the cell scheduler, the
	// profile pass pools, and the graph kernels all draw helpers from it
	// (the calling goroutine is the one worker outside the budget).
	cfg.budget = par.NewBudget(cfg.Workers - 1)
	for _, q := range cfg.Queries {
		if _, ok := registry.spec(q); !ok {
			return nil, fmt.Errorf("core: unknown query id %d in config", int(q))
		}
	}
	// Every grid axis is validated before any work starts: a typo'd
	// algorithm name or a NaN budget fails the run immediately instead of
	// surfacing as one error cell per (dataset, epsilon).
	for _, name := range cfg.Algorithms {
		if _, err := lookup(axis, name); err != nil {
			return nil, err
		}
	}
	for _, eps := range cfg.Epsilons {
		if err := dp.CheckEpsilon(eps); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	cells := gridCells(cfg)

	var (
		done map[cellKey]CellResult
		ckpt *checkpointWriter
	)
	if cfg.CheckpointPath != "" {
		var err error
		done, ckpt, err = openCheckpoint(cfg)
		if err != nil {
			return nil, err
		}
		defer ckpt.close()
		if cfg.Progress != nil && len(done) > 0 {
			cfg.Progress(fmt.Sprintf("checkpoint %s: %d/%d cells already complete", cfg.CheckpointPath, len(done), len(cells)))
		}
	}

	// Datasets whose cells were all restored from the checkpoint never
	// reach runCell, so their (expensive) true profile is not needed —
	// the graph is still generated for its summary statistics.
	needProfile := make(map[string]bool, len(cfg.Datasets))
	for _, c := range cells {
		if _, ok := done[c.key()]; !ok {
			needProfile[c.Dataset] = true
		}
	}

	popt := cfg.profileOptions()
	dss := make(map[string]*datasetEntry, len(cfg.Datasets))
	summaries := make(map[string]datasets.Summary, len(cfg.Datasets))
	for _, name := range cfg.Datasets {
		// Dataset generation and the true profile are the expensive
		// pre-grid work; honour cancellation between datasets too.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: run cancelled: %w", err)
		}
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g, fromStore, err := datasets.LoadVia(cfg.Store, spec, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var prof *Profile
		if needProfile[name] {
			prof = ComputeProfileCached(g, popt, cfg.Seed+1)
		}
		dss[name] = &datasetEntry{name: spec.Name, g: g, profile: prof}
		summaries[name] = datasets.Summarize(spec, g)
		if cfg.Progress != nil {
			s := summaries[name]
			src := "generated"
			if fromStore {
				src = "snapshot"
			}
			cfg.Progress(fmt.Sprintf("dataset %-10s n=%d m=%d acc=%.4f (%s)", s.Name, s.Nodes, s.Edges, s.ACC, src))
		}
	}

	// A failed checkpoint write aborts the run: computing cells whose
	// results cannot be persisted would waste the rest of the grid.
	var onDone func(gridCell, CellResult)
	var writeErr error
	var abort atomic.Bool
	if ckpt != nil {
		var mu sync.Mutex
		onDone = func(_ gridCell, res CellResult) {
			if err := ckpt.append(res); err != nil {
				mu.Lock()
				if writeErr == nil {
					writeErr = err
				}
				mu.Unlock()
				abort.Store(true)
			}
		}
	}
	results := runGrid(cfg, axis, cells, dss, done, onDone, &abort)
	if writeErr != nil {
		return nil, fmt.Errorf("core: writing checkpoint %s (run aborted): %w", cfg.CheckpointPath, writeErr)
	}
	if err := ctx.Err(); err != nil {
		// Every cell finished before the cancellation was observed is
		// already in the manifest (when checkpointing); the run resumes
		// from there. Partial in-memory results are withheld: a partial
		// grid would silently skew every best-count aggregation.
		return nil, fmt.Errorf("core: run cancelled: %w", err)
	}
	return &Results{Config: cfg, Cells: results, DatasetSummaries: summaries}, nil
}

// runCell generates Reps synthetic graphs with the generator of axis row
// algName and averages the query errors.
func runCell(cfg Config, axis []mechanism, algName, dsName string, g *graph.Graph, truth *Profile, eps float64) CellResult {
	nq := len(cfg.Queries)
	res := CellResult{
		Algorithm: algName,
		Dataset:   dsName,
		Epsilon:   eps,
		Queries:   append([]QueryID(nil), cfg.Queries...),
		Errors:    make([]float64, nq),
		StdDev:    make([]float64, nq),
	}
	m, err := lookup(axis, algName)
	if err != nil {
		res.Err = err
		return res
	}
	popt := cfg.profileOptions()
	seed := cfg.Seed ^ hashCell(algName, dsName, eps)
	sumErr := make([]float64, nq)
	sumSq := make([]float64, nq)
	var sumSec, sumBytes float64
	for rep := 0; rep < cfg.Reps; rep++ {
		repSeed := seed + int64(rep)*7919
		rng := rand.New(rand.NewSource(repSeed))
		sec, bytes, syn, gerr := MeasureGenerateWith(m.gen, g, eps, rng,
			algo.Params{Workers: cfg.Workers, Budget: cfg.budget})
		if gerr != nil {
			res.Err = gerr
			return res
		}
		// The synthetic profile gets its own derived seed so its RNG
		// streams are independent of how much the generator consumed.
		synProf := ComputeProfileSeeded(syn, popt, SubSeed(repSeed, 1))
		for i, q := range cfg.Queries {
			v, _ := Score(q, truth, synProf)
			sumErr[i] += v
			sumSq[i] += v * v
		}
		sumSec += sec
		sumBytes += bytes
	}
	inv := 1 / float64(cfg.Reps)
	for i := range sumErr {
		mean := sumErr[i] * inv
		res.Errors[i] = mean
		variance := sumSq[i]*inv - mean*mean
		if variance > 0 {
			res.StdDev[i] = math.Sqrt(variance)
		}
	}
	res.GenSeconds = sumSec * inv
	res.GenBytes = sumBytes * inv
	return res
}

// MeasureGenerateWith runs one generation under the worker allowance p,
// returning wall-clock seconds and heap bytes allocated during the call
// (the Table IX / Table X measurements). The grid runner threads its
// run-wide budget through so a cell's generation stage shares the same
// allowance as its profile kernels. Values are identical at any Params
// (DESIGN.md §10); only the measurements observe the schedule.
func MeasureGenerateWith(g algo.Generator, in *graph.Graph, eps float64, rng *rand.Rand, p algo.Params) (sec, bytes float64, out *graph.Graph, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now() //pgb:walltime the wall clock is the measurement itself; sec never feeds values or digests
	out, err = g.Generate(in, eps, rng, p)
	sec = time.Since(start).Seconds() //pgb:walltime the wall clock is the measurement itself; sec never feeds values or digests
	runtime.ReadMemStats(&after)
	bytes = float64(after.TotalAlloc - before.TotalAlloc)
	return sec, bytes, out, err
}

func hashCell(alg, ds string, eps float64) int64 {
	h := int64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= int64(s[i])
			h *= 1099511628211
		}
	}
	mix(alg)
	mix(ds)
	mix(fmt.Sprintf("%g", eps))
	return h
}
