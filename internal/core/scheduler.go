package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pgb/internal/graph"
	"pgb/internal/par"
)

// scheduler.go executes the benchmark grid on a bounded worker pool.
// Cell order, seeding, and results are independent of the worker count:
// every cell derives its RNG streams from hashCell(algorithm, dataset,
// ε), never from scheduling order, so a run with Workers = 32 produces
// the same Errors/StdDev as a serial run (see DESIGN.md §2). Cells
// already present in a checkpoint manifest are restored instead of
// recomputed (DESIGN.md §5).

// gridCell identifies one (algorithm, dataset, ε) cell of the grid.
// Index is the cell's position in configuration order — the order of
// Results.Cells and the checkpoint skip-set key space.
type gridCell struct {
	Index     int
	Algorithm string
	Dataset   string
	Epsilon   float64
}

func (c gridCell) key() cellKey {
	return cellKey{alg: c.Algorithm, ds: c.Dataset, eps: c.Epsilon}
}

// cellKey identifies a cell independently of its grid position, so a
// checkpoint written under one configuration ordering still matches.
type cellKey struct {
	alg string
	ds  string
	eps float64
}

// gridCells enumerates the configured grid in configuration order:
// algorithms outermost, then datasets, then privacy budgets.
func gridCells(cfg Config) []gridCell {
	cells := make([]gridCell, 0, len(cfg.Algorithms)*len(cfg.Datasets)*len(cfg.Epsilons))
	for _, a := range cfg.Algorithms {
		for _, d := range cfg.Datasets {
			for _, e := range cfg.Epsilons {
				cells = append(cells, gridCell{Index: len(cells), Algorithm: a, Dataset: d, Epsilon: e})
			}
		}
	}
	return cells
}

// datasetEntry is one loaded dataset with its memoized true profile,
// shared read-only by every cell on that dataset.
type datasetEntry struct {
	name    string
	g       *graph.Graph
	profile *Profile
}

// runGrid executes cells on min(cfg.Workers, len(cells)) workers and
// returns one CellResult per cell, in cell order. Cell workers are the
// caller plus helpers drawn from the run-wide budget (cfg.budget) — the
// same allowance the per-cell profile pools and graph kernels draw from,
// so once the grid's tail leaves helpers idle, their slots flow into the
// kernels of the cells still running. Cells found in done are restored
// from the checkpoint without recomputation; every freshly computed cell
// is handed to onDone (when non-nil) as soon as it finishes, concurrently
// from worker goroutines. Once abort is set (a checkpoint write failed)
// no further cells are dispatched; in-flight cells finish.
func runGrid(cfg Config, axis []mechanism, cells []gridCell, dss map[string]*datasetEntry, done map[cellKey]CellResult, onDone func(gridCell, CellResult), abort *atomic.Bool) []CellResult {
	results := make([]CellResult, len(cells))
	pending := make([]gridCell, 0, len(cells))
	for _, c := range cells {
		if res, ok := done[c.key()]; ok {
			results[c.Index] = res
			continue
		}
		pending = append(pending, c)
	}

	workers := cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}

	// completed counts finished cells (restored ones included) for the
	// [k/total] progress prefix; progressMu keeps the Progress callback
	// single-threaded, as documented on Config.
	var completed atomic.Int64
	completed.Store(int64(len(cells) - len(pending)))
	total := len(cells)
	var progressMu sync.Mutex

	run := func(c gridCell) {
		entry := dss[c.Dataset]
		res := runCell(cfg, axis, c.Algorithm, entry.name, entry.g, entry.profile, c.Epsilon)
		results[c.Index] = res
		if onDone != nil {
			onDone(c, res)
		}
		n := completed.Add(1)
		if cfg.Progress != nil {
			progressMu.Lock()
			if res.Err != nil {
				cfg.Progress(fmt.Sprintf("[%d/%d] cell %-10s %-10s eps=%-4g FAILED: %v", n, total, c.Algorithm, c.Dataset, c.Epsilon, res.Err))
			} else {
				cfg.Progress(fmt.Sprintf("[%d/%d] cell %-10s %-10s eps=%-4g done in %.2fs", n, total, c.Algorithm, c.Dataset, c.Epsilon, res.GenSeconds*float64(cfg.Reps)))
			}
			progressMu.Unlock()
		}
	}

	// A cancelled Config.Context stops dispatch exactly like a failed
	// checkpoint write: no new cells start, in-flight cells run to
	// completion (and reach onDone), so the manifest never holds a
	// half-computed cell.
	ctx := cfg.Context
	aborted := func() bool {
		return (abort != nil && abort.Load()) || (ctx != nil && ctx.Err() != nil)
	}

	claim := par.Queue(len(pending))
	cfg.budget.Do(workers-1, func() {
		for i, ok := claim(); ok && !aborted(); i, ok = claim() {
			run(pending[i])
		}
	})
	return results
}
