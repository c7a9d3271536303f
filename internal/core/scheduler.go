package core

import (
	"context"
	"fmt"
	"os"
	"sync"

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

// gridRun is one execution of a normalized Config over a mechanism
// axis. mu guards the fields below it; once cells run, finish is their
// only writer.
type gridRun struct {
	cfg  Config
	axis []mechanism
	ctx  context.Context
	// budget is the run-wide worker allowance cfg.Workers resolves to,
	// shared by the cell workers and every profile computation (pass
	// pools and graph kernels) underneath them.
	budget *par.Budget

	mu sync.Mutex
	// results holds one slot per grid cell, in cell order.
	results []CellResult
	// completed counts finished cells, restored ones included.
	completed int
	// manifest is the open checkpoint manifest, nil without one.
	manifest *os.File
	// writeErr is the first failed manifest append; once set, nothing
	// more is appended and no further cell starts.
	writeErr error
}

// runCells computes pending on min(cfg.Workers, len(pending)) workers:
// the caller plus helpers drawn from the run-wide budget — the same
// allowance the per-cell profile pools and graph kernels draw from, so
// once the grid's tail leaves helpers idle, their slots flow into the
// kernels of the cells still running. Once the run is stopped no
// further cell is claimed; in-flight cells finish.
func (r *gridRun) runCells(pending []gridCell, dss map[string]*datasetEntry) {
	workers := max(1, min(r.cfg.Workers, len(pending)))
	claim := par.Queue(len(pending))
	r.budget.Do(workers-1, func() {
		for i, ok := claim(); ok && !r.stopped(); i, ok = claim() {
			c := pending[i]
			r.finish(c, r.runCell(c, dss[c.Dataset]))
		}
	})
}

// stopped reports whether the run dispatches no more cells: a manifest
// append failed, or the run's context is done. Either way the manifest
// never holds a half-computed cell.
func (r *gridRun) stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writeErr != nil || r.ctx.Err() != nil
}

// finish records the computed cell c in one critical section: its
// result slot, its manifest record (unless an earlier append failed)
// and its [k/total] progress line, so records and progress lines leave
// in one order and k never goes down. A failed append stops the run —
// computing cells whose results cannot be persisted would waste the
// rest of the grid.
func (r *gridRun) finish(c gridCell, res CellResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results[c.Index] = res
	if r.manifest != nil && r.writeErr == nil {
		r.writeErr = appendRecord(r.manifest, res)
	}
	r.completed++
	if r.cfg.Progress == nil {
		return
	}
	if res.Err != nil {
		r.cfg.Progress(fmt.Sprintf("[%d/%d] cell %-10s %-10s eps=%-4g FAILED: %v", r.completed, len(r.results), c.Algorithm, c.Dataset, c.Epsilon, res.Err))
	} else {
		r.cfg.Progress(fmt.Sprintf("[%d/%d] cell %-10s %-10s eps=%-4g done in %.2fs", r.completed, len(r.results), c.Algorithm, c.Dataset, c.Epsilon, res.GenSeconds*float64(r.cfg.Reps)))
	}
}
