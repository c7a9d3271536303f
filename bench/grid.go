package main

import (
	"time"

	"pgb"
)

// grid-cold: one op is one pgb.RunBenchmark over the paper's six
// mechanisms × eight datasets × ε ∈ {0.5, 2}, one repetition at scale
// 0.1 on two workers — the paper's core use. Every op draws a fresh grid
// seed, so each op generates its datasets and computes their truth
// profiles cold.

var gridEpsilons = []float64{0.5, 2}

const (
	gridScale   = 0.1
	gridWorkers = 2
)

func gridConfig(seed int64, workers int) pgb.BenchmarkConfig {
	return pgb.BenchmarkConfig{
		Algorithms: pgb.Algorithms(),
		Datasets:   pgb.Datasets(),
		Epsilons:   gridEpsilons,
		Reps:       1,
		Scale:      gridScale,
		Seed:       seed,
		Workers:    workers,
	}
}

func gridCells() int { return len(pgb.Algorithms()) * len(pgb.Datasets()) * len(gridEpsilons) }

// gridOp runs op i of a grid-cold run. The traced pass's untraced twin
// runs it with one worker, matching the traced replay, which is serial.
func gridOp(seed int64, i, workers int) opResult {
	start := time.Now()
	res, err := pgb.RunBenchmark(gridConfig(opSeed(seed, i), workers))
	r := opResult{Index: i, Ms: durMs(time.Since(start))}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	cells := make([]cellValues, len(res.Cells))
	for k, c := range res.Cells {
		cells[k] = cellValues{Alg: c.Algorithm, DS: c.Dataset, Eps: c.Epsilon, Errors: c.Errors}
		if c.Err != nil {
			cells[k].Err = c.Err.Error()
		}
	}
	r.Value, err = checkCells(cells, gridCells(), len(pgb.Queries()))
	if err != nil {
		r.Err = err.Error()
	}
	return r
}
