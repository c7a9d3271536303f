// Package core is the PGB benchmark engine: it evaluates the paper's
// 4-tuple (M, G, P, U) by running every configured (algorithm, dataset,
// ε) cell of the grid and scoring the synthetic graphs on the selected
// utility queries.
//
// The package is organised around four registries and pipelines:
//
//   - registry.go holds the mechanism table (the M axis); queries.go
//     holds the query registry (the U axis), through which every
//     consumer — scoring, tables, export, verification — dispatches, so
//     custom queries participate everywhere the built-in fifteen do.
//   - profile.go computes a graph's Profile (all query answers in one
//     pass set) on a worker pool with deterministic per-pass RNG
//     streams, memoizing true-graph profiles by fingerprint.
//   - runner.go (Config, Run, gridRun.runCell) evaluates cells;
//     scheduler.go executes the grid on a bounded pool of
//     Config.Workers goroutines and finishes each cell — result slot,
//     manifest record, progress line — under one lock; checkpoint.go
//     streams finished cells to a durable JSONL manifest and resumes
//     interrupted runs (CheckpointConfig, Resume).
//   - tables.go, export.go, html.go, types.go and guidelines.go render
//     Results into each artifact of the paper. Every best count goes
//     through one tally in tables.go, and the text and HTML tables share
//     its column-best marks and ε means; verify.go and ablation.go run
//     the appendix series and the ablations as Run grids and render them
//     with the same series formatter as Fig. 2.
//   - fidelity.go runs the pinned fidelity grid once per seed and builds
//     its tolerance manifest from each run's cells.
//
// Determinism is the load-bearing invariant (DESIGN.md §2): a fixed
// Config produces bit-identical query errors regardless of worker
// count, scheduling order, or interruption/resume cycles, because every
// RNG stream derives from the cell coordinates and the configured seed,
// never from execution order. Timing and allocation measurements
// (CellResult.GenSeconds, GenBytes) are the deliberate exception.
package core
