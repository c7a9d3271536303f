package core

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// ctxTestConfig is a small multi-cell grid: 1 algorithm × 1 dataset ×
// 3 budgets, cheap enough for CI but with enough cells that a
// cancellation between cells is observable.
func ctxTestConfig(seed int64) Config {
	return Config{
		Algorithms: []string{"TmF"},
		Datasets:   []string{"ER"},
		Epsilons:   []float64{0.5, 1, 2},
		Queries:    []QueryID{QNumEdges, QAvgDegree},
		Reps:       1,
		Scale:      0.05,
		Seed:       seed,
		Workers:    1,
	}
}

// TestRunContextCancelBetweenCells cancels the run from the Progress
// callback as soon as the first cell completes: exactly that one cell
// must be in the manifest, Run must report context.Canceled, and a
// resume from the same file must finish the remaining cells.
func TestRunContextCancelBetweenCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := ctxTestConfig(1101)
	cfg.CheckpointPath = path
	cfg.Context = ctx
	cfg.Progress = func(line string) {
		if strings.Contains(line, "] cell") {
			cancel() // fires inside the serialized callback, before the next dispatch
		}
	}

	res, err := Run(cfg)
	if res != nil {
		t.Fatalf("cancelled Run returned results")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run error = %v, want context.Canceled", err)
	}

	_, cells, _, err := loadManifest(path)
	if err != nil {
		t.Fatalf("loading manifest after cancel: %v", err)
	}
	if len(cells) != 1 {
		t.Fatalf("manifest holds %d cells after cancel, want exactly 1 (the in-flight cell)", len(cells))
	}

	var resumedCells atomic.Int64
	cfg2, err := CheckpointConfig(path)
	if err != nil {
		t.Fatalf("CheckpointConfig: %v", err)
	}
	cfg2.Progress = func(line string) {
		if strings.Contains(line, "] cell") {
			resumedCells.Add(1)
		}
	}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if got := len(res2.Cells); got != 3 {
		t.Fatalf("resumed run has %d cells, want 3", got)
	}
	if n := resumedCells.Load(); n != 2 {
		t.Fatalf("resume recomputed %d cells, want 2 (one was checkpointed before the cancel)", n)
	}
	for _, c := range res2.Cells {
		if c.Err != nil {
			t.Fatalf("cell %s/%s/%g failed: %v", c.Algorithm, c.Dataset, c.Epsilon, c.Err)
		}
	}
}

// TestRunContextPreCancelled: a context that is already done must stop
// the run before any dataset or cell work happens.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := ctxTestConfig(1102)
	cfg.Context = ctx
	cfg.Progress = func(line string) {
		if strings.Contains(line, "] cell") {
			t.Errorf("pre-cancelled run computed a cell: %q", line)
		}
	}
	if _, err := Run(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run error = %v, want context.Canceled", err)
	}
}

// TestResumeContextCancelled: a resume (CheckpointConfig + Run) must
// honour the context set on the restored config like a fresh run.
func TestResumeContextCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := ctxTestConfig(1103)
	cfg.CheckpointPath = path
	if _, err := Run(cfg); err != nil {
		t.Fatalf("seeding manifest: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resumed, err := CheckpointConfig(path)
	if err != nil {
		t.Fatalf("CheckpointConfig: %v", err)
	}
	resumed.Context = ctx
	if _, err := Run(resumed); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resume error = %v, want context.Canceled", err)
	}
	// An un-cancelled resume of the complete manifest still works.
	res, err := Resume(path)
	if err != nil {
		t.Fatalf("Resume after cancelled resume: %v", err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("resumed run has %d cells, want 3", len(res.Cells))
	}
}

// TestConfigDigestNormalization: the digest content-addresses results —
// schedule-only fields must not move it, value fields must.
func TestConfigDigestNormalization(t *testing.T) {
	base := ctxTestConfig(1104)
	d := ConfigDigest(base)

	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	same := base
	same.Workers = 7
	same.CheckpointPath = "elsewhere.jsonl"
	same.Context = sctx
	same.Progress = func(string) {}
	if got := ConfigDigest(same); got != d {
		t.Fatalf("schedule-only fields moved the digest: %s vs %s", got, d)
	}

	diff := base
	diff.Seed = 9999
	if got := ConfigDigest(diff); got == d {
		t.Fatalf("seed change did not move the digest")
	}

	// A zero config digests identically to its normalized form.
	if ConfigDigest(Config{}) != ConfigDigest(Config{}.Normalized()) {
		t.Fatalf("zero config and normalized config digests differ")
	}
}
