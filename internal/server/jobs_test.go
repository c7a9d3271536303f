package server

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"pgb/internal/core"
	"pgb/internal/lru"
)

// TestJobTablePrunesOldestTerminal: once the job table holds more than
// maxRetainedJobs, noteTerminalLocked prunes the oldest terminal jobs and no
// others; a pruned configuration resubmits as a fresh queued job, and a
// job requeued after its terminal transition survives pruning although
// it is the oldest entry of the terminal order. With no pool workers,
// every submitted job stays queued until the test cancels it.
func TestJobTablePrunesOldestTerminal(t *testing.T) {
	m := newJobManager(t.TempDir(), 0, 1, nil, lru.New[string, any](4), nil, func(string, ...any) {})
	defer m.close()
	config := func(i int) core.Config {
		return core.Config{Seed: int64(1000 + i)}.Normalized()
	}
	submitCancelled := func(i int) *job {
		t.Helper()
		j, absorbed, err := m.submit(config(i))
		if err != nil || absorbed {
			t.Fatalf("submit %d: absorbed=%t err=%v, want a new job", i, absorbed, err)
		}
		if err := m.cancelJob(j); err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
		return j
	}

	const extra = 8
	jobs := make([]*job, maxRetainedJobs+extra)
	for i := range jobs {
		jobs[i] = submitCancelled(i)
	}
	if n := m.count(); n != maxRetainedJobs {
		t.Fatalf("table holds %d jobs, want %d", n, maxRetainedJobs)
	}
	for i, j := range jobs {
		if _, kept := m.get(j.id); kept != (i >= extra) {
			t.Fatalf("job %d retained=%t; want only the %d oldest pruned", i, kept, extra)
		}
	}

	fresh, absorbed, err := m.submit(config(0))
	if err != nil || absorbed || fresh == jobs[0] || m.status(fresh).State != StateQueued {
		t.Fatalf("resubmitted pruned config: absorbed=%t err=%v fresh=%t state %s; want a fresh queued job",
			absorbed, err, fresh != jobs[0], m.status(fresh).State)
	}

	// jobs[extra] is now the oldest terminal entry; requeue it, then
	// push the table over its bound again.
	requeued := jobs[extra]
	if j, absorbed, err := m.submit(requeued.cfg); err != nil || !absorbed || j != requeued || m.status(j).State != StateQueued {
		t.Fatalf("resubmitted cancelled job: absorbed=%t err=%v same=%t; want it requeued", absorbed, err, j == requeued)
	}
	for i := len(jobs); i < len(jobs)+4; i++ {
		submitCancelled(i)
	}
	if n := m.count(); n != maxRetainedJobs {
		t.Fatalf("after requeue: table holds %d jobs, want %d", n, maxRetainedJobs)
	}
	for _, j := range []*job{requeued, fresh} {
		if got, kept := m.get(j.id); !kept || got != j {
			t.Fatalf("queued job %s was pruned", j.id)
		}
	}
	for i := extra + 1; i < extra+6; i++ {
		if _, kept := m.get(jobs[i].id); kept {
			t.Fatalf("job %d retained; want the terminal jobs after the requeued one pruned in its place", i)
		}
	}
	if _, kept := m.get(jobs[extra+6].id); !kept {
		t.Fatalf("job %d pruned; want only five more pruned", extra+6)
	}
}

// TestPrunedAdoptedJobKeepsItsManifest: a job recover() adopted from a
// renamed manifest is pruned from the table, and an identical
// resubmission must resume that same file rather than start a fresh
// manifest under <id>.jsonl, which would recompute every cell.
func TestPrunedAdoptedJobKeepsItsManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Seed: 4242}.Normalized()

	// A run cancelled before its first dataset leaves a header-only
	// manifest; the file name does not match the config digest.
	renamed := filepath.Join(dir, "rrenamed.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := cfg
	run.Context = ctx
	run.CheckpointPath = renamed
	if _, err := core.Run(run); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}

	m := newJobManager(dir, 0, 1, nil, lru.New[string, any](4), nil, func(string, ...any) {})
	defer m.close()
	m.recover()
	id := jobID(core.ConfigDigest(cfg))
	adopted, ok := m.get(id)
	if !ok || adopted.manifest != renamed {
		t.Fatalf("recover: adopted=%t; want job %s on %s", ok, id, renamed)
	}
	if err := m.cancelJob(adopted); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxRetainedJobs+2; i++ {
		j, _, err := m.submit(core.Config{Seed: int64(1000 + i)}.Normalized())
		if err != nil {
			t.Fatal(err)
		}
		if err := m.cancelJob(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, kept := m.get(id); kept {
		t.Fatalf("adopted job %s still retained; want it pruned", id)
	}

	fresh, absorbed, err := m.submit(cfg)
	if err != nil || absorbed {
		t.Fatalf("resubmit: absorbed=%t err=%v; want a fresh job", absorbed, err)
	}
	if fresh.manifest != renamed {
		t.Fatalf("resubmitted job checkpoints to %s; want the adopted manifest %s", fresh.manifest, renamed)
	}
}
