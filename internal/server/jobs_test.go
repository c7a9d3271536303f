package server

import (
	"testing"

	"pgb/internal/core"
	"pgb/internal/lru"
)

// TestJobTablePrunesOldestTerminal: once the job table holds more than
// maxRetainedJobs, noteTerminal prunes the oldest terminal jobs and no
// others; a pruned configuration resubmits as a fresh queued job, and a
// job requeued after its terminal transition survives pruning although
// it is the oldest entry of the terminal order. With no pool workers,
// every submitted job stays queued until the test cancels it.
func TestJobTablePrunesOldestTerminal(t *testing.T) {
	m := newJobManager(t.TempDir(), 0, 1, nil, lru.New[string, any](4), func(string, ...any) {})
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
	if err != nil || absorbed || fresh == jobs[0] || fresh.status().State != StateQueued {
		t.Fatalf("resubmitted pruned config: absorbed=%t err=%v fresh=%t state %s; want a fresh queued job",
			absorbed, err, fresh != jobs[0], fresh.status().State)
	}

	// jobs[extra] is now the oldest terminal entry; requeue it, then
	// push the table over its bound again.
	requeued := jobs[extra]
	if j, absorbed, err := m.submit(requeued.cfg); err != nil || !absorbed || j != requeued || j.status().State != StateQueued {
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
