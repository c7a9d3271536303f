package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pgb/internal/core"
	"pgb/internal/graph"
	"pgb/internal/lru"
)

// jobs.go is the async job manager behind POST /v1/runs (DESIGN.md
// §9.2). A submitted grid run becomes a job executed by a bounded
// worker pool; its identity is its configuration digest, so identical
// submissions converge on one job, its durable state is the run's
// checkpoint manifest, and a restarted server re-adopts every manifest
// it finds and resumes the unfinished ones via the core resume path.
//
// Job state machine:
//
//	queued ──► running ──► done
//	   │           │   └──► failed
//	   └───────────┴──────► cancelled ──► queued   (resubmission resumes)
//
// done is the only absorbing state: a done job answers every later
// identical submission from memory (and the result cache). failed and
// cancelled jobs are re-enqueued by resubmission and pick up from their
// manifest — cells finished before the failure or cancel are restored,
// only the remainder is recomputed.

// JobState is the lifecycle state of a run job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// terminal reports whether no worker is (or will be) executing the job
// until something transitions it back to queued.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// job is one grid run owned by the manager. The fields above the blank
// line never change; the rest are guarded by jobManager.mu.
type job struct {
	id        string
	digest    string
	cfg       core.Config // normalized; Context/Progress/CheckpointPath set per execution
	manifest  string      // the job's durable checkpoint file; for an adopted job, the file it was found in
	recovered bool        // adopted from a manifest at startup

	state     JobState
	errMsg    string
	completed int
	total     int
	results   *core.Results
	log       []string
	cancel    context.CancelFunc // non-nil while running
	// ended holds the end state of every run generation a requeue has
	// closed, oldest first, so len(ended) is the current generation. An
	// SSE subscriber ends with the end state of the run it joined even
	// if a resubmission has requeued the job before it looks again.
	ended []JobState
	// wake is closed and replaced on every logged line and state change.
	wake chan struct{}
}

// jobStatus is the wire form of a job served on GET /v1/runs/{id}.
type jobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Digest    string   `json:"digest"`
	Completed int      `json:"completed_cells"`
	Total     int      `json:"total_cells"`
	Error     string   `json:"error,omitempty"`
	Recovered bool     `json:"recovered,omitempty"`
}

// statusLocked is called with jobManager.mu held.
func (j *job) statusLocked() jobStatus {
	return jobStatus{
		ID:        j.id,
		State:     j.state,
		Digest:    j.digest,
		Completed: j.completed,
		Total:     j.total,
		Error:     j.errMsg,
		Recovered: j.recovered,
	}
}

// notify wakes every SSE subscriber waiting on the job. Called with
// jobManager.mu held.
func (j *job) notify() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// maxLogLines bounds the retained progress log (a full paper grid is
// 288 cell lines plus dataset lines; 4096 leaves ample headroom). SSE
// streams the retained log, so a run with more lines streams its first
// maxLogLines while the poll counters keep counting.
const maxLogLines = 4096

// jobManager owns the job table, the submission queue, and the worker
// pool.
type jobManager struct {
	dataDir    string
	cache      *lru.Cache[string, any]
	store      graph.Store       // dataset resolution for executed runs (snapshot-first)
	profiles   *core.ProfileMemo // truth-profile memo of executed runs
	runWorkers int               // Config.Workers for each executed run
	logf       func(string, ...any)

	// mu guards jobs, terminalOrder, adopted and closed, and every job's
	// mutable fields.
	mu   sync.Mutex
	jobs map[string]*job
	// terminalOrder lists terminal job ids oldest-first; once the table
	// exceeds maxRetainedJobs, the oldest still-terminal jobs are pruned
	// so a long-lived server's memory stays bounded. A pruned job's
	// manifest remains on disk — resubmitting its configuration creates
	// a fresh job that resumes from the manifest, restoring every
	// recorded cell instead of recomputing.
	terminalOrder []string
	// adopted maps the id of every job recover() adopted to the manifest
	// it was found in, so a resubmission after the job is pruned resumes
	// that file even when it is not manifestPath's <id>.jsonl.
	adopted map[string]string

	queue   chan *job
	wg      sync.WaitGroup
	closed  bool
	started atomic.Int64 // runs handed to core.Run (cache misses; the recomputation counter)

	// baseCtx parents every run's context, so close() cancels runs that
	// are in flight AND runs a racing worker starts after the shutdown
	// sweep would have looked — no per-job cancel sweep can be that
	// airtight. Its Done channel is also the pool workers' stop signal.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

func newJobManager(dataDir string, poolSize, runWorkers int, store graph.Store, cache *lru.Cache[string, any], profiles *core.ProfileMemo, logf func(string, ...any)) *jobManager {
	m := &jobManager{
		dataDir:    dataDir,
		cache:      cache,
		store:      store,
		profiles:   profiles,
		runWorkers: runWorkers,
		logf:       logf,
		jobs:       make(map[string]*job),
		adopted:    make(map[string]string),
		queue:      make(chan *job, 1024),
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < poolSize; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-m.baseCtx.Done():
					return
				case j := <-m.queue:
					m.execute(j)
				}
			}
		}()
	}
	return m
}

// manifestPath is the job's durable identity on disk: the manifest
// recover() adopted the job from, else <id>.jsonl. Called with m.mu
// held.
func (m *jobManager) manifestPath(id string) string {
	if path, ok := m.adopted[id]; ok {
		return path
	}
	return filepath.Join(m.dataDir, id+".jsonl")
}

// jobID derives the job identifier from the configuration digest — the
// content address that makes identical submissions one job.
func jobID(digest string) string { return "r" + digest }

// submit enqueues cfg (already normalized) and returns the job plus
// whether an existing job/result absorbed the submission. Resubmitting
// a failed or cancelled job re-enqueues it to resume from its manifest.
func (m *jobManager) submit(cfg core.Config) (*job, bool, error) {
	digest := core.ConfigDigest(cfg)
	id := jobID(digest)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, errors.New("server is shutting down")
	}
	if j, ok := m.jobs[id]; ok {
		if j.state != StateFailed && j.state != StateCancelled {
			return j, true, nil
		}
		j.ended = append(j.ended, j.state)
		j.state = StateQueued
		j.errMsg = ""
		j.notify()
		return j, true, m.enqueueLocked(j)
	}
	j := &job{
		id:       id,
		digest:   digest,
		cfg:      cfg,
		manifest: m.manifestPath(id),
		state:    StateQueued,
		total:    gridSize(cfg),
		wake:     make(chan struct{}),
	}
	m.jobs[id] = j
	// A completed identical run may be cached even though the job table
	// has no entry (results can outlive a pruned job table in future
	// revisions); serve it without recomputation.
	if v, ok := m.cache.Get(digest); ok {
		j.state = StateDone
		j.results = v.(*core.Results)
		j.completed = j.total
		m.noteTerminalLocked(j.id)
		return j, true, nil
	}
	return j, false, m.enqueueLocked(j)
}

// enqueueLocked hands a queued job to the pool without blocking, failing
// the job when the queue is full. Called with m.mu held.
func (m *jobManager) enqueueLocked(j *job) error {
	select {
	case m.queue <- j:
		return nil
	default:
		m.finishLocked(j, nil, errors.New("server: job queue full"))
		return errors.New("job queue is full")
	}
}

// gridSize is the cell count of a normalized configuration.
func gridSize(cfg core.Config) int {
	return len(cfg.Algorithms) * len(cfg.Datasets) * len(cfg.Epsilons)
}

// execute runs one dequeued job to a terminal state. The run is
// checkpointed to the job's manifest, so whatever it completes before
// failure, cancellation, or a crash is durable.
func (m *jobManager) execute(j *job) {
	m.mu.Lock()
	// Once shutdown has begun the job stays queued: its manifest (if
	// any) is adopted by the next server over this data dir. A job that
	// is no longer queued was cancelled while queued, or this is a stale
	// queue entry of a job that was requeued.
	if m.baseCtx.Err() != nil || j.state != StateQueued {
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = StateRunning
	j.cancel = cancel
	j.notify()
	cfg := j.cfg
	m.mu.Unlock()
	defer cancel()

	// Execution-only fields: none of these participate in the job's
	// configuration digest. Store in particular must not — a run resolved
	// from snapshots and the same run generated in RAM are the same run
	// (the snapshot holds the identical graph), so they share one
	// digest, one manifest, and one cache entry.
	cfg.Workers = m.runWorkers
	cfg.Context = ctx
	cfg.CheckpointPath = j.manifest
	cfg.Progress = func(line string) { m.progress(j, line) }
	cfg.Store = m.store
	cfg.Profiles = m.profiles

	m.started.Add(1)
	m.logf("job %s: running (%d cells, manifest %s)", j.id, gridSize(cfg), cfg.CheckpointPath)
	res, err := core.Run(cfg)
	m.mu.Lock()
	m.finishLocked(j, res, err)
	state := j.state
	m.mu.Unlock()
	m.logf("job %s: %s", j.id, state)
}

// progress records one run progress line: it is appended to the job's
// log, which SSE subscribers read, and feeds the poll counters (the
// scheduler's "[k/n]" prefix carries the authoritative completed count,
// checkpoint-restored cells included).
func (m *jobManager) progress(j *job, line string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var k, n int
	if strings.HasPrefix(line, "[") {
		if _, err := fmt.Sscanf(line, "[%d/%d]", &k, &n); err == nil {
			j.completed, j.total = k, n
		}
	}
	if len(j.log) < maxLogLines {
		j.log = append(j.log, line)
		j.notify()
	}
}

// finishLocked moves a queued or running job to its terminal state and
// publishes a successful result to the content-addressed cache. Called
// with m.mu held.
func (m *jobManager) finishLocked(j *job, res *core.Results, err error) {
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.results = res
		j.completed = j.total
		m.cache.Add(j.digest, res)
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.notify()
	m.noteTerminalLocked(j.id)
}

// maxRetainedJobs bounds the in-memory job table. Every retained done
// job pins its full Results, so an unbounded table would grow with
// every distinct submission for the life of the server; the manifests
// in DataDir are the durable record, so pruning loses nothing that a
// resubmission (or restart) cannot restore.
const maxRetainedJobs = 256

// noteTerminalLocked records a terminal transition and prunes the
// oldest terminal jobs once the table exceeds maxRetainedJobs. Jobs that
// were requeued since their transition are skipped (they will be
// re-noted when they next finish). Called with m.mu held.
func (m *jobManager) noteTerminalLocked(id string) {
	// Keep each id at most once (a cancel/resubmit cycle re-notes the
	// same job every round): uniqueness both bounds the list — at most
	// one entry per retained job — and keeps the oldest-first pruning
	// order honest.
	for i, k := range m.terminalOrder {
		if k == id {
			m.terminalOrder = append(m.terminalOrder[:i], m.terminalOrder[i+1:]...)
			break
		}
	}
	m.terminalOrder = append(m.terminalOrder, id)
	for len(m.jobs) > maxRetainedJobs && len(m.terminalOrder) > 0 {
		oldest := m.terminalOrder[0]
		m.terminalOrder = m.terminalOrder[1:]
		if j, ok := m.jobs[oldest]; ok && j.state.terminal() {
			delete(m.jobs, oldest)
			m.logf("job %s: pruned from the table (manifest kept; resubmission resumes it)", oldest)
		}
	}
}

// cancelJob requests cancellation: a queued job goes terminal
// immediately, a running one stops between cells (in-flight cells
// finish and are checkpointed). Cancelling a done job is an error —
// there is nothing left to stop.
func (m *jobManager) cancelJob(j *job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.notify()
		m.noteTerminalLocked(j.id)
		return nil
	case StateRunning:
		j.cancel()
		return nil
	default:
		return fmt.Errorf("job is already %s", j.state)
	}
}

// status returns the job's wire form.
func (m *jobManager) status(j *job) jobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.statusLocked()
}

// follow is one round of an SSE subscriber that has sent the first sent
// lines of the job's log and joined run generation joined (-1 on its
// first round: the current one). It returns the lines logged since, the
// generation joined, that run's state — its end state once a requeue
// has closed it — and a channel closed on the job's next change.
func (m *jobManager) follow(j *job, sent, joined int) (lines []string, gen int, state JobState, wake <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen, state = len(j.ended), j.state
	if joined >= 0 && joined < gen {
		gen, state = joined, j.ended[joined]
	}
	return append([]string(nil), j.log[sent:]...), gen, state, j.wake
}

// count returns the number of retained jobs.
func (m *jobManager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// get returns the job by id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list returns all job statuses, newest-id-last (lexicographic by id for
// determinism).
func (m *jobManager) list() []jobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.statusLocked()
	}
	return out
}

// recover adopts every run manifest found in the data directory: each
// becomes a job whose configuration is restored from the manifest
// header, enqueued to resume — the resume path restores every recorded
// cell and computes only the remainder, so re-adopting a *complete*
// manifest recomputes no cells at all. Unreadable or foreign files are
// skipped with a log line; they are never deleted.
func (m *jobManager) recover() {
	paths, err := filepath.Glob(filepath.Join(m.dataDir, "r*.jsonl"))
	if err != nil {
		m.logf("recovery: %v", err)
		return
	}
	sort.Strings(paths)
	for _, path := range paths {
		cfg, err := core.CheckpointConfig(path)
		if err != nil {
			m.logf("recovery: skipping %s: %v", path, err)
			continue
		}
		cfg = cfg.Normalized()
		cfg.CheckpointPath = ""
		digest := core.ConfigDigest(cfg)
		id := strings.TrimSuffix(filepath.Base(path), ".jsonl")
		if id != jobID(digest) {
			// A renamed manifest is adopted under its true content
			// address (so a later identical submission converges on this
			// job) but keeps checkpointing to the file it was found in —
			// pointing the resume at a fresh path would silently
			// recompute every recorded cell.
			m.logf("recovery: %s carries digest %s; adopting as %s", path, digest, jobID(digest))
			id = jobID(digest)
		}
		m.mu.Lock()
		if _, ok := m.jobs[id]; ok {
			m.mu.Unlock()
			m.logf("recovery: skipping %s: job %s already adopted from another manifest", path, id)
			continue
		}
		j := &job{
			id:        id,
			digest:    digest,
			cfg:       cfg,
			manifest:  path,
			recovered: true,
			state:     StateQueued,
			total:     gridSize(cfg),
			wake:      make(chan struct{}),
		}
		m.jobs[id] = j
		m.adopted[id] = path
		err = m.enqueueLocked(j)
		m.mu.Unlock()
		if err != nil {
			m.logf("recovery: %s: %v", path, err)
		}
	}
}

// close stops the worker pool: every running run is cancelled through
// the shared base context (their finished cells are already in their
// manifests — a run a worker races into after this point inherits the
// cancelled context and stops immediately) and the pool is drained.
// Safe to call more than once.
func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
}
