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

// job is one grid run owned by the manager. All mutable fields are
// guarded by mu; done is replaced with a fresh channel on every
// transition back to queued, so one "generation" of waiters is released
// per terminal transition.
type job struct {
	id        string
	digest    string
	cfg       core.Config // normalized; Context/Progress/CheckpointPath set per execution
	manifest  string      // the job's durable checkpoint file; for an adopted job, the file it was found in
	recovered bool        // adopted from a manifest at startup

	mu        sync.Mutex
	state     JobState
	errMsg    string
	completed int
	total     int
	results   *core.Results
	log       []string
	subs      map[chan string]struct{}
	cancel    context.CancelFunc // non-nil while running
	done      chan struct{}      // closed on each terminal transition
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

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
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

// progress records one run progress line: it feeds the poll counters
// (the scheduler's "[k/n]" prefix carries the authoritative completed
// count, checkpoint-restored cells included) and fans out to SSE
// subscribers. Slow subscribers are dropped-from, never blocked-on — a
// stalled client must not stall the grid.
func (j *job) progress(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.log) < maxLogLines {
		j.log = append(j.log, line)
	}
	var k, n int
	if strings.HasPrefix(line, "[") {
		if _, err := fmt.Sscanf(line, "[%d/%d]", &k, &n); err == nil {
			j.completed, j.total = k, n
		}
	}
	for ch := range j.subs { //pgb:deterministic subscriber fan-out: channels are independent and sends non-blocking, so order is unobservable
		select {
		case ch <- line:
		default:
		}
	}
}

// maxLogLines bounds the retained progress log (a full paper grid is
// 288 cell lines plus dataset lines; 4096 leaves ample headroom).
const maxLogLines = 4096

// subscribe registers an SSE subscriber: the returned snapshot replays
// everything logged so far, the channel delivers later lines, and done
// is the current generation's terminal signal.
func (j *job) subscribe() (replay []string, ch chan string, done <-chan struct{}) {
	ch = make(chan string, 256)
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]string(nil), j.log...)
	if j.subs == nil {
		j.subs = make(map[chan string]struct{})
	}
	j.subs[ch] = struct{}{}
	return replay, ch, j.done
}

func (j *job) unsubscribe(ch chan string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.subs, ch)
}

// jobManager owns the job table, the submission queue, and the worker
// pool.
type jobManager struct {
	dataDir    string
	cache      *lru.Cache[string, any]
	store      graph.Store // dataset resolution for executed runs (snapshot-first)
	runWorkers int         // Config.Workers for each executed run
	logf       func(string, ...any)

	mu   sync.Mutex
	jobs map[string]*job
	// terminalOrder lists terminal job ids oldest-first; once the table
	// exceeds maxRetainedJobs, the oldest still-terminal jobs are pruned
	// so a long-lived server's memory stays bounded. A pruned job's
	// manifest remains on disk — resubmitting its configuration creates
	// a fresh job that resumes from the manifest, restoring every
	// recorded cell instead of recomputing.
	terminalOrder []string

	queue   chan *job
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  bool
	started atomic.Int64 // runs handed to core.Run (cache misses; the recomputation counter)

	// baseCtx parents every run's context, so close() cancels runs that
	// are in flight AND runs a racing worker starts after the shutdown
	// sweep would have looked — no per-job cancel sweep can be that
	// airtight.
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

func newJobManager(dataDir string, poolSize, runWorkers int, store graph.Store, cache *lru.Cache[string, any], logf func(string, ...any)) *jobManager {
	m := &jobManager{
		dataDir:    dataDir,
		cache:      cache,
		store:      store,
		runWorkers: runWorkers,
		logf:       logf,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, 1024),
		stop:       make(chan struct{}),
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < poolSize; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for {
				select {
				case <-m.stop:
					return
				case j := <-m.queue:
					m.execute(j)
				}
			}
		}()
	}
	return m
}

// manifestPath is the job's durable identity on disk.
func (m *jobManager) manifestPath(id string) string {
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
	if m.closed {
		m.mu.Unlock()
		return nil, false, errors.New("server is shutting down")
	}
	if j, ok := m.jobs[id]; ok {
		// The requeue decision happens while m.mu is still held so the
		// pruning in noteTerminal (which runs under the same lock and
		// skips non-terminal jobs) can never evict the job between
		// finding it here and flipping it back to queued.
		requeue := j.markQueuedIfTerminal()
		m.mu.Unlock()
		if requeue {
			return j, true, m.enqueue(j)
		}
		return j, true, nil
	}
	j := &job{
		id:       id,
		digest:   digest,
		cfg:      cfg,
		manifest: m.manifestPath(id),
		state:    StateQueued,
		total:    gridSize(cfg),
		done:     make(chan struct{}),
	}
	m.jobs[id] = j
	m.mu.Unlock()

	// A completed identical run may be cached even though the job table
	// has no entry (results can outlive a pruned job table in future
	// revisions); serve it without recomputation.
	if v, ok := m.cache.Get(digest); ok {
		res := v.(*core.Results)
		j.mu.Lock()
		// Job ids are predictable content addresses, so a DELETE can race
		// this POST between the table insert above and here, having
		// already moved the job to cancelled and closed done — only a
		// still-queued job may take the cached result.
		if j.state == StateQueued {
			j.state = StateDone
			j.results = res
			j.completed = j.total
			close(j.done)
			j.mu.Unlock()
			m.noteTerminal(j.id)
		} else {
			j.mu.Unlock()
		}
		return j, true, nil
	}
	return j, false, m.enqueue(j)
}

// markQueuedIfTerminal flips a failed or cancelled job back to queued —
// the resubmission-resumes transition — and reports whether the caller
// must enqueue it; done/queued/running jobs are left untouched.
func (j *job) markQueuedIfTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateFailed && j.state != StateCancelled {
		return false
	}
	j.state = StateQueued
	j.errMsg = ""
	j.done = make(chan struct{})
	return true
}

func (m *jobManager) enqueue(j *job) error {
	select {
	case m.queue <- j:
		return nil
	default:
		m.finishJob(j, nil, errors.New("server: job queue full"))
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
	if m.baseCtx.Err() != nil {
		// Shutdown already began: leave the job queued — its manifest
		// (if any) is adopted by the next server over this data dir.
		return
	}
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued, or a stale queue entry
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.state = StateRunning
	j.cancel = cancel
	cfg := j.cfg
	j.mu.Unlock()
	defer cancel()

	// Execution-only fields: none of these participate in the job's
	// configuration digest. Store in particular must not — a run resolved
	// from snapshots and the same run generated in RAM are the same run
	// (the snapshot holds the identical graph), so they share one
	// digest, one manifest, and one cache entry.
	cfg.Workers = m.runWorkers
	cfg.Context = ctx
	cfg.CheckpointPath = j.manifest
	cfg.Progress = j.progress
	cfg.Store = m.store

	m.started.Add(1)
	m.logf("job %s: running (%d cells, manifest %s)", j.id, gridSize(cfg), cfg.CheckpointPath)
	res, err := core.Run(cfg)
	m.finishJob(j, res, err)
	m.logf("job %s: %s", j.id, j.status().State)
}

// finishJob moves the job to its terminal state, releases the current
// generation of waiters, and publishes a successful result to the
// content-addressed cache.
func (m *jobManager) finishJob(j *job, res *core.Results, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		// Already terminal — e.g. the enqueue-failure path racing a
		// DELETE that cancelled the queued job. Closing done again
		// would panic; the first transition stands.
		j.mu.Unlock()
		return
	}
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.results = res
		j.completed = j.total
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	state := j.state
	done := j.done
	j.mu.Unlock()
	close(done)
	if state == StateDone {
		m.cache.Add(j.digest, res)
	}
	m.noteTerminal(j.id)
}

// maxRetainedJobs bounds the in-memory job table. Every retained done
// job pins its full Results, so an unbounded table would grow with
// every distinct submission for the life of the server; the manifests
// in DataDir are the durable record, so pruning loses nothing that a
// resubmission (or restart) cannot restore.
const maxRetainedJobs = 256

// noteTerminal records a terminal transition and prunes the oldest
// terminal jobs once the table exceeds maxRetainedJobs. Jobs that were
// requeued since their transition are skipped (they will be re-noted
// when they next finish).
func (m *jobManager) noteTerminal(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
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
		j, ok := m.jobs[oldest]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.state.terminal()
		j.mu.Unlock()
		if terminal {
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
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		done := j.done
		j.mu.Unlock()
		close(done)
		m.noteTerminal(j.id)
		return nil
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("job is already %s", state)
	}
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
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
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
			done:      make(chan struct{}),
		}
		m.jobs[id] = j
		m.mu.Unlock()
		if err := m.enqueue(j); err != nil {
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
	close(m.stop)
	m.wg.Wait()
}
