package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pgb"
	"pgb/internal/core"
	"pgb/internal/graph"
)

// runs-async: one op is one run-job lifecycle against a
// `pgb serve -jobs 1 -run-jobs 2` child, from two closed-loop clients:
// POST /v1/runs, follow /events to the terminal state event, then GET
// /result. Each job is two mechanisms (rotating through the six) × four
// datasets × one ε no other job uses, at scale 0.1, seed 42, with the
// ANF distance estimator. The datasets are ingested into the server's
// store during set-up and every job shares the seed, so this is the warm
// path: datasets resolve from snapshots and truth profiles are cache
// hits, while checkpoint appends, the job queue, SSE and result JSON sit
// on the critical path.

var runsDatasets = []string{"Facebook", "Wiki", "HepPh", "BA"}

const (
	runsScale     = 0.1
	runsGridSeed  = 42
	runsMode      = "anf"
	runsWarmupEps = 3 // outside the range the sequence draws from
)

// runsReq is one job of the sequence.
type runsReq struct {
	Algorithms []string `json:"algorithms"`
	Eps        float64  `json:"eps"`
}

// planRuns returns the first n jobs of the run's sequence: mechanism
// pairs in rotation from a seed-drawn start, and distinct budgets in
// [0.5, 2) from a seed-offset golden-ratio sequence.
func planRuns(seed int64, n int) []runsReq {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamRunsPlan)))
	algs := pgb.Algorithms()
	pairs := len(algs) / 2
	start, offset := rng.Intn(pairs), rng.Float64()
	seen := make(map[float64]bool, n)
	plan := make([]runsReq, n)
	for i := range plan {
		_, frac := math.Modf(offset + float64(i+1)*0.6180339887498949)
		eps := math.Round((0.5+1.5*frac)*1e6) / 1e6
		for seen[eps] {
			eps += 1e-6
		}
		seen[eps] = true
		p := (start + i) % pairs
		plan[i] = runsReq{Algorithms: algs[2*p : 2*p+2], Eps: eps}
	}
	return plan
}

// body renders the job's submission.
func (q runsReq) body() []byte {
	data, _ := json.Marshal(struct {
		Algorithms   []string  `json:"algorithms"`
		Datasets     []string  `json:"datasets"`
		Epsilons     []float64 `json:"epsilons"`
		Reps         int       `json:"reps"`
		Scale        float64   `json:"scale"`
		Seed         int64     `json:"seed"`
		DistanceMode string    `json:"distance_mode"`
	}{q.Algorithms, runsDatasets, []float64{q.Eps}, 1, runsScale, runsGridSeed, runsMode}) // plain fields always marshal
	return data
}

func (q runsReq) cells() int { return len(q.Algorithms) * len(runsDatasets) }

// runsRun drives one server through the sequence.
type runsRun struct {
	plan  []runsReq
	srv   *server
	cells [][]cellValues // per op, of successful jobs
}

func newRunsRun(plan []runsReq, srv *server) *runsRun {
	return &runsRun{plan: plan, srv: srv, cells: make([][]cellValues, len(plan))}
}

func (rr *runsRun) do(i int, tr *tracer) opResult {
	op := tr.begin(opSpan, -1, i)
	start := time.Now()
	cells, err := rr.lifecycle(tr, op, i)
	res := opResult{Index: i, Ms: durMs(time.Since(start))}
	tr.end(op)
	if err == nil {
		q := rr.plan[i]
		res.Value, err = checkCells(cells, q.cells(), len(pgb.Queries()))
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	rr.cells[i] = cells
	return res
}

// lifecycle submits job i, follows its events to the end and fetches
// its result.
func (rr *runsRun) lifecycle(tr *tracer, op, i int) ([]cellValues, error) {
	q := rr.plan[i]
	id := tr.begin("server.submit", op, i)
	status, data, err := rr.srv.request(http.MethodPost, "/v1/runs", q.body())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	// 202 means a new job; anything else means the submission was
	// absorbed or refused and the op did not do a run's work.
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %s", status, trimBody(data))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return nil, fmt.Errorf("submit: undecodable body: %w", err)
	}
	// Queueing runs from the submit reply to the job's first event;
	// execution from there to the terminal state event.
	queued := tr.begin("server.job_queue", op, i)
	running := -1
	ev, err := rr.srv.follow(job.ID, func() {
		tr.end(queued)
		running = tr.begin("server.job_exec", op, i)
	})
	if running >= 0 {
		tr.end(running)
	} else {
		tr.end(queued)
	}
	if err != nil {
		return nil, err
	}
	tr.add("store.lookups", float64(ev.snapshot+ev.generated))
	tr.add("store.hits", float64(ev.snapshot))
	if ev.state != "done" {
		return nil, fmt.Errorf("job %s ended %s", job.ID, ev.state)
	}
	id = tr.begin("server.job_result", op, i)
	status, data, err = rr.srv.request(http.MethodGet, "/v1/runs/"+job.ID+"/result", nil)
	var result struct {
		Cells []struct {
			Algorithm string    `json:"algorithm"`
			Dataset   string    `json:"dataset"`
			Epsilon   float64   `json:"epsilon"`
			Errors    []float64 `json:"errors"`
			Err       string    `json:"err"`
		} `json:"cells"`
	}
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &result)
	}
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("result: status %d: %s", status, trimBody(data))
	}
	cells := make([]cellValues, len(result.Cells))
	for k, c := range result.Cells {
		cells[k] = cellValues{Alg: c.Algorithm, DS: c.Dataset, Eps: c.Epsilon, Errors: c.Errors, Err: c.Err}
	}
	return cells, nil
}

// runsServer sets up a server: ingest the datasets into a fresh data
// directory's store, launch, /healthz, and one warm-up job that computes
// the truth profiles.
func (e *env) runsServer() (*server, error) {
	dataDir, err := os.MkdirTemp(e.runDir, "runs-")
	if err != nil {
		return nil, err
	}
	if err := e.pgbCommand("ingest",
		"-snapshot", filepath.Join(dataDir, "snapshots"),
		"-datasets", strings.Join(runsDatasets, ","),
		"-scale", fmt.Sprint(runsScale),
		"-seed", fmt.Sprint(runsGridSeed)); err != nil {
		return nil, err
	}
	srv, err := e.startServer(dataDir, "-jobs", "1", "-run-jobs", fmt.Sprint(workerProcs))
	if err != nil {
		return nil, err
	}
	warm := newRunsRun([]runsReq{{Algorithms: pgb.Algorithms()[:2], Eps: runsWarmupEps}}, srv)
	if r := warm.do(0, nil); r.Err != "" {
		srv.stop()
		return nil, fmt.Errorf("warm-up job: %s", r.Err)
	}
	return srv, nil
}

func measureRuns(e *env, seed int64, lim limits) (*measurement, error) {
	plan := planRuns(seed, lim.planLen())
	lim.n = len(plan)
	srv, setup, err := timedSetups(lim.setups, e.runsServer)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rr := newRunsRun(plan, srv)
	m, err := loadPhase(srv, lim, func(i int) opResult { return rr.do(i, nil) })
	if err != nil {
		return nil, err
	}
	m.setup = setup
	m.failures = rr.verify(m.ops)
	return m, nil
}

// verify reruns the first successful job in-process with
// pgb.RunBenchmark and checks that every cell value is bit-identical.
func (rr *runsRun) verify(ops []opResult) []string {
	for _, r := range ops {
		if r.Err != "" {
			continue
		}
		q := rr.plan[r.Index]
		res, err := pgb.RunBenchmark(pgb.BenchmarkConfig{
			Algorithms:   q.Algorithms,
			Datasets:     runsDatasets,
			Epsilons:     []float64{q.Eps},
			Reps:         1,
			Scale:        runsScale,
			Seed:         runsGridSeed,
			DistanceMode: runsMode,
			Workers:      workerProcs,
		})
		if err != nil {
			return []string{fmt.Sprintf("rerunning job %d: %v", r.Index, err)}
		}
		cells := make([]cellValues, len(res.Cells))
		for k, c := range res.Cells {
			cells[k] = cellValues{Alg: c.Algorithm, DS: c.Dataset, Eps: c.Epsilon, Errors: c.Errors}
		}
		v, err := checkCells(cells, q.cells(), len(pgb.Queries()))
		if err != nil || v != r.Value {
			return []string{fmt.Sprintf("job %d: served cells differ from an in-process run (%v)", r.Index, err)}
		}
		return nil
	}
	return nil
}

// runsChunk is how many jobs the traced run submits to one server
// before switching to the other.
const runsChunk = 4

func traceRuns(e *env, seed int64, lim limits) (*traceRun, error) {
	tr := newTracer()
	plan := planRuns(seed, lim.planLen())
	lim.n = len(plan)
	var runs [2]*runsRun
	for k := range runs {
		srv, err := e.runsServer()
		if err != nil {
			return nil, err
		}
		defer srv.stop()
		tr.add("server.ready_s", srv.ready.Seconds())
		runs[k] = newRunsRun(plan, srv)
	}
	twin, traced := runs[0], runs[1]
	a, b := alternate(lim, runsChunk,
		chunked(func(i int) opResult { return twin.do(i, nil) }),
		chunked(func(i int) opResult { return traced.do(i, tr) }))
	failures := traced.replay(tr, b, traced.srv.dataDir)
	return &traceRun{twin: &measurement{ops: a}, traced: &measurement{ops: b}, tr: tr, failures: failures}, nil
}

// replaySample is how many jobs the traced pass replays in-process: one
// per mechanism pair.
const replaySample = 3

// replay reruns a sample of served jobs in-process, layer by layer,
// against the server's snapshot store, and checks each cell bit for bit.
func (rr *runsRun) replay(tr *tracer, ops []opResult, dataDir string) []string {
	store, err := graph.OpenSnapshotStore(filepath.Join(dataDir, "snapshots"))
	if err != nil {
		return []string{err.Error()}
	}
	defer store.Close()
	var failures []string
	seen := make(map[string]bool)
	n := 0
	for _, r := range ops {
		if r.Err != "" || n == replaySample {
			continue
		}
		n++
		q := rr.plan[r.Index]
		root := tr.begin("replay", -1, r.Index)
		cells, jobs, err := replayGrid(tr, root, r.Index, replaySpec{
			algs:     q.Algorithms,
			datasets: runsDatasets,
			eps:      []float64{q.Eps},
			scale:    runsScale,
			seed:     runsGridSeed,
			mode:     core.DistanceANF,
			workers:  workerProcs,
		}, store, seen)
		tr.end(root)
		if err == nil {
			var v string
			v, err = checkCells(cells, q.cells(), len(pgb.Queries()))
			if err == nil && v != r.Value {
				err = fmt.Errorf("replayed cells differ from the served ones")
			}
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("replay of job %d: %v", r.Index, err))
		}
		for _, j := range jobs {
			profileOverlap(tr, r.Index, j)
		}
	}
	return failures
}
