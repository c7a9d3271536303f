package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opResult is the outcome of one operation of a workload's sequence.
type opResult struct {
	Index int     `json:"i"`
	Ms    float64 `json:"ms"`
	// Value is a hex digest of the op's output values; equal inputs
	// must give equal values on every run and every commit.
	Value string `json:"value,omitempty"`
	// Err is set when the op failed or its output check did.
	Err string `json:"err,omitempty"`
}

// measurement is one measured pass over a workload.
type measurement struct {
	ops []opResult
	// wall runs from the start of the timed region to the last op's
	// completion.
	wall time.Duration
	// cpu and peakRSSKB belong to the process doing the work: the
	// worker child for in-process workloads, the server otherwise.
	// cpu covers the timed region only; the peak covers the process's
	// whole life, set-up included.
	cpu       time.Duration
	peakRSSKB int64
	setup     []time.Duration
	// failures lists output checks that failed outside any single op.
	failures []string
}

// limits bounds a measured pass: it stops starting ops once d has
// elapsed (when d > 0) and after n ops (when n > 0). setups is how many
// times the workload is set up; the last set-up is the one measured.
type limits struct {
	d      time.Duration
	n      int
	setups int
}

// planCap bounds a seed-determined op sequence for a run with no op
// limit; no workload gets near it within the longest allowed run.
const planCap = 1 << 14

// planLen is how many ops of a sequence to plan: the op limit, or
// planCap. A pass over a plan takes it as its op limit.
func (l limits) planLen() int {
	if l.n > 0 {
		return l.n
	}
	return planCap
}

// closedLoop runs ops 0, 1, 2, … of a sequence on `clients` goroutines,
// each starting its next op only when its previous one has finished.
// No op starts after the deadline (when lim.d > 0) or beyond lim.n ops
// (when lim.n > 0). It returns the results in sequence order and the
// time from start to the last completion.
func closedLoop(clients int, lim limits, op func(i int) opResult) ([]opResult, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	var (
		mu   sync.Mutex
		out  []opResult
		last time.Duration
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if lim.d > 0 && time.Since(start) >= lim.d {
					return
				}
				i := int(next.Add(1) - 1)
				if lim.n > 0 && i >= lim.n {
					return
				}
				r := op(i)
				done := time.Since(start)
				mu.Lock()
				out = append(out, r)
				last = max(last, done)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out, last
}

// timedSetups sets a server workload up n times and keeps the last
// server running: set-up time is reported as a median, and the earlier
// servers exist only to be timed.
func timedSetups(n int, setup func() (*server, error)) (*server, []time.Duration, error) {
	var times []time.Duration
	for k := 0; ; k++ {
		start := time.Now()
		srv, err := setup()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		times = append(times, time.Since(start))
		if k >= n-1 {
			return srv, times, nil
		}
		srv.stop()
	}
}

// loadPhase drives a server with the closed-loop clients and measures
// the server process over the phase.
func loadPhase(srv *server, lim limits, op func(i int) opResult) (*measurement, error) {
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	ops, wall := closedLoop(clients, lim, op)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	peak, err := procPeakRSSKB(srv.pid())
	if err != nil {
		return nil, err
	}
	return &measurement{ops: ops, wall: wall, cpu: cpu1 - cpu0, peakRSSKB: peak}, nil
}

// alternate runs the sequence in chunks of `chunk` ops, each chunk on
// side a and on side b, swapping which side goes first every chunk so
// that drift in the machine's speed falls on both sides alike. It stops
// starting chunks at lim's deadline or op limit.
func alternate(lim limits, chunk int, a, b func(lo, hi int) []opResult) (ra, rb []opResult) {
	start := time.Now()
	for lo, k := 0, 0; ; lo, k = lo+chunk, k+1 {
		if lim.d > 0 && time.Since(start) >= lim.d || lim.n > 0 && lo >= lim.n {
			return ra, rb
		}
		hi := lo + chunk
		if lim.n > 0 {
			hi = min(hi, lim.n)
		}
		if k%2 == 0 {
			ra = append(ra, a(lo, hi)...)
			rb = append(rb, b(lo, hi)...)
		} else {
			rb = append(rb, b(lo, hi)...)
			ra = append(ra, a(lo, hi)...)
		}
	}
}

// chunked adapts a closed loop of the load clients over ops lo..hi-1 to
// alternate.
func chunked(do func(i int) opResult) func(lo, hi int) []opResult {
	return func(lo, hi int) []opResult {
		ops, _ := closedLoop(clients, limits{n: hi - lo}, func(i int) opResult { return do(lo + i) })
		return ops
	}
}

// ---- worker children ---------------------------------------------------

// Passes of a worker child.
const (
	passRun    = "run"    // the measured, untraced pass
	passTwin   = "twin"   // the untraced twin of a traced pass
	passTraced = "traced" // the traced pass
)

// workerReport is the last line a worker child prints: what its tracer
// recorded, on a traced pass.
type workerReport struct {
	Spans   []span               `json:"spans,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// worker is a running worker child: this binary in worker mode, running
// an in-process workload in a fresh process so its caches start cold
// and its CPU time and peak RSS are its own. The worker runs op i when
// it reads i on its standard input and answers with the op's result;
// when its input closes it prints its report and exits.
type worker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startWorker starts a worker child and waits until it reports ready,
// returning the time from launch to ready.
func (e *env) startWorker(name string, seed int64, pass string) (*worker, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "worker",
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-pass", pass,
		"-dir", e.runDir)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := startChild(cmd); err != nil {
		return nil, 0, err
	}
	w := &worker{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}
	line, err := w.out.ReadString('\n')
	ready := time.Since(start)
	if err != nil || strings.TrimSpace(line) != "ready" {
		_ = cmd.Process.Kill() // the child is unusable; Wait reports how it ended
		werr := waitChild(cmd)
		return nil, 0, fmt.Errorf("worker %s/%s did not become ready (read %q: %v; exit: %v)", name, pass, line, err, werr)
	}
	return w, ready, nil
}

func (w *worker) pid() int { return w.cmd.Process.Pid }

// op runs op i in the worker.
func (w *worker) op(i int) opResult {
	_, err := fmt.Fprintf(w.in, "%d\n", i)
	var r opResult
	if err == nil {
		var line []byte
		if line, err = w.out.ReadBytes('\n'); err == nil {
			err = json.Unmarshal(line, &r)
		}
	}
	if err != nil {
		return opResult{Index: i, Err: fmt.Sprintf("worker: %v", err)}
	}
	return r
}

// finish closes the worker's input, reads its report and waits for it
// to exit.
func (w *worker) finish() (*workerReport, error) {
	if err := w.in.Close(); err != nil {
		return nil, err
	}
	// The pipe must be read to the report's end before Wait closes it.
	line, readErr := w.out.ReadBytes('\n')
	if err := waitChild(w.cmd); err != nil {
		return nil, fmt.Errorf("worker exited: %w", err)
	}
	if readErr != nil {
		return nil, fmt.Errorf("reading worker report: %w", readErr)
	}
	rep := new(workerReport)
	if err := json.Unmarshal(line, rep); err != nil {
		return nil, fmt.Errorf("decoding worker report: %w", err)
	}
	return rep, nil
}

// measureInProc measures an in-process workload. Set-up is the
// launch-to-ready time of a fresh worker child, timed lim.setups times;
// the last child runs the measured pass.
func measureInProc(e *env, name string, seed int64, lim limits) (*measurement, error) {
	var (
		setup []time.Duration
		w     *worker
	)
	for k := 0; k < max(lim.setups, 1); k++ {
		if w != nil {
			if _, err := w.finish(); err != nil {
				return nil, err
			}
		}
		var (
			ready time.Duration
			err   error
		)
		if w, ready, err = e.startWorker(name, seed, passRun); err != nil {
			return nil, err
		}
		setup = append(setup, ready)
	}
	cpu0, err := procCPU(w.pid())
	if err != nil {
		return nil, err
	}
	ops, wall := closedLoop(1, lim, w.op)
	cpu1, err := procCPU(w.pid())
	if err != nil {
		return nil, err
	}
	peak, err := procPeakRSSKB(w.pid())
	if err != nil {
		return nil, err
	}
	if _, err := w.finish(); err != nil {
		return nil, err
	}
	return &measurement{ops: ops, wall: wall, cpu: cpu1 - cpu0, peakRSSKB: peak, setup: setup}, nil
}

// traceInProc runs an in-process workload's untraced twin and traced
// pass side by side, op by op, each in its own fresh worker child so
// both start with cold caches.
func traceInProc(e *env, name string, seed int64, lim limits) (*traceRun, error) {
	twin, _, err := e.startWorker(name, seed, passTwin)
	if err != nil {
		return nil, err
	}
	traced, _, err := e.startWorker(name, seed, passTraced)
	if err != nil {
		_, _ = twin.finish() // the start error is the one to report
		return nil, err
	}
	each := func(w *worker) func(lo, hi int) []opResult {
		return func(lo, hi int) []opResult {
			var out []opResult
			for i := lo; i < hi; i++ {
				out = append(out, w.op(i))
			}
			return out
		}
	}
	a, b := alternate(lim, 1, each(twin), each(traced))
	if _, err := twin.finish(); err != nil {
		return nil, err
	}
	rep, err := traced.finish()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.merge(rep.Spans, rep.Samples)
	return &traceRun{twin: &measurement{ops: a}, traced: &measurement{ops: b}, tr: tr}, nil
}

// ---- op values ---------------------------------------------------------

// cellValues is one grid cell's outcome, as a run result reports it.
type cellValues struct {
	Alg    string
	DS     string
	Eps    float64
	Errors []float64
	Err    string
}

// checkCells verifies a grid result — want cells, no cell errors, every
// error value finite — and returns the digest of its values.
func checkCells(cells []cellValues, want, queries int) (string, error) {
	if len(cells) != want {
		return "", fmt.Errorf("%d cells, want %d", len(cells), want)
	}
	h := sha256.New()
	var buf [8]byte
	for _, c := range cells {
		if c.Err != "" {
			return "", fmt.Errorf("cell %s/%s/%g failed: %s", c.Alg, c.DS, c.Eps, c.Err)
		}
		if len(c.Errors) != queries {
			return "", fmt.Errorf("cell %s/%s/%g has %d errors, want %d", c.Alg, c.DS, c.Eps, len(c.Errors), queries)
		}
		fmt.Fprintf(h, "%s|%s|%x|", c.Alg, c.DS, math.Float64bits(c.Eps))
		for _, v := range c.Errors {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", fmt.Errorf("cell %s/%s/%g has a non-finite error %v", c.Alg, c.DS, c.Eps, v)
			}
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashHex is the hex SHA-256 of data.
func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// valuesDigest hashes the values of ops 0..k-1 of the sequence. It
// returns how many of them completed, so a short run is visible rather
// than silently digesting fewer ops.
func valuesDigest(ops []opResult, k int) (string, int) {
	h := sha256.New()
	n := 0
	for _, r := range ops {
		if r.Index < k && r.Err == "" {
			fmt.Fprintf(h, "%d:%s\n", r.Index, r.Value)
			n++
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], n
}

// ---- seeds -------------------------------------------------------------

// splitmix64 is the SplitMix64 output function: it maps consecutive
// inputs to independent, well-mixed 64-bit values.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// streamSeed derives the seed of one named random stream of a run.
func streamSeed(seed int64, stream uint64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ stream))
}

// opSeed is the seed of op i of a run: positive, and distinct per op.
func opSeed(seed int64, i int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed))+uint64(i))>>2) + 1
}

// Stream identifiers of the seed-determined inputs.
const (
	streamComparePlan uint64 = iota + 1
	streamCompareInputs
	streamRunsPlan
)
