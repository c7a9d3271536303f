// Command pgbbench is the end-to-end benchmark of PGB-Go. It times the
// operations users run — a benchmark grid, a served comparison, an async
// run job, a snapshot-store round — checks their outputs, and prints
// every metric by name with its unit; a traced run explains the same
// workloads layer by layer. README.md lists the workloads and metrics.
//
//	bash bench/run.sh --workload grid-cold --seed 1 --seconds 25 --trace 0
//	pgbbench -workload all -seed 1 -out set1/seed1.json
//	pgbbench diff set1 set2
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 when
// the run completed, whether or not its outputs were correct.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one of the benchmark's input sets. Each workload's file
// says what one op is and why the workload is there.
type workload struct {
	name string
	// caches says whether the measured ops start from cold or warm
	// program caches.
	caches string
	// tailPct is the percentile reported as latency_tail_ms: one with at
	// least ten samples beyond it at the op count a default-length run
	// reaches on two cores. grid-cold runs too few ops for any percentile
	// above the median to have ten; it reports p75.
	tailPct float64
	// digestOps is how many leading ops of the seed-determined sequence
	// the values digest covers; every run completes at least that many.
	digestOps int
	// setups is how many times an untraced run sets the workload up.
	setups  int
	measure func(e *env, seed int64, lim limits) (*measurement, error)
	trace   func(e *env, seed int64, lim limits) (*traceRun, error)
}

var workloads = []*workload{
	{
		name:      "grid-cold",
		caches:    "cold",
		tailPct:   75,
		digestOps: 2,
		setups:    15,
		measure: func(e *env, seed int64, lim limits) (*measurement, error) {
			return measureInProc(e, "grid-cold", seed, lim)
		},
		trace: func(e *env, seed int64, lim limits) (*traceRun, error) {
			return traceInProc(e, "grid-cold", seed, lim)
		},
	},
	{
		name:      "compare-served",
		caches:    "warm",
		tailPct:   95,
		digestOps: 64,
		setups:    5,
		measure:   measureCompare,
		trace:     traceCompare,
	},
	{
		name:      "runs-async",
		caches:    "warm",
		tailPct:   90,
		digestOps: 24,
		setups:    5,
		measure:   measureRuns,
		trace:     traceRuns,
	},
	{
		name:      "ingest-open",
		caches:    "cold",
		tailPct:   90,
		digestOps: 16,
		setups:    15,
		measure: func(e *env, seed int64, lim limits) (*measurement, error) {
			return measureInProc(e, "ingest-open", seed, lim)
		},
		trace: func(e *env, seed int64, lim limits) (*traceRun, error) {
			return traceInProc(e, "ingest-open", seed, lim)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "diff" {
		os.Exit(cmdDiff(args[1:]))
	}
	var err error
	if len(args) > 0 && args[0] == "worker" {
		err = cmdWorker(args[1:])
	} else {
		err = cmdRun(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgbbench:", err)
		os.Exit(1)
	}
}

// runLimit bounds one workload run: past it the harness stops every
// child and exits non-zero rather than overrun its caller's budget.
const runLimit = 170 * time.Second

// env is the file-system context of one harness process.
type env struct {
	root   string // the checkout being benchmarked
	build  string // build directory
	runDir string // scratch space of this process, removed at exit
	pgb    string // the pgb binary built from root
}

// newEnv resolves the build directory — $CARGO_TARGET_DIR, else
// .bench_build — inside root and makes this process's scratch directory.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not the root of a PGB-Go checkout: %w", root, err)
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	if !filepath.IsAbs(build) {
		build = filepath.Join(root, build)
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, build: build, runDir: runDir, pgb: filepath.Join(build, "pgb")}, nil
}

// buildPGB builds cmd/pgb from the checkout; the go tool relinks only
// when a source changed. The binary carries the checkout's VCS revision
// when the go tool can read it, and is built without it otherwise.
func (e *env) buildPGB() error {
	var err error
	for _, vcs := range []string{"-buildvcs=auto", "-buildvcs=false"} {
		cmd := exec.Command("go", "build", vcs, "-o", e.pgb, "./cmd/pgb")
		cmd.Dir = e.root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err = cmd.Run(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("building cmd/pgb: %w", err)
}

func (e *env) close() { _ = os.RemoveAll(e.runDir) } // scratch only; a leftover is harmless

// runRecord is one workload run as a result file stores it.
type runRecord struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
	Caches    string `json:"caches"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// LatencySamples is how many latencies the timings summarise;
	// TailPercentile is the percentile of latency_tail_ms and
	// TailBeyond how many samples lie beyond it.
	// TailRule is the highest percentile with ten samples beyond it at
	// this run's sample count, for comparison with the fixed one.
	LatencySamples int     `json:"latency_samples"`
	TailPercentile float64 `json:"tail_percentile"`
	TailBeyond     int     `json:"tail_beyond"`
	TailRule       float64 `json:"tail_rule_percentile"`
	// Digest hashes the values of the first DigestOps ops; DigestWant is
	// the workload's window, so a run that fell short is visible.
	Digest     string                 `json:"digest"`
	DigestOps  int                    `json:"digest_ops"`
	DigestWant int                    `json:"digest_want"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func (r *runRecord) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// provenance says where and how a result file was produced.
type provenance struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	WorkerProcs int    `json:"worker_gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	PGBVersion  string `json:"pgb_version"`
	Revision    string `json:"pgb_revision"`
}

// resultFile is what -out writes and diff reads.
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

func (e *env) provenance() provenance {
	p := provenance{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		WorkerProcs: workerProcs,
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
	}
	out, err := exec.Command(e.pgb, "version").Output()
	if err != nil {
		p.PGBVersion = "unknown: " + err.Error()
		return p
	}
	p.PGBVersion = strings.TrimSpace(string(out))
	// "pgb v0.0.0-… (abcdef012345-dirty) go1.24.0 …" or "pgb (devel) …":
	// the parenthesised revision is stamped only in builds from a git
	// checkout.
	for _, f := range strings.Fields(p.PGBVersion) {
		if rev, ok := strings.CutPrefix(f, "("); ok && f != "(devel)" {
			p.Revision = strings.TrimSuffix(rev, ")")
			break
		}
	}
	return p
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("pgbbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: grid-cold, compare-served, runs-async, ingest-open, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fs.Int("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	spans := fs.String("spans", "", "file the traced pass writes its spans to (default: in the build directory)")
	out := fs.String("out", "", "file to write the run records and their provenance to")
	root := fs.String("root", ".", "root of the checkout to benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *secs < 1 || *secs > 120 {
		return fmt.Errorf("-seconds %d outside [1, 120]", *secs)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	e, err := newEnv(*root)
	if err != nil {
		return err
	}
	defer e.close()
	limit := runLimit
	if *name == "all" {
		limit *= time.Duration(len(workloads))
	}
	stop := guard(e, limit)
	defer stop()
	if err := e.buildPGB(); err != nil {
		return err
	}
	if *name == "all" {
		return runAll(e, *seed, *secs, *trace, *out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	lim := limits{d: time.Duration(*secs) * time.Second, setups: w.setups}
	rec, err := runOne(e, w, *seed, lim, *trace == 1, *spans)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeResult(*out, resultFile{e.provenance(), []runRecord{*rec}}); err != nil {
			return err
		}
	}
	printRecord(rec)
	return printContract(rec.correct(), rec.Attempted, rec.Failed, rec.Metrics)
}

// guard stops every child and exits non-zero on SIGINT or SIGTERM, or
// when the run overruns limit. The returned func disarms it.
func guard(e *env, limit time.Duration) func() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	timer := time.NewTimer(limit)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sigs:
			fmt.Fprintf(os.Stderr, "pgbbench: %v: stopping\n", s)
		case <-timer.C:
			fmt.Fprintf(os.Stderr, "pgbbench: run exceeded %v: stopping\n", limit)
		case <-done:
			return
		}
		killChildren()
		e.close()
		os.Exit(3)
	}()
	return func() {
		signal.Stop(sigs)
		timer.Stop()
		close(done)
	}
}

// runOne runs one workload: the measured pass, or the traced one.
func runOne(e *env, w *workload, seed int64, lim limits, traced bool, spansPath string) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: int(lim.d / time.Second), Trace: traced,
		Caches: w.caches, DigestWant: w.digestOps}
	var digestOps []opResult
	if !traced {
		m, err := w.measure(e, seed, lim)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.count(m)
		rec.Metrics = endToEnd(w, m)
		n := len(latencies(m.ops))
		rec.LatencySamples, rec.TailPercentile, rec.TailBeyond = n, w.tailPct, beyond(n, w.tailPct)
		rec.TailRule, _ = tailPercentile(n)
		digestOps = m.ops
	} else {
		t, err := w.trace(e, seed, lim)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.count(t.twin)
		rec.count(t.traced)
		rec.Failures = append(rec.Failures, t.failures...)
		rec.Failures = append(rec.Failures, sameValues(t.twin.ops, t.traced.ops)...)
		rec.Metrics = layerMetrics(t)
		rec.LatencySamples = len(latencies(t.traced.ops))
		digestOps = t.twin.ops
		if spansPath == "" {
			spansPath = filepath.Join(e.build, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		}
		if err := writeSpans(spansPath, t.tr.spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", spansPath)
	}
	rec.Digest, rec.DigestOps = valuesDigest(digestOps, w.digestOps)
	return rec, nil
}

// count adds a pass's ops and failures to the record.
func (r *runRecord) count(m *measurement) {
	r.Attempted += len(m.ops)
	for _, op := range m.ops {
		if op.Err != "" {
			r.Failed++
			if len(r.Failures) < 10 {
				r.Failures = append(r.Failures, fmt.Sprintf("op %d: %s", op.Index, op.Err))
			}
		}
	}
	r.Failures = append(r.Failures, m.failures...)
}

// sameValues checks that the traced pass computed exactly what its
// untraced twin did, op by op.
func sameValues(twin, traced []opResult) []string {
	want := make(map[int]string, len(twin))
	for _, r := range twin {
		if r.Err == "" {
			want[r.Index] = r.Value
		}
	}
	var out []string
	for _, r := range traced {
		if v, ok := want[r.Index]; ok && r.Err == "" && r.Value != v {
			out = append(out, fmt.Sprintf("op %d: traced values differ from the untraced twin's", r.Index))
		}
	}
	return out
}

// runAll runs every workload, each in its own harness process.
func runAll(e *env, seed int64, secs, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Provenance: e.provenance()}
	for _, w := range workloads {
		part := filepath.Join(e.runDir, w.name+".json")
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
			"-trace", fmt.Sprint(trace), "-out", part, "-root", e.root)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := startChild(cmd); err != nil {
			return err
		}
		if err := waitChild(cmd); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		var rf resultFile
		if err := readJSON(part, &rf); err != nil {
			return err
		}
		file.Runs = append(file.Runs, rf.Runs...)
	}
	if out != "" {
		if err := writeResult(out, file); err != nil {
			return err
		}
	}
	correct, attempted, failed := true, 0, 0
	metrics := make(map[string]metricValue)
	for _, r := range file.Runs {
		printRecord(&r)
		correct = correct && r.correct()
		attempted += r.Attempted
		failed += r.Failed
		for k, v := range r.Metrics { //pgb:deterministic distinct keys map to distinct keys; the result is a map
			metrics[r.Workload+"."+k] = v
		}
	}
	return printContract(correct, attempted, failed, metrics)
}

// printRecord prints a run for people: every metric by name with its
// unit, the op counts and the values digest.
func printRecord(r *runRecord) {
	mode := "measured"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d seconds=%d %s caches=%s\n", r.Workload, r.Seed, r.Seconds, mode, r.Caches)
	fmt.Printf("   ops attempted=%d failed=%d latency samples=%d", r.Attempted, r.Failed, r.LatencySamples)
	if !r.Trace {
		rule := "none"
		if r.TailRule > 0 {
			rule = fmt.Sprintf("p%g", r.TailRule)
		}
		fmt.Printf(" tail=p%g (%d beyond; highest with ten beyond: %s)", r.TailPercentile, r.TailBeyond, rule)
	}
	fmt.Println()
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("   values digest %s (%d of %d ops)\n", r.Digest, r.DigestOps, r.DigestWant)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
}

// printContract prints the run's last line.
func printContract(correct bool, attempted, failed int, metrics map[string]metricValue) error {
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func writeResult(path string, rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// cmdWorker is the worker child of an in-process workload: it prints
// "ready", then runs op i for every index i read from its standard
// input, answering each with the op's result, and prints a
// workerReport when its input closes.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "run seed")
	pass := fs.String("pass", passRun, "pass: run, twin or traced")
	dir := fs.String("dir", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr *tracer
	if *pass == passTraced {
		tr = newTracer()
	}
	var op func(i int) opResult
	switch *name {
	case "grid-cold":
		switch *pass {
		case passTraced:
			op = func(i int) opResult { return gridTraced(tr, *seed, i) }
		case passTwin:
			op = func(i int) opResult { return gridOp(*seed, i, 1) }
		default:
			op = func(i int) opResult { return gridOp(*seed, i, gridWorkers) }
		}
	case "ingest-open":
		root, err := os.MkdirTemp(*dir, "ingest-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(root)
		op = func(i int) opResult { return ingestRound(tr, root, *seed, i) }
	default:
		return fmt.Errorf("worker: no in-process workload %q", *name)
	}
	if _, err := fmt.Println("ready"); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	for in.Scan() {
		i, err := strconv.Atoi(in.Text())
		if err != nil {
			return fmt.Errorf("worker: bad op index %q", in.Text())
		}
		if err := enc.Encode(op(i)); err != nil {
			return err
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	var rep workerReport
	if tr != nil {
		rep.Spans, rep.Samples = tr.spans, tr.samples
	}
	return enc.Encode(rep)
}
