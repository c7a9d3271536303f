package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json diff reads: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []boundSpec `json:"end_to_end"`
}

type boundSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// resultSet is every result file under one path.
type resultSet struct {
	path  string
	files []resultFile
}

// loadSet reads a result file, or every *.json file in a directory.
func loadSet(path string) (*resultSet, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	paths := []string{path}
	if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	set := &resultSet{path: path}
	for _, p := range paths {
		var rf resultFile
		if err := readJSON(p, &rf); err != nil {
			return nil, err
		}
		set.files = append(set.files, rf)
	}
	if len(set.files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return set, nil
}

// runs returns the set's untraced records of one workload.
func (s *resultSet) runs(workload string) []runRecord {
	var out []runRecord
	for _, f := range s.files {
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				out = append(out, r)
			}
		}
	}
	return out
}

// nprocs returns the distinct CPU counts the set ran on.
func (s *resultSet) nprocs() []int {
	var out []int
	for _, f := range s.files {
		if !slices.Contains(out, f.Provenance.NProc) {
			out = append(out, f.Provenance.NProc)
		}
	}
	sort.Ints(out)
	return out
}

// shape is what two sets must share to be compared: run length, digest
// window and the seeds run.
func shape(rs []runRecord) string {
	var seeds []int64
	secs, window := map[int]bool{}, map[int]bool{}
	for _, r := range rs {
		seeds = append(seeds, r.Seed)
		secs[r.Seconds] = true
		window[r.DigestWant] = true
	}
	slices.Sort(seeds)
	return fmt.Sprintf("seeds %v, seconds %v, digest window %v", seeds, sortedKeys(secs), sortedKeys(window))
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// verdict compares one metric of one workload across two sets.
type verdict struct {
	workload, metric string
	a, b             [3]float64 // q1, median, q3
	change           float64    // relative change of the median, worse positive
	bound            float64
	status           string
}

// Verdict statuses.
const (
	statusOK         = "ok"
	statusRegressed  = "REGRESSED"
	statusUnresolved = "unresolved"
	statusMissing    = "missing"
)

// judge applies the benchmark's rule to two sets of values of a metric:
// B's median may be worse than A's by at most the bound. When either
// set's spread is wider than the bound, an in-bound change is
// unresolved unless every B value is better than every A value.
func judge(a, b []float64, higherBetter bool, bound float64) (change float64, status string) {
	if len(a) == 0 || len(b) == 0 {
		return 0, statusMissing
	}
	ma, mb := quartiles(a)[1], quartiles(b)[1]
	change = ratio(mb-ma, ma)
	if higherBetter {
		change = -change
	}
	if change > bound {
		return change, statusRegressed
	}
	if spread(a) > bound || spread(b) > bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if higherBetter {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter {
			return change, statusUnresolved
		}
	}
	return change, statusOK
}

// diffSets compares two result sets workload by workload. It returns the
// verdicts and the reasons the sets cannot be compared or disagree.
func diffSets(a, b *resultSet, spec benchSpec) ([]verdict, []string) {
	var problems []string
	if na, nb := a.nprocs(), b.nprocs(); len(na) != 1 || !slices.Equal(na, nb) {
		problems = append(problems, fmt.Sprintf("refusing to compare across CPU counts: %s ran on nproc %v, %s on %v", a.path, na, b.path, nb))
		return nil, problems
	}
	var out []verdict
	for _, w := range workloads {
		ra, rb := a.runs(w.name), b.runs(w.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if sa, sb := shape(ra), shape(rb); sa != sb {
			problems = append(problems, fmt.Sprintf("%s: refusing to compare different runs: %s has %s; %s has %s", w.name, a.path, sa, b.path, sb))
			continue
		}
		problems = append(problems, digestMismatches(w.name, ra, rb)...)
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			v := verdict{workload: w.name, metric: m.Name, a: quartiles(va), b: quartiles(vb), bound: m.Bound}
			v.change, v.status = judge(va, vb, m.Better == "higher", m.Bound)
			out = append(out, v)
		}
	}
	return out, problems
}

func metricValues(rs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// digestMismatches reports seeds whose values digests differ between
// the sets: the same inputs must give the same outputs.
func digestMismatches(workload string, a, b []runRecord) []string {
	digests := make(map[int64]string)
	for _, r := range a {
		if r.DigestOps == r.DigestWant {
			digests[r.Seed] = r.Digest
		}
	}
	var out []string
	for _, r := range b {
		if d, ok := digests[r.Seed]; ok && r.DigestOps == r.DigestWant && d != r.Digest {
			out = append(out, fmt.Sprintf("%s seed %d: values digest %s differs from %s", workload, r.Seed, r.Digest, d))
		}
	}
	return out
}

// printVerdicts writes the comparison table.
func printVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintf(w, "%-15s %-16s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-15s %-16s %-30s %-30s %+7.1f%% %5.0f%%  %s\n", v.workload, v.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.a[1], v.a[0], v.a[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.b[1], v.b[0], v.b[2]),
			100*v.change, 100*v.bound, v.status)
	}
}

// cmdDiff compares two result sets: `pgbbench diff A B`, where A and B
// are result files or directories of them. It exits 1 when the sets
// cannot be compared, when a values digest differs, or when a metric
// regressed beyond its bound or is missing from one side.
func cmdDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: pgbbench diff [-benchmark BENCHMARK.json] A B")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgbbench diff:", err)
		return 2
	}
	a, err := loadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgbbench diff:", err)
		return 2
	}
	b, err := loadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgbbench diff:", err)
		return 2
	}
	vs, problems := diffSets(a, b, spec)
	printVerdicts(os.Stdout, vs)
	code := 0
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
		code = 1
	}
	for _, v := range vs {
		if v.status == statusRegressed || v.status == statusMissing {
			code = 1
		}
	}
	verdictLine := "sets agree"
	if code != 0 {
		verdictLine = "sets disagree"
	}
	fmt.Printf("%d verdicts, %d problems: %s\n", len(vs), len(problems), verdictLine)
	return code
}
