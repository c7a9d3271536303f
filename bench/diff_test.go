package main

import (
	"strings"
	"testing"
)

// testSpec bounds two metrics, one of each direction.
func testSpec() benchSpec {
	return benchSpec{EndToEnd: []boundSpec{
		{Name: "ops_per_s", Better: "higher", Bound: 0.1},
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
	}}
}

// testSet builds a one-file result set of ingest-open runs, one per
// seed, from per-seed metric values.
func testSet(nproc int, ops, lat []float64) *resultSet {
	rf := resultFile{Provenance: provenance{NProc: nproc}}
	for i := range ops {
		rf.Runs = append(rf.Runs, runRecord{
			Workload: "ingest-open", Seed: int64(i + 1), Seconds: 20,
			Digest: "d", DigestOps: 16, DigestWant: 16,
			Metrics: map[string]metricValue{
				"ops_per_s":      {ops[i], "1/s"},
				"latency_p50_ms": {lat[i], "ms"},
			},
		})
	}
	return &resultSet{path: "set", files: []resultFile{rf}}
}

func statuses(vs []verdict) map[string]string {
	out := map[string]string{}
	for _, v := range vs {
		out[v.metric] = v.status
	}
	return out
}

func TestDiffVerdicts(t *testing.T) {
	base := testSet(2, []float64{10, 10.1, 9.9, 10, 10.05}, []float64{100, 101, 99, 100, 100.5})
	for _, tc := range []struct {
		name     string
		ops, lat []float64
		want     map[string]string
	}{
		{"same", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{100, 101, 99, 100, 100.5},
			map[string]string{"ops_per_s": statusOK, "latency_p50_ms": statusOK}},
		{"slower within bound", []float64{9.5, 9.6, 9.4, 9.5, 9.55}, []float64{108, 109, 107, 108, 108.5},
			map[string]string{"ops_per_s": statusOK, "latency_p50_ms": statusOK}},
		{"regressed both ways", []float64{8.5, 8.6, 8.4, 8.5, 8.55}, []float64{120, 121, 119, 120, 120.5},
			map[string]string{"ops_per_s": statusRegressed, "latency_p50_ms": statusRegressed}},
		{"faster is never a regression", []float64{20, 20, 20, 20, 20}, []float64{50, 50, 50, 50, 50},
			map[string]string{"ops_per_s": statusOK, "latency_p50_ms": statusOK}},
		{"noisy and overlapping", []float64{6, 14, 10, 7, 13}, []float64{70, 130, 100, 75, 128},
			map[string]string{"ops_per_s": statusUnresolved, "latency_p50_ms": statusUnresolved}},
		{"noisy but every run better", []float64{11, 16, 13, 12, 15}, []float64{60, 90, 75, 62, 88},
			map[string]string{"ops_per_s": statusOK, "latency_p50_ms": statusOK}},
	} {
		vs, problems := diffSets(base, testSet(2, tc.ops, tc.lat), testSpec())
		if len(problems) > 0 {
			t.Errorf("%s: unexpected problems %v", tc.name, problems)
		}
		got := statuses(vs)
		for _, m := range []string{"ops_per_s", "latency_p50_ms"} {
			if got[m] != tc.want[m] {
				t.Errorf("%s: %s verdict = %q, want %q", tc.name, m, got[m], tc.want[m])
			}
		}
	}
}

func TestDiffRefusesIncomparableSets(t *testing.T) {
	a := testSet(2, []float64{10, 10, 10}, []float64{100, 100, 100})

	if _, problems := diffSets(a, testSet(4, []float64{10, 10, 10}, []float64{100, 100, 100}), testSpec()); len(problems) != 1 || !strings.Contains(problems[0], "CPU counts") {
		t.Errorf("different nproc: problems = %v", problems)
	}

	fewer := testSet(2, []float64{10, 10}, []float64{100, 100})
	if _, problems := diffSets(a, fewer, testSpec()); len(problems) != 1 || !strings.Contains(problems[0], "seeds") {
		t.Errorf("different seeds: problems = %v", problems)
	}

	longer := testSet(2, []float64{10, 10, 10}, []float64{100, 100, 100})
	longer.files[0].Runs[0].Seconds = 30
	if _, problems := diffSets(a, longer, testSpec()); len(problems) != 1 || !strings.Contains(problems[0], "seconds") {
		t.Errorf("different run length: problems = %v", problems)
	}

	changed := testSet(2, []float64{10, 10, 10}, []float64{100, 100, 100})
	changed.files[0].Runs[1].Digest = "other"
	if _, problems := diffSets(a, changed, testSpec()); len(problems) != 1 || !strings.Contains(problems[0], "digest") {
		t.Errorf("different values: problems = %v", problems)
	}
}
