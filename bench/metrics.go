package main

import (
	"math"
	"sort"
	"time"

	"pgb"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The small slack keeps p·n that is whole in decimal from rounding up.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailLadder lists the percentiles a tail latency may be reported at,
// in tenths of a percent.
var tailLadder = []int{500, 750, 900, 950, 980, 990, 995, 999}

// tailPercentile returns the highest percentile on the ladder that has
// at least ten of n samples beyond it; ok is false when even the median
// has fewer (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if t := tailLadder[i]; n*(1000-t)/1000 >= 10 {
			return float64(t) / 10, true
		}
	}
	return 0, false
}

// beyond is how many of n samples rank above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the three cut points dividing xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does with its
// default exclusive method.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	ld := len(s)
	var q [3]float64
	switch ld {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return ratio(q[2]-q[0], q[1])
}

// ---- end-to-end metrics --------------------------------------------------

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEndDefs are the metrics a user of the system sees, reported by
// every untraced run.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"latency_tail_ms", "ms", false},
	{"cpu_ms_per_op", "ms", false},
	{"peak_rss_mb", "MB", false},
	{"setup_s", "s", false},
}

// latencies returns the sorted latencies of the successful ops.
func latencies(ops []opResult) []float64 {
	var xs []float64
	for _, r := range ops {
		if r.Err == "" {
			xs = append(xs, r.Ms)
		}
	}
	sort.Float64s(xs)
	return xs
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(w *workload, m *measurement) map[string]metricValue {
	lat := latencies(m.ops)
	n := float64(len(lat))
	values := map[string]float64{
		"ops_per_s":       ratio(n, m.wall.Seconds()),
		"latency_p50_ms":  percentile(lat, 50),
		"latency_tail_ms": percentile(lat, w.tailPct),
		"cpu_ms_per_op":   ratio(durMs(m.cpu), n),
		"peak_rss_mb":     float64(m.peakRSSKB) / 1024,
		"setup_s":         median(seconds(m.setup)),
	}
	out := make(map[string]metricValue, len(endToEndDefs))
	for _, d := range endToEndDefs {
		out[d.name] = metricValue{values[d.name], d.unit}
	}
	return out
}

// ---- per-layer metrics ---------------------------------------------------

// traceRun is a traced run: an untraced twin pass, a traced pass over
// the same ops, and what the tracer recorded.
type traceRun struct {
	twin, traced *measurement
	tr           *tracer
	failures     []string
}

// layerDef is a per-layer metric and how the traced run yields it.
type layerDef struct {
	metricDef
	value func(l *layerView) float64
}

// layerView indexes a traced run for the layer metrics.
type layerView struct {
	run     *traceRun
	spans   map[string][]float64 // span durations (ms) by name
	samples map[string][]float64
}

func (l *layerView) spanMedian(name string) float64 { return median(l.spans[name]) }

func spanMedian(name string) func(*layerView) float64 {
	return func(l *layerView) float64 { return l.spanMedian(name) }
}

func sampleMean(name string) func(*layerView) float64 {
	return func(l *layerView) float64 { return mean(l.samples[name]) }
}

func sampleMedian(name string) func(*layerView) float64 {
	return func(l *layerView) float64 { return median(l.samples[name]) }
}

func sampleRatio(num, den string) func(*layerView) float64 {
	return func(l *layerView) float64 { return ratio(sum(l.samples[num]), sum(l.samples[den])) }
}

// layerDefs are the per-layer metrics of a traced run, named after the
// module whose calls they time. Times are medians per call and sizes
// means per call; a layer a workload does not exercise reads 0.
var layerDefs = func() []layerDef {
	ms := func(name, span string) layerDef {
		return layerDef{metricDef{name, "ms", false}, spanMedian(span)}
	}
	defs := []layerDef{
		ms("datasets.load_ms", "datasets.load"),
		{metricDef{"datasets.store_hit_ratio", "ratio", true}, sampleRatio("store.hits", "store.lookups")},
		ms("graph.snapshot_put_ms", "graph.snapshot_put"),
		{metricDef{"graph.snapshot_put_mb_per_s", "MB/s", true}, func(l *layerView) float64 {
			return ratio(sum(l.samples["put.bytes"])/(1<<20), sum(l.spans["graph.snapshot_put"])/1000)
		}},
		ms("graph.snapshot_open_ms", "graph.snapshot_open"),
		ms("graph.snapshot_read_ms", "graph.snapshot_read"),
		ms("graph.json_decode_ms", "graph.json_decode"),
		{metricDef{"graph.json_decode_alloc_kb", "KB", false}, sampleMean("graph.json_decode_alloc_kb")},
		ms("graph.fingerprint_ms", "graph.fingerprint"),
	}
	for _, a := range pgb.Algorithms() {
		defs = append(defs, ms("algo.generate_ms."+a, "algo.generate."+a))
	}
	defs = append(defs,
		layerDef{metricDef{"algo.generate_alloc_kb", "KB", false}, sampleMean("algo.generate_alloc_kb")},
		ms("stats.structure_ms", "stats.structure"),
		ms("stats.triangles_ms", "stats.triangles"),
		ms("stats.distances_exact_ms", "stats.distances_exact"),
		ms("stats.distances_sampled_ms", "stats.distances_sampled"),
		ms("stats.anf_ms", "stats.anf"),
		ms("stats.evc_ms", "stats.evc"),
		ms("community.louvain_ms", "community.louvain"),
		ms("core.profile_ms", "core.profile"),
		layerDef{metricDef{"core.profile_alloc_kb", "KB", false}, sampleMean("core.profile_alloc_kb")},
		layerDef{metricDef{"core.profile_overlap", "ratio", true}, sampleRatio("overlap.serial_ms", "overlap.parallel_ms")},
		ms("core.truth_profile_cold_ms", "core.truth_profile_cold"),
		ms("core.truth_profile_warm_ms", "core.truth_profile_warm"),
		ms("core.score_ms", "core.score"),
		ms("core.cell_ms", "core.cell"),
		ms("server.compare_ms.full", "server.compare.full"),
		ms("server.compare_ms.structural", "server.compare.structural"),
		ms("server.compare_ms.repeat", "server.compare.repeat"),
		layerDef{metricDef{"server.compare_overhead_ms", "ms", false}, sampleMedian("compare.overhead_ms")},
		layerDef{metricDef{"server.result_cache_hit_ratio", "ratio", true}, sampleRatio("server.cache_hits", "server.compares")},
		ms("server.submit_ms", "server.submit"),
		ms("server.job_queue_ms", "server.job_queue"),
		ms("server.job_exec_ms", "server.job_exec"),
		ms("server.job_result_ms", "server.job_result"),
		layerDef{metricDef{"server.ready_s", "s", false}, sampleMedian("server.ready_s")},
		layerDef{metricDef{"trace.coverage", "ratio", true}, func(l *layerView) float64 { return coverage(l.run.tr.spans) }},
		layerDef{metricDef{"trace.overhead_pct", "%", false}, func(l *layerView) float64 { return overheadPct(l.run) }},
	)
	return defs
}()

// overheadPct is how much longer the traced pass's ops took than the
// same ops in the untraced twin, as a percentage of the twin's time.
func overheadPct(t *traceRun) float64 {
	twin := make(map[int]float64, len(t.twin.ops))
	for _, r := range t.twin.ops {
		if r.Err == "" {
			twin[r.Index] = r.Ms
		}
	}
	var a, b float64
	for _, r := range t.traced.ops {
		if ms, ok := twin[r.Index]; ok && r.Err == "" {
			a += ms
			b += r.Ms
		}
	}
	return 100 * (ratio(b, a) - 1)
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(t *traceRun) map[string]metricValue {
	l := &layerView{run: t, spans: durationsByName(t.tr.spans), samples: t.tr.samples}
	out := make(map[string]metricValue, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metricValue{d.value(l), d.unit}
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
