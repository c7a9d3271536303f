package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{500, 98, true},
		{999, 98, true},
		{1000, 99, true},
		{2000, 99.5, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves only %d samples beyond it", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := beyond(10, 90); got != 1 {
		t.Errorf("beyond(10, 90) = %d, want 1", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, which the spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestEndToEndMetrics(t *testing.T) {
	w := &workload{tailPct: 90}
	m := &measurement{
		ops: []opResult{
			{Index: 0, Ms: 10}, {Index: 1, Ms: 30}, {Index: 2, Ms: 20}, {Index: 3, Ms: 99, Err: "failed"},
		},
		wall:      3 * time.Second,
		cpu:       600 * time.Millisecond,
		peakRSSKB: 2048,
		setup:     []time.Duration{time.Second, 3 * time.Second, 2 * time.Second},
	}
	got := endToEnd(w, m)
	want := []struct {
		name  string
		value float64
	}{
		{"ops_per_s", 1}, // three successful ops in three seconds
		{"latency_p50_ms", 20},
		{"latency_tail_ms", 30},
		{"cpu_ms_per_op", 200},
		{"peak_rss_mb", 2},
		{"setup_s", 2},
	}
	if len(got) != len(endToEndDefs) {
		t.Fatalf("endToEnd reports %d metrics, want %d", len(got), len(endToEndDefs))
	}
	for _, w := range want {
		if got[w.name].Value != w.value {
			t.Errorf("%s = %g, want %g", w.name, got[w.name].Value, w.value)
		}
	}
}
