package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	// op [0,100) has children a [10,40) and b [30,60), which overlap, and
	// c [70,110), which runs past the op's end; a has a child [15,20).
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: opSpan, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Op: 0, Name: "c", Start: 70, End: 110},
		{ID: 4, Parent: 1, Op: 0, Name: "a.inner", Start: 15, End: 20},
		{ID: 5, Parent: -1, Op: -1, Name: "replay", Start: 200, End: 300},
	}
	want := []time.Duration{
		100 - 50 - 30, // [10,60) and [70,100) are covered
		30 - 5,
		30,
		40,
		5,
		100,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	// Only op spans count toward coverage; the replay root does not.
	if c := coverage(spans); c != 0.8 {
		t.Errorf("coverage = %g, want 0.8", c)
	}
	if s := selfSummary(spans); s["a"] != 25e-6 {
		t.Errorf("self-time summary of a = %g ms, want 25e-6", s["a"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.rename(id, "y")
	tr.add("k", 1)
	if id != -1 || tr.ms(id) != 0 {
		t.Fatalf("nil tracer returned span %d with %g ms", id, tr.ms(id))
	}
}

func TestTracerMergeRenumbers(t *testing.T) {
	tr := newTracer()
	tr.end(tr.begin("first", -1, 0))
	tr.merge([]span{{ID: 0, Parent: -1, Name: opSpan}, {ID: 1, Parent: 0, Name: "child"}},
		map[string][]float64{"k": {2}})
	tr.add("k", 3)
	if got := tr.spans[2]; got.ID != 2 || got.Parent != 1 {
		t.Errorf("merged child span = %+v, want ID 2 with parent 1", got)
	}
	if got := tr.samples["k"]; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("samples after merge = %v, want [2 3]", got)
	}
}
