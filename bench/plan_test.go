package main

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// requestStream renders every input a run with the given seed sends:
// the op seeds of the in-process workloads, the compare bodies and the
// run-job bodies, in sequence order.
func requestStream(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "op %d %d\n", i, opSeed(seed, i))
	}
	in, err := newCompareInputs(nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range planCompare(seed, n) {
		src := r
		if r.Class == classRepeat {
			src = planCompare(seed, n)[r.Target]
		}
		b.WriteString(r.Class)
		b.Write(in.body(src))
		b.WriteByte('\n')
	}
	for _, q := range planRuns(seed, n) {
		b.Write(q.body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	const n = 64
	a, b := requestStream(t, 1, n), requestStream(t, 1, n)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 produced two different request sequences")
	}
	if c := requestStream(t, 2, n); bytes.Equal(a, c) {
		t.Fatal("seeds 1 and 2 produced the same request sequence")
	}
}

func TestComparePlanMix(t *testing.T) {
	const n = 400
	plan := planCompare(7, n)
	counts := map[string]int{}
	perms := map[int]bool{}
	for i, r := range plan {
		counts[r.Class]++
		switch r.Class {
		case classRepeat:
			if r.Target > i-2 || plan[r.Target].Class != classFull {
				t.Fatalf("request %d repeats %d (%s), want a full request at least two places earlier", i, r.Target, plan[r.Target].Class)
			}
		case classStructural:
			if r.Perm == 0 || perms[r.Perm] {
				t.Fatalf("request %d reuses query order %d", i, r.Perm)
			}
			perms[r.Perm] = true
		}
		// Every block of four holds the fixed mix.
		if i%4 == 3 && (counts[classFull] != (i+1)/2 || counts[classStructural] != (i+1)/4) {
			t.Fatalf("after %d requests the mix is %v", i+1, counts)
		}
	}
	in := &compareInputs{order: structuralQueries}
	seen := map[string]bool{}
	for k := 0; k < 2000; k++ {
		q := nthPermutation(in.order, k)
		key := fmt.Sprint(q)
		if seen[key] || len(q) != len(structuralQueries) {
			t.Fatalf("permutation %d = %v repeats an earlier one or drops a query", k, q)
		}
		seen[key] = true
	}
}

func TestRunsPlanBudgetsAreDistinct(t *testing.T) {
	plan := planRuns(3, 5000)
	eps := map[float64]bool{}
	for i, q := range plan {
		if eps[q.Eps] || q.Eps < 0.5 || q.Eps >= 2.01 {
			t.Fatalf("job %d: budget %g repeats or lies outside [0.5, 2)", i, q.Eps)
		}
		eps[q.Eps] = true
		if len(q.Algorithms) != 2 {
			t.Fatalf("job %d runs %v, want two mechanisms", i, q.Algorithms)
		}
	}
	var firstSix []string
	for _, q := range plan[:3] {
		firstSix = append(firstSix, q.Algorithms...)
	}
	slices.Sort(firstSix)
	if want := []string{"DGG", "DP-dK", "PrivGraph", "PrivHRG", "PrivSKG", "TmF"}; !slices.Equal(firstSix, want) {
		t.Fatalf("three consecutive jobs run %v, want all six mechanisms", firstSix)
	}
}
