package graph

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestFingerprint(t *testing.T) {
	g1 := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	g2 := FromEdges(4, []Edge{{U: 2, V: 3}, {U: 0, V: 1}, {U: 1, V: 2}})
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("identical graphs built in different edge order must hash equally")
	}

	differing := []*Graph{
		FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}),               // fewer edges
		FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}}), // different edge
		FromEdges(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}), // more nodes
		New(4), // empty
	}
	for i, g := range differing {
		if g.Fingerprint() == g1.Fingerprint() {
			t.Fatalf("variant %d collides with the base graph", i)
		}
	}

	if New(0).Fingerprint() == New(1).Fingerprint() {
		t.Fatal("empty graphs of different sizes must differ")
	}
}

// TestFingerprintMemoConcurrent: concurrent first calls on one graph
// all return the walk's value (run under -race to check the memo).
func TestFingerprintMemoConcurrent(t *testing.T) {
	edges := make([]Edge, 0, 500)
	for i := int32(0); i < 500; i++ {
		edges = append(edges, Canon(i%97, (i*31+7)%97))
	}
	g := FromEdges(97, edges)
	want := walkFingerprint(g)
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.Fingerprint()
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("caller %d got %016x, want %016x", i, fp, want)
		}
	}
}

// TestUnmarshalJSONResetsFingerprint: decoding into a graph that has
// already memoized its fingerprint yields the new graph's fingerprint.
func TestUnmarshalJSONResetsFingerprint(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	old := g.Fingerprint()
	if err := json.Unmarshal([]byte(`{"n":5,"edges":[0,4,3,4]}`), g); err != nil {
		t.Fatal(err)
	}
	want := FromEdges(5, []Edge{{U: 0, V: 4}, {U: 3, V: 4}}).Fingerprint()
	if got := g.Fingerprint(); got != want || got == old {
		t.Fatalf("fingerprint after decode = %016x, want %016x (before: %016x)", got, want, old)
	}
}

// walkFingerprint recomputes g's fingerprint, bypassing its memo.
func walkFingerprint(g *Graph) uint64 {
	return (&Graph{n: g.n, m: g.m, off: g.off, nbr: g.nbr}).Fingerprint()
}
