package graph

import "testing"

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
