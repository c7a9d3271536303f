package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestEdgeListRoundTrip: the lines WriteEdgeList prints after its
// header name exactly the graph's edges, so reading them back rebuilds
// the same graph (same fingerprint).
func TestEdgeListRoundTrip(t *testing.T) {
	g := FromEdges(40, []Edge{{0, 1}, {2, 3}, {4, 5}, {0, 5}, {7, 39}, {12, 30}, {30, 31}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var edges []Edge
	for _, line := range lines[1:] {
		var e Edge
		if _, err := fmt.Sscanf(line, "%d %d", &e.U, &e.V); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		edges = append(edges, e)
	}
	if back := FromEdges(g.N(), edges); back.Fingerprint() != g.Fingerprint() {
		t.Fatalf("round trip: %v, want %v", back, g)
	}
}

// TestWriteEdgeListGolden pins the edge-list format `pgb generate`
// prints: a header comment with n and m, then one canonical "u v" line
// per edge in sorted order. Isolated nodes appear only in the header.
func TestWriteEdgeListGolden(t *testing.T) {
	g := FromEdges(7, []Edge{{4, 5}, {0, 1}, {5, 0}, {2, 3}, {1, 0}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	const want = "# nodes=7 edges=4\n0 1\n0 5\n2 3\n4 5\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteEdgeList =\n%s\nwant\n%s", got, want)
	}
}

func TestWriteDOT(t *testing.T) {
	g := FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	const want = "graph pgb {\n" +
		"  node [shape=circle, style=filled, width=0.25, label=\"\"];\n" +
		"  n0 [fillcolor=\"#1f77b4\"];\n" +
		"  n1 [fillcolor=\"#1f77b4\"];\n" +
		"  n2 [fillcolor=\"#1f77b4\"];\n" +
		"  n0 -- n1;\n" +
		"  n1 -- n2;\n" +
		"}\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteDOT =\n%s\nwant\n%s", got, want)
	}
}

// TestWriteDOTNilLabels: with no community labels to colour by, every
// node, isolated ones included, is drawn in the one default fill and
// each edge is printed once.
func TestWriteDOTNilLabels(t *testing.T) {
	g := FromEdges(4, []Edge{{U: 1, V: 0}})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for u := 0; u < g.N(); u++ {
		want := fmt.Sprintf("  n%d [fillcolor=\"#1f77b4\"];\n", u)
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "fillcolor="); n != g.N() {
		t.Fatalf("%d fillcolor attributes, want %d:\n%s", n, g.N(), out)
	}
	if n := strings.Count(out, " -- "); n != 1 || !strings.Contains(out, "  n0 -- n1;\n") {
		t.Fatalf("want exactly the edge n0 -- n1:\n%s", out)
	}
}
