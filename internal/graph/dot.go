package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT writes the graph in Graphviz DOT format, every node filled
// one colour. Intended for eyeballing small synthetic graphs next to
// their originals.
func WriteDOT(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "graph pgb {"); err != nil {
		return err
	}
	fmt.Fprintln(bw, "  node [shape=circle, style=filled, width=0.25, label=\"\"];")
	for u := 0; u < g.N(); u++ {
		fmt.Fprintf(bw, "  n%d [fillcolor=\"#1f77b4\"];\n", u)
	}
	for e := range g.EdgeSeq() {
		fmt.Fprintf(bw, "  n%d -- n%d;\n", e.U, e.V)
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
