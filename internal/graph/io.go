package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteEdgeList writes the graph as "u v" lines preceded by a header
// comment recording n and m.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for e := range g.EdgeSeq() {
		// errors are sticky on the bufio.Writer; Flush reports the first
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}
