package stats

import "pgb/internal/graph"

// ExactDiameter is the exact diameter of the graph's largest connected
// component: the serial MS-BFS sweep (bfsDistances) from every node of
// that component. A sweep from every node of a component reaches exactly
// that component, so its deepest level is the component's diameter.
func ExactDiameter(g *graph.Graph) int {
	return int(bfsDistances(g, g.LargestComponent(), 1, nil).Diameter)
}
