package datasets

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"pgb/internal/graph"
	"pgb/internal/stats"
)

// LoadFile reads a real graph dataset from disk in the SNAP/Network-
// Repository edge-list format: one "u<sep>v" pair per line, '#' or '%'
// comment lines, arbitrary (sparse, non-contiguous) node IDs, optionally
// directed. Directed edges are symmetrized and node IDs are compacted to
// 0..n-1, matching the preprocessing the paper applies. Use this to run
// the benchmark on the genuine SNAP graphs instead of the offline
// stand-ins.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("datasets: %w", err)
	}
	defer f.Close()
	return ParseEdgeFile(f)
}

// ParseEdgeFile is LoadFile for any reader.
func ParseEdgeFile(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	type rawEdge struct{ u, v int64 }
	var raw []rawEdge
	ids := make(map[int64]struct{})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ','
		})
		if len(fields) < 2 {
			return nil, fmt.Errorf("datasets: line %d: need two endpoints, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("datasets: line %d: %w", lineNo, err)
		}
		raw = append(raw, rawEdge{u, v})
		ids[u] = struct{}{}
		ids[v] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// compact IDs in sorted order so loading is deterministic
	sorted := make([]int64, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	remap := make(map[int64]int32, len(sorted))
	for i, id := range sorted {
		remap[id] = int32(i)
	}
	b := graph.NewBuilder(len(sorted))
	for _, e := range raw {
		_ = b.AddEdge(remap[e.u], remap[e.v])
	}
	return b.Build(), nil
}

// FileSpec wraps a graph loaded from disk as a dataset Spec so it flows
// through the benchmark harness like a built-in dataset. Scale is ignored
// (the file defines the graph); the published statistics are measured
// from the data.
func FileSpec(name, path string) (Spec, error) {
	g, err := LoadFile(path)
	if err != nil {
		return Spec{}, err
	}
	_, _, acc := stats.TriangleProfileParallel(g, 1, nil)
	return Spec{
		Name:       name,
		PaperNodes: g.N(),
		PaperEdges: g.M(),
		PaperACC:   acc,
		Type:       "File",
		build: func(n, m int, _ *rand.Rand) *graph.Graph {
			return g
		},
	}, nil
}
