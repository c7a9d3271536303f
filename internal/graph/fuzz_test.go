package graph

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// referenceGraph builds the graph of edges over n nodes the slow way,
// one neighbor map per node, sorted row by row: the reference FromEdges
// and EdgeSet are checked against. Self-loops, duplicates, and
// out-of-range endpoints are dropped, as FromEdges drops them.
func referenceGraph(n int, edges []Edge) *Graph {
	adj := make([]map[int32]bool, n)
	for _, e := range edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n || e.U == e.V {
			continue
		}
		for _, p := range [][2]int32{{e.U, e.V}, {e.V, e.U}} {
			if adj[p[0]] == nil {
				adj[p[0]] = map[int32]bool{}
			}
			adj[p[0]][p[1]] = true
		}
	}
	off := make([]int64, n+1)
	nbr := []int32{}
	for u, row := range adj {
		start := len(nbr)
		for v := range row {
			nbr = append(nbr, v)
		}
		slices.Sort(nbr[start:])
		off[u+1] = int64(len(nbr))
	}
	return &Graph{n: n, m: len(nbr) / 2, off: off, nbr: nbr}
}

// Has reports whether the set holds the undirected edge {u, v}: the
// probe the EdgeSet tests check the set's contents with. Generators
// need none, since Add reports whether an edge was new.
func (s *EdgeSet) Has(u, v int32) bool {
	if !s.valid(u, v) {
		return false
	}
	if s.inBase(u, v) {
		return true
	}
	key := packEdge(u, v)
	return s.slots[s.slot(key)] == key
}

// FuzzFromEdgesMatchesReference: the direct-CSR FromEdges construction
// must agree with referenceGraph for arbitrary byte-derived edge lists
// — same fingerprint, same validation outcome. Each consecutive byte
// pair is one (possibly degenerate) edge over a small node range, so
// self-loops, duplicates, and out-of-range endpoints all occur.
func FuzzFromEdgesMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2}, uint8(5))
	f.Add([]byte{3, 3, 0, 9, 9, 0}, uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{2, 3, 3, 2, 2, 3, 4, 5, 5, 4, 2, 3}, uint8(6))      // duplicates, both orientations
	f.Add([]byte{4, 4, 2, 2, 2, 3, 7, 7}, uint8(6))                  // self loops
	f.Add([]byte{0, 3, 3, 1, 2, 200, 255, 4, 2, 10, 2, 5}, uint8(8)) // ends below 0 and at or above n
	// Node 0 gets 1200 arcs over 60 distinct neighbors: one long row to
	// order and dedup, with every duplicate run 20 arcs long.
	star := make([]byte, 0, 2400)
	for i := 0; i < 1200; i++ {
		star = append(star, 2, byte(3+i%60))
	}
	f.Add(star, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, rawN uint8) {
		n := int(rawN % 64)
		edges := make([]Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{U: int32(data[i]) - 2, V: int32(data[i+1]) - 2})
		}
		g := FromEdges(n, edges)
		ref := referenceGraph(n, edges)
		if err := g.Validate(); err != nil {
			t.Fatalf("FromEdges graph fails invariants: %v", err)
		}
		if g.N() != ref.N() || g.M() != ref.M() {
			t.Fatalf("FromEdges %v differs from the reference %v", g, ref)
		}
		if g.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("fingerprint mismatch: %x vs %x", g.Fingerprint(), ref.Fingerprint())
		}
	})
}

// FuzzGraphJSON: the wire codec (json.go) must never panic on arbitrary
// payloads, strict-validation rejections must be errors (not clipped
// graphs), and every accepted payload must survive the
// decode→encode→decode round trip with an identical graph: same
// invariants, same fingerprint. The canonical re-encoding makes the
// second decode the identity even when the original payload listed
// edges unsorted, reversed, duplicated, or with self-loops.
//
// It is also the differential between UnmarshalJSON's two paths: when
// the hand parser accepts, the stdlib path accepts the same graph, and
// when the stdlib path rejects, UnmarshalJSON returns its error string
// verbatim.
func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"n":3,"edges":[0,1,1,2]}`))
	f.Add([]byte(`{"n":5,"edges":[4,0, 0,4, 2,2, 3,1]}`)) // reversed, dup, loop
	f.Add([]byte(`{"n":0,"edges":[]}`))
	f.Add([]byte(`{"n":-1,"edges":[]}`))
	f.Add([]byte(`{"n":2,"edges":[0]}`))         // odd edge array
	f.Add([]byte(`{"n":2,"edges":[0,5]}`))       // endpoint out of range
	f.Add([]byte(`{"n":9000000000,"edges":[]}`)) // above MaxJSONNodes
	f.Add([]byte(`{"edges":null}`))
	f.Add([]byte(`not json`))
	// Each shape the hand parser must hand to the stdlib path.
	f.Add([]byte(" \t{ \"n\" :\r3 ,\n\"edges\": [ 0 , 1 ] } \n")) // whitespace: fast path
	f.Add([]byte(`{"n":03,"edges":[0,1]}`))                       // leading zero
	f.Add([]byte(`{"n":3,"edges":[00,1]}`))                       // leading zero
	f.Add([]byte(`{"n":3.0,"edges":[0,1]}`))                      // fraction
	f.Add([]byte(`{"n":3,"edges":[0,1.5]}`))                      // fraction
	f.Add([]byte(`{"n":3,"edges":[0,1e0]}`))                      // exponent
	f.Add([]byte(`{"n":-0,"edges":[-0,1]}`))                      // sign
	f.Add([]byte(`{"n":3,"edges":[0,2147483648]}`))               // above int32
	f.Add([]byte(`{"n":8388609,"edges":[]}`))                     // MaxJSONNodes+1
	f.Add([]byte(`{"n":3,"edges":[0,1,2]}`))                      // odd length
	f.Add([]byte(`{"n":3,"edges":[0,3]}`))                        // endpoint == n
	f.Add([]byte(`{"n":0,"edges":[0,0]}`))                        // endpoint with n = 0
	f.Add([]byte(`{"edges":[0,1],"n":3}`))                        // reordered keys
	f.Add([]byte(`{"N":3,"Edges":[0,1]}`))                        // upper-case keys
	f.Add([]byte(`{"\u006e":3,"edges":[0,1]}`))                   // escaped key
	f.Add([]byte(`{"n":3,"n":2,"edges":[0,1]}`))                  // duplicate key
	f.Add([]byte(`{"n":3,"edges":[0,1],"edges":[1,2]}`))          // duplicate key
	f.Add([]byte(`{"n":3,"edges":[0,1],"m":1}`))                  // unknown key
	f.Add([]byte(`{"n":3}`))                                      // missing key
	f.Add([]byte(`null`))                                         // null
	f.Add([]byte(`{"n":3,"edges":null}`))                         // null edges
	f.Add([]byte(`{"n":3,"edges":[0,1]} x`))                      // trailing bytes
	f.Add([]byte(`{"n":3,"edges":[0,1,]}`))                       // trailing comma
	f.Fuzz(func(t *testing.T, data []byte) {
		stdN, stdEdges, stdErr := decodeWireStd(data)
		var g Graph
		err := json.Unmarshal(data, &g)
		if n, edges, ok := parseWire(data); ok {
			if stdErr != nil {
				t.Fatalf("hand parser accepted what the stdlib path rejects (%v)", stdErr)
			}
			fast, std := FromEdges(n, edges), FromEdges(stdN, stdEdges)
			if fast.N() != std.N() || fast.Fingerprint() != std.Fingerprint() {
				t.Fatalf("hand parser decoded (n=%d, %x), stdlib path (n=%d, %x)", fast.N(), fast.Fingerprint(), std.N(), std.Fingerprint())
			}
		}
		if stdErr != nil {
			// json.Unmarshal checks syntax before calling UnmarshalJSON,
			// so compare the error string of a direct call.
			if direct := g.UnmarshalJSON(data); direct == nil || direct.Error() != stdErr.Error() {
				t.Fatalf("UnmarshalJSON error = %v, want the stdlib path's %v", direct, stdErr)
			}
		}
		if err != nil {
			return // rejected without panicking — all the contract asks
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails invariants: %v", err)
		}
		enc, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("re-encoding accepted graph: %v", err)
		}
		var g2 Graph
		if err := json.Unmarshal(enc, &g2); err != nil {
			t.Fatalf("canonical encoding rejected on decode: %v\n%s", err, enc)
		}
		if g2.N() != g.N() || g2.M() != g.M() || g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed the graph: n %d->%d m %d->%d", g.N(), g2.N(), g.M(), g2.M())
		}
	})
}

// FuzzEdgeSetMatchesMap: the flat open-addressing EdgeSet must answer
// every Add and Has exactly as a Go map of packed canonical pairs does,
// across the table's resizes (it starts from capHint 0, 16 slots), and
// build the graph of exactly the edges it holds. Each byte pair of base
// is an edge of a graph the set starts out holding (NewEdgeSetOver;
// an empty base means NewEdgeSet). Each byte triple of ops is one
// operation: an Add when the first byte is even, else a Has, on
// endpoints that may be negative, out of range or equal.
func FuzzEdgeSetMatchesMap(f *testing.F) {
	f.Add([]byte{}, []byte{0, 2, 3, 1, 2, 3, 0, 3, 2, 1, 3, 2}, uint8(5))
	f.Add([]byte{}, []byte{0, 4, 4, 0, 0, 3, 0, 2, 200, 1, 4, 4}, uint8(6))
	f.Add([]byte{2, 3, 3, 4, 5, 5, 0, 9}, []byte{0, 3, 2, 1, 2, 3, 0, 4, 3, 0, 2, 4, 1, 2, 4}, uint8(6))
	grow := make([]byte, 0, 3*600) // ~600 adds over 40 nodes: several resizes
	for i := 0; i < 600; i++ {
		grow = append(grow, byte(2*(i%3)), byte(2+i%40), byte(2+(i*7)%40))
	}
	f.Add([]byte{}, grow, uint8(40))
	f.Add([]byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, grow, uint8(40))
	f.Fuzz(func(t *testing.T, base, ops []byte, rawN uint8) {
		n := int(rawN % 64)
		pack := func(u, v int32) uint64 { return uint64(uint32(min(u, v)))<<32 | uint64(uint32(max(u, v))) }
		ref := make(map[uint64]struct{})
		s := NewEdgeSet(n, 0)
		if len(base) > 0 {
			var edges []Edge
			for i := 0; i+1 < len(base); i += 2 {
				edges = append(edges, Edge{U: int32(base[i]) - 2, V: int32(base[i+1]) - 2})
			}
			g := FromEdges(n, edges)
			for e := range g.EdgeSeq() {
				ref[pack(e.U, e.V)] = struct{}{}
			}
			s = NewEdgeSetOver(g, 0)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			u, v := int32(ops[i+1])-2, int32(ops[i+2])-2
			valid := u >= 0 && v >= 0 && int(u) < n && int(v) < n && u != v
			key := pack(u, v)
			_, had := ref[key]
			if ops[i]%2 == 0 {
				if got, want := s.Add(u, v), valid && !had; got != want {
					t.Fatalf("op %d: Add(%d, %d) = %v, want %v", i/3, u, v, got, want)
				}
				if valid {
					ref[key] = struct{}{}
				}
			} else if got := s.Has(u, v); got != (valid && had) {
				t.Fatalf("op %d: Has(%d, %d) = %v, want %v", i/3, u, v, got, valid && had)
			}
			if s.M() != len(ref) {
				t.Fatalf("op %d: M() = %d, want %d", i/3, s.M(), len(ref))
			}
		}
		g := s.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("built graph fails invariants: %v", err)
		}
		if g.M() != len(ref) {
			t.Fatalf("built graph has %d edges, want %d", g.M(), len(ref))
		}
		for e := range g.EdgeSeq() {
			if _, ok := ref[pack(e.U, e.V)]; !ok {
				t.Fatalf("built graph has edge %v that the set never held", e)
			}
		}
	})
}

// FuzzReadSnapshot: both snapshot readers take arbitrary bytes. Each
// either fails with ErrSnapshotCorrupt or ErrSnapshotVersion or returns
// a graph that passes Validate and whose fingerprint is the one its
// header records, and the two agree on which, down to the error.
// The seeds are valid snapshots, so the fuzzer's byte flips mostly land
// in a payload behind a valid header.
func FuzzReadSnapshot(f *testing.F) {
	for _, g := range []*Graph{
		New(0),
		New(3),
		FromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}),
		FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}}),
		FromEdges(6, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 3, V: 5}, {U: 4, V: 5}}),
	} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, g); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(reader string, g *Graph, err error) {
			if err != nil {
				if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
					t.Fatalf("%s failed with an untyped error: %v", reader, err)
				}
				return
			}
			if verr := g.Validate(); verr != nil {
				t.Fatalf("%s accepted a graph that fails Validate: %v", reader, verr)
			}
			if got, want := walkFingerprint(g), binary.LittleEndian.Uint64(data[32:]); got != want {
				t.Fatalf("%s accepted a graph hashing to %016x, header records %016x", reader, got, want)
			}
		}
		path := filepath.Join(t.TempDir(), "fuzz.pgb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, readErr := ReadSnapshotFile(path)
		check("ReadSnapshotFile", g, readErr)
		mg, closer, openErr := OpenSnapshot(path)
		check("OpenSnapshot", mg, openErr)
		if closer != nil {
			if err := closer.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if (readErr == nil) != (openErr == nil) || (readErr != nil && readErr.Error() != openErr.Error()) {
			t.Fatalf("readers disagree: ReadSnapshotFile %v, OpenSnapshot %v", readErr, openErr)
		}
	})
}
