package graph

import (
	"encoding/json"
	"testing"
)

// FuzzFromEdgesMatchesBuilder: the direct-CSR FromEdges construction
// must agree with the Builder reference for arbitrary byte-derived edge
// lists — same fingerprint, same validation outcome. Each consecutive
// byte pair is one (possibly degenerate) edge over a small node range,
// so self-loops, duplicates, and out-of-range endpoints all occur.
func FuzzFromEdgesMatchesBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2}, uint8(5))
	f.Add([]byte{3, 3, 0, 9, 9, 0}, uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rawN uint8) {
		n := int(rawN % 64)
		edges := make([]Edge, 0, len(data)/2)
		b := NewBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			e := Edge{U: int32(data[i]) - 2, V: int32(data[i+1]) - 2}
			edges = append(edges, e)
			_ = b.AddEdge(e.U, e.V)
		}
		g := FromEdges(n, edges)
		ref := b.Build()
		if err := g.Validate(); err != nil {
			t.Fatalf("FromEdges graph fails invariants: %v", err)
		}
		if g.N() != ref.N() || g.M() != ref.M() {
			t.Fatalf("FromEdges %v differs from Builder %v", g, ref)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
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
