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
