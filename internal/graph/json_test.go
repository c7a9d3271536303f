package graph

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// TestJSONRoundTrip: Marshal∘Unmarshal is the identity on random simple
// graphs (same fingerprint, same adjacency).
func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		var edges []Edge
		for i := 0; i < 3*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				edges = append(edges, Canon(u, v))
			}
		}
		g := FromEdges(n, edges)
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Graph
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("round trip changed size: (%d,%d) -> (%d,%d)", g.N(), g.M(), got.N(), got.M())
		}
		if got.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed fingerprint")
		}
	}
}

// TestJSONWireFormat pins the wire schema: flat pairs, canonical
// orientation, deterministic order.
func TestJSONWireFormat(t *testing.T) {
	g := FromEdges(4, []Edge{Canon(2, 1), Canon(3, 0), Canon(0, 3)})
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want := `{"n":4,"edges":[0,3,1,2]}`
	if string(data) != want {
		t.Fatalf("wire format = %s, want %s", data, want)
	}

	empty := New(0)
	data, err = json.Marshal(empty)
	if err != nil {
		t.Fatalf("marshal empty: %v", err)
	}
	var got Graph
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal empty: %v", err)
	}
	if got.N() != 0 || got.M() != 0 {
		t.Fatalf("empty graph round trip = (%d,%d)", got.N(), got.M())
	}
}

// TestJSONDecodeNormalizes: reversed orientation, duplicates, and
// self-loops decode to the same simple graph.
func TestJSONDecodeNormalizes(t *testing.T) {
	var g Graph
	in := `{"n":3,"edges":[1,0, 0,1, 2,2, 1,2]}`
	if err := json.Unmarshal([]byte(in), &g); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("normalized graph = (%d nodes, %d edges), want (3, 2)", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatalf("normalized adjacency wrong: %v", g.Edges())
	}
}

// TestJSONDecodeErrors: malformed payloads are rejected with a
// diagnostic, never silently clipped.
func TestJSONDecodeErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"wrong type", `{"n":3,"edges":"abc"}`, "decoding JSON graph"},
		{"odd edges", `{"n":3,"edges":[0,1,2]}`, "odd length"},
		{"negative n", `{"n":-1,"edges":[]}`, "negative node count"},
		{"n above wire limit", `{"n":2000000000,"edges":[]}`, "above the wire limit"},
		{"endpoint out of range", `{"n":3,"edges":[0,3]}`, "outside node range"},
		{"negative endpoint", `{"n":3,"edges":[-1,2]}`, "outside node range"},
	}
	for _, tc := range cases {
		var g Graph
		err := json.Unmarshal([]byte(tc.in), &g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestParseWireShapes: the hand parser takes what MarshalJSON writes
// (with any JSON whitespace) and hands every other shape to the stdlib
// path, whatever that path then decides.
func TestParseWireShapes(t *testing.T) {
	g := FromEdges(5, []Edge{Canon(0, 4), Canon(1, 2), Canon(3, 4)})
	canonical, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		string(canonical),
		`{"n":0,"edges":[]}`,
		" \t{ \"n\" :\r5 ,\n\"edges\": [ 4 , 0,1,2 , 4,3 ] } \n",
	} {
		n, edges, ok := parseWire([]byte(in))
		if !ok {
			t.Errorf("parseWire(%q) fell back", in)
			continue
		}
		if got := FromEdges(n, edges); len(edges) > 0 && got.Fingerprint() != g.Fingerprint() {
			t.Errorf("parseWire(%q) decoded %v, want %v", in, got.Edges(), g.Edges())
		}
	}
	for _, in := range []string{
		`{"n":05,"edges":[0,1]}`, `{"n":5,"edges":[0,01]}`,
		`{"n":5.0,"edges":[]}`, `{"n":5,"edges":[0,1.0]}`, `{"n":5,"edges":[0,1e0]}`,
		`{"n":-0,"edges":[]}`, `{"n":5,"edges":[-1,2]}`,
		`{"n":5,"edges":[0,2147483648]}`, `{"n":2147483648,"edges":[]}`,
		`{"n":8388609,"edges":[]}`,
		`{"n":5,"edges":[0,1,2]}`, `{"n":5,"edges":[0,5]}`, `{"n":0,"edges":[0,0]}`,
		`{"n":5,"edges":[0,1,]}`, `{"n":5,"edges":[,0,1]}`,
		`{"edges":[],"n":5}`, `{"N":5,"edges":[]}`, `{"n":5,"Edges":[]}`,
		`{"\u006e":5,"edges":[]}`, `{"n":5,"n":5,"edges":[]}`,
		`{"n":5,"edges":[],"edges":[]}`, `{"n":5,"edges":[],"m":0}`, `{"n":5}`,
		`null`, `{"n":5,"edges":null}`, `{"n":5,"edges":[]} x`, `{"n":5,"edges":[]}}`, ``,
	} {
		if _, _, ok := parseWire([]byte(in)); ok {
			t.Errorf("parseWire(%q) accepted a non-canonical shape", in)
		}
	}
}
