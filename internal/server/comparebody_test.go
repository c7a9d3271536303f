package server

import "testing"

// TestParseCompareShapes: the one-pass parse takes the canonical body
// shapes, the benchmark's among them, and hands every other shape to
// decodeJSON, whatever that path then decides.
func TestParseCompareShapes(t *testing.T) {
	for _, in := range []string{
		`{"truth":{"dataset":"Facebook","scale":0.1,"seed":42},"synthetic":{"graph":{"n":5,"edges":[0,1,0,2,3,4]}},"seed":7,"queries":["|V|","|E|","Tri"]}`,
		" { \"queries\" : [ ] ,\"distance_mode\":\"exact\",\"seed\":-3,\n\"synthetic\":{\"seed\":2,\"graph\":{\"n\":3,\"edges\":[2,1]},\"scale\":1e-1,\"dataset\":\"ER\"},\"truth\":{}}\t",
		`{"truth":{"dataset":"ER","scale":-0,"seed":-0},"synthetic":{"dataset":"BA"},"seed":-0}`,
		`{"truth":{"graph":{"n":2,"edges":[0,1]},"dataset":"ER"},"synthetic":{"graph":{"n":0,"edges":[]}}}`,
		`{}`,
	} {
		if _, ok := parseCompare([]byte(in)); !ok {
			t.Errorf("parseCompare(%q) fell back", in)
		}
	}
	for _, in := range []string{
		`{"truth":{"dataset":"ER"},"truth":{"dataset":"ER"}}`,
		`{"truth":{"dataset":"ER","dataset":"BA"}}`,
		`{"Truth":{"dataset":"ER"}}`, `{"truth":{"Dataset":"ER"}}`,
		`{"truth":{"dataset":"E\u0052"}}`, `{"truth":{"dataset":"É"}}`, "{\"truth\":{\"dataset\":\"E\tR\"}}",
		`{"truth":null}`, `{"truth":{"graph":null}}`, `{"queries":null}`, `{"seed":null}`,
		`{"seed":1e2}`, `{"seed":1.0}`, `{"seed":9223372036854775808}`, `{"seed":+1}`, `{"seed":01}`,
		`{"truth":{"scale":1e400}}`, `{"truth":{"scale":.5}}`, `{"truth":{"scale":1.}}`, `{"truth":{"scale":1e}}`,
		`{"truth":{"graph":{"edges":[],"n":2}}}`, `{"truth":{"graph":{"n":2,"edges":[0,2]}}}`,
		`{"queries":["CD",]}`, `{"queries":[,"CD"]}`, `{"queries":["CD" "Mod"]}`,
		`{"seed":1,}`, `{,"seed":1}`, `{"seed" 1}`, `{"unknown":1}`,
		`{"seed":1} {}`, `{"seed":1}}`, `{"seed":1`, `[]`, ``,
	} {
		if _, ok := parseCompare([]byte(in)); ok {
			t.Errorf("parseCompare(%q) accepted a non-canonical shape", in)
		}
	}
}

// TestParseCompareGraph: an inline graph decodes to the graph the
// encoding/json path builds, canonicalized.
func TestParseCompareGraph(t *testing.T) {
	req, ok := parseCompare([]byte(`{"synthetic":{"graph":{"n":4,"edges":[3,0,1,2,0,3,2,2]}},"truth":{"graph":{"n":2,"edges":[]}}}`))
	if !ok {
		t.Fatal("fell back")
	}
	if g := req.Synthetic.Graph; g == nil || g.N() != 4 || g.M() != 2 || !g.HasEdge(0, 3) || !g.HasEdge(1, 2) {
		t.Fatalf("synthetic graph %v, want n=4 with edges (0,3), (1,2)", g)
	}
	if g := req.Truth.Graph; g == nil || g.N() != 2 || g.M() != 0 {
		t.Fatalf("truth graph %v, want n=2 with no edges", g)
	}
}
