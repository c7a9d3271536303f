package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pgb/internal/graph"
)

// FuzzCompareRequest posts arbitrary bodies to /v1/compare. No body may
// panic the handler or answer 5xx, and every body answered 200 is
// answered again, rows byte for byte, with "cached": true.
func FuzzCompareRequest(f *testing.F) {
	f.Add(`{"truth":{"dataset":"ER","scale":0.02},"synthetic":{"dataset":"BA","scale":0.02},"queries":["|E|","CD"]}`)
	f.Add(`{"truth":{"graph":{"n":5,"edges":[0,1,1,2,2,3,3,4]}},"synthetic":{"graph":{"n":5,"edges":[0,1,0,2,0,3]}},"seed":7}`)
	f.Add(`{"truth":{"graph":{"n":4,"edges":[0,1]}},"synthetic":{"graph":{"edges":[],"n":6}},"queries":["|V|","Diam"],"distance_mode":"anf"}`)
	f.Add(`{"truth":{"dataset":"Facebook","scale":0.02,"seed":3},"synthetic":{"graph":{"n":0,"edges":[]}},"queries":["mod","ass"]}`)
	f.Add(`{"truth":{"graph":{"n":3,"edges":[0,1]},"dataset":"ER"},"synthetic":{}}`)
	f.Add(`{"truth":{"dataset":"ER","scale":0.02},"synthetic":{"dataset":"ER","scale":0.02}} x`)
	f.Add(`{"truth":{"graph":{"n":2,"edges":[0,1,1]}}}`)
	f.Add(``)

	s, err := New(Options{DataDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(body)))
		return w
	}
	type answer struct {
		Rows   json.RawMessage `json:"rows"`
		Cached bool            `json:"cached"`
	}

	f.Fuzz(func(t *testing.T, body string) {
		if tooCostly(body) {
			t.Skip("names work beyond the fuzz target's bounds")
		}
		w := post(body)
		if w.Code >= 500 {
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
		}
		if w.Code != http.StatusOK {
			return
		}
		var first answer
		if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil || first.Rows == nil {
			t.Fatalf("200 for %q with an unreadable answer (%v): %s", body, err, w.Body)
		}
		again := post(body)
		var second answer
		if again.Code != http.StatusOK || json.Unmarshal(again.Body.Bytes(), &second) != nil || !second.Cached {
			t.Fatalf("%q again: status %d %s, want 200 with cached rows", body, again.Code, again.Body)
		}
		if !bytes.Equal(first.Rows, second.Rows) {
			t.Fatalf("%q again: rows\n%s\nwant\n%s", body, second.Rows, first.Rows)
		}
	})
}

// FuzzGenerateRequest posts arbitrary bodies to /v1/generate. No body
// may panic the handler, the only 5xx is a 500 generation_failed (a
// mechanism refusing a budget it cannot spend), and every body answered
// 200 is answered again with the same bytes: generation is a pure
// function of the request.
func FuzzGenerateRequest(f *testing.F) {
	f.Add(`{"algorithm":"TmF","eps":1,"seed":7,"source":{"dataset":"ER","scale":0.02}}`)
	f.Add(`{"algorithm":"DP-dK","eps":5e-324,"source":{"graph":{"n":5,"edges":[0,1,1,2,2,3,3,4]}}}`)
	f.Add(`{"algorithm":"PrivSKG","eps":1.5e-323,"seed":3,"source":{"dataset":"BA","scale":0.02}}`)
	f.Add(`{"algorithm":"RNL","eps":1.7976931348623157e308,"seed":-3,"source":{"graph":{"n":4,"edges":[0,1]}}}`)
	f.Add(`{"algorithm":"PrivHRG","eps":0.5,"source":{"graph":{"n":0,"edges":[]}}}`)
	f.Add(`{"algorithm":"LDPGen","eps":2,"source":{"graph":{"n":3,"edges":[0,1]},"dataset":"ER"}}`)
	f.Add(`{"algorithm":"DER","eps":1,"source":{"dataset":"ER","scale":2}}`)
	f.Add(`{"algorithm":"DGG","eps":0,"source":{"dataset":"ER","scale":0.02}}`)
	f.Add(`{"algorithm":"nope","eps":1,"source":{"dataset":"ER","scale":0.02}}`)
	f.Add(`{"algorithm":"PrivGraph","eps":1,"source":{"dataset":"ER","scale":0.02}} x`)
	f.Add(``)

	s, err := New(Options{DataDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(body)))
		return w
	}

	f.Fuzz(func(t *testing.T, body string) {
		if tooCostly(body) {
			t.Skip("names work beyond the fuzz target's bounds")
		}
		w := post(body)
		if w.Code >= 500 {
			var e struct {
				Error apiError `json:"error"`
			}
			if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error.Code != "generation_failed" {
				t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
			}
			return
		}
		if w.Code != http.StatusOK {
			return
		}
		if again := post(body); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("%q again: status %d\n%s\nwant\n%s", body, again.Code, again.Body, w.Body)
		}
	})
}

// FuzzRunRequest posts arbitrary bodies to /v1/runs. No body may panic
// the handler, the only 5xx is a 503 unavailable (a full job queue),
// and every body answered 200 or 202 is answered again with the same
// job id: a run is addressed by its configuration.
func FuzzRunRequest(f *testing.F) {
	f.Add(`{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"queries":["|E|","CD"],"scale":0.02,"reps":1}`)
	f.Add(`{"algorithms":["DGG","TmF"],"datasets":["BA","ER"],"epsilons":[0.5,2],"scale":0.01,"reps":1,"seed":-4,"distance_mode":"anf"}`)
	f.Add(`{"algorithms":["DP-dK"],"datasets":["ER"],"epsilons":[5e-324],"scale":0.02,"reps":1}`)
	f.Add(`{"algorithms":["PrivSKG"],"datasets":["Facebook"],"epsilons":[2.2250738585072014e-308],"scale":0.02,"reps":1}`)
	f.Add(`{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"scale":0.02,"reps":1,"distance_mode":"bogus"}`)
	f.Add(`{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"scale":0.02,"reps":1,"queries":["NoSuchQ"]}`)
	f.Add(`{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"scale":-0.5,"reps":1}`)
	f.Add(`{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"scale":0.02,"reps":1} x`)
	f.Add(`{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"scale":0.02,"reps":1,"extra":1}`)
	f.Add(``)

	s, err := New(Options{DataDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		return w
	}
	unavailable := func(w *httptest.ResponseRecorder) bool {
		var e struct {
			Error apiError `json:"error"`
		}
		return w.Code == http.StatusServiceUnavailable && json.Unmarshal(w.Body.Bytes(), &e) == nil && e.Error.Code == "unavailable"
	}

	f.Fuzz(func(t *testing.T, body string) {
		if tooCostly(body) || gridTooCostly(body) {
			t.Skip("names work beyond the fuzz target's bounds")
		}
		w := post(body)
		if w.Code >= 500 && !unavailable(w) {
			t.Fatalf("status %d for %q: %s", w.Code, body, w.Body)
		}
		if w.Code != http.StatusOK && w.Code != http.StatusAccepted {
			return
		}
		var first jobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil || first.ID == "" {
			t.Fatalf("%d for %q with an unreadable status (%v): %s", w.Code, body, err, w.Body)
		}
		again := post(body)
		if unavailable(again) {
			return // a resubmitted failed run found the queue full
		}
		var second jobStatus
		if again.Code != http.StatusOK || json.Unmarshal(again.Body.Bytes(), &second) != nil || second.ID != first.ID {
			t.Fatalf("%q again: status %d %s, want 200 with id %s", body, again.Code, again.Body, first.ID)
		}
	})
}

// gridTooCostly reports whether a /v1/runs body the fuzzer made names a
// grid beyond a fuzz iteration once normalized: an absent scale is 1,
// absent reps are 10 and an empty axis is all its values, so it skips a
// scale above 0.02, more than one repetition, or an algorithm, dataset
// or budget axis that is empty or longer than two. Like tooCostly it
// probes with a lenient decode; a body that fails it is rejected before
// any work.
func gridTooCostly(body string) bool {
	var probe runRequest
	if json.Unmarshal([]byte(body), &probe) != nil {
		return false
	}
	axes := []int{len(probe.Algorithms), len(probe.Datasets), len(probe.Epsilons)}
	return probe.Scale == 0 || probe.Scale > 0.02 || probe.Reps != 1 ||
		slices.ContainsFunc(axes, func(n int) bool { return n == 0 || n > 2 })
}

// tooCostly reports whether a body the fuzzer made asks for work beyond
// a fuzz iteration: a dataset above the default scale 0.1, an inline
// graph of more than 4096 nodes, or one of this package's gate queries,
// which block until the test that owns them releases them. It probes
// with a lenient decode that reads no edges; a body it cannot decode is
// one the strict decode rejects before any work.
func tooCostly(body string) bool {
	type ref struct {
		Graph *struct {
			N int `json:"n"`
		} `json:"graph"`
		Scale float64 `json:"scale"`
	}
	var probe struct {
		Truth     ref      `json:"truth"`
		Synthetic ref      `json:"synthetic"`
		Source    ref      `json:"source"` // a /v1/generate body's
		Queries   []string `json:"queries"`
	}
	if json.Unmarshal([]byte(body), &probe) != nil {
		return false
	}
	for _, r := range []ref{probe.Truth, probe.Synthetic, probe.Source} {
		if r.Scale > 0.1 || (r.Graph != nil && r.Graph.N > 4096) {
			return true
		}
	}
	for _, q := range probe.Queries {
		if strings.EqualFold(q, "GateA") || strings.EqualFold(q, "GateB") {
			return true
		}
	}
	return false
}

// FuzzCompareBodyFastPath checks parseCompare against decodeJSON: every
// body the one-pass parse accepts, the encoding/json path accepts too,
// with an equal request — inline graphs equal in N, Offsets and Arcs.
func FuzzCompareBodyFastPath(f *testing.F) {
	for _, body := range []string{
		// the shape of the benchmark's compare bodies
		`{"truth":{"dataset":"Facebook","scale":0.1,"seed":42},"synthetic":{"graph":{"n":5,"edges":[0,1,0,2,3,4]}},"seed":7,"queries":["|V|","|E|","Tri"]}`,
		// reordered keys, whitespace, every key
		" { \"queries\" : [ ] ,\"distance_mode\":\"exact\",\"seed\":-3,\n\"synthetic\":{\"seed\":2,\"graph\":{\"n\":3,\"edges\":[2,1]},\"scale\":1e-1,\"dataset\":\"ER\"},\"truth\":{}}\t",
		`{"truth":{"graph":{"n":4,"edges":[0,1]}},"truth":{"dataset":"ER"}}`,                     // duplicate key
		`{"Truth":{"dataset":"ER"},"synthetic":{"dataset":"BA"}}`,                                // case-variant key
		`{"truth":{"dataset":"E\u0052"},"synthetic":{"dataset":"BA"}}`,                           // escaped string
		`{"truth":{"graph":null},"synthetic":{"dataset":"BA"},"queries":null}`,                   // null values
		`{"truth":{"dataset":"ER","scale":2E-2},"synthetic":{"dataset":"BA","seed":1e2}}`,        // exponents
		`{"truth":{"dataset":"ER","scale":-0,"seed":-0},"synthetic":{"dataset":"BA"},"seed":-0}`, // negative zero
		`{"truth":{"dataset":"ER"},"synthetic":{"dataset":"BA"},"seed":9223372036854775808}`,     // int64 overflow
		`{"truth":{"dataset":"ER"},"synthetic":{"dataset":"BA"}} {}`,                             // trailing data
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fast, ok := parseCompare(body)
		if !ok {
			return
		}
		var std compareRequest
		if err := decodeJSON(bytes.NewReader(body), &std); err != nil {
			t.Fatalf("parseCompare accepted %q, which decodeJSON rejects: %v", body, err)
		}
		for _, side := range [][2]*graphRef{{&fast.Truth, &std.Truth}, {&fast.Synthetic, &std.Synthetic}} {
			a, b := side[0], side[1]
			if !sameGraph(a.Graph, b.Graph) {
				t.Fatalf("%q: parseCompare decoded graph %v, decodeJSON %v", body, a.Graph, b.Graph)
			}
			a.Graph, b.Graph = nil, nil
		}
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("%q: parseCompare decoded %+v, decodeJSON %+v", body, fast, std)
		}
	})
}

// sameGraph reports whether a and b are both absent or hold the same
// CSR.
func sameGraph(a, b *graph.Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.N() == b.N() && slices.Equal(a.Offsets(), b.Offsets()) && slices.Equal(a.Arcs(), b.Arcs())
}
