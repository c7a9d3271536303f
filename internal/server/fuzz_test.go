package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
		Queries   []string `json:"queries"`
	}
	if json.Unmarshal([]byte(body), &probe) != nil {
		return false
	}
	for _, r := range []ref{probe.Truth, probe.Synthetic} {
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
