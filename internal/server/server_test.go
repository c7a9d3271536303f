package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pgb/internal/core"
	"pgb/internal/graph"
	"pgb/internal/lru"
)

// Two custom gate queries let the lifecycle tests hold a run at a known
// point: each blocks its owning test's run inside a profile computation
// until the test releases the gate, making cancel/recovery timing
// deterministic instead of sleep-based. Registration is process-wide,
// so each gate is used by exactly one test, which arms it afresh on
// every run (go test -count=N reruns it). Each run submits the same
// seed: its server's profile memo is new, so the truth pass reaches the
// gate every time.

var (
	gateA = &gate{}           // blocks every GateA compute until released
	gateB = &gate{blockAt: 3} // blocks the third GateB compute (cell 2 of 3)
)

// gate holds a gate query's compute until the owning test calls the
// release that arm returned: every compute when blockAt is 0, else only
// the blockAt-th since the gate was armed.
type gate struct {
	blockAt int
	mu      sync.Mutex
	calls   int
	ch      chan struct{}
}

// arm resets the gate for one run of its owning test and returns the
// function that releases it.
func (g *gate) arm() (release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	g.calls, g.ch = 0, ch
	return func() { close(ch) }
}

func (g *gate) pass() {
	g.mu.Lock()
	g.calls++
	block := g.blockAt == 0 || g.calls == g.blockAt
	ch := g.ch
	g.mu.Unlock()
	if block && ch != nil {
		<-ch
	}
}

func init() {
	mustRegister := func(q core.QuerySpec) {
		if _, err := core.RegisterQuery(q); err != nil {
			panic(err)
		}
	}
	mustRegister(core.QuerySpec{
		Symbol: "GateA",
		Compute: func(g *graph.Graph, _ core.ProfileOptions, _ *rand.Rand) float64 {
			gateA.pass()
			return float64(g.N())
		},
	})
	mustRegister(core.QuerySpec{
		Symbol: "GateB",
		Compute: func(g *graph.Graph, _ core.ProfileOptions, _ *rand.Rand) float64 {
			gateB.pass()
			return float64(g.M())
		},
	})
}

// newTestServer starts a Server over a fresh data dir and an httptest
// front end.
func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Options{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, req, v any) int {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func doRequest(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// waitState polls the job until it reaches want (or any terminal state,
// reported as a failure if not want).
func waitState(t *testing.T, base, id string, want JobState) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st jobStatus
		if code := getJSON(t, base+"/v1/runs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tinyRun is a 3-cell grid cheap enough for CI.
func tinyRun(seed int64, queries ...string) map[string]any {
	if len(queries) == 0 {
		queries = []string{"|E|", "d_avg"}
	}
	return map[string]any{
		"algorithms": []string{"TmF"},
		"datasets":   []string{"ER"},
		"epsilons":   []float64{0.5, 1, 2},
		"queries":    queries,
		"reps":       1,
		"scale":      0.05,
		"seed":       seed,
	}
}

func TestMetaHealthVersion(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())

	var meta struct {
		Algorithms []string  `json:"algorithms"`
		Datasets   []string  `json:"datasets"`
		Epsilons   []float64 `json:"epsilons"`
		Queries    []string  `json:"queries"`
	}
	if code := getJSON(t, ts.URL+"/v1/meta", &meta); code != http.StatusOK {
		t.Fatalf("meta status %d", code)
	}
	if len(meta.Algorithms) < 6 || len(meta.Datasets) != 8 || len(meta.Epsilons) != 6 || len(meta.Queries) < 15 {
		t.Fatalf("meta = %+v, want paper axes", meta)
	}

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	var v VersionInfo
	if code := getJSON(t, ts.URL+"/version", &v); code != http.StatusOK || v.Version == "" {
		t.Fatalf("version = %d %+v", code, v)
	}
}

// TestGenerateEndpoint: generation is synchronous, deterministic in the
// request, and structurally valid.
func TestGenerateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	req := map[string]any{
		"algorithm": "TmF",
		"eps":       1.0,
		"seed":      7,
		"source":    map[string]any{"dataset": "ER", "scale": 0.05, "seed": 42},
	}
	var out struct {
		Nodes       int          `json:"nodes"`
		Edges       int          `json:"edges"`
		Fingerprint string       `json:"fingerprint"`
		Graph       *graph.Graph `json:"graph"`
	}
	if code := postJSON(t, ts.URL+"/v1/generate", req, &out); code != http.StatusOK {
		t.Fatalf("generate status %d", code)
	}
	if out.Graph == nil || out.Graph.N() != out.Nodes || out.Graph.M() != out.Edges {
		t.Fatalf("generate payload inconsistent: %d/%d vs graph", out.Nodes, out.Edges)
	}
	if fmt.Sprintf("%016x", out.Graph.Fingerprint()) != out.Fingerprint {
		t.Fatalf("fingerprint mismatch")
	}

	var again struct {
		Fingerprint string `json:"fingerprint"`
	}
	postJSON(t, ts.URL+"/v1/generate", req, &again)
	if again.Fingerprint != out.Fingerprint {
		t.Fatalf("identical generate requests differ: %s vs %s", again.Fingerprint, out.Fingerprint)
	}
}

// TestGenerateUploadedGraph: an inline wire-format graph round-trips
// through generation.
func TestGenerateUploadedGraph(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	// A ring over 40 nodes.
	edges := make([]int32, 0, 80)
	for i := int32(0); i < 40; i++ {
		edges = append(edges, i, (i+1)%40)
	}
	req := map[string]any{
		"algorithm": "TmF",
		"eps":       2.0,
		"seed":      3,
		"source":    map[string]any{"graph": map[string]any{"n": 40, "edges": edges}},
	}
	var out struct {
		Nodes int `json:"nodes"`
	}
	if code := postJSON(t, ts.URL+"/v1/generate", req, &out); code != http.StatusOK {
		t.Fatalf("generate status %d", code)
	}
	if out.Nodes != 40 {
		t.Fatalf("synthetic graph spans %d nodes, want the source's 40", out.Nodes)
	}
}

// TestStructuredErrors: malformed bodies and unknown names return
// structured JSON errors with the right status codes.
func TestStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	post := func(path, body string) (int, map[string]apiError) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var e map[string]apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	cases := []struct {
		path, body, code string
	}{
		{"/v1/generate", `{not json`, "bad_request"},
		{"/v1/generate", `{"algorithm":"NoSuchAlg","eps":1,"source":{"dataset":"ER"}}`, "unknown_algorithm"},
		{"/v1/generate", `{"algorithm":"TmF","eps":-1,"source":{"dataset":"ER"}}`, "invalid_argument"},
		{"/v1/generate", `{"algorithm":"TmF","eps":1,"bogus_field":1}`, "bad_request"},
		{"/v1/generate", `{"algorithm":"TmF","eps":1,"source":{"dataset":"ER","graph":{"n":1,"edges":[]}}}`, "invalid_argument"},
		{"/v1/generate", `{"algorithm":"TmF","eps":1,"source":{"graph":{"n":3,"edges":[0,1,2]}}}`, "bad_request"},
		{"/v1/compare", `{"truth":{"dataset":"NoSuchDS"},"synthetic":{"dataset":"ER"}}`, "invalid_argument"},
		{"/v1/compare", `{"truth":{"dataset":"ER"},"synthetic":{"dataset":"ER"},"queries":["NoSuchQ"]}`, "unknown_query"},
		{"/v1/runs", `{"algorithms":["NoSuchAlg"]}`, "unknown_algorithm"},
		{"/v1/runs", `{"datasets":["NoSuchDS"]}`, "unknown_dataset"},
		{"/v1/runs", `{"epsilons":[0]}`, "invalid_argument"},
		// a subnormal budget no mechanism split can spend
		{"/v1/runs", `{"algorithms":["DP-dK"],"datasets":["ER"],"epsilons":[5e-324],"scale":0.02,"reps":1}`, "invalid_argument"},
		{"/v1/generate", `{"algorithm":"DP-dK","eps":5e-324,"source":{"graph":{"n":5,"edges":[0,1,1,2,2,3,3,4]}}}`, "invalid_argument"},
		{"/v1/runs", `{"scale":1.5}`, "invalid_argument"},
	}
	for _, tc := range cases {
		status, e := post(tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", tc.path, tc.body, status)
		}
		if e["error"].Code != tc.code {
			t.Errorf("POST %s %q: code %q, want %q", tc.path, tc.body, e["error"].Code, tc.code)
		}
		if e["error"].Message == "" {
			t.Errorf("POST %s %q: empty error message", tc.path, tc.body)
		}
	}

	if code, _ := doRequest(t, http.MethodGet, ts.URL+"/v1/runs/rdeadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown run status = %d, want 404", code)
	}
}

// TestCompareNodeCountMismatchIs400: when truth and synthetic differ in
// node count, a query set with a node-by-node score (CD, EVC, or the
// default all-queries set) answers 400 invalid_argument before any
// profile work, instead of panicking in the metric and dropping the
// connection; a set of whole-graph queries is still scored.
func TestCompareNodeCountMismatchIs400(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	truth := map[string]any{"graph": map[string]any{"n": 5, "edges": []int{0, 1, 1, 2, 2, 3, 3, 4}}}
	syn := map[string]any{"graph": map[string]any{"n": 6, "edges": []int{0, 1, 1, 2, 4, 5}}}
	for _, queries := range [][]string{{"CD"}, {"EVC"}, {"|E|", "evc"}, nil} {
		req := map[string]any{"truth": truth, "synthetic": syn, "seed": 3, "queries": queries}
		var e map[string]apiError
		if code := postJSON(t, ts.URL+"/v1/compare", req, &e); code != http.StatusBadRequest {
			t.Fatalf("queries %v: status %d, want 400", queries, code)
		}
		if e["error"].Code != "invalid_argument" || !strings.Contains(e["error"].Message, "node") {
			t.Fatalf("queries %v: error %+v, want invalid_argument naming the node counts", queries, e["error"])
		}
	}
	if n := s.compares.Load(); n != 0 {
		t.Fatalf("compares executed = %d after rejected requests, want 0", n)
	}
	var ok struct {
		Rows []core.CompareRow `json:"rows"`
	}
	req := map[string]any{"truth": truth, "synthetic": syn, "queries": []string{"|V|", "|E|", "GCC"}}
	if code := postJSON(t, ts.URL+"/v1/compare", req, &ok); code != http.StatusOK || len(ok.Rows) != 3 {
		t.Fatalf("whole-graph queries: status %d, %d rows; want 200 with 3 rows", code, len(ok.Rows))
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizeBodyIs413: a body over maxBodyBytes answers 413 too_large
// on every endpoint that decodes one. The body — maxBodyBytes+1 bytes of
// whitespace inside {…} — is streamed, never held in memory.
func TestOversizeBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	for _, path := range []string{"/v1/compare", "/v1/generate", "/v1/runs"} {
		body := io.MultiReader(strings.NewReader("{"), io.LimitReader(spaces{}, maxBodyBytes+1), strings.NewReader("}"))
		resp, err := http.Post(ts.URL+path, "application/json", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var e map[string]apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || e["error"].Code != "too_large" {
			t.Errorf("POST %s with an oversize body: status %d code %q, want 413 too_large", path, resp.StatusCode, e["error"].Code)
		}
	}
}

// TestAnnouncedBodySizeIsNotPreallocated: a client that announces a
// large Content-Length and sends a few bytes makes the server allocate
// for the bytes it sent, not for the size it announced. The body
// endpoints stream their decode; /v1/compare, which reads its body
// whole under its slot, presizes at most bodyPresizeCap.
func TestAnnouncedBodySizeIsNotPreallocated(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	// slack covers the handler's own allocations, which the race
	// detector inflates; the announced size is 16 times larger.
	const slack = 4 << 20
	for _, ep := range []struct {
		path  string
		bound uint64
	}{
		{"/v1/runs", slack},
		{"/v1/generate", slack},
		{"/v1/compare", bodyPresizeCap + slack},
	} {
		req := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(`{"`))
		req.ContentLength = maxBodyBytes
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s with a truncated body: status %d, want 400", ep.path, rec.Code)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > ep.bound {
			t.Errorf("POST %s announcing %d bytes and sending 2: allocated %d bytes, want at most %d", ep.path, maxBodyBytes, got, ep.bound)
		}
	}
}

// TestDecodeBodyRejectsTrailingData: each endpoint's valid body is
// accepted with trailing whitespace and rejected as bad_request with
// anything else after it — including a stray ']' or '}', before which
// json.Decoder.More reports no further values.
func TestDecodeBodyRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	for _, ep := range []struct{ path, body string }{
		{"/v1/compare", `{"truth":{"dataset":"ER","scale":0.02},"synthetic":{"dataset":"BA","scale":0.02},"queries":["|E|"]}`},
		{"/v1/generate", `{"algorithm":"TmF","eps":1,"source":{"dataset":"ER","scale":0.02}}`},
		{"/v1/runs", `{"algorithms":["TmF"],"datasets":["ER"],"epsilons":[1],"queries":["|E|"],"reps":1,"scale":0.02}`},
	} {
		for _, tail := range []string{"\n", "]", "}", " ]", "}\n", " {}", "x"} {
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(ep.body+tail))
			if err != nil {
				t.Fatalf("POST %s: %v", ep.path, err)
			}
			var e map[string]apiError
			_ = json.NewDecoder(resp.Body).Decode(&e)
			_ = resp.Body.Close()
			if strings.TrimSpace(tail) == "" {
				if resp.StatusCode >= 300 {
					t.Errorf("POST %s with tail %q: status %d (%v), want success", ep.path, tail, resp.StatusCode, e["error"])
				}
				continue
			}
			if resp.StatusCode != http.StatusBadRequest || e["error"].Code != "bad_request" {
				t.Errorf("POST %s with tail %q: status %d code %q, want 400 bad_request", ep.path, tail, resp.StatusCode, e["error"].Code)
			}
		}
	}
}

// TestCompareCache: the second identical comparison is served from the
// content-addressed cache without recomputation.
func TestCompareCache(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())
	req := map[string]any{
		"truth":     map[string]any{"dataset": "ER", "scale": 0.05, "seed": 2001},
		"synthetic": map[string]any{"dataset": "BA", "scale": 0.05, "seed": 2001},
		"seed":      9,
		"queries":   []string{"|E|", "GCC", "d_avg"},
	}
	var first struct {
		Rows   []core.CompareRow `json:"rows"`
		Cached bool              `json:"cached"`
	}
	if code := postJSON(t, ts.URL+"/v1/compare", req, &first); code != http.StatusOK {
		t.Fatalf("compare status %d", code)
	}
	if len(first.Rows) != 3 || first.Cached {
		t.Fatalf("first compare = %d rows cached=%v", len(first.Rows), first.Cached)
	}
	if n := s.compares.Load(); n != 1 {
		t.Fatalf("compares executed = %d, want 1", n)
	}
	before := resultCacheStats(t, ts.URL)

	var second struct {
		Rows   []core.CompareRow `json:"rows"`
		Cached bool              `json:"cached"`
	}
	postJSON(t, ts.URL+"/v1/compare", req, &second)
	if !second.Cached {
		t.Fatalf("identical compare not served from cache")
	}
	if n := s.compares.Load(); n != 1 {
		t.Fatalf("cache hit recomputed: compares executed = %d, want 1", n)
	}
	if after := resultCacheStats(t, ts.URL); after.Hits != before.Hits+1 || after.Entries != before.Entries {
		t.Fatalf("/healthz result_cache %+v after a repeated compare, want one more hit than %+v", after, before)
	}
	for i := range first.Rows {
		if first.Rows[i] != second.Rows[i] {
			t.Fatalf("cached row %d differs: %+v vs %+v", i, first.Rows[i], second.Rows[i])
		}
	}
}

// TestCompareReusesSyntheticPasses: one inline synthetic graph posted
// twice, under a new seed and a new query order, is computed twice (the
// result cache cannot answer) but the second request reuses the graph's
// seed-free passes from the profile memo. Each response's rows are the
// bytes a fresh server returns for the same body.
func TestCompareReusesSyntheticPasses(t *testing.T) {
	r := rand.New(rand.NewSource(2301))
	randomGraph := func(m int) *graph.Graph {
		edges := make([]graph.Edge, 0, m)
		for len(edges) < m {
			if u, v := int32(r.Intn(200)), int32(r.Intn(200)); u != v {
				edges = append(edges, graph.Canon(u, v))
			}
		}
		return graph.FromEdges(200, edges)
	}
	truth, syn := randomGraph(500), randomGraph(600)
	body := func(seed int64, queries ...string) map[string]any {
		return map[string]any{
			"truth":     map[string]any{"graph": truth},
			"synthetic": map[string]any{"graph": syn},
			"seed":      seed,
			"queries":   queries,
		}
	}
	bodies := []map[string]any{
		body(5, "CD", "|E|", "GCC", "Diam", "EVC"),
		body(6, "EVC", "Diam", "GCC", "|E|", "CD"),
	}
	type response struct {
		Rows   json.RawMessage `json:"rows"`
		Cached bool            `json:"cached"`
	}
	type health struct {
		ProfileCache     lru.Stats `json:"profile_cache"`
		ComparesExecuted int64     `json:"compares_executed"`
	}
	_, ts := newTestServer(t, t.TempDir())
	got := make([]response, len(bodies))
	for i, b := range bodies {
		var before, after health
		getJSON(t, ts.URL+"/healthz", &before)
		if code := postJSON(t, ts.URL+"/v1/compare", b, &got[i]); code != http.StatusOK || got[i].Cached {
			t.Fatalf("compare %d: status %d cached=%v", i, code, got[i].Cached)
		}
		getJSON(t, ts.URL+"/healthz", &after)
		// Structure, triangles, exact distances and EVC are seed-free on
		// both sides; only Louvain draws from the new seed.
		if i > 0 && after.ProfileCache.Hits < before.ProfileCache.Hits+8 {
			t.Errorf("compare %d: profile_cache hits %d -> %d, want at least 8 more", i, before.ProfileCache.Hits, after.ProfileCache.Hits)
		}
		if after.ComparesExecuted != int64(i+1) {
			t.Errorf("compare %d: compares_executed = %d, want %d", i, after.ComparesExecuted, i+1)
		}
	}
	for i, b := range bodies {
		_, fresh := newTestServer(t, t.TempDir())
		var want response
		if code := postJSON(t, fresh.URL+"/v1/compare", b, &want); code != http.StatusOK {
			t.Fatalf("fresh compare %d: status %d", i, code)
		}
		if !bytes.Equal(got[i].Rows, want.Rows) {
			t.Errorf("compare %d rows differ from a fresh server's:\n got %s\nwant %s", i, got[i].Rows, want.Rows)
		}
	}
}

// TestServersDoNotShareProfileMemo: each Server owns its profile memo.
// A run and a compare that fill one server's memo leave a second server
// in the same process cold: the same run and compare there miss every
// pass, exactly as on the first, and the first server's counters stay
// where they were.
func TestServersDoNotShareProfileMemo(t *testing.T) {
	profileCache := func(ts *httptest.Server) lru.Stats {
		var h struct {
			ProfileCache lru.Stats `json:"profile_cache"`
		}
		getJSON(t, ts.URL+"/healthz", &h)
		return h.ProfileCache
	}
	compare := map[string]any{
		"truth":     map[string]any{"dataset": "ER", "scale": 0.02, "seed": 2401},
		"synthetic": map[string]any{"dataset": "BA", "scale": 0.02, "seed": 2401},
		"seed":      3,
		"queries":   []string{"|E|", "GCC", "CD"},
	}
	_, first := newTestServer(t, t.TempDir())
	_, second := newTestServer(t, t.TempDir())
	var filled lru.Stats
	for i, ts := range []*httptest.Server{first, second} {
		var st jobStatus
		if code := postJSON(t, ts.URL+"/v1/runs", tinyRun(2402), &st); code != http.StatusAccepted {
			t.Fatalf("server %d: submit status %d", i, code)
		}
		waitState(t, ts.URL, st.ID, StateDone)
		if code := postJSON(t, ts.URL+"/v1/compare", compare, nil); code != http.StatusOK {
			t.Fatalf("server %d: compare status %d", i, code)
		}
		got := profileCache(ts)
		if got.Hits != 0 || got.Misses == 0 {
			t.Fatalf("server %d: profile_cache %+v, want misses and no hits", i, got)
		}
		if i == 0 {
			filled = got
		} else if got != filled {
			t.Fatalf("second server: profile_cache %+v, want the first server's %+v", got, filled)
		}
	}
	if got := profileCache(first); got != filled {
		t.Fatalf("first server: profile_cache %+v after the second server's work, want %+v", got, filled)
	}
}

// postRaw posts body to url as is and returns the status and the
// response bytes.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading the response: %v", url, err)
	}
	return resp.StatusCode, data
}

// cacheHealth is the part of /healthz the request-memo tests read.
type cacheHealth struct {
	ResultCache      lru.Stats `json:"result_cache"`
	RequestMemo      lru.Stats `json:"request_memo"`
	ComparesExecuted int64     `json:"compares_executed"`
}

// TestCompareBodyMemo: a byte-identical compare body is answered from
// the request memo with exactly the bytes of the fingerprint-keyed hit a
// whitespace variant of the body gets, and each answer counts one
// result_cache hit. The variant misses the memo, since its bytes differ,
// but its fingerprints still find the cached rows.
func TestCompareBodyMemo(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	body := `{"truth":{"dataset":"ER","scale":0.05,"seed":2002},"synthetic":{"dataset":"BA","scale":0.05,"seed":2002},"seed":3,"queries":["|E|","GCC","CD"]}`
	variant := strings.Replace(body, `"seed":3,`, `"seed": 3, `, 1)
	health := func() cacheHealth {
		var h cacheHealth
		if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
			t.Fatalf("healthz status %d", code)
		}
		return h
	}
	var first struct {
		Rows   json.RawMessage `json:"rows"`
		Cached bool            `json:"cached"`
	}
	code, data := postRaw(t, ts.URL+"/v1/compare", body)
	if err := json.Unmarshal(data, &first); code != http.StatusOK || err != nil || first.Cached {
		t.Fatalf("first compare: status %d cached=%v err=%v: %s", code, first.Cached, err, data)
	}

	h0 := health()
	code, byKey := postRaw(t, ts.URL+"/v1/compare", variant)
	h1 := health()
	if code != http.StatusOK || h1.ResultCache.Hits != h0.ResultCache.Hits+1 {
		t.Fatalf("whitespace variant: status %d, result_cache %+v -> %+v; want one more hit", code, h0.ResultCache, h1.ResultCache)
	}
	if h1.RequestMemo.Hits != h0.RequestMemo.Hits || h1.RequestMemo.Misses != h0.RequestMemo.Misses+1 {
		t.Fatalf("whitespace variant: request_memo %+v -> %+v; want one more miss", h0.RequestMemo, h1.RequestMemo)
	}

	code, byDigest := postRaw(t, ts.URL+"/v1/compare", body)
	h2 := health()
	if code != http.StatusOK || h2.ResultCache.Hits != h1.ResultCache.Hits+1 || h2.ResultCache.Misses != h1.ResultCache.Misses {
		t.Fatalf("repeat: status %d, result_cache %+v -> %+v; want exactly one more hit", code, h1.ResultCache, h2.ResultCache)
	}
	if h2.RequestMemo.Hits != h1.RequestMemo.Hits+1 {
		t.Fatalf("repeat: request_memo %+v -> %+v; want one more hit", h1.RequestMemo, h2.RequestMemo)
	}
	if !bytes.Equal(byDigest, byKey) {
		t.Fatalf("memo hit answered\n%s\nthe fingerprint-keyed hit\n%s", byDigest, byKey)
	}
	var repeat struct {
		Rows   json.RawMessage `json:"rows"`
		Cached bool            `json:"cached"`
	}
	if err := json.Unmarshal(byDigest, &repeat); err != nil || !repeat.Cached || !bytes.Equal(repeat.Rows, first.Rows) {
		t.Fatalf("repeat = %s (err %v), want the first rows with cached=true", byDigest, err)
	}
	if h2.ComparesExecuted != 1 {
		t.Fatalf("compares executed = %d, want 1", h2.ComparesExecuted)
	}
}

// TestCompareBodyMemoSkipsErrors: an error answer never enters the
// request memo, so a bad body sent twice is decoded and rejected twice,
// and an oversize body is still 413 before any memo lookup, also when
// its Content-Length announces the size.
func TestCompareBodyMemoSkipsErrors(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	memo := func() lru.Stats {
		var h cacheHealth
		getJSON(t, ts.URL+"/healthz", &h)
		return h.RequestMemo
	}
	for _, bad := range []struct{ body, code string }{
		{`{"truth":{"dataset":"ER","scale":0.02},"synthetic":{"dataset":"ER","scale":0.02},"queries":["NoSuchQ"]}`, "unknown_query"},
		{`{"truth":{"dataset":"ER","scale":0.02},"synthetic":{"graph":{"n":3,"edges":[0,1]}},"queries":["CD"]}`, "invalid_argument"},
		{`{"truth":{"dataset":"ER","scale":0.02},"synthetic":{"dataset":"ER"},"bogus":1}`, "bad_request"},
	} {
		before := memo()
		var answers [2][]byte
		for i := range answers {
			var code int
			code, answers[i] = postRaw(t, ts.URL+"/v1/compare", bad.body)
			var e map[string]apiError
			if err := json.Unmarshal(answers[i], &e); code != http.StatusBadRequest || err != nil || e["error"].Code != bad.code {
				t.Fatalf("%s, send %d: status %d %s, want 400 %s", bad.body, i, code, answers[i], bad.code)
			}
		}
		if after := memo(); after.Misses != before.Misses+2 || after.Hits != before.Hits || after.Entries != before.Entries {
			t.Fatalf("%s sent twice: request_memo %+v -> %+v, want two misses and no entry", bad.body, before, after)
		}
		if !bytes.Equal(answers[0], answers[1]) {
			t.Fatalf("%s: the two error answers differ:\n%s\n%s", bad.body, answers[0], answers[1])
		}
	}

	before := memo()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compare",
		io.MultiReader(strings.NewReader("{"), io.LimitReader(spaces{}, maxBodyBytes), strings.NewReader("}")))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxBodyBytes + 2
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST oversize: %v", err)
	}
	var e map[string]apiError
	_ = json.NewDecoder(resp.Body).Decode(&e)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || e["error"].Code != "too_large" {
		t.Fatalf("oversize body with Content-Length: status %d code %q, want 413 too_large", resp.StatusCode, e["error"].Code)
	}
	if after := memo(); after != before {
		t.Fatalf("oversize body touched the request memo: %+v -> %+v", before, after)
	}
}

// resultCacheStats reads the result_cache counters from /healthz.
func resultCacheStats(t *testing.T, base string) lru.Stats {
	t.Helper()
	var health struct {
		ResultCache lru.Stats `json:"result_cache"`
	}
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	return health.ResultCache
}

// TestRunLifecycle: submit → poll → SSE → JSON result → HTML report,
// plus duplicate-submission dedup with no recomputation.
func TestRunLifecycle(t *testing.T) {
	s, ts := newTestServer(t, t.TempDir())

	var st jobStatus
	code := postJSON(t, ts.URL+"/v1/runs", tinyRun(3001), &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if st.Total != 3 || st.ID == "" {
		t.Fatalf("submitted job = %+v", st)
	}

	final := waitState(t, ts.URL, st.ID, StateDone)
	if final.Completed != 3 {
		t.Fatalf("done job reports %d/%d cells", final.Completed, final.Total)
	}
	if n := s.jobs.started.Load(); n != 1 {
		t.Fatalf("runs executed = %d, want 1", n)
	}

	// JSON result.
	var res struct {
		Cells []struct {
			Algorithm string    `json:"algorithm"`
			Epsilon   float64   `json:"epsilon"`
			Queries   []string  `json:"queries"`
			Errors    []float64 `json:"errors"`
			Err       string    `json:"err"`
		} `json:"cells"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("result has %d cells, want 3", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Err != "" || len(c.Errors) != 2 || c.Queries[0] != "|E|" {
			t.Fatalf("bad cell %+v", c)
		}
	}

	// HTML report.
	codeR, body := doRequest(t, http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/report")
	if codeR != http.StatusOK || !strings.Contains(body, "<html") || !strings.Contains(body, "PGB") {
		t.Fatalf("report status %d, body %.80q", codeR, body)
	}

	// SSE: a late subscriber replays every progress line and ends on a
	// state event.
	_, events := doRequest(t, http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/events")
	if strings.Count(events, "event: progress") < 3 {
		t.Fatalf("SSE replay misses cell lines:\n%s", events)
	}
	if !strings.Contains(events, "] cell") {
		t.Fatalf("SSE replay has no per-cell progress line:\n%s", events)
	}
	if !strings.HasSuffix(strings.TrimSpace(events), "event: state\ndata: done") {
		t.Fatalf("SSE stream does not end with the terminal state:\n%s", events)
	}

	// Identical resubmission: absorbed (200), instant, no recomputation.
	var dup jobStatus
	if code := postJSON(t, ts.URL+"/v1/runs", tinyRun(3001), &dup); code != http.StatusOK {
		t.Fatalf("duplicate submit status %d, want 200", code)
	}
	if dup.ID != st.ID || dup.State != StateDone {
		t.Fatalf("duplicate submission = %+v, want done job %s", dup, st.ID)
	}
	if n := s.jobs.started.Load(); n != 1 {
		t.Fatalf("duplicate submission recomputed: runs executed = %d", n)
	}

	// A different seed is a different content address.
	var other jobStatus
	if code := postJSON(t, ts.URL+"/v1/runs", tinyRun(3002), &other); code != http.StatusAccepted {
		t.Fatalf("distinct submit status %d, want 202", code)
	}
	if other.ID == st.ID {
		t.Fatalf("distinct configs share a job id")
	}
	waitState(t, ts.URL, other.ID, StateDone)
}

// TestRunCancelResubmit: a run cancelled mid-flight stops, reports
// cancelled, refuses its result with 410, and a resubmission resumes it
// to completion from the manifest.
func TestRunCancelResubmit(t *testing.T) {
	releaseA := gateA.arm()
	s, ts := newTestServer(t, t.TempDir())

	var st jobStatus
	if code := postJSON(t, ts.URL+"/v1/runs", tinyRun(3101, "GateA"), &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts.URL, st.ID, StateRunning)

	// The run is blocked inside the truth-profile GateA compute. Cancel,
	// then release the gate so the in-flight computation can unwind.
	if code, body := doRequest(t, http.MethodDelete, ts.URL+"/v1/runs/"+st.ID); code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", code, body)
	}
	releaseA()
	cancelled := waitState(t, ts.URL, st.ID, StateCancelled)
	if cancelled.Completed != 0 {
		t.Fatalf("cancelled-before-cells job reports %d completed cells", cancelled.Completed)
	}
	if code, _ := doRequest(t, http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/result"); code != http.StatusGone {
		t.Fatalf("result of cancelled run = %d, want 410", code)
	}

	// Resubmission requeues the same job and resumes from its manifest.
	var re jobStatus
	if code := postJSON(t, ts.URL+"/v1/runs", tinyRun(3101, "GateA"), &re); code != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200 (absorbed)", code)
	}
	if re.ID != st.ID {
		t.Fatalf("resubmission created a new job %s, want %s", re.ID, st.ID)
	}
	done := waitState(t, ts.URL, st.ID, StateDone)
	if done.Completed != 3 {
		t.Fatalf("resumed job completed %d/3 cells", done.Completed)
	}
	if n := s.jobs.started.Load(); n != 2 {
		t.Fatalf("runs executed = %d, want 2 (original + resume)", n)
	}

	// Cancelling a finished job is a conflict.
	if code, _ := doRequest(t, http.MethodDelete, ts.URL+"/v1/runs/"+st.ID); code != http.StatusConflict {
		t.Fatalf("cancel of done job = %d, want 409", code)
	}
}

// stallWriter is an SSE response writer whose first Write blocks until
// release is closed, closing stalled when it starts to block: a client
// that stops reading while the run goes on.
type stallWriter struct {
	*httptest.ResponseRecorder
	once    sync.Once
	stalled chan struct{}
	release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.stalled)
		<-w.release
	})
	return w.ResponseRecorder.Write(p)
}

// streamStalled submits a job to a manager with no pool workers, logs
// one line, and starts the job's SSE handler on a stallWriter. It
// returns once the handler is blocked writing that line; done closes
// when the handler returns.
func streamStalled(t *testing.T, seed int64) (m *jobManager, j *job, w *stallWriter, done chan struct{}) {
	t.Helper()
	m = newJobManager(t.TempDir(), 0, 1, nil, lru.New[string, any](4), nil, func(string, ...any) {})
	t.Cleanup(m.close)
	j, _, err := m.submit(core.Config{Seed: seed}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	m.progress(j, "line 0")
	w = &stallWriter{ResponseRecorder: httptest.NewRecorder(), stalled: make(chan struct{}), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r := httptest.NewRequest(http.MethodGet, "/v1/runs/"+j.id+"/events", nil).WithContext(ctx)
	r.SetPathValue("id", j.id)
	done = make(chan struct{})
	go func() {
		defer close(done)
		(&Server{jobs: m}).handleRunEvents(w, r)
	}()
	<-w.stalled
	return m, j, w, done
}

// waitHandler waits for the SSE handler to return, failing the test if
// it never ends the stream.
func waitHandler(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE handler did not end the stream")
	}
}

// TestRunEventsStalledSubscriberLosesNothing: a subscriber that stops
// reading while the run logs hundreds of lines and finishes still gets
// every line, in order, and then the state event.
func TestRunEventsStalledSubscriberLosesNothing(t *testing.T) {
	m, j, w, done := streamStalled(t, 5101)
	const lines = 300
	for i := 1; i < lines; i++ {
		m.progress(j, fmt.Sprintf("line %d", i))
	}
	if err := m.cancelJob(j); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	waitHandler(t, done)

	var want strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&want, "event: progress\ndata: line %d\n\n", i)
	}
	want.WriteString("event: state\ndata: cancelled\n\n")
	if got := w.Body.String(); got != want.String() {
		t.Fatalf("stalled subscriber got %d progress events, want %d; stream ends %q",
			strings.Count(got, "event: progress"), lines, got[max(0, len(got)-80):])
	}
}

// TestRunEventsEndAtJoinedRunAcrossResubmit: a subscriber that joined
// before a cancel ends with the joined run's end state, cancelled,
// although a resubmission has already requeued the job when the
// subscriber looks again.
func TestRunEventsEndAtJoinedRunAcrossResubmit(t *testing.T) {
	m, j, w, done := streamStalled(t, 5102)
	if err := m.cancelJob(j); err != nil {
		t.Fatal(err)
	}
	if re, absorbed, err := m.submit(j.cfg); err != nil || !absorbed || re != j {
		t.Fatalf("resubmit: absorbed=%t err=%v same=%t; want the job requeued", absorbed, err, re == j)
	}
	close(w.release)
	waitHandler(t, done)
	if got := w.Body.String(); !strings.HasPrefix(got, "event: progress\ndata: line 0\n\n") || !strings.HasSuffix(got, "event: state\ndata: cancelled\n\n") {
		t.Fatalf("stream = %q; want the logged line, then the joined run's end state, cancelled", got)
	}
}

// TestRunRecoveryAfterRestart is the acceptance scenario: a run is
// cancelled after completing some cells, the server is shut down, and a
// new server over the same data directory adopts the manifest and
// resumes the job to completion — recomputing only the missing cells.
func TestRunRecoveryAfterRestart(t *testing.T) {
	releaseB := gateB.arm()
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	var st jobStatus
	if code := postJSON(t, ts1.URL+"/v1/runs", tinyRun(3201, "GateB"), &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// GateB blocks its third compute: truth profile, cell 1, then cell 2
	// hangs. Wait for cell 1 to be durably finished, cancel, release.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur jobStatus
		getJSON(t, ts1.URL+"/v1/runs/"+st.ID, &cur)
		if cur.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed its first cell")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code, body := doRequest(t, http.MethodDelete, ts1.URL+"/v1/runs/"+st.ID); code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", code, body)
	}
	releaseB()
	cancelled := waitState(t, ts1.URL, st.ID, StateCancelled)
	if cancelled.Completed >= 3 {
		t.Fatalf("cancelled job reports the full grid complete")
	}

	// "Kill" the server. The manifest survives in dir.
	ts1.Close()
	s1.Close()
	manifest := filepath.Join(dir, st.ID+".jsonl")
	if _, err := os.Stat(manifest); err != nil {
		t.Fatalf("manifest missing after shutdown: %v", err)
	}

	// Restart over the same data dir: the job is adopted and resumed.
	s2, ts2 := newTestServer(t, dir)
	var recovered jobStatus
	if code := getJSON(t, ts2.URL+"/v1/runs/"+st.ID, &recovered); code != http.StatusOK {
		t.Fatalf("recovered job not found after restart: %d", code)
	}
	if !recovered.Recovered {
		t.Fatalf("job not marked recovered: %+v", recovered)
	}
	done := waitState(t, ts2.URL, st.ID, StateDone)
	if done.Completed != 3 {
		t.Fatalf("recovered job completed %d/3 cells", done.Completed)
	}
	if n := s2.jobs.started.Load(); n != 1 {
		t.Fatalf("recovery executed %d runs, want 1 (the resume)", n)
	}
	var res struct {
		Cells []struct {
			Err string `json:"err"`
		} `json:"cells"`
	}
	if code := getJSON(t, ts2.URL+"/v1/runs/"+st.ID+"/result", &res); code != http.StatusOK || len(res.Cells) != 3 {
		t.Fatalf("recovered result = %d, %d cells", code, len(res.Cells))
	}
	for i, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("recovered cell %d failed: %s", i, c.Err)
		}
	}
}

// A manifest written before CheckEpsilon refused subnormal budgets can
// still carry one (ε = 5e-324, whose DP-dK edge-count share underflows
// to 0). A server that adopts it must stay up and fail the job before
// any work starts, with an error that names the budget, not panic on
// every restart.
func TestAdoptedSubnormalEpsilonRunFails(t *testing.T) {
	cfg := core.Config{
		Algorithms: []string{"DP-dK"},
		Datasets:   []string{"ER"},
		Epsilons:   []float64{1},
		Queries:    []core.QueryID{core.QNumEdges},
		Reps:       1,
		Scale:      0.02,
		Seed:       3301,
	}.Normalized()
	subnormal := cfg
	subnormal.Epsilons = []float64{5e-324}

	// A run cancelled before its first dataset leaves the header-only
	// manifest a crashed server would leave behind; its budget and
	// digest are then rewritten to the subnormal run's.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := cfg
	run.Context = ctx
	run.CheckpointPath = filepath.Join(t.TempDir(), "header.jsonl")
	if _, err := core.Run(run); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	header, err := os.ReadFile(run.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]string{{`"epsilons":[1]`, `"epsilons":[5e-324]`}, {core.ConfigDigest(cfg), core.ConfigDigest(subnormal)}} {
		if !bytes.Contains(header, []byte(r[0])) {
			t.Fatalf("manifest header %s has no %s", header, r[0])
		}
		header = bytes.Replace(header, []byte(r[0]), []byte(r[1]), 1)
	}
	dir := t.TempDir()
	id := jobID(core.ConfigDigest(subnormal))
	if err := os.WriteFile(filepath.Join(dir, id+".jsonl"), header, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, dir)
	failed := waitState(t, ts.URL, id, StateFailed)
	if !failed.Recovered || failed.Completed != 0 || !strings.Contains(failed.Error, "got 5e-324") {
		t.Fatalf("adopted job = %+v; want recovered, no cell complete, and an error naming the budget", failed)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("health after the run = %d", code)
	}
}
