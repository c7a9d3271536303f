package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"pgb"
	"pgb/internal/core"
	"pgb/internal/graph"
)

// compare-served: one op is one POST /v1/compare to a `pgb serve -jobs 2`
// child, from two closed-loop clients. The truth graph is a dataset
// reference the server resolves; the synthetic graph is sent inline and
// made by the harness — an edge-perturbed copy of the truth graph drawn
// from the run's seed — so the inputs do not depend on any mechanism.
// The request mix is fixed: half "full" (all fifteen queries, fresh
// seed: both server caches miss), a quarter "structural" (the
// seed-invariant queries in a query order no earlier request used: the
// truth-profile cache hits, the result cache misses) and a quarter
// "repeat" (a byte-identical earlier full body: the result cache hits).

var compareDatasets = []string{"Facebook", "Wiki", "HepPh", "Gnutella", "ER"}

// structuralQueries are the queries whose profile passes draw no
// randomness, so their truth profile is shared by every request seed.
var structuralQueries = []string{"|V|", "|E|", "Tri", "d_avg", "d_var", "DegDist", "GCC", "ACC", "Ass", "EVC"}

const (
	compareScale       = 0.1
	compareDatasetSeed = 42
	compareVariants    = 8   // perturbed synthetic graphs per dataset
	comparePerturb     = 0.1 // share of edges each variant rewires
)

// Request classes.
const (
	classFull       = "full"
	classStructural = "structural"
	classRepeat     = "repeat"
)

// compareReq is one request of the sequence.
type compareReq struct {
	Class   string `json:"class"`
	DS      int    `json:"ds"`
	Variant int    `json:"variant"`
	Seed    int64  `json:"seed"`
	// Perm numbers the query order of a structural request; distinct
	// requests get distinct orders, so their result-cache keys differ.
	// Order 0 is kept for the set-up's warm-up requests.
	Perm int `json:"perm,omitempty"`
	// Target is the index of the full request a repeat re-sends.
	Target int `json:"target,omitempty"`
}

// planCompare returns the first n requests of the run's sequence. Each
// block of four holds two full, one structural and one repeat request
// in a seed-shuffled order; a repeat re-sends the latest full request at
// least two places earlier.
func planCompare(seed int64, n int) []compareReq {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamComparePlan)))
	plan := make([]compareReq, 0, n)
	var fulls []int
	perm := 0
	for b := 0; len(plan) < n; b++ {
		order := []string{classFull, classStructural, classFull, classRepeat}
		if b > 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, class := range order {
			if len(plan) == n {
				break
			}
			i := len(plan)
			r := compareReq{Class: class}
			switch class {
			case classFull, classStructural:
				r.DS = rng.Intn(len(compareDatasets))
				r.Variant = rng.Intn(compareVariants)
				r.Seed = rng.Int63n(1<<40) + 1
				if class == classFull {
					fulls = append(fulls, i)
				} else {
					perm++
					r.Perm = perm
				}
			case classRepeat:
				for k := len(fulls) - 1; k >= 0; k-- {
					if fulls[k] <= i-2 {
						r.Target = fulls[k]
						break
					}
				}
			}
			plan = append(plan, r)
		}
	}
	return plan
}

// compareInputs are the graphs a compare-served run sends.
type compareInputs struct {
	truth   []*pgb.Graph
	syn     [][]*pgb.Graph
	synJSON [][][]byte
	// order is the seed-shuffled base order structural permutations
	// start from.
	order []string
}

// newCompareInputs loads the truth graphs and draws the perturbed
// synthetic variants; tr, when non-nil, records the dataset loads.
func newCompareInputs(tr *tracer, seed int64) (*compareInputs, error) {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamCompareInputs)))
	in := &compareInputs{}
	for _, name := range compareDatasets {
		id := tr.begin("datasets.load", -1, -1)
		g, err := pgb.Load(pgb.Source{Dataset: name, Scale: compareScale, Seed: compareDatasetSeed})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		syn := make([]*pgb.Graph, compareVariants)
		js := make([][]byte, compareVariants)
		for v := range syn {
			syn[v] = perturb(g, comparePerturb, rng)
			if js[v], err = json.Marshal(syn[v]); err != nil {
				return nil, err
			}
		}
		in.truth = append(in.truth, g)
		in.syn = append(in.syn, syn)
		in.synJSON = append(in.synJSON, js)
	}
	in.order = append([]string(nil), structuralQueries...)
	rng.Shuffle(len(in.order), func(i, j int) { in.order[i], in.order[j] = in.order[j], in.order[i] })
	return in, nil
}

// perturb returns a copy of g with a share frac of its edges replaced by
// uniformly drawn non-edges.
func perturb(g *pgb.Graph, frac float64, rng *rand.Rand) *pgb.Graph {
	edges := g.Edges()
	n := g.N()
	k := int(frac * float64(len(edges)))
	present := make(map[pgb.Edge]bool, len(edges)+k)
	for _, e := range edges {
		present[e] = true
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	kept := edges[k:]
	for added := 0; added < k; {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		e := pgb.Edge{U: min(u, v), V: max(u, v)}
		if present[e] {
			continue
		}
		present[e] = true
		kept = append(kept, e)
		added++
	}
	return pgb.NewGraphFromEdges(n, kept)
}

// queries returns the query symbols of a request: nil (all fifteen) for
// a full request.
func (in *compareInputs) queries(r compareReq) []string {
	if r.Class != classStructural {
		return nil
	}
	return nthPermutation(in.order, r.Perm)
}

// body renders the request's JSON; a repeat renders its target's.
func (in *compareInputs) body(r compareReq) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"truth":{"dataset":%q,"scale":%g,"seed":%d},"synthetic":{"graph":`,
		compareDatasets[r.DS], compareScale, compareDatasetSeed)
	b.Write(in.synJSON[r.DS][r.Variant])
	fmt.Fprintf(&b, `},"seed":%d`, r.Seed)
	if qs := in.queries(r); qs != nil {
		data, _ := json.Marshal(qs) // a []string always marshals
		b.WriteString(`,"queries":`)
		b.Write(data)
	}
	b.WriteString("}")
	return b.Bytes()
}

// nthPermutation returns permutation k of base in the factorial number
// system: distinct k below len(base)! give distinct orders.
func nthPermutation(base []string, k int) []string {
	pool := append([]string(nil), base...)
	out := make([]string, 0, len(base))
	f := 1
	for i := 2; i < len(pool); i++ {
		f *= i
	}
	for len(pool) > 0 {
		j := k / f
		k %= f
		out = append(out, pool[j])
		pool = append(pool[:j], pool[j+1:]...)
		if len(pool) > 0 {
			f /= len(pool)
		}
	}
	return out
}

// compareRun drives one server through the sequence.
type compareRun struct {
	in   *compareInputs
	plan []compareReq
	srv  *server
	// done[i] is closed once request i has completed; a repeat waits on
	// its target so that it is sent only after the result is cached.
	done []chan struct{}
	// rows[i] is the raw "rows" array of successful response i.
	rows [][]byte
	// ms[i] is the latency of request i.
	ms []float64
}

func newCompareRun(in *compareInputs, plan []compareReq, srv *server) *compareRun {
	c := &compareRun{in: in, plan: plan, srv: srv, done: make([]chan struct{}, len(plan)),
		rows: make([][]byte, len(plan)), ms: make([]float64, len(plan))}
	for i := range c.done {
		c.done[i] = make(chan struct{})
	}
	return c
}

// wireRow is one row of a compare response.
type wireRow struct {
	Query        string  `json:"query"`
	Metric       string  `json:"metric"`
	TrueValue    float64 `json:"true_value"`
	SynValue     float64 `json:"syn_value"`
	Error        float64 `json:"error"`
	HigherBetter bool    `json:"higher_better,omitempty"`
}

// do sends request i and checks the response.
func (c *compareRun) do(i int, tr *tracer) opResult {
	defer close(c.done[i])
	r := c.plan[i]
	src := r
	if r.Class == classRepeat {
		<-c.done[r.Target]
		src = c.plan[r.Target]
	}
	body := c.in.body(src)
	op := tr.begin(opSpan, -1, i)
	start := time.Now()
	id := tr.begin("server.compare."+r.Class, op, i)
	status, data, err := c.srv.request(http.MethodPost, "/v1/compare", body)
	tr.end(id)
	c.ms[i] = durMs(time.Since(start))
	res := opResult{Index: i, Ms: c.ms[i]}
	if err == nil {
		res.Value, err = c.check(i, r, status, data)
	}
	tr.end(op)
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func (c *compareRun) check(i int, r compareReq, status int, data []byte) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("%s request: status %d: %s", r.Class, status, trimBody(data))
	}
	var resp struct {
		Rows   json.RawMessage `json:"rows"`
		Cached bool            `json:"cached"`
	}
	var rows []wireRow
	if err := json.Unmarshal(data, &resp); err != nil {
		return "", fmt.Errorf("%s request: undecodable body: %w", r.Class, err)
	}
	if err := json.Unmarshal(resp.Rows, &rows); err != nil {
		return "", fmt.Errorf("%s request: undecodable rows: %w", r.Class, err)
	}
	want := c.in.queries(r)
	if want == nil {
		want = pgb.Queries()
	}
	if len(rows) != len(want) {
		return "", fmt.Errorf("%s request: %d rows, want %d", r.Class, len(rows), len(want))
	}
	for k, row := range rows {
		if row.Query != want[k] {
			return "", fmt.Errorf("%s request: row %d is %q, want %q", r.Class, k, row.Query, want[k])
		}
	}
	if r.Class == classRepeat {
		if !resp.Cached {
			return "", fmt.Errorf("repeat of request %d was not served from the result cache", r.Target)
		}
		if !bytes.Equal(resp.Rows, c.rows[r.Target]) {
			return "", fmt.Errorf("repeat of request %d returned different rows", r.Target)
		}
	}
	c.rows[i] = resp.Rows
	return hashHex(resp.Rows), nil
}

// warmup sends the set-up's warm-up requests — one full request, one
// structural request per dataset (so every truth graph is resolved and
// its structural profile cached), and one repeat — outside the
// sequence: its seed and query order are never used by it.
func (in *compareInputs) warmup(srv *server) error {
	full := compareReq{Class: classFull, DS: len(compareDatasets) - 1, Seed: -1}
	reqs := []compareReq{full}
	for ds := range compareDatasets {
		reqs = append(reqs, compareReq{Class: classStructural, DS: ds, Seed: -1})
	}
	reqs = append(reqs, full)
	for _, r := range reqs {
		status, data, err := srv.request(http.MethodPost, "/v1/compare", in.body(r))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s request: status %d: %s", r.Class, status, trimBody(data))
		}
	}
	return nil
}

// compareServer sets up a server over a fresh data directory: launch,
// /healthz, and the warm-up requests.
func (e *env) compareServer(in *compareInputs) (*server, error) {
	dataDir, err := os.MkdirTemp(e.runDir, "compare-")
	if err != nil {
		return nil, err
	}
	srv, err := e.startServer(dataDir, "-jobs", fmt.Sprint(workerProcs))
	if err != nil {
		return nil, err
	}
	if err := in.warmup(srv); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

func measureCompare(e *env, seed int64, lim limits) (*measurement, error) {
	in, err := newCompareInputs(nil, seed)
	if err != nil {
		return nil, err
	}
	plan := planCompare(seed, lim.planLen())
	lim.n = len(plan)
	srv, setup, err := timedSetups(lim.setups, func() (*server, error) { return e.compareServer(in) })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newCompareRun(in, plan, srv)
	m, err := loadPhase(srv, lim, func(i int) opResult { return c.do(i, nil) })
	if err != nil {
		return nil, err
	}
	m.setup = setup
	m.failures = c.verify(m.ops)
	return m, nil
}

// verifySample is how many successful requests of each computing class
// are recomputed in-process to check the served values.
const verifySample = 3

// sample returns up to k successful ops of the class, in sequence order.
func (c *compareRun) sample(ops []opResult, class string, k int) []int {
	var out []int
	for _, r := range ops {
		if len(out) < k && r.Err == "" && c.plan[r.Index].Class == class {
			out = append(out, r.Index)
		}
	}
	return out
}

// verify recomputes a sample of served comparisons with pgb.CompareQueries
// and checks that every row is bit-identical.
func (c *compareRun) verify(ops []opResult) []string {
	var failures []string
	byID := queryIDs()
	for _, class := range []string{classFull, classStructural} {
		for _, i := range c.sample(ops, class, verifySample) {
			r := c.plan[i]
			var ids []pgb.QueryID
			for _, q := range c.in.queries(r) {
				ids = append(ids, byID[q])
			}
			rep := pgb.CompareQueries(c.in.truth[r.DS], c.in.syn[r.DS][r.Variant], r.Seed, ids)
			want := make([]wireRow, len(rep.Rows))
			for k, row := range rep.Rows {
				want[k] = wireRow{row.Query, row.Metric, row.TrueValue, row.SynValue, row.Error, row.HigherBetter}
			}
			if err := sameRows(c.rows[i], want); err != nil {
				failures = append(failures, fmt.Sprintf("request %d (%s): %v", i, class, err))
			}
		}
	}
	return failures
}

// sameRows checks served rows against recomputed ones, bit for bit.
func sameRows(raw []byte, want []wireRow) error {
	var got []wireRow
	if err := json.Unmarshal(raw, &got); err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows served, %d recomputed", len(got), len(want))
	}
	bits := math.Float64bits
	for k := range got {
		g, w := got[k], want[k]
		if g.Query != w.Query || g.Metric != w.Metric || g.HigherBetter != w.HigherBetter ||
			bits(g.TrueValue) != bits(w.TrueValue) || bits(g.SynValue) != bits(w.SynValue) || bits(g.Error) != bits(w.Error) {
			return fmt.Errorf("row %s served %+v, recomputed %+v", w.Query, g, w)
		}
	}
	return nil
}

// queryIDs maps query symbols to their IDs.
func queryIDs() map[string]pgb.QueryID {
	ids := make(map[string]pgb.QueryID)
	for k, s := range pgb.Queries() {
		ids[s] = pgb.QueryID(k + 1)
	}
	return ids
}

// compareChunk is how many requests the traced run sends to one server
// before switching to the other.
const compareChunk = 16

func traceCompare(e *env, seed int64, lim limits) (*traceRun, error) {
	tr := newTracer()
	in, err := newCompareInputs(tr, seed)
	if err != nil {
		return nil, err
	}
	plan := planCompare(seed, lim.planLen())
	lim.n = len(plan)
	var runs [2]*compareRun
	for k := range runs {
		srv, err := e.compareServer(in)
		if err != nil {
			return nil, err
		}
		defer srv.stop()
		tr.add("server.ready_s", srv.ready.Seconds())
		runs[k] = newCompareRun(in, plan, srv)
	}
	twin, traced := runs[0], runs[1]
	h0, err := traced.srv.healthz()
	if err != nil {
		return nil, err
	}
	a, b := alternate(lim, compareChunk,
		chunked(func(i int) opResult { return twin.do(i, nil) }),
		chunked(func(i int) opResult { return traced.do(i, tr) }))
	h1, err := traced.srv.healthz()
	if err != nil {
		return nil, err
	}
	ok := 0
	for _, r := range b {
		if r.Err == "" {
			ok++
		}
	}
	tr.add("server.compares", float64(ok))
	tr.add("server.cache_hits", float64(int64(ok)-(h1.ComparesExecuted-h0.ComparesExecuted)))
	return &traceRun{twin: &measurement{ops: a}, traced: &measurement{ops: b}, tr: tr, failures: traced.replay(tr, b)}, nil
}

// replay recomputes a sample of each class in-process through the
// layers' functions, attributing the server's compute to them, checks
// the served rows bit for bit, and records each request's overhead: its
// client latency minus the replayed compute.
func (c *compareRun) replay(tr *tracer, ops []opResult) []string {
	var failures []string
	// The server's structural truth profiles were cached by the set-up's
	// warm-up; cache them here too, so structural replays run warm.
	structural, err := core.ParseQueries(structuralQueries)
	if err != nil {
		return []string{err.Error()}
	}
	for ds := range compareDatasets {
		id := tr.begin("core.truth_profile_cold", -1, -1)
		core.ComputeProfileCached(c.in.truth[ds], core.ProfileOptions{Queries: structural}, 0)
		tr.end(id)
	}
	for _, class := range []string{classFull, classStructural, classRepeat} {
		for _, i := range c.sample(ops, class, verifySample+1) {
			ms, err := c.replayOne(tr, i)
			if err != nil {
				failures = append(failures, fmt.Sprintf("replay of request %d (%s): %v", i, class, err))
				continue
			}
			tr.add("compare.overhead_ms", c.ms[i]-ms)
		}
	}
	return failures
}

// replayOne replays request i as the server computes it: decode the
// body, fingerprint both graphs and, unless the result cache answers,
// compute the truth profile (cached), the synthetic profile and the
// scores. It returns the replay's duration in milliseconds.
func (c *compareRun) replayOne(tr *tracer, i int) (float64, error) {
	r := c.plan[i]
	src := r
	if r.Class == classRepeat {
		src = c.plan[r.Target]
	}
	body := c.in.body(src)
	root := tr.begin("replay", -1, i)
	var req struct {
		Truth struct {
			Dataset string `json:"dataset"`
		} `json:"truth"`
		Synthetic struct {
			Graph *graph.Graph `json:"graph"`
		} `json:"synthetic"`
		Seed    int64    `json:"seed"`
		Queries []string `json:"queries"`
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("graph.json_decode", root, i)
	err := json.Unmarshal(body, &req)
	tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		tr.end(root)
		return 0, err
	}
	tr.add("graph.json_decode_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
	truth, syn := c.in.truth[src.DS], req.Synthetic.Graph
	for _, g := range []*graph.Graph{truth, syn} {
		id = tr.begin("graph.fingerprint", root, i)
		g.Fingerprint()
		tr.end(id)
	}
	if r.Class == classRepeat {
		tr.end(root)
		return tr.ms(root), nil
	}
	queries := core.AllQueries()
	label := "core.truth_profile_cold"
	if req.Queries != nil {
		if queries, err = core.ParseQueries(req.Queries); err != nil {
			tr.end(root)
			return 0, err
		}
		label = "core.truth_profile_warm"
	}
	opt := core.ProfileOptions{Queries: queries}
	id = tr.begin(label, root, i)
	pt := core.ComputeProfileCached(truth, opt, core.SubSeed(req.Seed, 0))
	tr.end(id)
	ps, serialMs := replayProfile(tr, root, i, syn, opt, core.SubSeed(req.Seed, 1))
	id = tr.begin("core.score", root, i)
	rows := make([]wireRow, 0, len(queries))
	for _, q := range queries {
		v, higher := core.Score(q, pt, ps)
		row := wireRow{Query: q.String(), Metric: q.Metric(), Error: v, HigherBetter: higher}
		row.TrueValue, row.SynValue, _ = core.ScalarValues(q, pt, ps)
		rows = append(rows, row)
	}
	tr.end(id)
	tr.end(root)
	ms := tr.ms(root)
	if r.Class == classFull {
		profileOverlap(tr, i, overlapJob{g: syn, opt: opt, seed: core.SubSeed(req.Seed, 1), serialMs: serialMs})
	}
	return ms, sameRows(c.rows[i], rows)
}
