package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the enclosing span, or -1 for a root (an op itself, or a
// replay or sample taken outside any op).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and named samples in memory until the run ends. A
// nil *tracer is valid and records nothing, so the untraced and traced
// passes of a workload share one code path.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]float64)}
}

// begin opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels an open or closed span, for calls whose layer is only
// known once they return (a store hit versus a generated dataset).
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// ms returns the duration of a closed span in milliseconds.
func (t *tracer) ms(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return durMs(t.spans[id].dur())
}

// add records one sample of a named counter or measurement.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// merge appends the spans and samples of another tracer (a worker
// child's report), renumbering its span IDs.
func (t *tracer) merge(spans []span, samples map[string][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	for k, v := range samples { //pgb:deterministic each key's samples are appended under that key alone
		t.samples[k] = append(t.samples[k], v...)
	}
}

// durationsByName groups span durations, in milliseconds, by span name.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], durMs(s.dur()))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the given intervals
// covers; the intervals may overlap each other (children running on
// several goroutines).
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// childIntervals maps each span ID to the intervals of its direct
// children.
func childIntervals(spans []span) map[int][][2]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	return kids
}

// selfTimes returns, indexed by span ID, each span's duration minus the
// part of its interval that its direct children cover.
func selfTimes(spans []span) []time.Duration {
	kids := childIntervals(spans)
	out := make([]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// coverage is the share of op time that top-level layer spans account
// for: the union of each op span's direct children, summed over ops,
// over the summed op durations. It is 0 when there are no op spans.
func coverage(spans []span) float64 {
	kids := childIntervals(spans)
	var ops, cov int64
	for _, s := range spans {
		if s.Parent == -1 && s.Name == opSpan {
			ops += s.End - s.Start
			cov += covered(s.Start, s.End, kids[s.ID])
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(cov) / float64(ops)
}

// opSpan names the span that wraps one whole operation.
const opSpan = "op"

// selfSummary totals self time per span name, in milliseconds.
func selfSummary(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += durMs(self[s.ID])
	}
	return out
}

// writeSpans writes every span, plus the per-name self-time totals, as
// one JSON document.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMs map[string]float64 `json:"self_ms_by_name"`
	}{spans, selfSummary(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
