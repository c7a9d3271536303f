package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// json.go is the graph-over-the-wire codec used by the pgb serve HTTP
// API (DESIGN.md §9). The format is a compact JSON edge list,
//
//	{"n": 5, "edges": [0,1, 0,2, 3,4]}
//
// with the m edges flattened into a single 2m-integer array — half the
// JSON tokens of a [[u,v], ...] pair encoding, and friendly to
// streaming encoders on both sides. Edges may appear in any orientation
// and order; decoding canonicalizes, sorts, and dedups exactly like
// FromEdges, so Marshal∘Unmarshal is the identity on every simple
// graph and the decoded graph's Fingerprint is orientation- and
// order-independent.

// jsonGraph is the wire schema.
type jsonGraph struct {
	N     int     `json:"n"`
	Edges []int32 `json:"edges"`
}

// MaxJSONNodes caps the node count a decoded wire graph may declare.
// FromEdges allocates ~16 bytes per node up front, so without a bound a
// few-byte payload ({"n":2e9,"edges":[]}) would force multi-gigabyte
// allocations — a one-request OOM against pgb serve. 2^23 (~8.4M nodes,
// ~134 MB of CSR offsets) is two orders of magnitude above the paper's
// largest graph while keeping the worst-case allocation survivable.
const MaxJSONNodes = 1 << 23

// MarshalJSON encodes the graph as {"n": N, "edges": [u0,v0, u1,v1, ...]}
// with edges in canonical orientation (u < v), ordered by u then v.
func (g *Graph) MarshalJSON() ([]byte, error) {
	flat := make([]int32, 0, 2*g.m)
	for e := range g.EdgeSeq() {
		flat = append(flat, e.U, e.V)
	}
	return json.Marshal(jsonGraph{N: g.n, Edges: flat})
}

// UnmarshalJSON decodes the wire format written by MarshalJSON. The edge
// array must have even length and every endpoint must lie in [0, n) —
// a malformed payload is an error, never a silently clipped graph.
// Self-loops and duplicate edges are dropped (the graph type is simple),
// matching FromEdges.
//
// The canonical shape MarshalJSON writes is parsed in one scan with no
// reflection (parseWire); any other input — reordered or unknown keys,
// null, a sign, a fraction, a failed range check — goes through the
// encoding/json path (decodeWireStd), which alone produces errors. The
// fast path accepts only inputs the stdlib path accepts with the same
// graph, so the accepted set and every error message are those of the
// stdlib path.
func (g *Graph) UnmarshalJSON(data []byte) error {
	n, edges, ok := parseWire(data)
	if !ok {
		var err error
		if n, edges, err = decodeWireStd(data); err != nil {
			return err
		}
	}
	// Field by field: a Graph holds its fingerprint memo, which must not
	// be copied and must not survive into the new graph.
	d := FromEdges(n, edges)
	g.n, g.m, g.off, g.nbr = d.n, d.m, d.off, d.nbr
	g.fp.Store(0)
	return nil
}

// decodeWireStd is the reflective decode behind UnmarshalJSON: it
// accepts any JSON the wire schema admits and reports why it rejects
// the rest.
func decodeWireStd(data []byte) (int, []Edge, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return 0, nil, fmt.Errorf("graph: decoding JSON graph: %w", err)
	}
	if jg.N < 0 {
		return 0, nil, fmt.Errorf("graph: JSON graph has negative node count %d", jg.N)
	}
	if jg.N > MaxJSONNodes {
		return 0, nil, fmt.Errorf("graph: JSON graph declares %d nodes, above the wire limit %d", jg.N, MaxJSONNodes)
	}
	if len(jg.Edges)%2 != 0 {
		return 0, nil, fmt.Errorf("graph: JSON edge array has odd length %d (want flat [u0,v0,u1,v1,...] pairs)", len(jg.Edges))
	}
	edges := make([]Edge, 0, len(jg.Edges)/2)
	for i := 0; i < len(jg.Edges); i += 2 {
		u, v := jg.Edges[i], jg.Edges[i+1]
		if u < 0 || v < 0 || int(u) >= jg.N || int(v) >= jg.N {
			return 0, nil, fmt.Errorf("graph: edge (%d, %d) outside node range [0, %d)", u, v, jg.N)
		}
		edges = append(edges, Canon(u, v))
	}
	return jg.N, edges, nil
}

// ParseWirePrefix parses the canonical wire shape {"n":N,"edges":[...]}
// at the start of data — the shape parseWire accepts — and reports the
// bytes it consumed, up to and including the closing '}'; what follows
// is the caller's. It lets a caller that parses a larger document by
// hand (the server's compare body) read an inline graph in the same
// pass. ok=false means "not this shape", never "malformed": the caller
// then takes its encoding/json path, which alone produces errors.
func ParseWirePrefix(data []byte) (*Graph, int, bool) {
	n, edges, end, ok := parseWirePrefix(data)
	if !ok {
		return nil, 0, false
	}
	return FromEdges(n, edges), end, true
}

// parseWire parses exactly the canonical wire shape
// {"n":N,"edges":[u0,v0,...]}: those two keys in that order, spelled
// that way, holding plain decimal integers (no sign, leading zero,
// fraction or exponent) with n <= MaxJSONNodes and every endpoint in
// [0, n), JSON whitespace between tokens and nothing after the object.
// ok=false means "not this shape", never "malformed": the caller then
// takes the stdlib path.
func parseWire(data []byte) (int, []Edge, bool) {
	n, edges, end, ok := parseWirePrefix(data)
	s := wireScanner{b: data, i: end}
	s.skipSpace()
	return n, edges, ok && s.i == len(s.b)
}

// parseWirePrefix is parseWire without the end-of-input check: it
// returns the offset just past the object's closing '}'.
func parseWirePrefix(data []byte) (int, []Edge, int, bool) {
	s := wireScanner{b: data}
	if !s.lit(`{`) || !s.lit(`"n"`) || !s.lit(`:`) {
		return 0, nil, 0, false
	}
	n64, ok := s.num(MaxJSONNodes)
	if !ok || !s.lit(`,`) || !s.lit(`"edges"`) || !s.lit(`:`) || !s.lit(`[`) {
		return 0, nil, 0, false
	}
	// 2m-1 commas separate m pairs; counted up to the array's ']' (the
	// first one: the array holds only integers), they size edges
	// exactly whatever the input holds after the graph.
	rb := bytes.IndexByte(data[s.i:], ']')
	if rb < 0 {
		return 0, nil, 0, false
	}
	edges := make([]Edge, 0, (bytes.Count(data[s.i:s.i+rb], []byte{','})+1)/2)
	for closed := s.lit(`]`); !closed; closed = s.lit(`]`) {
		if len(edges) > 0 && !s.lit(`,`) {
			return 0, nil, 0, false
		}
		u, ok := s.num(n64 - 1)
		if !ok || !s.lit(`,`) {
			return 0, nil, 0, false
		}
		v, ok := s.num(n64 - 1)
		if !ok {
			return 0, nil, 0, false
		}
		edges = append(edges, Canon(int32(u), int32(v)))
	}
	if !s.lit(`}`) {
		return 0, nil, 0, false
	}
	return int(n64), edges, s.i, true
}

// wireScanner is parseWirePrefix's cursor.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes tok after optional whitespace, reporting whether it was
// there.
func (s *wireScanner) lit(tok string) bool {
	s.skipSpace()
	if !bytes.HasPrefix(s.b[s.i:], []byte(tok)) {
		return false
	}
	s.i += len(tok)
	return true
}

// num consumes a plain decimal integer in [0, limit] after optional
// whitespace. A '-' is not a digit, and a leading zero or a value above
// limit fails here; a fraction or an exponent stops the digits and
// fails at the next lit.
func (s *wireScanner) num(limit int64) (int64, bool) {
	s.skipSpace()
	start := s.i
	var v int64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		if s.i > start && s.b[start] == '0' {
			return 0, false
		}
		if v = v*10 + int64(s.b[s.i]-'0'); v > limit {
			return 0, false
		}
	}
	return v, s.i > start
}
