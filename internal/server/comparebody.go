package server

import (
	"strconv"

	"pgb/internal/graph"
)

// comparebody.go is the one-pass parse of the canonical /v1/compare body
// (DESIGN.md §9.1). decodeJSON reads an inline graph three times: the
// decoder validates the whole body, skips over the graph value again to
// hand it to graph.UnmarshalJSON, which parses it a third time.
// parseCompare reads the body once, inline graphs included, and leaves
// every other body — and every error — to decodeJSON.

// parseCompare decodes a /v1/compare body of the canonical shape: an
// object whose keys are truth, synthetic, seed, queries and
// distance_mode, spelled exactly, each at most once, in any order; refs
// holding graph (the canonical wire shape graph.ParseWirePrefix reads),
// dataset, scale and seed, each at most once; strings with no escapes,
// control bytes or non-ASCII bytes; integers that strconv.ParseInt
// and a scale that strconv.ParseFloat accept, each first checked
// against the JSON number grammar; JSON whitespace between tokens and
// nothing but whitespace after the object. Those are the calls and
// checks encoding/json makes on such a body, so decodeJSON accepts it
// too, with an equal request (FuzzCompareBodyFastPath checks this).
// ok=false means "not this shape", never "malformed": the caller then
// decodes the body with decodeJSON, which alone produces errors.
func parseCompare(body []byte) (compareRequest, bool) {
	var req compareRequest
	s := bodyScanner{b: body}
	var seen uint
	ok := s.object(func(key []byte) bool {
		switch string(key) {
		case "truth":
			return once(&seen, 1) && s.ref(&req.Truth)
		case "synthetic":
			return once(&seen, 2) && s.ref(&req.Synthetic)
		case "seed":
			return once(&seen, 4) && s.integer(&req.Seed)
		case "queries":
			return once(&seen, 8) && s.texts(&req.Queries)
		case "distance_mode":
			return once(&seen, 16) && s.text(&req.DistanceMode)
		}
		return false
	})
	s.skipSpace()
	if !ok || s.i != len(s.b) {
		return compareRequest{}, false
	}
	return req, true
}

// once marks bit in *seen and reports whether it was clear: a key seen
// twice sends the body to encoding/json, which merges repeated objects.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// bodyScanner is parseCompare's cursor.
type bodyScanner struct {
	b []byte
	i int
}

func (s *bodyScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes byte c after optional whitespace, reporting whether it
// was there.
func (s *bodyScanner) next(c byte) bool {
	s.skipSpace()
	return s.accept(c)
}

// object consumes an object, calling member with each key once the
// cursor is past its colon; member consumes the value and reports
// whether it was acceptable.
func (s *bodyScanner) object(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.next(':') || !member(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// ref consumes a graph reference.
func (s *bodyScanner) ref(ref *graphRef) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "graph":
			if !once(&seen, 1) {
				return false
			}
			s.skipSpace()
			g, n, ok := graph.ParseWirePrefix(s.b[s.i:])
			s.i += n
			ref.Graph = g
			return ok
		case "dataset":
			return once(&seen, 2) && s.text(&ref.Dataset)
		case "scale":
			return once(&seen, 4) && s.float(&ref.Scale)
		case "seed":
			return once(&seen, 8) && s.integer(&ref.Seed)
		}
		return false
	})
}

// str consumes a string of ASCII bytes with no escape and no control
// byte, which encoding/json decodes to those same bytes, and returns its
// contents.
func (s *bodyScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// text consumes a string as str does, into *dst.
func (s *bodyScanner) text(dst *string) bool {
	v, ok := s.str()
	*dst = string(v)
	return ok
}

// texts consumes an array of strings. An empty array decodes to an
// empty, non-nil slice, as encoding/json decodes it.
func (s *bodyScanner) texts(dst *[]string) bool {
	if !s.next('[') {
		return false
	}
	out := []string{}
	for closed := s.next(']'); !closed; closed = s.next(']') {
		if len(out) > 0 && !s.next(',') {
			return false
		}
		v, ok := s.str()
		if !ok {
			return false
		}
		out = append(out, string(v))
	}
	*dst = out
	return true
}

// integer consumes a number literal that strconv.ParseInt reads as an
// int64, as encoding/json reads it into an int64 field.
func (s *bodyScanner) integer(dst *int64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = v
	return err == nil
}

// float consumes a number literal that strconv.ParseFloat reads as a
// float64, as encoding/json reads it into a float64 field.
func (s *bodyScanner) float(dst *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return err == nil
}

// number consumes a literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, after optional
// whitespace.
func (s *bodyScanner) number() ([]byte, bool) {
	s.skipSpace()
	start := s.i
	s.accept('-')
	if !s.accept('0') && !s.digits() {
		return nil, false
	}
	if s.accept('.') && !s.digits() {
		return nil, false
	}
	if s.accept('e') || s.accept('E') {
		if !s.accept('+') {
			s.accept('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// accept consumes byte c if it is next, with no whitespace before it.
func (s *bodyScanner) accept(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes one or more decimal digits.
func (s *bodyScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}
