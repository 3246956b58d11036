package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"dkindex"
)

// A POST /v1/mutate body is read straight into the dkindex.Mutation values
// the index takes, by a scanner over the buffered body, instead of through
// encoding/json's reflection into item structs that are then copied. The
// scanner reads the shapes clients send — objects of the known keys spelled
// as they are documented, integers, strings — and hands everything else to
// encoding/json: keys in another case or escaped, duplicate keys, nulls,
// booleans, a reqs map, numbers that are not plain integers, malformed JSON.
// encoding/json's answer is the contract: FuzzMutateBodyAgainstEncodingJSON
// holds the scanner to it.

// mutateItem is one mutation in a POST /v1/mutate body as encoding/json reads
// it, mirroring dkindex.Mutation field for field. Op names are the
// dkindex.MutOp values.
type mutateItem struct {
	Op     string         `json:"op"`
	From   dkindex.NodeID `json:"from"`
	To     dkindex.NodeID `json:"to"`
	Doc    string         `json:"doc"`
	Label  string         `json:"label"`
	K      int            `json:"k"`
	Reqs   map[string]int `json:"reqs"`
	Budget int            `json:"budget"`
}

func (it mutateItem) mutation() dkindex.Mutation {
	return dkindex.Mutation{
		Op:         dkindex.MutOp(it.Op),
		From:       it.From,
		To:         it.To,
		Doc:        []byte(it.Doc),
		Label:      it.Label,
		K:          it.K,
		Reqs:       it.Reqs,
		SizeBudget: it.Budget,
	}
}

// mutateJSON is the POST /v1/mutate union as encoding/json reads it: either a
// single mutation inline (the embedded fields) or a batch under "mutations".
type mutateJSON struct {
	mutateItem
	Mutations []mutateItem `json:"mutations"`
}

// mutateBody is a decoded POST /v1/mutate body: the inline mutation, and the
// batch, which is nil unless the body had a "mutations" array.
type mutateBody struct {
	inline dkindex.Mutation
	batch  []dkindex.Mutation
}

// decodeMutateBody decodes a buffered POST /v1/mutate body, scanning it when
// it can and asking encoding/json when it cannot. A batch the scanner reads is
// appended to buf[:0].
func decodeMutateBody(b []byte, buf []dkindex.Mutation) (mutateBody, error) {
	if body, ok := scanMutateBody(b, buf); ok {
		return body, nil
	}
	var v mutateJSON
	if err := unmarshalStrict(b, &v); err != nil {
		return mutateBody{}, err
	}
	body := mutateBody{inline: v.mutateItem.mutation()}
	if v.Mutations != nil {
		body.batch = make([]dkindex.Mutation, len(v.Mutations))
		for i, it := range v.Mutations {
			body.batch[i] = it.mutation()
		}
	}
	return body, nil
}

// unmarshalStrict decodes one JSON value from b into v, rejecting unknown
// fields and anything but white space after the value.
func unmarshalStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if rest := b[dec.InputOffset():]; len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return fmt.Errorf("bad request body: data after the JSON value at byte %d", len(b)-len(bytes.TrimLeft(rest, " \t\r\n")))
	}
	return nil
}

// mutOps are the op names the scanner turns into their constants without
// allocating; any other op string is copied.
var mutOps = [...]dkindex.MutOp{
	dkindex.MutAddEdge, dkindex.MutRemoveEdge, dkindex.MutAddDocument, dkindex.MutPromote,
	dkindex.MutDemote, dkindex.MutSetRequirements, dkindex.MutOptimize, dkindex.MutCompact,
}

// scanner reads JSON from b at i. Every method reports false for input it
// does not read, which sends the whole body to encoding/json.
type scanner struct {
	b []byte
	i int
}

// scanMutateBody is decodeMutateBody's scanner half.
func scanMutateBody(b []byte, buf []dkindex.Mutation) (mutateBody, bool) {
	s := scanner{b: b}
	var body mutateBody
	var seen uint16
	ok := s.object(func(key []byte) bool {
		if string(key) != "mutations" {
			return s.field(&body.inline, key, &seen)
		}
		if seen&(1<<9) != 0 || !s.consume('[') {
			return false
		}
		seen |= 1 << 9
		body.batch = buf[:0]
		if body.batch == nil {
			body.batch = make([]dkindex.Mutation, 0, 8)
		}
		if s.consume(']') {
			return true
		}
		for {
			body.batch = append(body.batch, dkindex.Mutation{})
			var itemSeen uint16
			m := &body.batch[len(body.batch)-1]
			if !s.object(func(key []byte) bool { return s.field(m, key, &itemSeen) }) {
				return false
			}
			if s.consume(']') {
				return true
			}
			if !s.consume(',') {
				return false
			}
		}
	})
	s.space()
	return body, ok && s.i == len(b)
}

// field reads the value of one mutateItem key into m; seen holds the keys
// read so far, a bit each, so a repeated key goes to encoding/json.
func (s *scanner) field(m *dkindex.Mutation, key []byte, seen *uint16) bool {
	bit := uint16(0)
	var ok bool
	switch string(key) {
	case "op":
		bit = 1 << 0
		var raw []byte
		if raw, ok = s.str(); ok {
			m.Op = ""
			for _, op := range mutOps {
				if string(raw) == string(op) {
					m.Op = op
					break
				}
			}
			if m.Op == "" && len(raw) > 0 {
				m.Op = dkindex.MutOp(raw)
			}
		}
	case "from":
		bit = 1 << 1
		m.From, ok = s.nodeID()
	case "to":
		bit = 1 << 2
		m.To, ok = s.nodeID()
	case "doc":
		bit = 1 << 3
		var raw []byte
		if raw, ok = s.str(); ok {
			m.Doc = bytes.Clone(raw)
		}
	case "label":
		bit = 1 << 4
		var raw []byte
		if raw, ok = s.str(); ok {
			m.Label = string(raw)
		}
	case "k":
		bit = 1 << 5
		m.K, ok = s.int()
	case "budget":
		bit = 1 << 6
		m.SizeBudget, ok = s.int()
	default: // reqs, an unknown key, another spelling of a known one
		return false
	}
	if !ok || *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// space skips JSON white space.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, if c is next.
func (s *scanner) consume(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object reads an object, calling member with each key once the scanner
// stands before its value; member reads the value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		s.space()
		key, ok := s.plain()
		if !ok || !s.consume(':') {
			return false
		}
		s.space()
		if !member(key) {
			return false
		}
		if s.consume('}') {
			return true
		}
		if !s.consume(',') {
			return false
		}
	}
}

// plain reads a string of printable ASCII without escapes and returns its
// bytes, which alias the body.
func (s *scanner) plain() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			raw := s.b[s.i+1 : j]
			s.i = j + 1
			return raw, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// str reads a string value. A plain one aliases the body; one with escapes
// or non-ASCII bytes is decoded by encoding/json into a fresh slice.
func (s *scanner) str() ([]byte, bool) {
	if raw, ok := s.plain(); ok {
		return raw, true
	}
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	j := s.i + 1
	for ; j < len(s.b) && s.b[j] != '"'; j++ {
		if s.b[j] == '\\' {
			j++
		}
	}
	if j >= len(s.b) {
		return nil, false
	}
	var v string
	if json.Unmarshal(s.b[s.i:j+1], &v) != nil {
		return nil, false
	}
	s.i = j + 1
	return []byte(v), true
}

// int reads an integer: an optional minus, then 0 or a digit string without
// a leading zero, with no fraction or exponent after it. Eighteen digits
// always fit; longer numbers go to encoding/json.
func (s *scanner) int() (int, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	digits, v := s.i, 0
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		v = 10*v + int(s.b[s.i]-'0')
		s.i++
	}
	switch n := s.i - digits; {
	case n == 0, n > 18, n > 1 && s.b[digits] == '0':
		return 0, false
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// nodeID reads an integer that fits a node id.
func (s *scanner) nodeID() (dkindex.NodeID, bool) {
	v, ok := s.int()
	if !ok || v < math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	return dkindex.NodeID(v), true
}
