package server

import (
	"bytes"
	"strconv"

	"github.com/densitymountain/edmstream"
)

// scanPoints is decodePoints' fast path: a reflection-free scanner for
// the canonical body, a JSON array of objects whose only keys are
// "vector", "time", "id" and "label" — each exact, unescaped and at most
// once — where vector is a non-empty array of numbers and id and label
// are integer literals. Numbers are RFC 8259 literals converted with
// strconv.ParseFloat/ParseInt, as encoding/json converts them. Every
// vector is carved out of one []float64 slab.
//
// ok is false for every other body, including a canonical one that
// admitPoint rejects or a number strconv refuses: decodeJSON then
// decides the outcome and the message. So scanPoints can only make an
// accepted body faster; it never accepts a body decodeJSON rejects,
// and never decodes a point differently.
func scanPoints(body []byte, now float64, maxPoints int) (pts []edmstream.Point, ok bool) {
	s := pointScanner{b: body}
	if s.ws(); !s.eat('[') {
		return nil, false
	}
	// Every point opens with '{' and a canonical body has no other, so
	// the count sizes pts exactly.
	objs := bytes.Count(body, []byte{'{'})
	if objs == 0 || maxPoints > 0 && objs > maxPoints {
		return nil, false
	}
	s.objs = objs
	pts = make([]edmstream.Point, 0, objs)
	for {
		if s.ws(); !s.eat('{') {
			return nil, false
		}
		p, ok := s.object(now)
		if !ok {
			return nil, false
		}
		var err error
		if pts, err = admitPoint(pts, p, maxPoints); err != nil {
			return nil, false
		}
		if s.ws(); s.eat(']') {
			break
		}
		if !s.eat(',') {
			return nil, false
		}
	}
	if s.ws(); s.i != len(body) {
		return nil, false
	}
	return pts, true
}

// pointScanner walks a buffered body; i is the next unread byte.
type pointScanner struct {
	b    []byte
	i    int
	objs int       // '{' count of b: the points a canonical body holds
	slab []float64 // backing array every vector is carved from
}

// The keys of a canonical point object, as bits of a seen-set.
const (
	keyVector = 1 << iota
	keyTime
	keyID
	keyLabel
)

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func (s *pointScanner) ws() { s.i = skipSpace(s.b, s.i) }

// eat consumes c if it is the next byte.
func (s *pointScanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object scans the members of a point object whose '{' is consumed,
// through its closing '}'. Omitted fields are stamped as wirePoint.toPoint
// stamps them.
func (s *pointScanner) object(now float64) (edmstream.Point, bool) {
	p := edmstream.Point{Label: edmstream.NoLabel, Time: now}
	seen := 0
	for {
		s.ws()
		key := s.key()
		if key == 0 || seen&key != 0 {
			return p, false
		}
		seen |= key
		if s.ws(); !s.eat(':') {
			return p, false
		}
		s.ws()
		ok := false
		switch key {
		case keyVector:
			p.Vector, ok = s.vector()
		case keyTime:
			p.Time, ok = s.parseFloat()
		case keyID:
			p.ID, ok = s.parseInt(64)
		case keyLabel:
			var label int64
			label, ok = s.parseInt(strconv.IntSize)
			p.Label = int(label)
		}
		if !ok {
			return p, false
		}
		if s.ws(); s.eat('}') {
			return p, true
		}
		if !s.eat(',') {
			return p, false
		}
	}
}

// key scans a quoted member name and returns its key bit, or 0 for a
// name that is not one of the four canonical keys or has an escape.
func (s *pointScanner) key() int {
	if !s.eat('"') {
		return 0
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return 0
	}
	name := s.b[s.i : s.i+n]
	s.i += n + 1
	switch string(name) {
	case "vector":
		return keyVector
	case "time":
		return keyTime
	case "id":
		return keyID
	case "label":
		return keyLabel
	}
	return 0
}

// vector scans a non-empty array of numbers into the slab and returns
// the carved sub-slice, capped so an append to one vector cannot
// overwrite the next.
func (s *pointScanner) vector() ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.slab == nil {
		// Size the slab from the first vector's dimensionality, bounded
		// by the body: each coordinate takes at least a digit and a
		// separator.
		end := bytes.IndexByte(s.b[s.i:], ']')
		if end < 0 {
			return nil, false
		}
		dim := bytes.Count(s.b[s.i:s.i+end], []byte{','}) + 1
		size := len(s.b) / 2
		if dim <= size/s.objs {
			size = s.objs * dim
		}
		s.slab = make([]float64, 0, size)
	}
	start := len(s.slab)
	for {
		s.ws()
		v, ok := s.parseFloat()
		if !ok {
			return nil, false
		}
		// A point of a larger dimensionality than the first outgrows the
		// slab; append moves the open vector along with everything
		// before it, and vectors already carved keep the old array.
		s.slab = append(s.slab, v)
		if s.ws(); s.eat(']') {
			return s.slab[start:len(s.slab):len(s.slab)], true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}

// number scans an RFC 8259 number literal and reports whether it has
// no fraction or exponent.
func (s *pointScanner) number() (lit []byte, integer bool) {
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if i = digits(b, i+1); b[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return b[start:i], integer
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseFloat scans a number as encoding/json decodes it into a
// float64. An out-of-range literal (±Inf from ParseFloat) is declined.
func (s *pointScanner) parseFloat() (float64, bool) {
	lit, _ := s.number()
	if lit == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// parseInt scans an integer literal as encoding/json decodes it into a
// signed integer of the given bit size.
func (s *pointScanner) parseInt(bits int) (int64, bool) {
	lit, integer := s.number()
	if !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	return v, err == nil
}
