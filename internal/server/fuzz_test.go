package server

import (
	"bytes"
	"math"
	"testing"

	"github.com/densitymountain/edmstream"
)

// FuzzDecodeBatchRecord feeds decodeBatchRecord arbitrary payloads: it
// must never panic (recovery reads whatever the disk holds), and every
// batch it accepts must survive the codec unchanged —
// decode(encode(decode(x))) equals decode(x), floats compared by bits.
func FuzzDecodeBatchRecord(f *testing.F) {
	vectors := encodeBatchRecord([]edmstream.Point{
		{ID: 1, Vector: []float64{1.5, -2.25, 0}, Label: 3, Time: 0.75},
		{ID: -9, Vector: []float64{math.Inf(1)}, Label: edmstream.NoLabel, Time: 123.5},
		{ID: 2, Vector: []float64{}, Time: 1},
	})
	tokens := encodeBatchRecord([]edmstream.Point{
		{ID: 42, Tokens: edmstream.NewTokenSet("gamma", "alpha", "beta"), Time: 2},
		{ID: 0, Tokens: edmstream.NewTokenSet(""), Label: -7},
	})
	f.Add([]byte{})
	for _, seed := range [][]byte{vectors, tokens} {
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:5])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		pts, err := decodeBatchRecord(payload)
		if err != nil {
			return
		}
		again, err := decodeBatchRecord(encodeBatchRecord(pts))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(pts) {
			t.Fatalf("re-decoded %d points, want %d", len(again), len(pts))
		}
		for i := range pts {
			if !samePoint(pts[i], again[i]) {
				t.Fatalf("point %d changed through the codec: %+v became %+v", i, pts[i], again[i])
			}
		}
	})
}

// FuzzDecodePoints feeds the HTTP point decoder arbitrary bodies: it
// must never panic, an accepted body holds at most maxPoints points
// that each pass Point.Validate, and every accepted batch must survive
// the WAL batch codec unchanged — a point the server acknowledges but
// the log cannot carry would break "HTTP 200 implies durable". It is
// also differential: whenever the fast path (scanPoints) accepts a
// body, encoding/json (decodeJSON) must accept the same bytes with
// bit-identical points.
func FuzzDecodePoints(f *testing.F) {
	const maxPoints = 64
	seeds := []string{
		`[{"id":1,"vector":[1.5,-2.25],"time":0.5,"label":3},{"vector":[0,1e300]}]`,
		"{\"vector\":[1,2],\"time\":1}\n{\"vector\":[3,4],\"id\":-9}\n",
		`{"vector":[7]}`,
		`[{"tokens":["gamma","alpha",""],"time":2,"label":-7}]`,
		`[]`,
		string(canonicalBody(16)),
		`[{"vector":[1e5,-0,1E-3,2.5e+2,0.0,-0.0,1e-400,4.9e-324]}]`,
		`[{"vector":[1e400]}]`,
		`[{"vector":[007]}]`,
		`[{"vector":[0]"time":0}]`,
		`[{"vector":[1],"vector":[2]},{"Vector":[3]},{"vec\u0074or":[4]},{"VECTOR":[5],"ID":1}]`,
		" \t\r\n[ {\n\"vector\" :\t[ 1 ,\r2 ] , \"time\" : 3 , \"id\":4,\"label\" : 5 } \n]\n ",
		`[{"vector":[1]}] trailing bytes`,
		`[{"vector":[1],"id":9223372036854775807,"label":-9223372036854775808},{"vector":[2],"id":1.0}]`,
	}
	for _, seed := range seeds {
		f.Add([]byte(seed))
		f.Add([]byte(seed[:len(seed)/2]))
		f.Add([]byte(seed[:len(seed)-1]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if fast, ok := scanPoints(body, 1, maxPoints); ok {
			ref, err := decodeJSON(body, 1, maxPoints)
			if err != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects: %v", err)
			}
			if len(ref) != len(fast) {
				t.Fatalf("fast path decoded %d points, encoding/json %d", len(fast), len(ref))
			}
			for i := range fast {
				if !samePoint(fast[i], ref[i]) {
					t.Fatalf("point %d: fast path %+v, encoding/json %+v", i, fast[i], ref[i])
				}
			}
		}
		pts, err := decodePoints(bytes.NewReader(body), 1, maxPoints)
		if err != nil {
			return
		}
		if len(pts) > maxPoints {
			t.Fatalf("accepted %d points, max %d", len(pts), maxPoints)
		}
		for i, p := range pts {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted point %d fails Validate: %v", i, err)
			}
		}
		logged, err := decodeBatchRecord(encodeBatchRecord(pts))
		if err != nil {
			t.Fatalf("accepted batch does not survive the WAL codec: %v", err)
		}
		if len(logged) != len(pts) {
			t.Fatalf("WAL codec returned %d points, want %d", len(logged), len(pts))
		}
		for i := range pts {
			if !samePoint(pts[i], logged[i]) {
				t.Fatalf("point %d changed through the WAL codec: %+v became %+v", i, pts[i], logged[i])
			}
		}
	})
}

// samePoint is deep equality with floats compared by bit pattern, so a
// NaN the codec carried through intact counts as unchanged.
func samePoint(p, q edmstream.Point) bool {
	if p.ID != q.ID || p.Label != q.Label || math.Float64bits(p.Time) != math.Float64bits(q.Time) {
		return false
	}
	if (p.Vector == nil) != (q.Vector == nil) || len(p.Vector) != len(q.Vector) {
		return false
	}
	for j := range p.Vector {
		if math.Float64bits(p.Vector[j]) != math.Float64bits(q.Vector[j]) {
			return false
		}
	}
	if (p.Tokens == nil) != (q.Tokens == nil) || p.Tokens.Len() != q.Tokens.Len() {
		return false
	}
	for tok := range p.Tokens {
		if !q.Tokens.Contains(tok) {
			return false
		}
	}
	return true
}
