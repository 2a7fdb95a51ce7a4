package server

import (
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
