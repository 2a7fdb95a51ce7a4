package index

import (
	"math"
	"testing"

	"github.com/densitymountain/edmstream/internal/stream"
)

// FuzzGridMatchesLinear drives a Grid and a Linear index through the
// same insert/remove sequence and checks every query against both:
// NearestWithin and NearestWhere must name the same cell at the same
// distance, and a NearestWithin probe must measure exactly the seeds
// whose buckets lie within its window. Each radius probe is asked
// twice, in the grid's own scratch and in a caller's (the reader
// form), and both must give that answer. Slots come from a LIFO free
// list while IDs only grow, as in the engine, so a tie broken by slot
// instead of ID shows. Coordinates are multiples of a quarter bucket
// in [-64, 64), which puts seeds and probes on bucket and tile
// boundaries, on both sides of zero, for every tile side 1–64.
//
// Input layout: byte 0 picks the dimensionality (1–8) and the bucket
// side; then each op is a kind byte followed by its operands —
// insert (dim coordinate bytes), remove (one byte picking a live
// seed), query (dim coordinate bytes, a radius byte and a predicate
// mask byte).
func FuzzGridMatchesLinear(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 8, 2, 0, 4, 0, 3})
	f.Add([]byte{1, 0, 7, 249, 0, 255, 1, 2, 0, 32, 248, 1, 255})
	f.Add([]byte{10, 0, 1, 2, 3, 0, 1, 2, 4, 0, 255, 254, 253, 2, 0, 1, 2, 3, 0, 1, 2, 3, 2, 170})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 128, 127, 1, 2, 3, 4, 5, 6, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 85})
	f.Fuzz(fuzzBody)
}

func fuzzBody(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	dim := 1 + int(data[0]%8)
	side := 1.0
	if data[0]&8 != 0 {
		side = 0.5
	}
	data = data[1:]
	seeds := &Seeds{}
	g, l := NewGrid(side, seeds), NewLinear()
	type live struct {
		id int64
		p  stream.Point
	}
	bySlot := map[int32]live{}
	var order, free []int32
	nextID := int64(0)
	scratch := make([]int64, ProbeRows*dim)
	point := func(b []byte) stream.Point {
		v := make([]float64, dim)
		for i := range v {
			v[i] = float64(int8(b[i])) / 4
		}
		return stream.Point{Vector: v}
	}
	for len(data) > 0 {
		op := data[0] % 3
		data = data[1:]
		switch op {
		case 0:
			if len(data) < dim {
				return
			}
			p := point(data)
			data = data[dim:]
			var slot int32
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
			} else {
				slot = int32(len(bySlot))
			}
			bySlot[slot] = live{nextID, p}
			order = append(order, slot)
			seeds.Put(slot, p.Vector)
			g.Insert(slot, nextID, p)
			l.Insert(slot, nextID, p)
			nextID++
		case 1:
			if len(data) < 1 {
				return
			}
			pick := int(data[0])
			data = data[1:]
			if len(order) == 0 {
				continue
			}
			i := pick % len(order)
			slot := order[i]
			order = append(order[:i], order[i+1:]...)
			g.Remove(slot, bySlot[slot].p)
			l.Remove(slot, bySlot[slot].p)
			delete(bySlot, slot)
			free = append(free, slot)
		case 2:
			if len(data) < dim+2 {
				return
			}
			p := point(data)
			r := side * []float64{1, 0.5, 2.5, 1.25}[data[dim]%4]
			mask := data[dim+1]
			data = data[dim+2:]
			pred := func(s int32) bool { return mask>>(bySlot[s].id%8)&1 == 1 }
			if g.Len() != l.Len() {
				t.Fatalf("Len: grid %d, linear %d", g.Len(), l.Len())
			}
			ls, ld, lok := l.NearestWithin(p, r, nil, nil)
			m := int64(math.Ceil(r / side))
			for _, sc := range [][]int64{nil, scratch} {
				seen := map[int32]bool{}
				gs, gd, gok := g.NearestWithin(p, r, func(s int32, d float64) { seen[s] = true }, sc)
				if gok != lok || gok && (bySlot[gs].id != bySlot[ls].id || gd != ld) {
					t.Fatalf("NearestWithin(%v, %v, caller scratch %v): grid (%d, %v, %v), linear (%d, %v, %v)",
						p.Vector, r, sc != nil, bySlot[gs].id, gd, gok, bySlot[ls].id, ld, lok)
				}
				for s, lv := range bySlot {
					in := true
					for i, v := range lv.p.Vector {
						c, q := int64(math.Floor(v/side)), int64(math.Floor(p.Vector[i]/side))
						if c-q > m || q-c > m {
							in = false
						}
					}
					if in != seen[s] {
						t.Fatalf("NearestWithin(%v, %v): seed %v measured %v, in window %v", p.Vector, r, lv.p.Vector, seen[s], in)
					}
				}
			}
			gs, gd, gok := g.NearestWhere(p, pred)
			ls, ld, lok = l.NearestWhere(p, pred)
			if gok != lok || gok && (bySlot[gs].id != bySlot[ls].id || gd != ld) {
				t.Fatalf("NearestWhere(%v, mask %08b): grid (%d, %v, %v), linear (%d, %v, %v)",
					p.Vector, mask, bySlot[gs].id, gd, gok, bySlot[ls].id, ld, lok)
			}
		}
	}
}
