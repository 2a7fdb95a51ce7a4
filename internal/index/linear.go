package index

import (
	"math"

	"github.com/densitymountain/edmstream/internal/stream"
)

// Linear is the scan-everything SeedIndex. It supports every point
// type the stream package knows (numeric vectors and token sets) and
// is the fallback for streams the grid cannot bucket. Insertion order
// is preserved (with swap-removal), matching the cache-friendly slice
// scan the core algorithm used before the index abstraction existed.
type Linear struct {
	entries []linearEntry
	// pos maps a slot to its entry's position plus one (0: absent).
	pos []int
}

type linearEntry struct {
	slot int32
	id   int64
	pt   stream.Point
}

// NewLinear creates an empty linear index.
func NewLinear() *Linear {
	return &Linear{}
}

// Len implements SeedIndex.
func (l *Linear) Len() int { return len(l.entries) }

// Kind implements SeedIndex.
func (l *Linear) Kind() string { return "linear" }

// Insert implements SeedIndex.
func (l *Linear) Insert(slot int32, id int64, p stream.Point) {
	for int(slot) >= len(l.pos) {
		l.pos = append(l.pos, 0)
	}
	l.entries = append(l.entries, linearEntry{slot: slot, id: id, pt: p})
	l.pos[slot] = len(l.entries)
}

// Remove implements SeedIndex (O(1) swap-remove).
func (l *Linear) Remove(slot int32, _ stream.Point) {
	if int(slot) >= len(l.pos) || l.pos[slot] == 0 {
		return
	}
	i := l.pos[slot] - 1
	last := len(l.entries) - 1
	l.entries[i] = l.entries[last]
	l.pos[l.entries[i].slot] = i + 1
	l.entries = l.entries[:last]
	l.pos[slot] = 0
}

// NearestWithin implements SeedIndex by scanning every entry. It needs
// no scratch and writes nothing, so concurrent probes of an index no
// longer mutated are safe.
func (l *Linear) NearestWithin(p stream.Point, r float64, onDist func(slot int32, d float64), _ []int64) (int32, float64, bool) {
	var best *linearEntry
	bestDist := math.Inf(1)
	for i := range l.entries {
		en := &l.entries[i]
		d := en.pt.Distance(p)
		if onDist != nil {
			onDist(en.slot, d)
		}
		if d <= r && (d < bestDist || (d == bestDist && best != nil && en.id < best.id)) {
			best, bestDist = en, d
		}
	}
	if best == nil {
		return 0, 0, false
	}
	return best.slot, bestDist, true
}

// NearestWhere implements SeedIndex by scanning every entry.
func (l *Linear) NearestWhere(p stream.Point, pred func(slot int32) bool) (int32, float64, bool) {
	var best *linearEntry
	bestDist := math.Inf(1)
	for i := range l.entries {
		en := &l.entries[i]
		if pred != nil && !pred(en.slot) {
			continue
		}
		d := en.pt.Distance(p)
		if math.IsInf(d, 1) {
			// Incomparable point types (numeric vs text) can never be
			// a nearest neighbor; mirroring the pre-index behavior,
			// they are not reported even when nothing else matches.
			continue
		}
		if d < bestDist || (d == bestDist && best != nil && en.id < best.id) {
			best, bestDist = en, d
		}
	}
	if best == nil {
		return 0, 0, false
	}
	return best.slot, bestDist, true
}
