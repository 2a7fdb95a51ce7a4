// Package index provides the nearest-seed indexes behind EDMStream's
// per-point hot path. Every arriving point must find the cluster-cell
// whose seed is nearest (Sec. 4.1 of the paper); with thousands of
// live cells a linear scan per point dominates the insert cost, so
// this package offers a uniform grid hash over seed coordinates that
// answers radius-bounded nearest-seed probes by visiting only the
// neighboring buckets, plus a linear-scan fallback for streams the
// grid cannot bucket (Jaccard/token-set streams, and high-dimensional
// Euclidean streams where 3^d neighborhood probes stop paying off).
//
// Both implementations answer queries exactly — they differ only in
// which candidates they have to touch — so the clustering output is
// identical whichever index is selected (internal/core's equivalence
// tests assert this property).
//
// The same two types serve the read-only query path: internal/core
// builds a Grid (or a Linear) over each published snapshot's seeds
// and never mutates it afterwards, and readers probe it concurrently,
// each passing its own coordinate scratch to NearestWithin. Grid is
// the only structure here that buckets seeds.
package index

import "github.com/densitymountain/edmstream/internal/stream"

// SeedIndex indexes cluster-cell seed points by slot and answers the
// two nearest-neighbor queries the core algorithm needs. A slot is the
// small reusable integer the engine addresses a live cell by (see
// Seeds); the cell's ID travels with it because distance ties are
// broken toward the lowest cell ID by every implementation, which
// keeps the algorithm's output independent of the index choice and of
// slot reuse. Seeds are immutable for the lifetime of a cell, so there
// is no update operation: cells are inserted once and removed once.
type SeedIndex interface {
	// Len returns the number of indexed seeds.
	Len() int
	// Insert adds the seed p of cell id, held in slot, to the index.
	Insert(slot int32, id int64, p stream.Point)
	// Remove deletes the seed in slot, whose point is p, from the
	// index.
	Remove(slot int32, p stream.Point)
	// NearestWithin returns the slot of the indexed seed nearest to p
	// among those at distance at most r, or ok == false when no seed
	// is that close. onDist, when non-nil, is invoked with every
	// (slot, distance) pair the index measures during the probe; the
	// core algorithm uses it to stamp distances onto cells for the
	// triangle-inequality filter (Theorem 2). scratch is the probe's
	// coordinate workspace (see Grid.NearestWithin); nil selects the
	// index's own, which only its owner goroutine may use.
	NearestWithin(p stream.Point, r float64, onDist func(slot int32, d float64), scratch []int64) (slot int32, d float64, ok bool)
	// NearestWhere returns the slot of the indexed seed nearest to p
	// among those whose slot satisfies pred (a nil pred accepts every
	// seed), or ok == false when no admissible seed exists. It is
	// unbounded in distance and backs dependency searches (nearest
	// cell with higher density).
	NearestWhere(p stream.Point, pred func(slot int32) bool) (slot int32, d float64, ok bool)
	// Kind returns a short identifier ("grid", "linear") used in
	// stats and benchmark reports.
	Kind() string
}
