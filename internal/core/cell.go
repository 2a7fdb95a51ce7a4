package core

import (
	"math"

	"github.com/densitymountain/edmstream/internal/stream"
)

// Cell is a cluster-cell (Def. 4): a summary of the points that fell
// within radius r of its seed, carrying a lazily decayed density and
// its dependency (nearest cluster-cell with higher density).
//
// Only what the ingest hot path reads lives here, in at most 192
// bytes; colder per-cell state lives in slot-addressed columns beside
// the slab: the seed vector row (index.Seeds), the triangle-filter
// probe (EDMStream.probes) and the incremental extraction bookkeeping
// (dpTree.ext).
type Cell struct {
	// id is the cell's unique identifier.
	id int64
	// seed is the seed point s_c of the cell. Its timestamp is the
	// cell's creation time. It never changes after creation, so
	// published snapshot views share it.
	seed stream.Point
	// rho is the decayed density as of time rhoTime (Eq. 6/8).
	rho float64
	// rhoTime is the time rho refers to.
	rhoTime float64
	// lastAbsorb is the time the cell last absorbed a point.
	lastAbsorb float64
	// count is the total number of points ever absorbed (undecayed).
	count int64
	// logNorm is the cell's decay-normalized log-density,
	// ln(rho) + λ·ln(1/a)·rhoTime, maintained by EDMStream whenever
	// the cell absorbs a point. Because every cell decays at the same
	// rate, densities at a common time compare exactly as their
	// logNorm keys do, which lets the density filter (Theorem 1) test
	// candidates without exponentiating per candidate.
	logNorm float64

	// dep is the cell this cell depends on: its nearest cell with
	// higher density (Eq. 7). Nil for the absolute density peak and for
	// inactive cells.
	dep *Cell
	// delta is the dependent distance δ to dep; +Inf when dep is nil.
	delta float64
	// children are the cells that depend on this cell, unordered;
	// childIdx is this cell's slot in its dependency's children slice
	// (O(1) unlink without a map — dependency relinks are hot, and the
	// incremental extraction walks children constantly).
	children []*Cell
	// densBucket and densIdx locate the cell in the DP-Tree's density
	// band index (the logNorm bucket it lives in and its slot there).
	// Meaningful only while active.
	densBucket int64

	// slot addresses the cell in the engine's cell slab and its
	// columns for its lifetime (see cellSlab); childIdx and densIdx are
	// the positions described above.
	slot     int32
	childIdx int32
	densIdx  int32
	// treeIdx is the cell's position in the DP-Tree's active-cell list
	// (used for O(1) removal). Meaningful only while active.
	treeIdx int32
	// col reports whether the seed has a row in the seed column
	// (numeric seeds of the stream's width).
	col bool
	// active reports whether the cell currently resides in the DP-Tree
	// (true) or in the outlier reservoir (false).
	active bool
}

// newCell creates a cell seeded by p with initial density 1 (a single
// fresh point).
func newCell(id int64, p stream.Point) *Cell {
	return &Cell{
		id:         id,
		seed:       p.Clone(),
		rho:        1,
		rhoTime:    p.Time,
		lastAbsorb: p.Time,
		count:      1,
		delta:      math.Inf(1),
	}
}

// ID returns the cell's identifier.
func (c *Cell) ID() int64 { return c.id }

// Seed returns the cell's seed point.
func (c *Cell) Seed() stream.Point { return c.seed }

// Count returns the total number of points the cell has absorbed.
func (c *Cell) Count() int64 { return c.count }

// Active reports whether the cell is part of the DP-Tree.
func (c *Cell) Active() bool { return c.active }

// Delta returns the cell's dependent distance (+Inf for the root).
func (c *Cell) Delta() float64 { return c.delta }

// Dependency returns the cell this cell depends on, or nil.
func (c *Cell) Dependency() *Cell { return c.dep }

// Density returns the cell's timely density at time now under the given
// decay model, without mutating the cell.
func (c *Cell) Density(now float64, d stream.Decay) float64 {
	return d.Scale(c.rho, now, c.rhoTime)
}

// absorb folds one point arriving at time now into the cell's density
// following Eq. (8): ρ ← a^{λ(now−rhoTime)}·ρ + 1.
func (c *Cell) absorb(now float64, d stream.Decay) {
	c.rho = d.Scale(c.rho, now, c.rhoTime) + 1
	c.rhoTime = now
	c.lastAbsorb = now
	c.count++
}

// distanceToPoint returns the distance from the cell's seed to p.
func (c *Cell) distanceToPoint(p stream.Point) float64 { return c.seed.Distance(p) }

// distanceToCell returns the distance between the two cells' seeds.
func (c *Cell) distanceToCell(o *Cell) float64 { return c.seed.Distance(o.seed) }

// higherRanked reports whether cell a outranks cell b in density at
// time now: strictly higher density, with cell ID as a deterministic
// tie-break (lower ID outranks). The tie-break keeps the DP-Tree a
// forest with a single root even when densities collide exactly.
func higherRanked(a, b *Cell, now float64, d stream.Decay) bool {
	ra, rb := a.Density(now, d), b.Density(now, d)
	if ra != rb {
		return ra > rb
	}
	return a.id < b.id
}
