// Package grid provides the decayed density-grid substrate used by the
// grid-based stream clustering baselines (D-Stream and MR-Stream): the
// data space is partitioned into axis-aligned cells of a fixed side
// length, each non-empty cell maintains an exponentially decayed
// density, and neighbouring cells above a density threshold are grouped
// into clusters by the offline step.
package grid

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/densitymountain/edmstream/internal/stream"
)

// Key is the string encoding of a cell's integer coordinates. Only
// non-empty cells are materialized, so memory is proportional to the
// number of occupied cells, not to the full cross product.
type Key string

// Coords converts integer cell coordinates to a Key.
func Coords(coords []int) Key {
	var b strings.Builder
	for i, c := range coords {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return Key(b.String())
}

// Cell is one occupied grid cell with a decayed density.
type Cell struct {
	// Coords are the cell's integer coordinates.
	Coords []int
	// Density is the decayed density as of LastUpdate.
	Density float64
	// LastUpdate is the time Density refers to.
	LastUpdate float64
	// Created is the time the cell first received a point.
	Created float64
}

// DensityAt returns the decayed density at time now.
func (c *Cell) DensityAt(now float64, d stream.Decay) float64 {
	return c.Density * d.Freshness(now, c.LastUpdate)
}

// Grid is a sparse decayed density grid.
type Grid struct {
	size  float64
	decay stream.Decay
	cells map[Key]*Cell
}

// New creates a grid with the given cell side length.
func New(size float64, decay stream.Decay) (*Grid, error) {
	if size <= 0 {
		return nil, fmt.Errorf("grid: cell size must be positive, got %v", size)
	}
	return &Grid{size: size, decay: decay, cells: make(map[Key]*Cell)}, nil
}

// Size returns the cell side length.
func (g *Grid) Size() float64 { return g.size }

// NumCells returns the number of occupied cells.
func (g *Grid) NumCells() int { return len(g.cells) }

// CellOf returns the integer coordinates of the cell containing the
// vector.
func (g *Grid) CellOf(vec []float64) []int {
	coords := make([]int, len(vec))
	for i, v := range vec {
		coords[i] = int(math.Floor(v / g.size))
	}
	return coords
}

// Insert adds a point arriving at time now, creating its cell on
// demand, and returns the cell.
func (g *Grid) Insert(p stream.Point, now float64) *Cell {
	coords := g.CellOf(p.Vector)
	key := Coords(coords)
	c, ok := g.cells[key]
	if !ok {
		c = &Cell{Coords: coords, Created: now, LastUpdate: now}
		g.cells[key] = c
	}
	c.Density = c.DensityAt(now, g.decay) + 1
	c.LastUpdate = now
	return c
}

// Cells returns the occupied cells (shared references; callers must not
// retain them across Prune calls).
func (g *Grid) Cells() map[Key]*Cell { return g.cells }

// Prune removes cells whose decayed density at time now is below
// minDensity and returns how many were removed. This is the sporadic
// grid removal of D-Stream / MR-Stream.
func (g *Grid) Prune(now, minDensity float64) int {
	removed := 0
	for k, c := range g.cells {
		if c.DensityAt(now, g.decay) < minDensity {
			delete(g.cells, k)
			removed++
		}
	}
	return removed
}

// Center returns the center position of a cell.
func (g *Grid) Center(c *Cell) []float64 {
	out := make([]float64, len(c.Coords))
	for i, coord := range c.Coords {
		out[i] = (float64(coord) + 0.5) * g.size
	}
	return out
}

// Neighbors reports whether two cells are neighbours (their coordinates
// differ by at most 1 in every dimension and they are not the same
// cell).
func Neighbors(a, b *Cell) bool {
	if len(a.Coords) != len(b.Coords) {
		return false
	}
	same := true
	for i := range a.Coords {
		d := a.Coords[i] - b.Coords[i]
		if d < -1 || d > 1 {
			return false
		}
		if d != 0 {
			same = false
		}
	}
	return !same
}

// ConnectedComponents groups the given cells into clusters of mutually
// neighbouring cells and returns, for each input cell, the component
// index it belongs to.
func ConnectedComponents(cells []*Cell) []int {
	n := len(cells)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if comp[i] != -1 {
			continue
		}
		comp[i] = next
		queue := []int{i}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for j := 0; j < n; j++ {
				if comp[j] == -1 && Neighbors(cells[cur], cells[j]) {
					comp[j] = next
					queue = append(queue, j)
				}
			}
		}
		next++
	}
	return comp
}

// TotalDensity sums the decayed densities of all occupied cells at time
// now.
func (g *Grid) TotalDensity(now float64) float64 {
	var sum float64
	for _, c := range g.cells {
		sum += c.DensityAt(now, g.decay)
	}
	return sum
}
