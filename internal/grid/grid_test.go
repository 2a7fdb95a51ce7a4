package grid

import (
	"math"
	"testing"

	"github.com/densitymountain/edmstream/internal/stream"
)

func testDecay() stream.Decay { return stream.Decay{A: 0.998, Lambda: 1000} }

func TestNewValidation(t *testing.T) {
	if _, err := New(0, testDecay()); err == nil {
		t.Error("zero cell size should be rejected")
	}
	if _, err := New(-1, testDecay()); err == nil {
		t.Error("negative cell size should be rejected")
	}
}

func TestInsertAndCellOf(t *testing.T) {
	g, err := New(1.0, testDecay())
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1.0 {
		t.Errorf("Size = %v", g.Size())
	}
	// Points in the same unit square share a cell; negative coordinates
	// floor correctly.
	g.Insert(stream.Point{Vector: []float64{0.2, 0.7}, Time: 0}, 0)
	g.Insert(stream.Point{Vector: []float64{0.9, 0.1}, Time: 0}, 0)
	g.Insert(stream.Point{Vector: []float64{-0.5, 0.5}, Time: 0}, 0)
	if g.NumCells() != 2 {
		t.Fatalf("NumCells = %d, want 2", g.NumCells())
	}
	coords := g.CellOf([]float64{-0.5, 0.5})
	if coords[0] != -1 || coords[1] != 0 {
		t.Errorf("CellOf(-0.5, 0.5) = %v, want [-1 0]", coords)
	}
	cell := g.Cells()[Coords([]int{0, 0})]
	if cell == nil {
		t.Fatal("cell (0,0) missing")
	}
	if math.Abs(cell.DensityAt(0, testDecay())-2) > 1e-9 {
		t.Errorf("cell density = %v, want 2", cell.Density)
	}
	center := g.Center(cell)
	if center[0] != 0.5 || center[1] != 0.5 {
		t.Errorf("cell center = %v, want (0.5, 0.5)", center)
	}
}

func TestDensityDecayAndPrune(t *testing.T) {
	d := testDecay()
	g, _ := New(1.0, d)
	g.Insert(stream.Point{Vector: []float64{0.5, 0.5}, Time: 0}, 0)
	g.Insert(stream.Point{Vector: []float64{5.5, 5.5}, Time: 0}, 0)
	// Keep refreshing only the first cell.
	for i := 1; i <= 100; i++ {
		g.Insert(stream.Point{Vector: []float64{0.5, 0.5}, Time: float64(i) / 100}, float64(i)/100)
	}
	now := 3.0
	if total := g.TotalDensity(now); total <= 0 {
		t.Fatalf("TotalDensity = %v", total)
	}
	removed := g.Prune(now, 0.5)
	if removed != 1 {
		t.Errorf("Prune removed %d cells, want 1 (the stale one)", removed)
	}
	if g.NumCells() != 1 {
		t.Errorf("NumCells after prune = %d, want 1", g.NumCells())
	}
}

func TestNeighborsAndConnectedComponents(t *testing.T) {
	mk := func(coords ...int) *Cell { return &Cell{Coords: coords} }
	a := mk(0, 0)
	b := mk(1, 1)
	c := mk(3, 3)
	d := mk(4, 3)
	if !Neighbors(a, b) {
		t.Error("diagonal cells should be neighbours")
	}
	if Neighbors(a, c) {
		t.Error("distant cells should not be neighbours")
	}
	if Neighbors(a, a) {
		t.Error("a cell is not its own neighbour")
	}
	if Neighbors(a, mk(0, 0, 0)) {
		t.Error("cells of different dimensionality are not neighbours")
	}
	comps := ConnectedComponents([]*Cell{a, b, c, d})
	if comps[0] != comps[1] {
		t.Error("a and b should share a component")
	}
	if comps[2] != comps[3] {
		t.Error("c and d should share a component")
	}
	if comps[0] == comps[2] {
		t.Error("the two pairs should be different components")
	}
	if got := ConnectedComponents(nil); len(got) != 0 {
		t.Errorf("empty input should give empty output, got %v", got)
	}
}
