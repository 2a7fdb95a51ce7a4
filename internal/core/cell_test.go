package core

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/densitymountain/edmstream/internal/stream"
)

func testDecay() stream.Decay { return stream.Decay{A: 0.998, Lambda: 1000} }

func numericPoint(id int64, t float64, coords ...float64) stream.Point {
	return stream.Point{ID: id, Time: t, Vector: coords, Label: stream.NoLabel}
}

func TestCellAbsorbMatchesRecomputation(t *testing.T) {
	// Incrementally absorbing points (Eq. 8) must equal recomputing the
	// density from scratch as the sum of freshness values (Eq. 6).
	d := testDecay()
	c := newCell(1, numericPoint(0, 0, 0, 0))
	arrivals := []float64{0.001, 0.002, 0.01, 0.5, 0.5, 1.2, 3.0}
	for i, at := range arrivals {
		c.absorb(at, d)
		now := at
		want := d.Freshness(now, 0) // the seed point
		for _, prev := range arrivals[:i+1] {
			want += d.Freshness(now, prev)
		}
		got := c.Density(now, d)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("after %d absorbs: density %v, want %v", i+1, got, want)
		}
	}
	if c.Count() != int64(1+len(arrivals)) {
		t.Errorf("Count = %d, want %d", c.Count(), 1+len(arrivals))
	}
}

func TestCellDensityDecaysWithoutAbsorption(t *testing.T) {
	d := testDecay()
	c := newCell(1, numericPoint(0, 0, 1, 1))
	d0 := c.Density(0, d)
	d1 := c.Density(1, d)
	d2 := c.Density(2, d)
	if !(d0 > d1 && d1 > d2) {
		t.Errorf("density should decay monotonically: %v, %v, %v", d0, d1, d2)
	}
	if d0 != 1 {
		t.Errorf("initial density = %v, want 1", d0)
	}
}

func TestCellDistances(t *testing.T) {
	c1 := newCell(1, numericPoint(0, 0, 0, 0))
	c2 := newCell(2, numericPoint(1, 0, 3, 4))
	if got := c1.distanceToCell(c2); math.Abs(got-5) > 1e-12 {
		t.Errorf("distanceToCell = %v, want 5", got)
	}
	if got := c1.distanceToPoint(numericPoint(9, 0, 0, 2)); math.Abs(got-2) > 1e-12 {
		t.Errorf("distanceToPoint = %v, want 2", got)
	}
}

func TestHigherRanked(t *testing.T) {
	d := testDecay()
	a := newCell(1, numericPoint(0, 0, 0, 0))
	b := newCell(2, numericPoint(1, 0, 1, 1))
	// Same density: the lower ID wins the tie-break.
	if !higherRanked(a, b, 0, d) {
		t.Error("tie-break should rank the lower cell ID higher")
	}
	if higherRanked(b, a, 0, d) {
		t.Error("tie-break must be antisymmetric")
	}
	// Give b more density: it must outrank a.
	b.absorb(0.001, d)
	if !higherRanked(b, a, 0.001, d) {
		t.Error("denser cell should outrank")
	}
}

// Property: higherRanked is a strict total order on any set of cells
// at any observation time (antisymmetric and total), which is what the
// DP-Tree's single-root invariant relies on.
func TestHigherRankedTotalOrderQuick(t *testing.T) {
	d := testDecay()
	prop := func(rhoA, rhoB uint16, now uint8) bool {
		a := newCell(1, numericPoint(0, 0, 0, 0))
		b := newCell(2, numericPoint(1, 0, 1, 1))
		a.rho = 1 + float64(rhoA%1000)
		b.rho = 1 + float64(rhoB%1000)
		at := float64(now) / 10
		ab := higherRanked(a, b, at, d)
		ba := higherRanked(b, a, at, d)
		return ab != ba
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCellAccessors(t *testing.T) {
	p := numericPoint(7, 1.5, 2, 3)
	c := newCell(42, p)
	if c.ID() != 42 {
		t.Errorf("ID = %d", c.ID())
	}
	if c.Seed().Vector[0] != 2 || c.Seed().Vector[1] != 3 {
		t.Errorf("Seed = %v", c.Seed())
	}
	if c.Active() {
		t.Error("new cell should be inactive")
	}
	if !math.IsInf(c.Delta(), 1) {
		t.Errorf("new cell Delta = %v, want +Inf", c.Delta())
	}
	if c.Dependency() != nil {
		t.Error("new cell should have no dependency")
	}
	// The seed is cloned: mutating the original point must not leak in.
	p.Vector[0] = 99
	if c.Seed().Vector[0] == 99 {
		t.Error("cell seed aliases the caller's point")
	}
}

// TestCellFootprint guards the per-cell fixed cost: cold per-cell state
// belongs in the slot-addressed columns, not in the Cell.
func TestCellFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Cell{}); sz > 192 {
		t.Errorf("Cell is %d bytes, want at most 192", sz)
	}
	t.Logf("Cell %d B, extractRow %d B", unsafe.Sizeof(Cell{}), unsafe.Sizeof(extractRow{}))
}
