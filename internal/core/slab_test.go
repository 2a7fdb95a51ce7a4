package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/densitymountain/edmstream/internal/stream"
)

// driftingLattice emits n points, one per millisecond of stream time,
// from a 20×20 lattice of sites 4 apart whose weights follow eight
// Gaussian humps orbiting the lattice centre once per `period`
// stream-seconds: bursts of 2–6 points around one site, plus 2%
// uniform noise. As the humps move on, the cells they leave behind
// decay, go inactive and are deleted, so cells keep being created
// while the live population stays roughly constant.
func driftingLattice(seed int64, n int, period float64) []stream.Point {
	const sites, spacing, humps, orbit, sigma = 20, 4.0, 8, 25.0, 6.0
	rng := rand.New(rand.NewSource(seed))
	span := sites * spacing
	weights := make([]float64, sites*sites)
	reweigh := func(t float64) float64 {
		total := 0.0
		for s := range weights {
			x, y := float64(s/sites)*spacing, float64(s%sites)*spacing
			w := 0.0
			for h := 0; h < humps; h++ {
				a := 2*math.Pi*float64(h)/humps + 2*math.Pi*t/period
				hx, hy := span/2+orbit*math.Cos(a), span/2+orbit*math.Sin(a)
				w += math.Exp(-((x-hx)*(x-hx) + (y-hy)*(y-hy)) / (2 * sigma * sigma))
			}
			weights[s] = w
			total += w
		}
		return total
	}
	pts := make([]stream.Point, 0, n)
	emit := func(x, y float64) {
		pts = append(pts, stream.Point{
			ID: int64(len(pts)), Vector: []float64{x, y}, Time: float64(len(pts)) / 1000, Label: stream.NoLabel,
		})
	}
	total, step := 0.0, -1
	for len(pts) < n {
		t := float64(len(pts)) / 1000
		if s := int(t / period * 100); s != step {
			step, total = s, reweigh(t)
		}
		if rng.Float64() < 0.02 {
			emit(rng.Float64()*span, rng.Float64()*span)
			continue
		}
		pick, s := rng.Float64()*total, 0
		for ; s < len(weights)-1 && pick > weights[s]; s++ {
			pick -= weights[s]
		}
		x, y := float64(s/sites)*spacing, float64(s%sites)*spacing
		for b := 2 + rng.Intn(5); b > 0 && len(pts) < n; b-- {
			emit(x+rng.NormFloat64()*0.3, y+rng.NormFloat64()*0.3)
		}
	}
	return pts
}

// TestSlotStorageBoundedByLiveCells streams a drifting lattice that
// creates many times more cells than are ever alive at once, and
// requires the slot-addressed stores — the cell slab and the probe
// column — to stay within a small factor of the peak live cell count,
// not the number of cells ever created. (The grid's own bound is
// TestGridStorageBoundedByLiveSeeds.)
func TestSlotStorageBoundedByLiveCells(t *testing.T) {
	e, err := New(Config{Radius: 1, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pts := driftingLattice(5, 200_000, 40)
	peak := 0
	for i := 0; i < len(pts); i += 64 {
		if err := e.InsertBatch(pts[i:min(i+64, len(pts))]); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, e.cells.len())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	created := e.Stats().CellsCreated
	slots := len(e.cells.bySlot)
	t.Logf("cells created %d, peak live %d, slots %d", created, peak, slots)
	if created < 10*int64(peak) {
		t.Fatalf("only %d cells created for a peak of %d live: the stream no longer churns cells", created, peak)
	}
	if limit := 2 * peak; slots > limit {
		t.Fatalf("%d slots for a peak of %d live cells (limit %d)", slots, peak, limit)
	}
	if len(e.probes) != slots {
		t.Fatalf("probe column has %d entries for %d slots", len(e.probes), slots)
	}
}
