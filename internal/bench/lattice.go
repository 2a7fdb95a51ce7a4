package bench

import (
	"math"
	"math/rand"

	"github.com/densitymountain/edmstream/internal/stream"
)

// latticeSites is the lattice width: LatticeStream draws its points
// from latticeSites² seed locations.
const latticeSites = 40

// latticeSpacing is the distance between neighboring lattice sites:
// four cell radii at the radius 1 every user of the stream runs with.
const latticeSpacing = 4.0

// LatticeStream is the one synthetic serving workload of the drills
// and the root-package benchmarks: points drawn from a
// latticeSites×latticeSites lattice of sites latticeSpacing apart,
// with per-site weights forming smooth density mountains (a few
// Gaussian humps spanning a 2–40 weight range). Neighboring sites then
// differ in density by a clear margin almost everywhere, so the
// DP-Tree's dependency links — and with them the cluster partition —
// stay put between refreshes: the steady regime a serving deployment
// sits in once its clusters have formed. Bursts of 2–6 points per site
// (jitter N(0, 0.25²) per axis) give the temporal locality of
// sessionized traffic that batched ingestion's same-cell run
// coalescing exploits; 0.5% uniform noise keeps the reservoir path
// exercised. With a slow enough decay over a thousand sites stay
// simultaneously active, the regime where a spatial index pays off.
func LatticeStream(n int, seed int64, rate float64) []stream.Point {
	rng := rand.New(rand.NewSource(seed))
	nsites := latticeSites * latticeSites
	type site struct{ x, y float64 }
	sites := make([]site, 0, nsites)
	for i := 0; i < latticeSites; i++ {
		for j := 0; j < latticeSites; j++ {
			sites = append(sites, site{float64(i) * latticeSpacing, float64(j) * latticeSpacing})
		}
	}
	// A few Gaussian weight mountains over the lattice.
	const mountains = 8
	type hump struct{ cx, cy, sigma, height float64 }
	humps := make([]hump, mountains)
	span := float64(latticeSites) * latticeSpacing
	for m := range humps {
		humps[m] = hump{
			cx:     rng.Float64() * span,
			cy:     rng.Float64() * span,
			sigma:  (3 + 2*rng.Float64()) * latticeSpacing,
			height: 15 + 25*rng.Float64(),
		}
	}
	cum := make([]float64, nsites)
	total := 0.0
	for i, s := range sites {
		w := 2.0
		for _, h := range humps {
			dx, dy := s.x-h.cx, s.y-h.cy
			w += h.height * math.Exp(-(dx*dx+dy*dy)/(2*h.sigma*h.sigma))
		}
		total += w
		cum[i] = total
	}
	pickSite := func() int {
		x := rng.Float64() * total
		lo, hi := 0, nsites-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	pts := make([]stream.Point, 0, n)
	emit := func(vec []float64) {
		pts = append(pts, stream.Point{
			ID:     int64(len(pts)),
			Vector: vec,
			Time:   float64(len(pts)) / rate,
			Label:  stream.NoLabel,
		})
	}
	for len(pts) < n {
		if rng.Float64() < 0.005 {
			emit([]float64{rng.Float64()*span*1.5 - span/4, rng.Float64()*span*1.5 - span/4})
			continue
		}
		s := sites[pickSite()]
		burst := 2 + rng.Intn(5)
		for b := 0; b < burst && len(pts) < n; b++ {
			emit([]float64{s.x + rng.NormFloat64()*0.25, s.y + rng.NormFloat64()*0.25})
		}
	}
	return pts
}
