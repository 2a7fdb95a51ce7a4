package main

import (
	"math"
	"math/rand"
	"strconv"

	"github.com/densitymountain/edmstream"
)

// Lattice parameterizes the one seeded density-mountain generator every
// workload draws from. Points arrive in bursts at the sites of a regular
// lattice; each site's share of the traffic is the sum of a few Gaussian
// humps (the mountains) over a flat floor, and a small share of points is
// uniform noise. With Drift set, the humps rise, fall and orbit, so
// mountains merge and split as stream time passes.
//
// The benchmark owns this generator on purpose: a workload must not move
// because an experiment elsewhere in the repository edited its own copy.
type Lattice struct {
	Dims      int     // dimensions of the point space
	Side      int     // lattice sites per axis (Side^Dims sites)
	Spacing   float64 // distance between neighbouring sites
	Mountains int     // Gaussian weight humps over the lattice
	BurstMin  int     // points per site visit, at least
	BurstMax  int     // points per site visit, at most
	Noise     float64 // share of site visits replaced by one uniform point
	Rate      float64 // stream-time points per stream-second
	Drift     float64 // stream-seconds per drift cycle; 0 keeps the mountains still
}

// jitter is the standard deviation of a point around its site: a quarter
// of the radius every workload serves with, so a burst lands in one cell.
const jitter = 0.25

// driftSteps is how many times per drift cycle the site weights are
// recomputed; between steps the weights hold still.
const driftSteps = 100

type hump struct {
	center []float64
	sigma  float64
	height float64
	orbit  float64 // radius of the hump's circular drift, first two axes
	phase  float64
}

// gen produces one stream of the lattice. It is deterministic in its
// seed: the same Lattice and seed give the same points, in order.
type gen struct {
	l     Lattice
	rng   *rand.Rand
	sites [][]float64
	humps []hump
	w     []float64 // current site weights
	cum   []float64 // cumulative site weights
	span  float64

	n         int     // points emitted so far
	burst     int     // points left in the current burst
	site      int     // site of the current burst
	weightsAt float64 // stream time of the next weight recomputation
}

func newGen(l Lattice, seed int64) *gen {
	g := &gen{l: l, rng: rand.New(rand.NewSource(seed))}
	g.span = float64(l.Side) * l.Spacing
	nsites := 1
	for d := 0; d < l.Dims; d++ {
		nsites *= l.Side
	}
	g.sites = make([][]float64, nsites)
	for i := range g.sites {
		c := make([]float64, l.Dims)
		for d, rest := 0, i; d < l.Dims; d, rest = d+1, rest/l.Side {
			c[d] = float64(rest%l.Side) * l.Spacing
		}
		g.sites[i] = c
	}
	g.humps = make([]hump, l.Mountains)
	for m := range g.humps {
		c := make([]float64, l.Dims)
		for d := range c {
			c[d] = g.rng.Float64() * g.span
		}
		g.humps[m] = hump{
			center: c,
			sigma:  (3 + 2*g.rng.Float64()) * l.Spacing,
			height: 15 + 25*g.rng.Float64(),
			orbit:  (2 + 4*g.rng.Float64()) * l.Spacing,
			phase:  2 * math.Pi * g.rng.Float64(),
		}
	}
	g.w = make([]float64, nsites)
	g.cum = make([]float64, nsites)
	g.reweigh(0)
	return g
}

// reweigh recomputes the site weights for stream time t.
func (g *gen) reweigh(t float64) {
	angle := 0.0
	if g.l.Drift > 0 {
		angle = 2 * math.Pi * t / g.l.Drift
		g.weightsAt = t + g.l.Drift/driftSteps
	} else {
		g.weightsAt = math.Inf(1)
	}
	total := 0.0
	for i, s := range g.sites {
		w := 2.0
		for _, h := range g.humps {
			height, cx, cy := h.height, h.center[0], 0.0
			if len(h.center) > 1 {
				cy = h.center[1]
			}
			if g.l.Drift > 0 {
				height *= 0.55 + 0.45*math.Sin(angle+h.phase)
				cx += h.orbit * math.Cos(angle+h.phase)
				cy += h.orbit * math.Sin(angle+h.phase)
			}
			d2 := (s[0] - cx) * (s[0] - cx)
			if len(s) > 1 {
				d2 += (s[1] - cy) * (s[1] - cy)
			}
			for d := 2; d < len(s); d++ {
				d2 += (s[d] - h.center[d]) * (s[d] - h.center[d])
			}
			w += height * math.Exp(-d2/(2*h.sigma*h.sigma))
		}
		g.w[i] = w
		total += w
		g.cum[i] = total
	}
}

// at moves the mountains forward to stream time t.
func (g *gen) at(t float64) {
	if t >= g.weightsAt {
		g.reweigh(t)
	}
}

// pick draws a site with probability proportional to its weight.
func (g *gen) pick() int {
	x := g.rng.Float64() * g.cum[len(g.cum)-1]
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// next returns the stream's next point, stamped with its stream time.
func (g *gen) next() edmstream.Point {
	t := float64(g.n) / g.l.Rate
	g.n++
	g.at(t)
	vec := make([]float64, g.l.Dims)
	if g.burst == 0 {
		if g.rng.Float64() < g.l.Noise {
			for d := range vec {
				vec[d] = round4(g.rng.Float64()*g.span*1.5 - g.span/4)
			}
			return edmstream.NewPoint(vec, t)
		}
		g.site = g.pick()
		g.burst = g.l.BurstMin + g.rng.Intn(g.l.BurstMax-g.l.BurstMin+1)
	}
	g.burst--
	for d, c := range g.sites[g.site] {
		vec[d] = round4(c + g.rng.NormFloat64()*jitter)
	}
	return edmstream.NewPoint(vec, t)
}

// points returns the next n points.
func (g *gen) points(n int) []edmstream.Point {
	pts := make([]edmstream.Point, n)
	for i := range pts {
		pts[i] = g.next()
	}
	return pts
}

// probe returns an in-distribution assign probe at the generator's
// current stream time: the centre of a site drawn by weight among the
// sites at least as heavy as the lattice's mean, so the probe sits in the
// core of a cell the stream keeps dense.
func (g *gen) probe() []float64 {
	mean := g.cum[len(g.cum)-1] / float64(len(g.w))
	for {
		i := g.pick()
		if g.w[i] < mean {
			continue
		}
		vec := make([]float64, g.l.Dims)
		copy(vec, g.sites[i])
		return vec
	}
}

// round4 rounds a coordinate to four decimals, which keeps request bodies
// short; the value sent and the value the reference engine sees are the
// same float64 because the wire format prints it exactly.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// appendFloat prints v in the shortest form that parses back to v.
func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', -1, 64) }

func appendVector(b []byte, vec []float64) []byte {
	b = append(b, `{"vector":[`...)
	for i, v := range vec {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// ingestBody renders points as a JSON-array ingest request body. Every
// point carries its stream time, so the daemon's clock never stamps one.
func ingestBody(pts []edmstream.Point) []byte {
	b := make([]byte, 0, 48*len(pts)+2)
	b = append(b, '[')
	for i := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVector(b, pts[i].Vector)
		b = append(b, `,"time":`...)
		b = appendFloat(b, pts[i].Time)
		b = append(b, '}')
	}
	return append(b, ']')
}

// assignBody renders probe vectors as a JSON-array assign request body.
func assignBody(vecs [][]float64) []byte {
	b := make([]byte, 0, 32*len(vecs)+2)
	b = append(b, '[')
	for i, v := range vecs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVector(b, v)
		b = append(b, '}')
	}
	return append(b, ']')
}
