// Package gen provides the synthetic dataset generators used by the
// evaluation (Table 2): the 2-D SDS stream whose clusters merge, split,
// emerge and disappear on a known schedule (Fig. 6/7), the
// high-dimensional HDS stream (Fig. 12), and simulators standing in for
// the three real datasets (KDDCUP99, CoverType, PAMAP2) that the paper
// uses for the performance and quality experiments. Each simulator
// matches the corresponding real dataset's cardinality, dimensionality,
// number of classes and arrival character (burstiness, drift, activity
// segments), which are the properties that drive the paper's curves.
// Simulators replace the real datasets so that the module needs no
// downloaded data.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/densitymountain/edmstream/internal/stream"
)

// Dataset is a fully materialized synthetic dataset together with the
// metadata reported in Table 2.
type Dataset struct {
	// Name is the dataset identifier (e.g. "SDS", "HDS-100").
	Name string
	// Points are the stream points in arrival order. Timestamps are
	// not set; use stream.RateStamper to stamp a desired arrival rate.
	Points []stream.Point
	// Dim is the dimensionality of the attribute vectors.
	Dim int
	// NumClasses is the number of ground-truth classes.
	NumClasses int
	// SuggestedRadius is a cluster-cell radius r appropriate for the
	// dataset's geometry (the analogue of Table 2's r column).
	SuggestedRadius float64
}

// Len returns the number of points in the dataset.
func (d Dataset) Len() int { return len(d.Points) }

// Source returns a replayable source over the dataset's points.
func (d Dataset) Source() *stream.SliceSource { return stream.NewSliceSource(d.Points) }

// RateSource returns a source that stamps the dataset's points at the
// given arrival rate (points per second) starting at time zero.
func (d Dataset) RateSource(rate float64) (*stream.RateStamper, error) {
	return stream.NewRateStamper(d.Source(), rate, 0)
}

// gaussianPoint samples a point from an isotropic Gaussian centered at
// center with standard deviation sigma.
func gaussianPoint(rng *rand.Rand, center []float64, sigma float64) []float64 {
	v := make([]float64, len(center))
	for i := range center {
		v[i] = center[i] + rng.NormFloat64()*sigma
	}
	return v
}

// uniformPoint samples a point uniformly from the axis-aligned box
// [lo, hi]^dim.
func uniformPoint(rng *rand.Rand, dim int, lo, hi float64) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	return v
}

// randomCenters places k well-separated centers uniformly in
// [lo, hi]^dim, resampling any center that lands closer than minSep to
// an already placed one (up to a bounded number of retries so the
// function always terminates).
func randomCenters(rng *rand.Rand, k, dim int, lo, hi, minSep float64) [][]float64 {
	centers := make([][]float64, 0, k)
	const maxRetries = 200
	for len(centers) < k {
		best := uniformPoint(rng, dim, lo, hi)
		for retry := 0; retry < maxRetries; retry++ {
			c := uniformPoint(rng, dim, lo, hi)
			ok := true
			for _, existing := range centers {
				if euclid(c, existing) < minSep {
					ok = false
					break
				}
			}
			if ok {
				best = c
				break
			}
		}
		centers = append(centers, best)
	}
	return centers
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// zipfWeights returns k weights proportional to 1/rank^s, normalized to
// sum to 1. It models the highly skewed class sizes of KDDCUP99.
func zipfWeights(k int, s float64) []float64 {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// sampleCategorical draws an index from the categorical distribution
// given by weights (which must sum to ~1).
func sampleCategorical(rng *rand.Rand, weights []float64) int {
	u := rng.Float64()
	var cum float64
	for i, w := range weights {
		cum += w
		if u <= cum {
			return i
		}
	}
	return len(weights) - 1
}

// SuggestRadius returns the q-quantile (q in (0,1), e.g. 0.01 for 1%)
// of the pairwise distances of a sample of the points, which is how the
// paper (following Rodriguez & Laio) chooses the cluster-cell radius r
// and how Sec. 6.7 sweeps r from 0.5% to 2%.
func SuggestRadius(points []stream.Point, q float64, maxSample int) (float64, error) {
	if len(points) < 2 {
		return 0, fmt.Errorf("gen: need at least 2 points to suggest a radius, have %d", len(points))
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("gen: quantile %v out of range (0,1)", q)
	}
	if maxSample <= 1 {
		maxSample = 500
	}
	rng := rand.New(rand.NewSource(42))
	sample := points
	if len(points) > maxSample {
		sample = make([]stream.Point, maxSample)
		for i := range sample {
			sample[i] = points[rng.Intn(len(points))]
		}
	}
	var dists []float64
	for i := 0; i < len(sample); i++ {
		for j := i + 1; j < len(sample); j++ {
			dists = append(dists, sample[i].Distance(sample[j]))
		}
	}
	sort.Float64s(dists)
	idx := int(q * float64(len(dists)))
	if idx >= len(dists) {
		idx = len(dists) - 1
	}
	return dists[idx], nil
}

// Bounds returns the per-dimension min and max over the dataset's
// points, useful for sizing grid-based baselines.
func Bounds(points []stream.Point) (lo, hi []float64) {
	if len(points) == 0 {
		return nil, nil
	}
	dim := points[0].Dim()
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	copy(lo, points[0].Vector)
	copy(hi, points[0].Vector)
	for _, p := range points[1:] {
		for i, v := range p.Vector {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}
