package bench

import (
	"math/rand"

	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the bursty 2-D lattice ingest workload that the
// root BenchmarkInsertBatch and the serve experiment drive: over a
// thousand simultaneously active cluster-cells.

// ThroughputBatchSize is the batch size BenchmarkInsertBatch feeds
// InsertBatch with.
const ThroughputBatchSize = 256

// ThroughputStream builds the bursty 2-D lattice workload: points
// drawn from a sites×sites lattice of weighted seed locations (as in
// the index experiment), but emitted in bursts of 2–10 consecutive
// points per site — the temporal locality of sessionized or
// sensor-driven traffic, where one user/sensor emits a run of events
// before the stream moves on. Bursts are what batched ingestion's
// same-cell run coalescing exploits; 2% uniform background noise
// exercises the reservoir path.
func ThroughputStream(n int, seed int64, rate float64) []stream.Point {
	const spacing = 4.0
	rng := rand.New(rand.NewSource(seed))
	nsites := indexBenchSites * indexBenchSites
	sites := make([][2]float64, 0, nsites)
	for i := 0; i < indexBenchSites; i++ {
		for j := 0; j < indexBenchSites; j++ {
			sites = append(sites, [2]float64{float64(i) * spacing, float64(j) * spacing})
		}
	}
	cum := make([]float64, nsites)
	total := 0.0
	for i := range cum {
		total += 2 + 8*rng.Float64()
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
	span := float64(indexBenchSites) * spacing
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
		if rng.Float64() < 0.02 {
			emit([]float64{rng.Float64()*span*1.5 - span/4, rng.Float64()*span*1.5 - span/4})
			continue
		}
		s := sites[pickSite()]
		burst := 2 + rng.Intn(9)
		for b := 0; b < burst && len(pts) < n; b++ {
			emit([]float64{s[0] + rng.NormFloat64()*0.25, s[1] + rng.NormFloat64()*0.25})
		}
	}
	return pts
}

// ThroughputConfig parameterizes EDMStream for the throughput
// workload: the index experiment's configuration (≈1600 simultaneously
// active cells) on the grid index, with automatic evolution checks
// disabled — the workload isolates the ingest path; the cost of a
// cluster-update request is what the Fig. 9 experiment measures.
// Maintenance sweeps still run on their regular schedule.
func ThroughputConfig(rate float64) core.Config {
	cfg := indexBenchConfig(rate, core.IndexGrid)
	cfg.EvolutionInterval = -1
	return cfg
}
