// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation section (Sec. 6). Each benchmark drives the same
// runner that cmd/edmbench uses (internal/bench) at a reduced scale so
// that `go test -bench=. -benchmem` regenerates every experiment in a
// few minutes; run `edmbench <id> -points <n>` for larger workloads.
// Reported custom metrics:
//
//	resp_us/update   mean response time of a cluster-update request (µs)
//	pts/sec          throughput
//	cmm              mean CMM cluster quality
//
// EXPERIMENTS.md records the paper-vs-measured comparison for each ID.
//
// The file lives in the external test package: internal/bench
// imports the root package (its drills drive the public API through
// the network layer), so an in-package test importing internal/bench
// would be an import cycle.
package edmstream_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/bench"
	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/gen"
	"github.com/densitymountain/edmstream/internal/stream"
)

// benchScale is the workload size used by the benchmarks. Every phase
// of the algorithms (initialization, promotion, decay, deletion,
// evolution) occurs well within this length.
func benchScale() bench.Scale { return bench.Scale{Points: 12000, Seed: 1, Rate: 1000} }

func reportResult(b *testing.B, r bench.Result) {
	b.Helper()
	b.ReportMetric(float64(r.MeanResponseTime.Microseconds()), "resp_us/update")
	b.ReportMetric(r.MeanThroughput, "pts/sec")
	if r.MeanCMM > 0 {
		b.ReportMetric(r.MeanCMM, "cmm")
	}
}

// BenchmarkTable2Datasets regenerates the dataset inventory (Table 2).
func BenchmarkTable2Datasets(b *testing.B) {
	s := benchScale()
	s.Points = 4000
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable2(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("expected 7 datasets, got %d", len(rows))
		}
	}
}

// BenchmarkFig6Snapshots regenerates the SDS snapshot sequence (Fig. 6).
func BenchmarkFig6Snapshots(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		snaps, err := bench.RunFig6(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(snaps) != 6 {
			b.Fatalf("expected 6 snapshots, got %d", len(snaps))
		}
	}
}

// BenchmarkFig7Evolution regenerates the SDS evolution timeline (Fig. 7).
func BenchmarkFig7Evolution(b *testing.B) {
	s := benchScale()
	var events int
	for i := 0; i < b.N; i++ {
		ev, _, err := bench.RunFig7(s)
		if err != nil {
			b.Fatal(err)
		}
		events = len(ev)
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkFig8News regenerates the news-stream use case (Fig. 8 /
// Table 3).
func BenchmarkFig8News(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.FinalClusters) == 0 {
			b.Fatal("no news clusters")
		}
	}
}

// benchmarkComparison backs the Fig. 9 (response time), Fig. 10
// (throughput) and Fig. 13 (CMM) benchmarks: one sub-benchmark per
// algorithm and dataset.
func benchmarkComparison(b *testing.B, computeCMM bool) {
	s := benchScale()
	if computeCMM {
		s.Points = 6000 // CMM evaluation is the dominant cost
	}
	for _, name := range bench.ComparisonDatasets() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := bench.RunComparison(name, s, computeCMM)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					for _, r := range results {
						b.Run(r.Algorithm, func(sb *testing.B) {
							// Report-only sub-benchmark: attach the measured
							// metrics of the shared run to a named entry.
							for j := 0; j < sb.N; j++ {
							}
							reportResult(sb, r)
						})
					}
				}
			}
		})
	}
}

// BenchmarkFig9ResponseTime regenerates the response-time comparison
// (Fig. 9 a–c).
func BenchmarkFig9ResponseTime(b *testing.B) { benchmarkComparison(b, false) }

// BenchmarkFig10Throughput regenerates the throughput comparison
// (Fig. 10 a–c). It shares the measurement path with Fig. 9; the
// throughput metric is reported per algorithm.
func BenchmarkFig10Throughput(b *testing.B) { benchmarkComparison(b, false) }

// BenchmarkFig13CMM regenerates the cluster-quality comparison
// (Fig. 13 a–c).
func BenchmarkFig13CMM(b *testing.B) { benchmarkComparison(b, true) }

// BenchmarkFig11Filters regenerates the filtering-strategy comparison
// (Fig. 11 a–c): accumulated dependency-update time for wf, df and
// df+tif.
func BenchmarkFig11Filters(b *testing.B) {
	s := benchScale()
	for _, name := range bench.ComparisonDatasets() {
		b.Run(name, func(b *testing.B) {
			var results []bench.FilterResult
			for i := 0; i < b.N; i++ {
				var err error
				results, err = bench.RunFig11(name, s)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range results {
				b.ReportMetric(float64(r.Accumulated.Milliseconds()), fmt.Sprintf("%s_ms", r.Mode))
			}
		})
	}
}

// BenchmarkFig12Dimensions regenerates the dimensionality sweep
// (Fig. 12). The benchmark uses 10–100 dimensions; pass -points to
// edmbench for the 300-D and 1000-D runs.
func BenchmarkFig12Dimensions(b *testing.B) {
	s := benchScale()
	s.Points = 4000
	for i := 0; i < b.N; i++ {
		results, err := bench.RunFig12([]int{10, 30, 100}, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, dr := range results {
				for _, r := range dr.Results {
					if r.Algorithm == "EDMStream" {
						b.ReportMetric(float64(r.MeanResponseTime.Microseconds()), fmt.Sprintf("edm_%dd_us", dr.Dim))
					}
				}
			}
		}
	}
}

// BenchmarkFig14StreamRates regenerates the quality-vs-rate experiment
// (Fig. 14).
func BenchmarkFig14StreamRates(b *testing.B) {
	s := benchScale()
	s.Points = 6000
	for i := 0; i < b.N; i++ {
		results, err := bench.RunFig14([]float64{1000, 5000, 10000}, s)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.Result.MeanCMM, fmt.Sprintf("cmm_%.0fps", r.Rate))
			}
		}
	}
}

// BenchmarkFig15Table4AdaptiveTau regenerates the dynamic-vs-static τ
// comparison (Fig. 15 / Table 4).
func BenchmarkFig15Table4AdaptiveTau(b *testing.B) {
	s := benchScale()
	var tc bench.TauComparison
	for i := 0; i < b.N; i++ {
		var err error
		tc, err = bench.RunTable4(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	diverged := 0
	for i := range tc.Seconds {
		if tc.DynamicClusters[i] != tc.StaticClusters[i] {
			diverged++
		}
	}
	b.ReportMetric(float64(diverged), "seconds_diverged")
}

// BenchmarkFig16Reservoir regenerates the outlier-reservoir experiment
// (Fig. 16 a–b).
func BenchmarkFig16Reservoir(b *testing.B) {
	s := benchScale()
	s.Points = 6000
	for _, name := range []string{"covertype", "pamap2"} {
		b.Run(name, func(b *testing.B) {
			var results []bench.ReservoirResult
			for i := 0; i < b.N; i++ {
				var err error
				results, err = bench.RunFig16(name, []float64{1000, 5000, 10000}, s)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range results {
				b.ReportMetric(float64(r.MaxSize), fmt.Sprintf("max_%.0fps", r.Rate))
				b.ReportMetric(r.Bound, fmt.Sprintf("bound_%.0fps", r.Rate))
			}
		})
	}
}

// BenchmarkFig17Radius regenerates the cluster-cell radius sweep
// (Fig. 17 a–b).
func BenchmarkFig17Radius(b *testing.B) {
	s := benchScale()
	s.Points = 5000
	var results []bench.RadiusResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = bench.RunFig17(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		b.ReportMetric(r.MeanCMM, fmt.Sprintf("cmm_r%.1f%%", r.Quantile*100))
		b.ReportMetric(float64(r.MeanResponse.Microseconds()), fmt.Sprintf("us_r%.1f%%", r.Quantile*100))
	}
}

// BenchmarkAblation runs the extra design-choice studies of `edmbench
// ablation` (adaptive vs static τ under drift, cell granularity).
func BenchmarkAblation(b *testing.B) {
	s := benchScale()
	s.Points = 4000
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblation(s); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkIngestMode drives the bursty 2-D lattice workload
// (bench.LatticeStream, ≈1300 simultaneously active cells) through the
// public API in the given batch size (1 = plain Insert) with the given
// nearest-seed index. One op is one point, so with -benchmem the
// allocs/op column is allocations per ingested point; seed_cands/pt is
// the seed distances the index measured per point.
func benchmarkIngestMode(b *testing.B, batchSize int, policy edmstream.IndexPolicy) {
	const rate = 1000.0
	warmup := 16000
	pts := bench.LatticeStream(warmup+200000, 1, rate)
	opts := edmstream.Options{
		Radius: 1.0, Rate: rate, Decay: edmstream.Decay{A: 0.99995, Lambda: rate},
		Beta: 1e-4, Tau: 6.0, InitPoints: 500,
		IndexPolicy: policy, EvolutionInterval: -1,
	}
	c, err := edmstream.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmup; i++ {
		if err := c.Insert(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
	// Restamped times continue the warm-up's clock, so the measured
	// points arrive at steady state rather than after a gap that
	// decays every cell.
	measured := pts[warmup:]
	nextTime := pts[warmup-1].Time
	batch := make([]edmstream.Point, 0, batchSize)
	candsBefore := c.Stats().SeedCandidates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := measured[i%len(measured)]
		nextTime += 1 / rate
		p.Time = nextTime
		if batchSize <= 1 {
			if err := c.Insert(p); err != nil {
				b.Fatal(err)
			}
			continue
		}
		batch = append(batch, p)
		if len(batch) == batchSize || i == b.N-1 {
			if err := c.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	st := c.Stats()
	b.ReportMetric(float64(st.SeedCandidates-candsBefore)/float64(b.N), "seed_cands/pt")
	b.ReportMetric(float64(st.ActiveCells), "active_cells")
}

// BenchmarkIndexNearestSeed measures the indexed-vs-linear nearest-seed
// hot path (not in the paper): per-point insert cost with the grid
// index and with the linear scan on the lattice workload. Compare the
// grid and linear sub-benchmarks' ns/op and seed_cands/pt.
func BenchmarkIndexNearestSeed(b *testing.B) {
	b.Run("grid", func(b *testing.B) { benchmarkIngestMode(b, 1, edmstream.IndexGrid) })
	b.Run("linear", func(b *testing.B) { benchmarkIngestMode(b, 1, edmstream.IndexLinear) })
}

// BenchmarkInsertBatch compares batched ingestion against per-point
// ingestion on the lattice workload. The per-point and batch-256
// sub-benchmarks measure steady-state cost per point through the
// public API.
func BenchmarkInsertBatch(b *testing.B) {
	b.Run("per-point", func(b *testing.B) { benchmarkIngestMode(b, 1, edmstream.IndexGrid) })
	b.Run("batch-256", func(b *testing.B) { benchmarkIngestMode(b, 256, edmstream.IndexGrid) })
}

// BenchmarkRefresh measures what incremental cluster extraction buys
// (not in the paper): the latency of one snapshot refresh after each
// 100 ms of stream time, with the incremental MSD-subtree extraction
// and with the from-scratch rebuild, on the warmed-up lattice workload.
// The slow decay (a = 0.99999, steady-state stream weight 100k)
// keeps the density ranking, and with it the dependency links, stable
// between refreshes: the serving regime the incremental path is built
// for. It drives internal/core because the full rebuild is not a
// public option. ns/op includes the 100 ingested points; ns/refresh is
// the refresh alone.
func BenchmarkRefresh(b *testing.B) {
	const (
		rate   = 1000.0
		warmup = 100000 // ~1.4 density half-lives
		chunk  = 100    // 100 ms of stream time
		batch  = 256
	)
	pts := bench.LatticeStream(warmup+100000, 1, rate)
	for _, mode := range []string{"incremental", "full"} {
		b.Run(mode, func(b *testing.B) {
			edm, err := core.New(core.Config{
				Radius: 1.0, Rate: rate, Decay: stream.Decay{A: 0.99999, Lambda: rate},
				Beta: 3e-5, Tau: 6.0, InitPoints: 500,
				IndexPolicy: core.IndexGrid, EvolutionInterval: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			edm.SetFullExtraction(mode == "full")
			for i := 0; i < warmup; i += batch {
				if err := edm.InsertBatch(pts[i:min(i+batch, warmup)]); err != nil {
					b.Fatal(err)
				}
			}
			edm.Refresh()
			measured := pts[warmup:]
			nextTime := pts[warmup-1].Time
			buf := make([]stream.Point, chunk)
			var refresh time.Duration
			var snap core.Snapshot
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range buf {
					buf[j] = measured[(i*chunk+j)%len(measured)]
					nextTime += 1 / rate
					buf[j].Time = nextTime
				}
				if err := edm.InsertBatch(buf); err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				snap = edm.Refresh()
				refresh += time.Since(t0)
			}
			b.ReportMetric(float64(refresh.Nanoseconds())/float64(b.N), "ns/refresh")
			b.ReportMetric(float64(snap.ActiveCells), "active_cells")
		})
	}
}

// BenchmarkInsert measures the raw per-point insertion cost of
// EDMStream (the quantity behind the paper's "7–23 µs per update"
// claim), on the KDD-like workload.
func BenchmarkInsert(b *testing.B) {
	s := benchScale()
	ds, err := gen.ByName("kdd", s.Points, s.Seed)
	if err != nil {
		b.Fatal(err)
	}
	edm, err := bench.NewEDMStream(ds.SuggestedRadius, s.Rate, false)
	if err != nil {
		b.Fatal(err)
	}
	src, err := ds.RateSource(s.Rate)
	if err != nil {
		b.Fatal(err)
	}
	points := make([]edmstream.Point, 0, ds.Len())
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		points = append(points, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := points[i%len(points)]
		p.Time = float64(i) / s.Rate
		if err := edm.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot measures the cost of a cluster-update request
// against a populated DP-Tree.
func BenchmarkSnapshot(b *testing.B) {
	s := benchScale()
	ds, err := gen.ByName("kdd", s.Points, s.Seed)
	if err != nil {
		b.Fatal(err)
	}
	edm, err := bench.NewEDMStream(ds.SuggestedRadius, s.Rate, false)
	if err != nil {
		b.Fatal(err)
	}
	src, err := ds.RateSource(s.Rate)
	if err != nil {
		b.Fatal(err)
	}
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := edm.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := edm.Snapshot(); snap.ActiveCells == 0 {
			b.Fatal("no active cells in snapshot")
		}
	}
}
