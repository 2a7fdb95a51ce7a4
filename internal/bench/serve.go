package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the serving experiment (not in the paper): it
// measures the read side built in PR 3 — incremental snapshot-refresh
// latency against the PR 2 from-scratch rebuild on a steady-state
// stream with ~1.9k active cluster-cells, and concurrent Assign
// queries/sec with one writer goroutine ingesting while N reader
// goroutines classify points against the published snapshot.
// cmd/edmbench writes the result as a BENCH_serve.json artifact so the
// performance trajectory stays machine-readable across revisions.

// ServeReaders is the number of concurrent query goroutines the
// experiment runs against the single writer.
const ServeReaders = 4

// serveBatchSize is the writer's ingest batch size.
const serveBatchSize = 256

// ServeRefreshResult is the refresh-latency outcome of one extraction
// mode.
type ServeRefreshResult struct {
	// Mode is "incremental" or "full" (the PR 2 from-scratch rebuild).
	Mode string `json:"mode"`
	// Refreshes is the number of timed snapshot refreshes; each is
	// preceded by 100 ms of stream time worth of ingested points.
	Refreshes int `json:"refreshes"`
	// MedianNanos, MeanNanos, MinNanos and MaxNanos summarize the
	// per-refresh wall-clock latency. The refresh speedup is computed
	// from the medians, which are robust against scheduler and GC
	// outliers polluting a mean of sub-millisecond samples.
	MedianNanos int64   `json:"median_nanos"`
	MeanNanos   float64 `json:"mean_nanos"`
	MinNanos    int64   `json:"min_nanos"`
	MaxNanos    int64   `json:"max_nanos"`
	// ActiveCells and Clusters fingerprint the final clustering so the
	// two modes can be checked for agreement.
	ActiveCells int `json:"active_cells"`
	Clusters    int `json:"clusters"`
}

// ServeReport is the JSON-serializable outcome of the experiment.
type ServeReport struct {
	// Schema versions the artifact layout for cross-revision tooling.
	Schema string `json:"schema"`
	// Points is the refresh-phase stream length, Seed the generator
	// seed.
	Points int   `json:"points"`
	Seed   int64 `json:"seed"`
	// Incremental and Full are the two refresh-latency runs;
	// RefreshSpeedup is Full.MedianNanos / Incremental.MedianNanos.
	Incremental    ServeRefreshResult `json:"incremental"`
	Full           ServeRefreshResult `json:"full"`
	RefreshSpeedup float64            `json:"refresh_speedup"`
	// Readers is the number of concurrent query goroutines;
	// Queries/QueryWallNanos/QueriesPerSec measure their aggregate
	// Assign throughput while the writer ingests.
	Readers        int     `json:"readers"`
	Queries        int64   `json:"queries"`
	QueryWallNanos int64   `json:"query_wall_nanos"`
	QueriesPerSec  float64 `json:"queries_per_sec"`
	// HitRate is the serving SLO number: the fraction of
	// in-distribution probes — points in the jitter core of a lattice
	// site whose cluster the published snapshot serves — that Assign
	// classified while the writer churned the engine. Before v2 of
	// this schema the probe set also mixed in the stream's uniform
	// background noise, the extreme tail of its burst jitter and
	// bursts at below-threshold (cold) sites, which capped the
	// reported rate at ~0.9985 by construction: all three are probes
	// the clustering is *supposed* to reject (ingesting one would land
	// in an inactive outlier cell, or seed a new one), so their
	// rejection is correct serving behavior, not an index miss — the
	// frozen probe window is exact for query radii up to the bucket
	// side (see index.Frozen.Assign). Those out-of-distribution probes
	// are now measured separately: NoiseQueries counts them and
	// NoiseHitRate reports how often one still fell within the cell
	// radius of a published seed (the jitter shoulder usually does,
	// and cold sites warm up as the writer replays traffic; uniform
	// noise rarely does).
	HitRate      float64 `json:"hit_rate"`
	NoiseQueries int64   `json:"noise_queries"`
	NoiseHitRate float64 `json:"noise_hit_rate"`
	// WriterPointsPerSec is the writer's ingest throughput while being
	// hammered by the readers.
	WriterPointsPerSec float64 `json:"writer_points_per_sec"`
	// AllocsPerQuery is the heap allocation count of a steady-state
	// Assign, measured single-threaded on a quiescent engine after
	// warm-up (the acceptance target is zero).
	AllocsPerQuery float64 `json:"allocs_per_query"`
}

// ServeStream builds the steady-state serving workload: points drawn
// from the same sites×sites lattice as ThroughputStream, but
// with per-site weights forming smooth density mountains (a few
// Gaussian humps spanning a 2–40 weight range) instead of independent
// random weights. Neighboring sites then differ in density by a clear
// margin almost everywhere, so the DP-Tree's dependency links — and
// with them the cluster partition — stay put between refreshes: the
// regime a serving deployment sits in once its clusters have formed,
// and the regime the incremental extraction is designed for (few dirty
// subtrees per refresh). Bursts of 2–6 points per site keep the
// temporal locality of sessionized traffic; 0.5% uniform noise keeps
// the reservoir path exercised without dominating the churn.
func ServeStream(n int, seed int64, rate float64) []stream.Point {
	const spacing = 4.0
	rng := rand.New(rand.NewSource(seed))
	nsites := indexBenchSites * indexBenchSites
	type site struct{ x, y float64 }
	sites := make([]site, 0, nsites)
	for i := 0; i < indexBenchSites; i++ {
		for j := 0; j < indexBenchSites; j++ {
			sites = append(sites, site{float64(i) * spacing, float64(j) * spacing})
		}
	}
	// A few Gaussian weight mountains over the lattice.
	const mountains = 8
	type hump struct{ cx, cy, sigma, height float64 }
	humps := make([]hump, mountains)
	span := float64(indexBenchSites) * spacing
	for m := range humps {
		humps[m] = hump{
			cx:     rng.Float64() * span,
			cy:     rng.Float64() * span,
			sigma:  (3 + 2*rng.Float64()) * spacing,
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

// ServeConfig parameterizes EDMStream for the serving workload: the
// ThroughputConfig configuration, but with a slower decay
// (a = 0.99999 per point, steady-state stream weight 100k instead of
// 20k) so accumulated cell densities dwarf individual bursts and the
// density ranking — and with it the DP-Tree's dependency links — is
// stable between refreshes. That is the steady serving regime the
// incremental extraction is designed for; the cluster structure is
// identical under both extraction modes either way.
func ServeConfig(rate float64) core.Config {
	cfg := ThroughputConfig(rate)
	cfg.Decay = stream.Decay{A: 0.99999, Lambda: rate}
	cfg.Beta = 3e-5
	return cfg
}

// serveWarmup is the warm-up length: with the slow serving decay the
// steady-state density half-life is ~70 stream-seconds, so the warm-up
// replays 100 stream-seconds of traffic to bring the lattice cells to
// their equilibrium densities before anything is measured.
func serveWarmup() int { return 100000 }

// newServeEngine builds a warmed-up engine at steady state.
func newServeEngine(s Scale, pts []stream.Point, full bool) (*core.EDMStream, error) {
	edm, err := core.New(ServeConfig(s.Rate))
	if err != nil {
		return nil, fmt.Errorf("bench: building EDMStream: %w", err)
	}
	edm.SetFullExtraction(full)
	warmup := serveWarmup()
	for i := 0; i < warmup; i += serveBatchSize {
		end := i + serveBatchSize
		if end > warmup {
			end = warmup
		}
		if err := edm.InsertBatch(pts[i:end]); err != nil {
			return nil, fmt.Errorf("bench: warm-up batch %d:%d: %w", i, end, err)
		}
	}
	edm.Refresh()
	return edm, nil
}

// measureServeRefresh times `refreshes` snapshot refreshes, each after
// 100 ms of stream time worth of ingestion, for one extraction mode.
func measureServeRefresh(s Scale, pts []stream.Point, refreshes, chunk int, full bool) (ServeRefreshResult, error) {
	edm, err := newServeEngine(s, pts, full)
	if err != nil {
		return ServeRefreshResult{}, err
	}
	mode := "incremental"
	if full {
		mode = "full"
	}
	r := ServeRefreshResult{Mode: mode, Refreshes: refreshes, MinNanos: int64(^uint64(0) >> 1)}
	pos := serveWarmup()
	var total int64
	durations := make([]int64, 0, refreshes)
	var snap core.Snapshot
	for i := 0; i < refreshes; i++ {
		for n := 0; n < chunk; n += serveBatchSize {
			end := pos + serveBatchSize
			if end > pos+chunk-n {
				end = pos + chunk - n
			}
			if end > len(pts) {
				return ServeRefreshResult{}, fmt.Errorf("bench: serve stream too short")
			}
			if err := edm.InsertBatch(pts[pos:end]); err != nil {
				return ServeRefreshResult{}, fmt.Errorf("bench: refresh-phase batch: %w", err)
			}
			pos = end
		}
		t0 := time.Now()
		snap = edm.Refresh()
		d := time.Since(t0).Nanoseconds()
		total += d
		durations = append(durations, d)
		if d < r.MinNanos {
			r.MinNanos = d
		}
		if d > r.MaxNanos {
			r.MaxNanos = d
		}
	}
	r.MeanNanos = float64(total) / float64(refreshes)
	sort.Slice(durations, func(a, b int) bool { return durations[a] < durations[b] })
	r.MedianNanos = durations[len(durations)/2]
	r.ActiveCells = snap.ActiveCells
	r.Clusters = snap.NumClusters()
	return r, nil
}

// RunServe measures the serving layer: (a) snapshot-refresh latency of
// the incremental extraction against the PR 2 full rebuild on an
// identical steady-state stream, and (b) aggregate Assign queries/sec
// of ServeReaders goroutines running against one continuously
// ingesting writer. The two refresh runs' clustering fingerprints must
// agree (byte-identical extraction is separately property-tested) or
// an error is returned.
func RunServe(s Scale) (ServeReport, error) {
	// A serving deployment refreshes frequently to keep served
	// snapshots fresh — cheap refreshes are exactly what the
	// incremental extraction buys — so the experiment refreshes ten
	// times per stream-second (100 ms snapshot staleness). The full
	// rebuild pays its O(active cells) price at every one of those
	// refreshes; the incremental path pays for the handful of subtrees
	// the 100 ms of traffic actually moved.
	chunk := int(s.Rate) / 10
	if chunk < 50 {
		chunk = 50
	}
	refreshes := s.Points / chunk
	if refreshes < 5 {
		refreshes = 5
	}
	warmup := serveWarmup()
	pts := ServeStream(warmup+refreshes*chunk, s.Seed, s.Rate)

	inc, err := measureServeRefresh(s, pts, refreshes, chunk, false)
	if err != nil {
		return ServeReport{}, err
	}
	full, err := measureServeRefresh(s, pts, refreshes, chunk, true)
	if err != nil {
		return ServeReport{}, err
	}
	if inc.ActiveCells != full.ActiveCells || inc.Clusters != full.Clusters {
		return ServeReport{}, fmt.Errorf(
			"bench: incremental and full extraction diverged: incremental {cells %d clusters %d}, full {cells %d clusters %d}",
			inc.ActiveCells, inc.Clusters, full.ActiveCells, full.Clusters)
	}
	rep := ServeReport{
		Schema:      "edmstream-serve/v2",
		Points:      refreshes * chunk,
		Seed:        s.Seed,
		Incremental: inc,
		Full:        full,
		Readers:     ServeReaders,
	}
	if inc.MedianNanos > 0 {
		rep.RefreshSpeedup = float64(full.MedianNanos) / float64(inc.MedianNanos)
	}

	if err := runServeConcurrent(s, pts, &rep); err != nil {
		return ServeReport{}, err
	}
	return rep, nil
}

// runServeConcurrent drives the 1-writer + N-reader phase and the
// quiescent allocation measurement, filling the query fields of rep.
func runServeConcurrent(s Scale, pts []stream.Point, rep *ServeReport) error {
	edm, err := newServeEngine(s, pts, false)
	if err != nil {
		return err
	}

	// Probe points: a slice of the measured stream, partitioned into
	// in-distribution probes (burst points in a lattice site's jitter
	// core — the traffic a serving deployment classifies) and
	// out-of-core probes (the stream's uniform background noise plus
	// the burst jitter's extreme tail — points the radius rule itself
	// treats as outliers). See classifyServeProbes.
	warmup := serveWarmup()
	probes := pts[warmup:]
	if len(probes) > 8192 {
		probes = probes[:8192]
	}
	clusterProbes, outProbes := classifyServeProbes(probes)
	if len(clusterProbes) == 0 {
		return fmt.Errorf("bench: no in-distribution serve probes")
	}

	// Pre-pass on the warmed, quiescent engine: in-core probes whose
	// site is too cold to be a cluster — below the active threshold, so
	// not published — are correct rejections, exactly like the noise
	// probes (ingesting one would land in an inactive outlier cell).
	// They join the out-of-distribution set, and the headline hit rate
	// measures what a serving SLO means: traffic belonging to published
	// clusters keeps being served while the writer churns the engine.
	edm.Refresh()
	served := make([]stream.Point, 0, len(clusterProbes))
	for _, p := range clusterProbes {
		if _, ok := edm.Assign(p); ok {
			served = append(served, p)
		} else {
			outProbes = append(outProbes, p)
		}
	}
	if len(served) == 0 {
		return fmt.Errorf("bench: no served-cluster probes after the cold-site pre-pass")
	}

	// The writer cycles over the tail of the stream, restamping times
	// so the stream clock keeps advancing at s.Rate, and refreshes the
	// published snapshot once per stream-second — the steady serving
	// regime. The ring is the writer's own copy: restamping must not
	// mutate the probe slice the readers read concurrently.
	ring := append([]stream.Point(nil), pts[warmup:]...)
	now := edm.Now()
	var stop atomic.Bool
	var written atomic.Int64
	var wg sync.WaitGroup

	// Wall-clock duration of the measured window, scaled with Points
	// so CI smoke runs stay fast.
	duration := time.Duration(float64(time.Second) * float64(s.Points) / 20000)
	if duration < 150*time.Millisecond {
		duration = 150 * time.Millisecond
	}
	if duration > 2*time.Second {
		duration = 2 * time.Second
	}

	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		pos := 0
		sinceRefresh := 0
		for !stop.Load() {
			end := pos + serveBatchSize
			if end > len(ring) {
				pos, end = 0, serveBatchSize
			}
			batch := ring[pos:end]
			for i := range batch {
				now += 1 / s.Rate
				batch[i].Time = now
			}
			if err := edm.InsertBatch(batch); err != nil {
				writerErr = fmt.Errorf("bench: serve writer: %w", err)
				return
			}
			written.Add(int64(len(batch)))
			sinceRefresh += len(batch)
			if sinceRefresh >= int(s.Rate)/10 {
				edm.Refresh()
				sinceRefresh = 0
			}
			pos = end
		}
	}()

	var queries, hits, noiseQueries, noiseHits atomic.Int64
	for r := 0; r < ServeReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var q, h, nq, nh int64
			for i := r; !stop.Load(); i++ {
				// One query in 200 probes the out-of-core set so both
				// rates are measured under the same concurrent load.
				// Indexing by the reader's own (staggered) noise counter
				// walks the whole set — indexing by i would visit only
				// the residues 199 mod 200 of it.
				if len(outProbes) > 0 && i%200 == 199 {
					if _, ok := edm.Assign(outProbes[(int(nq)*ServeReaders+r)%len(outProbes)]); ok {
						nh++
					}
					nq++
					continue
				}
				if _, ok := edm.Assign(served[i%len(served)]); ok {
					h++
				}
				q++
			}
			queries.Add(q)
			hits.Add(h)
			noiseQueries.Add(nq)
			noiseHits.Add(nh)
		}(r)
	}

	t0 := time.Now()
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(t0)
	if writerErr != nil {
		return writerErr
	}

	rep.Queries = queries.Load() + noiseQueries.Load()
	rep.NoiseQueries = noiseQueries.Load()
	rep.QueryWallNanos = wall.Nanoseconds()
	if wall > 0 {
		rep.QueriesPerSec = float64(rep.Queries) / wall.Seconds()
		rep.WriterPointsPerSec = float64(written.Load()) / wall.Seconds()
	}
	if q := queries.Load(); q > 0 {
		rep.HitRate = float64(hits.Load()) / float64(q)
	}
	if rep.NoiseQueries > 0 {
		rep.NoiseHitRate = float64(noiseHits.Load()) / float64(rep.NoiseQueries)
	}

	// Steady-state allocation count: quiescent engine, index warmed by
	// one throwaway query (the first Assign after a membership change
	// builds the frozen index).
	edm.Refresh()
	edm.Assign(served[0])
	const allocRuns = 100000
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		edm.Assign(served[i%len(served)])
	}
	runtime.ReadMemStats(&after)
	rep.AllocsPerQuery = float64(after.Mallocs-before.Mallocs) / float64(allocRuns)
	return nil
}

// classifyServeProbes splits a slice of the serve stream into
// in-distribution probes — points in the jitter core of a lattice
// site, the traffic a serving deployment routinely classifies — and
// everything else: the stream's uniform background noise plus the
// extreme tail of the burst jitter. The stream emits cluster points at
// site ± N(0, 0.25²) per axis; the in-distribution threshold is 0.5
// (2σ) per axis, which keeps a probe within the cell radius of the
// seeds that accumulate around its site. Points beyond it are exactly
// the ones the radius rule itself treats as outliers — ingesting such
// a point would seed a fresh outlier cell rather than joining the
// site's cluster — so counting their (correct) rejections against the
// serving hit rate would cap it by workload construction, not by any
// index behavior.
func classifyServeProbes(pts []stream.Point) (cluster, noise []stream.Point) {
	const spacing = 4.0
	hi := float64(indexBenchSites-1) * spacing
	for _, p := range pts {
		in := true
		for _, v := range p.Vector {
			g := math.Round(v/spacing) * spacing
			if g < 0 {
				g = 0
			} else if g > hi {
				g = hi
			}
			if math.Abs(v-g) > 0.5 {
				in = false
				break
			}
		}
		if in {
			cluster = append(cluster, p)
		} else {
			noise = append(noise, p)
		}
	}
	return cluster, noise
}
