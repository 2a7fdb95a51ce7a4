package bench

import (
	"fmt"
	"sort"
	"time"

	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/gen"
	"github.com/densitymountain/edmstream/internal/metrics"
	"github.com/densitymountain/edmstream/internal/stream"
	"github.com/densitymountain/edmstream/internal/text"
)

// Scale controls how large the synthetic workloads are. The paper's
// full sizes (Table 2) take minutes per experiment on a laptop; the
// default scale used by `go test -bench` and cmd/edmbench is smaller
// but produces the same curve shapes because every quantity is reported
// against stream length.
type Scale struct {
	// Points is the stream length per dataset.
	Points int
	// Seed seeds the deterministic generators.
	Seed int64
	// Rate is the arrival rate in points per second.
	Rate float64
}

// dataset builds one of the named datasets at the given scale.
func dataset(name string, s Scale) (gen.Dataset, error) {
	return gen.ByName(name, s.Points, s.Seed)
}

// ---------------------------------------------------------------------------
// Table 2 — dataset inventory
// ---------------------------------------------------------------------------

// DatasetRow is one row of Table 2.
type DatasetRow struct {
	Name      string
	Instances int
	Dim       int
	Clusters  int
	Radius    float64
}

// RunTable2 regenerates the dataset inventory of Table 2 at the given
// scale (the Instances column reports the scaled stream length; the
// full-size cardinalities are documented in the generators).
func RunTable2(s Scale) ([]DatasetRow, error) {
	names := []string{"sds", "hds-10", "hds-30", "hds-100", "kdd", "covertype", "pamap2"}
	rows := make([]DatasetRow, 0, len(names))
	for _, name := range names {
		ds, err := dataset(name, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DatasetRow{
			Name:      ds.Name,
			Instances: ds.Len(),
			Dim:       ds.Dim,
			Clusters:  ds.NumClasses,
			Radius:    ds.SuggestedRadius,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Fig. 6 — SDS snapshots
// ---------------------------------------------------------------------------

// SDSSnapshot summarizes the clustering at one of the Fig. 6 snapshot
// times.
type SDSSnapshot struct {
	Time        float64
	Clusters    int
	ActiveCells int
	Outliers    int
	// PeakSeeds are the cluster peaks' seed coordinates.
	PeakSeeds [][]float64
}

// RunFig6 replays the SDS stream and reports the clustering at the
// paper's six snapshot times (scaled to the stream length).
func RunFig6(s Scale) ([]SDSSnapshot, error) {
	ds, err := dataset("sds", s)
	if err != nil {
		return nil, err
	}
	edm, err := NewEDMStream(ds.SuggestedRadius, s.Rate, false)
	if err != nil {
		return nil, err
	}
	streamSeconds := float64(ds.Len()) / s.Rate
	// The paper's snapshot times 1,4,8,12,14,20 s over a 20 s stream.
	fractions := []float64{0.05, 0.20, 0.40, 0.60, 0.70, 0.9999}
	snapTimes := make([]float64, len(fractions))
	for i, f := range fractions {
		snapTimes[i] = f * streamSeconds
	}

	src, err := ds.RateSource(s.Rate)
	if err != nil {
		return nil, err
	}
	var out []SDSSnapshot
	next := 0
	takeSnapshot := func(at float64) {
		snap := edm.Snapshot()
		s := SDSSnapshot{
			Time:        at,
			Clusters:    snap.NumClusters(),
			ActiveCells: snap.ActiveCells,
			Outliers:    snap.OutlierCells,
		}
		for _, c := range snap.Clusters {
			for i, id := range c.CellIDs {
				if id == c.PeakCellID && c.SeedPoints[i].Vector != nil {
					s.PeakSeeds = append(s.PeakSeeds, c.SeedPoints[i].Vector)
				}
			}
		}
		out = append(out, s)
	}
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := edm.Insert(p); err != nil {
			return nil, err
		}
		for next < len(snapTimes) && p.Time >= snapTimes[next] {
			takeSnapshot(snapTimes[next])
			next++
		}
	}
	// Snapshots scheduled at or after the final point's timestamp are
	// taken on the stream's final state.
	for ; next < len(snapTimes); next++ {
		takeSnapshot(snapTimes[next])
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 7 — cluster evolution activities on SDS
// ---------------------------------------------------------------------------

// RunFig7 replays the SDS stream and returns the cluster evolution log
// (the content of Fig. 7) together with the scripted ground-truth
// schedule for comparison.
func RunFig7(s Scale) ([]core.Event, []gen.SDSEvent, error) {
	ds, err := dataset("sds", s)
	if err != nil {
		return nil, nil, err
	}
	edm, err := core.New(core.Config{
		Radius:            ds.SuggestedRadius,
		Rate:              s.Rate,
		Tau:               2.0,
		InitPoints:        500,
		EvolutionInterval: 0.25,
	})
	if err != nil {
		return nil, nil, err
	}
	src, err := ds.RateSource(s.Rate)
	if err != nil {
		return nil, nil, err
	}
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := edm.Insert(p); err != nil {
			return nil, nil, err
		}
	}
	return edm.Events(), gen.SDSEvents(), nil
}

// ---------------------------------------------------------------------------
// Fig. 8 / Table 3 — news recommendation use case
// ---------------------------------------------------------------------------

// NewsCluster describes one news cluster at the end of the stream: its
// ID and the most common tags among its cell seeds (the analogue of the
// topic tags shown in Fig. 8).
type NewsCluster struct {
	ID   int
	Size int
	Tags []string
}

// NewsEvolutionResult is the outcome of the news use case.
type NewsEvolutionResult struct {
	Events        []core.Event
	FinalClusters []NewsCluster
	Scripted      []text.NewsEvent
}

// RunFig8 runs EDMStream over the synthetic news stream with the
// Jaccard distance and reports the evolution log and the final topic
// clusters with their tags.
func RunFig8(s Scale) (NewsEvolutionResult, error) {
	pts, _, err := text.NewsStream(text.NewsConfig{N: s.Points, Seed: s.Seed}, nil)
	if err != nil {
		return NewsEvolutionResult{}, err
	}
	edm, err := core.New(core.Config{
		Radius:            0.4,
		Rate:              s.Rate,
		Tau:               0.75,
		InitPoints:        500,
		EvolutionInterval: 0.5,
	})
	if err != nil {
		return NewsEvolutionResult{}, err
	}
	src, err := stream.NewRateStamper(stream.NewSliceSource(pts), s.Rate, 0)
	if err != nil {
		return NewsEvolutionResult{}, err
	}
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := edm.Insert(p); err != nil {
			return NewsEvolutionResult{}, err
		}
	}
	snap := edm.Snapshot()
	res := NewsEvolutionResult{Events: edm.Events(), Scripted: text.NewsEvents()}
	for _, c := range snap.Clusters {
		counts := map[string]int{}
		for _, seed := range c.SeedPoints {
			for tok := range seed.Tokens {
				counts[tok]++
			}
		}
		type tc struct {
			tok string
			n   int
		}
		var all []tc
		for tok, n := range counts {
			all = append(all, tc{tok, n})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].n != all[j].n {
				return all[i].n > all[j].n
			}
			return all[i].tok < all[j].tok
		})
		tags := make([]string, 0, 3)
		for i := 0; i < len(all) && i < 3; i++ {
			tags = append(tags, all[i].tok)
		}
		res.FinalClusters = append(res.FinalClusters, NewsCluster{ID: c.ID, Size: len(c.CellIDs), Tags: tags})
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Fig. 9 / Fig. 10 / Fig. 13 — response time, throughput, CMM vs baselines
// ---------------------------------------------------------------------------

// RunComparison drives every algorithm over the named dataset and
// returns one Result per algorithm. computeCMM selects the Fig. 13
// (quality) variant; otherwise only performance is measured (Fig. 9 and
// Fig. 10 read different fields of the same results).
func RunComparison(name string, s Scale, computeCMM bool) ([]Result, error) {
	ds, err := dataset(name, s)
	if err != nil {
		return nil, err
	}
	algos, err := Algorithms(ds, s.Rate)
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Rate: s.Rate, ComputeCMM: computeCMM}
	results := make([]Result, 0, len(algos))
	for _, a := range algos {
		r, err := RunStream(a.Clusterer, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: running %s on %s: %w", a.Name, ds.Name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// ComparisonDatasets are the three real-dataset simulators used by
// Figs. 9, 10, 11 and 13.
func ComparisonDatasets() []string { return []string{"kdd", "covertype", "pamap2"} }

// ---------------------------------------------------------------------------
// Fig. 11 — effect of the filtering strategies
// ---------------------------------------------------------------------------

// FilterSample is one point of the accumulated dependency-update time
// curve.
type FilterSample struct {
	Points      int
	Accumulated time.Duration
}

// FilterResult is the Fig. 11 series for one filter mode.
type FilterResult struct {
	Mode               core.FilterMode
	Samples            []FilterSample
	Accumulated        time.Duration
	Candidates         int64
	FilteredByDensity  int64
	FilteredByTriangle int64
}

// RunFig11 runs EDMStream over the named dataset three times — without
// filtering (wf), with the density filter (df) and with both filters
// (df+tif) — and reports the accumulated dependency-update time.
func RunFig11(name string, s Scale) ([]FilterResult, error) {
	ds, err := dataset(name, s)
	if err != nil {
		return nil, err
	}
	modes := []core.FilterMode{core.FilterNone, core.FilterDensity, core.FilterAll}
	out := make([]FilterResult, 0, len(modes))
	for _, mode := range modes {
		// DetailedStats turns on the wall-clock instrumentation this
		// experiment plots (it is off by default on the ingest path).
		cfg := core.Config{Radius: ds.SuggestedRadius, Rate: s.Rate, Tau: ds.SuggestedRadius * 4, InitPoints: 500, DetailedStats: true}
		cfg.SetFilters(mode)
		edm, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		src, err := ds.RateSource(s.Rate)
		if err != nil {
			return nil, err
		}
		fr := FilterResult{Mode: mode}
		points := 0
		sampleEvery := s.Points / 10
		if sampleEvery == 0 {
			sampleEvery = 1
		}
		for {
			p, ok := src.Next()
			if !ok {
				break
			}
			if err := edm.Insert(p); err != nil {
				return nil, err
			}
			points++
			if points%sampleEvery == 0 {
				fr.Samples = append(fr.Samples, FilterSample{Points: points, Accumulated: edm.Stats().DependencyUpdateTime})
			}
		}
		st := edm.Stats()
		fr.Accumulated = st.DependencyUpdateTime
		fr.Candidates = st.DependencyCandidates
		fr.FilteredByDensity = st.FilteredByDensity
		fr.FilteredByTriangle = st.FilteredByTriangle
		out = append(out, fr)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 12 — varying data dimensionality
// ---------------------------------------------------------------------------

// DimensionResult holds the per-algorithm results for one
// dimensionality.
type DimensionResult struct {
	Dim     int
	Results []Result
}

// RunFig12 measures every algorithm on HDS streams of increasing
// dimensionality.
func RunFig12(dims []int, s Scale) ([]DimensionResult, error) {
	if len(dims) == 0 {
		dims = []int{10, 30, 100}
	}
	out := make([]DimensionResult, 0, len(dims))
	for _, dim := range dims {
		results, err := RunComparison(fmt.Sprintf("hds-%d", dim), s, false)
		if err != nil {
			return nil, err
		}
		out = append(out, DimensionResult{Dim: dim, Results: results})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 14 — cluster quality at different stream rates
// ---------------------------------------------------------------------------

// RateResult is the Fig. 14 row for one stream rate.
type RateResult struct {
	Rate   float64
	Result Result
}

// RunFig14 measures EDMStream's CMM on the CoverType-like stream at
// several arrival rates.
func RunFig14(rates []float64, s Scale) ([]RateResult, error) {
	if len(rates) == 0 {
		rates = []float64{1000, 5000, 10000}
	}
	ds, err := dataset("covertype", s)
	if err != nil {
		return nil, err
	}
	out := make([]RateResult, 0, len(rates))
	for _, rate := range rates {
		edm, err := NewEDMStream(ds.SuggestedRadius, rate, false)
		if err != nil {
			return nil, err
		}
		r, err := RunStream(edm, ds, RunConfig{Rate: rate, ComputeCMM: true})
		if err != nil {
			return nil, err
		}
		out = append(out, RateResult{Rate: rate, Result: r})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 15 / Table 4 — dynamic τ vs static τ
// ---------------------------------------------------------------------------

// TauComparison reports, per whole stream-second, the number of
// clusters found with the adaptive τ and with the τ frozen at its
// initial value (Table 4), plus the τ values themselves.
type TauComparison struct {
	Seconds         []float64
	DynamicClusters []int
	StaticClusters  []int
	DynamicTau      []float64
	StaticTau       float64
	// InitGraph is the decision graph at initialization time (the
	// "init τ" plot of Fig. 15a).
	InitGraph []core.DecisionPoint
}

// RunTable4 replays the SDS stream with adaptive and static τ and
// reports the cluster counts per second.
func RunTable4(s Scale) (TauComparison, error) {
	ds, err := dataset("sds", s)
	if err != nil {
		return TauComparison{}, err
	}
	mk := func(adaptive bool) (*core.EDMStream, error) {
		return core.New(core.Config{
			Radius:            ds.SuggestedRadius,
			Rate:              s.Rate,
			AdaptiveTau:       adaptive,
			InitPoints:        500,
			EvolutionInterval: 0.5,
		})
	}
	dynamic, err := mk(true)
	if err != nil {
		return TauComparison{}, err
	}
	static, err := mk(false)
	if err != nil {
		return TauComparison{}, err
	}

	src, err := ds.RateSource(s.Rate)
	if err != nil {
		return TauComparison{}, err
	}
	out := TauComparison{}
	nextSecond := 1.0
	var graphTaken bool
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := dynamic.Insert(p); err != nil {
			return TauComparison{}, err
		}
		if err := static.Insert(p); err != nil {
			return TauComparison{}, err
		}
		if p.Time >= nextSecond {
			if !graphTaken {
				out.InitGraph = dynamic.DecisionGraph()
				graphTaken = true
			}
			dSnap := dynamic.Snapshot()
			sSnap := static.Snapshot()
			out.Seconds = append(out.Seconds, nextSecond)
			out.DynamicClusters = append(out.DynamicClusters, dSnap.NumClusters())
			out.StaticClusters = append(out.StaticClusters, sSnap.NumClusters())
			out.DynamicTau = append(out.DynamicTau, dynamic.Tau())
			out.StaticTau = static.Tau()
			nextSecond++
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 16 — outlier reservoir size
// ---------------------------------------------------------------------------

// ReservoirSample is one point of the reservoir-size curve.
type ReservoirSample struct {
	Points int
	Size   int
}

// ReservoirResult is the Fig. 16 series for one stream rate.
type ReservoirResult struct {
	Rate    float64
	Bound   float64
	Samples []ReservoirSample
	MaxSize int
}

// RunFig16 measures the outlier reservoir size over the named dataset
// at several stream rates, together with the theoretical upper bound of
// Sec. 4.4.
func RunFig16(name string, rates []float64, s Scale) ([]ReservoirResult, error) {
	if len(rates) == 0 {
		rates = []float64{1000, 5000, 10000}
	}
	ds, err := dataset(name, s)
	if err != nil {
		return nil, err
	}
	out := make([]ReservoirResult, 0, len(rates))
	for _, rate := range rates {
		edm, err := NewEDMStream(ds.SuggestedRadius, rate, false)
		if err != nil {
			return nil, err
		}
		src, err := ds.RateSource(rate)
		if err != nil {
			return nil, err
		}
		rr := ReservoirResult{Rate: rate, Bound: edm.ReservoirBound()}
		points := 0
		sampleEvery := s.Points / 10
		if sampleEvery == 0 {
			sampleEvery = 1
		}
		for {
			p, ok := src.Next()
			if !ok {
				break
			}
			if err := edm.Insert(p); err != nil {
				return nil, err
			}
			points++
			if points%sampleEvery == 0 {
				size := edm.Stats().InactiveCells
				rr.Samples = append(rr.Samples, ReservoirSample{Points: points, Size: size})
				if size > rr.MaxSize {
					rr.MaxSize = size
				}
			}
		}
		out = append(out, rr)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Fig. 17 — effect of the cluster-cell radius r
// ---------------------------------------------------------------------------

// RadiusResult is the Fig. 17 row for one radius choice.
type RadiusResult struct {
	Quantile     float64
	Radius       float64
	MeanCMM      float64
	MeanResponse time.Duration
	ActiveCells  int
}

// RunFig17 sweeps the cluster-cell radius over the 0.5%–2% pairwise
// distance quantiles (as Sec. 6.7 does) on the PAMAP2-like stream and
// reports cluster quality and response time.
func RunFig17(s Scale) ([]RadiusResult, error) {
	ds, err := dataset("pamap2", s)
	if err != nil {
		return nil, err
	}
	quantiles := []float64{0.005, 0.01, 0.015, 0.02}
	out := make([]RadiusResult, 0, len(quantiles))
	for _, q := range quantiles {
		radius, err := gen.SuggestRadius(ds.Points, q, 400)
		if err != nil {
			return nil, err
		}
		if radius <= 0 {
			continue
		}
		edm, err := NewEDMStream(radius, s.Rate, false)
		if err != nil {
			return nil, err
		}
		r, err := RunStream(edm, ds, RunConfig{Rate: s.Rate, ComputeCMM: true})
		if err != nil {
			return nil, err
		}
		out = append(out, RadiusResult{
			Quantile:     q,
			Radius:       radius,
			MeanCMM:      r.MeanCMM,
			MeanResponse: r.MeanResponseTime,
			ActiveCells:  edm.Stats().ActiveCells,
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablations (not in the paper): design-choice studies of two choices
// the paper leaves open, adaptive vs static τ under drift and the
// cell granularity.
// ---------------------------------------------------------------------------

// AblationResult is one ablation row.
type AblationResult struct {
	Study        string
	Variant      string
	MeanCMM      float64
	MeanResponse time.Duration
	Clusters     int
}

// RunAblation runs the extra design-choice studies: adaptive vs static
// τ on the drifting CoverType-like stream, and cluster-cell
// summarization granularity (radius halved / doubled).
func RunAblation(s Scale) ([]AblationResult, error) {
	ds, err := dataset("covertype", s)
	if err != nil {
		return nil, err
	}
	var out []AblationResult

	for _, adaptive := range []bool{false, true} {
		edm, err := NewEDMStream(ds.SuggestedRadius, s.Rate, adaptive)
		if err != nil {
			return nil, err
		}
		r, err := RunStream(edm, ds, RunConfig{Rate: s.Rate, ComputeCMM: true})
		if err != nil {
			return nil, err
		}
		variant := "static-tau"
		if adaptive {
			variant = "adaptive-tau"
		}
		out = append(out, AblationResult{Study: "tau-strategy", Variant: variant, MeanCMM: r.MeanCMM, MeanResponse: r.MeanResponseTime, Clusters: r.FinalClusters})
	}

	for _, mult := range []float64{0.5, 1, 2} {
		edm, err := NewEDMStream(ds.SuggestedRadius*mult, s.Rate, false)
		if err != nil {
			return nil, err
		}
		r, err := RunStream(edm, ds, RunConfig{Rate: s.Rate, ComputeCMM: true})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Study:        "cell-granularity",
			Variant:      fmt.Sprintf("radius x%.1f", mult),
			MeanCMM:      r.MeanCMM,
			MeanResponse: r.MeanResponseTime,
			Clusters:     r.FinalClusters,
		})
	}

	// Quality reference: the shared CMM evaluation on a perfect
	// assignment of the last window, to show the metric's headroom.
	perfect := metricsHeadroom(ds)
	out = append(out, AblationResult{Study: "cmm-headroom", Variant: "ground-truth assignment", MeanCMM: perfect})
	return out, nil
}

// metricsHeadroom computes CMM for the ground-truth assignment of the
// dataset's last 1000 points (an upper reference for Fig. 13-style
// plots).
func metricsHeadroom(ds gen.Dataset) float64 {
	n := len(ds.Points)
	if n == 0 {
		return 0
	}
	start := n - 1000
	if start < 0 {
		start = 0
	}
	window := ds.Points[start:]
	assignment := make([]int, len(window))
	for i, p := range window {
		if p.Label == stream.NoLabel {
			assignment[i] = -1
		} else {
			assignment[i] = p.Label
		}
	}
	v, err := metrics.CMM(window, assignment, metrics.CMMConfig{})
	if err != nil {
		return 0
	}
	return v
}
