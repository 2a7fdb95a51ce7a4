// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation section (Sec. 6). Each Run*
// function corresponds to one experiment ID listed by `edmbench -h`,
// drives the algorithms over the same synthetic workloads, and returns
// structured results that cmd/edmbench and the root-level benchmarks
// print as the rows/series the paper reports.
package bench

import (
	"fmt"
	"time"

	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/dbstream"
	"github.com/densitymountain/edmstream/internal/denstream"
	"github.com/densitymountain/edmstream/internal/dstream"
	"github.com/densitymountain/edmstream/internal/gen"
	"github.com/densitymountain/edmstream/internal/metrics"
	"github.com/densitymountain/edmstream/internal/mrstream"
	"github.com/densitymountain/edmstream/internal/stream"
)

// NamedClusterer pairs an algorithm instance with the label used in
// reports.
type NamedClusterer struct {
	Name      string
	Clusterer stream.Clusterer
}

// NewEDMStream builds an EDMStream instance configured the way the
// evaluation uses it: radius from the dataset, adaptive τ off (a static
// τ derived from the radius) unless adaptive is requested, and the
// paper's decay/β/rate settings.
func NewEDMStream(radius, rate float64, adaptive bool) (*core.EDMStream, error) {
	cfg := core.Config{
		Radius:      radius,
		Rate:        rate,
		AdaptiveTau: adaptive,
		InitPoints:  500,
	}
	return core.New(cfg)
}

// Algorithms builds one instance of every algorithm under comparison,
// parameterized for the given dataset. The summarization granularities
// are matched so every algorithm maintains a comparable number of
// summaries (cluster-cells, micro-clusters, grid cells): EDMStream and
// DBSTREAM use the cell radius r directly, DenStream bounds the
// micro-cluster RMS radius by r/2 (an RMS radius of r/2 covers roughly
// the same volume as a seed ball of radius r), and the grid methods use
// cells of side r. This mirrors the paper's setup, where all
// algorithms summarize at the granularity chosen by the d_c rule.
func Algorithms(ds gen.Dataset, rate float64) ([]NamedClusterer, error) {
	r := ds.SuggestedRadius
	edm, err := NewEDMStream(r, rate, false)
	if err != nil {
		return nil, fmt.Errorf("bench: building EDMStream: %w", err)
	}
	den, err := denstream.New(denstream.Config{Eps: r / 2, OfflineEps: 2 * r, Mu: 5})
	if err != nil {
		return nil, fmt.Errorf("bench: building DenStream: %w", err)
	}
	dst, err := dstream.New(dstream.Config{GridSize: r})
	if err != nil {
		return nil, fmt.Errorf("bench: building D-Stream: %w", err)
	}
	dbs, err := dbstream.New(dbstream.Config{Radius: r})
	if err != nil {
		return nil, fmt.Errorf("bench: building DBSTREAM: %w", err)
	}
	mrs, err := mrstream.New(mrstream.Config{TopCellSize: 2 * r, Levels: 3})
	if err != nil {
		return nil, fmt.Errorf("bench: building MR-Stream: %w", err)
	}
	return []NamedClusterer{
		{Name: edm.Name(), Clusterer: edm},
		{Name: dst.Name(), Clusterer: dst},
		{Name: den.Name(), Clusterer: den},
		{Name: dbs.Name(), Clusterer: dbs},
		{Name: mrs.Name(), Clusterer: mrs},
	}, nil
}

// RunConfig controls a measured stream run.
type RunConfig struct {
	// Rate is the arrival rate in points per second used to stamp the
	// stream (the paper fixes 1000 pt/s unless stated otherwise).
	Rate float64
	// QueryEvery requests an updated clustering every this many points;
	// the time of those requests is the "response time of a cluster
	// update" the paper reports. Default 1000.
	QueryEvery int
	// SampleEvery records one measurement sample every this many
	// points. Default QueryEvery.
	SampleEvery int
	// WindowSize is the number of recent points kept for cluster
	// quality (CMM) evaluation. Default 1000.
	WindowSize int
	// ComputeCMM enables CMM evaluation at every sample (it is costly,
	// so the pure performance experiments leave it off).
	ComputeCMM bool
	// MaxPoints truncates the stream (0 = use every point).
	MaxPoints int
}

func (c *RunConfig) defaults() {
	if c.Rate == 0 {
		c.Rate = 1000
	}
	if c.QueryEvery == 0 {
		c.QueryEvery = 1000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = c.QueryEvery
	}
	if c.WindowSize == 0 {
		c.WindowSize = 1000
	}
}

// Sample is one measurement taken during a stream run.
type Sample struct {
	// Points is the number of points processed so far.
	Points int
	// StreamTime is the stream timestamp at the sample.
	StreamTime float64
	// ResponseTime is the average wall-clock time of a cluster-update
	// request (a Clusters call) during the interval.
	ResponseTime time.Duration
	// InsertTime is the average wall-clock time of a point insertion
	// during the interval.
	InsertTime time.Duration
	// Throughput is points per wall-clock second over the interval,
	// including the amortized cluster-update requests.
	Throughput float64
	// CMM is the cluster quality over the recent window (only when
	// RunConfig.ComputeCMM is set).
	CMM float64
	// Clusters is the number of macro-clusters reported at the sample.
	Clusters int
}

// Result is the outcome of a measured stream run.
type Result struct {
	Algorithm string
	Dataset   string
	Samples   []Sample
	// TotalWall is the total wall-clock time spent (inserts + queries).
	TotalWall time.Duration
	// Points is the total number of points processed.
	Points int
	// FinalClusters is the cluster count at the end of the run.
	FinalClusters int
	// MeanResponseTime averages the per-sample response times.
	MeanResponseTime time.Duration
	// MeanThroughput is Points divided by the total wall-clock time.
	MeanThroughput float64
	// MeanCMM averages the per-sample CMM values (when computed).
	MeanCMM float64
}

// RunStream drives one clusterer over the dataset and measures it.
func RunStream(c stream.Clusterer, ds gen.Dataset, cfg RunConfig) (Result, error) {
	cfg.defaults()
	src, err := ds.RateSource(cfg.Rate)
	if err != nil {
		return Result{}, err
	}
	window := stream.NewWindow(cfg.WindowSize)

	res := Result{Algorithm: c.Name(), Dataset: ds.Name}
	var insertDur, queryDur time.Duration
	var queries int
	var intervalInsert, intervalQuery time.Duration
	var intervalQueries int
	intervalStartWall := time.Now()
	intervalStartPoints := 0

	var clusters []stream.MacroCluster
	points := 0
	now := 0.0
	for {
		if cfg.MaxPoints > 0 && points >= cfg.MaxPoints {
			break
		}
		p, ok := src.Next()
		if !ok {
			break
		}
		now = p.Time
		window.Add(p)

		t0 := time.Now()
		if err := c.Insert(p); err != nil {
			return Result{}, fmt.Errorf("bench: %s rejected point %d: %w", c.Name(), p.ID, err)
		}
		d := time.Since(t0)
		insertDur += d
		intervalInsert += d
		points++

		if points%cfg.QueryEvery == 0 {
			t1 := time.Now()
			clusters = c.Clusters(now)
			qd := time.Since(t1)
			queryDur += qd
			intervalQuery += qd
			queries++
			intervalQueries++
		}

		if points%cfg.SampleEvery == 0 {
			sample := Sample{
				Points:     points,
				StreamTime: now,
				Clusters:   len(clusters),
			}
			intervalPoints := points - intervalStartPoints
			if intervalQueries > 0 {
				sample.ResponseTime = intervalQuery / time.Duration(intervalQueries)
			}
			if intervalPoints > 0 {
				sample.InsertTime = intervalInsert / time.Duration(intervalPoints)
				elapsed := time.Since(intervalStartWall).Seconds()
				if elapsed > 0 {
					sample.Throughput = float64(intervalPoints) / elapsed
				}
			}
			if cfg.ComputeCMM && len(window.Points()) > 0 {
				sample.CMM = evaluateCMM(window.Points(), clusters, now)
			}
			res.Samples = append(res.Samples, sample)
			intervalInsert, intervalQuery, intervalQueries = 0, 0, 0
			intervalStartWall = time.Now()
			intervalStartPoints = points
		}
	}

	res.Points = points
	res.TotalWall = insertDur + queryDur
	res.FinalClusters = len(clusters)
	if len(res.Samples) > 0 {
		var rt time.Duration
		var cmmSum float64
		cmmSamples := 0
		for _, s := range res.Samples {
			rt += s.ResponseTime
			if cfg.ComputeCMM {
				cmmSum += s.CMM
				cmmSamples++
			}
		}
		res.MeanResponseTime = rt / time.Duration(len(res.Samples))
		if cmmSamples > 0 {
			res.MeanCMM = cmmSum / float64(cmmSamples)
		}
	}
	if res.TotalWall > 0 {
		res.MeanThroughput = float64(points) / res.TotalWall.Seconds()
	}
	return res, nil
}

// evaluateCMM scores the current clustering against the ground truth of
// the recent window.
func evaluateCMM(window []stream.Point, clusters []stream.MacroCluster, now float64) float64 {
	assignment := stream.AssignToClusters(window, clusters, 0)
	v, err := metrics.CMM(window, assignment, metrics.CMMConfig{Now: now})
	if err != nil {
		return 0
	}
	return v
}
