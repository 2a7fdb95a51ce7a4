package bench

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/core"
	"github.com/densitymountain/edmstream/internal/stream"
)

// TestLatticeStreamCheckpointEveryBatch is the checkpoint regression on
// the lattice workload under default options: after every 128-point
// batch the engine is checkpointed, thrown away and restored, and it
// must keep matching an uninterrupted engine — the same published
// snapshot, evolution events, τ and statistics after every batch, and
// the same refreshed snapshot at the end. The stream demotes and
// deletes cluster peaks between clustering refreshes, so many
// checkpoints are written while a cluster's peak is already gone.
func TestLatticeStreamCheckpointEveryBatch(t *testing.T) {
	const (
		points = 6400
		batch  = 128
	)
	opts := edmstream.Options{Radius: 1, Rate: 1000}
	// stats drops the wall-clock timers, the only fields that differ
	// between two runs of the same stream.
	stats := func(c *edmstream.Clusterer) edmstream.Stats {
		st := c.Stats()
		st.DependencyUpdateTime, st.AssignTime = 0, 0
		return st
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pts := LatticeStream(points, seed, opts.Rate)
			ref, err := edmstream.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := edmstream.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for b := 0; b*batch < len(pts); b++ {
				part := pts[b*batch : min((b+1)*batch, len(pts))]
				if err := ref.InsertBatch(part); err != nil {
					t.Fatal(err)
				}
				if err := ck.InsertBatch(part); err != nil {
					t.Fatal(err)
				}
				switch {
				case !reflect.DeepEqual(ck.LastSnapshot(), ref.LastSnapshot()):
					t.Fatalf("batch %d: published snapshot differs from the uninterrupted run", b)
				case !reflect.DeepEqual(ck.Events(), ref.Events()):
					t.Fatalf("batch %d: evolution events differ from the uninterrupted run", b)
				case ck.Tau() != ref.Tau():
					t.Fatalf("batch %d: τ %v, uninterrupted %v", b, ck.Tau(), ref.Tau())
				case stats(ck) != stats(ref):
					t.Fatalf("batch %d: stats differ:\n  restored      %+v\n  uninterrupted %+v", b, stats(ck), stats(ref))
				}
				buf.Reset()
				if err := ck.WriteCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if ck, err = edmstream.New(opts); err != nil {
					t.Fatal(err)
				}
				if err := ck.RestoreCheckpoint(&buf); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			if !reflect.DeepEqual(ck.Snapshot(), ref.Snapshot()) {
				t.Fatal("final snapshot differs from the uninterrupted run")
			}
		})
	}
}

// TestLatticeStreamIndexPolicies pins the regime the root
// BenchmarkIndexNearestSeed and BenchmarkInsertBatch measure, under
// their engine configuration: the lattice holds over a thousand
// simultaneously active cells, the grid index and the linear scan
// publish the same clustering, and the grid measures at most a tenth
// of the linear scan's seed distances. Wall-clock speedup is left to
// the benchmark.
func TestLatticeStreamIndexPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("the lattice workload is too large for -short")
	}
	const (
		rate     = 1000.0
		warmup   = 16000
		measured = 4000
	)
	pts := LatticeStream(warmup+measured, 1, rate)
	type run struct {
		snap          edmstream.Snapshot
		stats         edmstream.Stats
		candsPerPoint float64
	}
	runs := map[edmstream.IndexPolicy]run{}
	for _, policy := range []edmstream.IndexPolicy{edmstream.IndexGrid, edmstream.IndexLinear} {
		c, err := edmstream.New(edmstream.Options{
			Radius: 1.0, Rate: rate, Decay: edmstream.Decay{A: 0.99995, Lambda: rate},
			Beta: 1e-4, Tau: 6.0, InitPoints: 500,
			IndexPolicy: policy, EvolutionInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var before int64
		for i, p := range pts {
			if i == warmup {
				before = c.Stats().SeedCandidates
			}
			if err := c.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		st := c.Stats()
		runs[policy] = run{c.Snapshot(), st, float64(st.SeedCandidates-before) / measured}
	}
	grid, linear := runs[edmstream.IndexGrid], runs[edmstream.IndexLinear]
	if grid.stats.ActiveCells < 1000 {
		t.Fatalf("only %d active cells; the workload no longer exercises the indexed regime", grid.stats.ActiveCells)
	}
	if !reflect.DeepEqual(grid.snap, linear.snap) {
		t.Fatal("grid and linear scan published different clusterings")
	}
	if grid.stats.CellsCreated != linear.stats.CellsCreated || grid.stats.ActiveCells != linear.stats.ActiveCells ||
		grid.stats.InactiveCells != linear.stats.InactiveCells {
		t.Fatalf("cell populations differ:\n  grid   %+v\n  linear %+v", grid.stats, linear.stats)
	}
	if grid.candsPerPoint*10 > linear.candsPerPoint {
		t.Fatalf("grid measured %.1f seed distances per point vs linear %.1f: pruning broke",
			grid.candsPerPoint, linear.candsPerPoint)
	}
}

// TestLatticeStreamServingHitRate pins the serving hit rate on the
// lattice at steady state, under the BenchmarkRefresh configuration:
// in-distribution probes that the quiescent published clustering
// serves must keep being served, at least 99% of the time, while a
// writer ingests and refreshes every 100 ms of stream time under four
// concurrent readers. In-distribution means within 0.5 (2σ of the
// jitter) of a lattice site on each axis; noise and a cold site's
// points are correct misses and are left out.
func TestLatticeStreamServingHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("the lattice workload is too large for -short")
	}
	const (
		rate    = 1000.0
		warmup  = 100000
		traffic = 20000
		batch   = 256
		chunk   = 100 // 100 ms of stream time per refresh
		readers = 4
	)
	pts := LatticeStream(warmup+traffic, 1, rate)
	e, err := core.New(core.Config{
		Radius: 1.0, Rate: rate, Decay: stream.Decay{A: 0.99999, Lambda: rate},
		Beta: 3e-5, Tau: 6.0, InitPoints: 500,
		IndexPolicy: core.IndexGrid, EvolutionInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warmup; i += batch {
		if err := e.InsertBatch(pts[i:min(i+batch, warmup)]); err != nil {
			t.Fatal(err)
		}
	}
	e.Refresh()
	inCore := func(p stream.Point) bool {
		for _, v := range p.Vector {
			g := min(max(math.Round(v/latticeSpacing), 0), latticeSites-1) * latticeSpacing
			if math.Abs(v-g) > 0.5 {
				return false
			}
		}
		return true
	}
	var served []stream.Point
	for _, p := range pts[warmup : warmup+8192] {
		if _, ok := e.Assign(p); ok && inCore(p) {
			served = append(served, p)
		}
	}
	if len(served) < 4096 {
		t.Fatalf("only %d of 8192 probes are served in-distribution probes", len(served))
	}

	var stop atomic.Bool
	var queries, hits atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i += readers {
				if _, ok := e.Assign(served[i%len(served)]); ok {
					hits.Add(1)
				}
				queries.Add(1)
			}
		}(r)
	}
	for i := warmup; i < len(pts); i += chunk {
		if err := e.InsertBatch(pts[i:min(i+chunk, len(pts))]); err != nil {
			t.Fatal(err)
		}
		e.Refresh()
	}
	stop.Store(true)
	wg.Wait()
	hitRate := float64(hits.Load()) / float64(queries.Load())
	t.Logf("%d served probes hit %.4f of %d queries", len(served), hitRate, queries.Load())
	if hitRate < 0.99 {
		t.Fatalf("served probes hit %.4f of %d queries under a concurrent writer, want >= 0.99", hitRate, queries.Load())
	}
}
