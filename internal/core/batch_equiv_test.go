package core

import (
	"math/rand"
	"testing"

	"github.com/densitymountain/edmstream/internal/stream"
)

// burstyStream generates a 2-D clustered stream with temporal
// locality: points arrive in bursts of 1–8 consecutive points from the
// same cluster (sessionized traffic), interleaved with uniform noise.
// The bursts make consecutive points land in the same cluster-cell,
// which is the case batch ingestion's run coalescing optimizes — the
// equivalence tests must exercise it, not just the one-point-per-cell
// interleaving of a fully shuffled stream.
func burstyStream(seed int64, n int, clusters int, noise float64) []stream.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for i := range centers {
		centers[i] = []float64{rng.Float64()*20 - 10, rng.Float64()*20 - 10}
	}
	pts := make([]stream.Point, 0, n)
	for len(pts) < n {
		if rng.Float64() < noise {
			pts = append(pts, stream.Point{
				ID:     int64(len(pts)),
				Vector: []float64{rng.Float64()*40 - 20, rng.Float64()*40 - 20},
				Time:   float64(len(pts)) / 1000,
				Label:  stream.NoLabel,
			})
			continue
		}
		c := centers[rng.Intn(clusters)]
		burst := 1 + rng.Intn(8)
		// Burst points jitter around one spot so they tend to fall in
		// the same cluster-cell.
		bx := c[0] + rng.NormFloat64()*0.5
		by := c[1] + rng.NormFloat64()*0.5
		for b := 0; b < burst && len(pts) < n; b++ {
			pts = append(pts, stream.Point{
				ID:     int64(len(pts)),
				Vector: []float64{bx + rng.NormFloat64()*0.1, by + rng.NormFloat64()*0.1},
				Time:   float64(len(pts)) / 1000,
				Label:  stream.NoLabel,
			})
		}
	}
	return pts
}

// batchRun drives one EDMStream over pts through InsertBatch in
// batches of batchSize, snapshotting at the same point counts equivRun
// does (every snapEvery points, which must be a multiple of batchSize,
// plus a final one).
func batchRun(t *testing.T, cfg Config, pts []stream.Point, batchSize, snapEvery int) (*EDMStream, []Snapshot) {
	t.Helper()
	if snapEvery%batchSize != 0 {
		t.Fatalf("snapEvery %d must be a multiple of batchSize %d", snapEvery, batchSize)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg.IndexPolicy, err)
	}
	var snaps []Snapshot
	for i := 0; i < len(pts); i += batchSize {
		end := i + batchSize
		if end > len(pts) {
			end = len(pts)
		}
		if err := e.InsertBatch(pts[i:end]); err != nil {
			t.Fatalf("InsertBatch(points %d:%d): %v", i, end, err)
		}
		if err := checkOracleAt(e, i, end); err != nil {
			t.Fatalf("batch size %d, after point %d: %v", batchSize, end, err)
		}
		if end%snapEvery == 0 {
			snaps = append(snaps, e.Snapshot())
		}
	}
	snaps = append(snaps, e.Snapshot())
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("batch size %d: %v", batchSize, err)
	}
	return e, snaps
}

// TestBatchSequentialEquivalence is the batching property test: for
// every index policy and a spread of batch sizes, feeding a stream
// through InsertBatch must produce exactly the same cells, snapshots,
// evolution events and lifecycle counters as feeding it point by
// point. Run coalescing, deferred band updates and batch-boundary
// flushes only change how much bookkeeping runs, never its outcome.
func TestBatchSequentialEquivalence(t *testing.T) {
	streams := map[string][]stream.Point{
		"bursty":  burstyStream(7, 3000, 3, 0.15),
		"shuffed": burstyStream(42, 2500, 4, 0.3),
	}
	// Also exercise adaptive τ, whose tuner state depends on every
	// intermediate refresh happening at the same stream times.
	cfgs := map[string]Config{
		"static": {
			Radius: 0.8, Tau: 2.5, InitPoints: 200,
			EvolutionInterval: 0.25, SweepInterval: 0.2,
		},
		"adaptive": {
			Radius: 0.8, AdaptiveTau: true, Tau: 2.5, InitPoints: 200,
			EvolutionInterval: 0.25, SweepInterval: 0.2,
		},
	}
	batchSizes := []int{5, 25, 250, 500}
	const snapEvery = 500

	for sname, pts := range streams {
		for cname, cfg := range cfgs {
			for _, policy := range []IndexPolicy{IndexGrid, IndexLinear} {
				cfg := cfg
				cfg.IndexPolicy = policy
				seqRun, seqSnaps := equivRun(t, cfg, pts, snapEvery)
				for _, bs := range batchSizes {
					t.Run(sname+"/"+cname+"/"+policy.String(), func(t *testing.T) {
						bRun, bSnaps := batchRun(t, cfg, pts, bs, snapEvery)
						compareSnapshots(t, bSnaps, seqSnaps)
						compareCells(t, bRun, seqRun)
						compareEvents(t, bRun.Events(), seqRun.Events())
						bs1, bs2 := bRun.Stats(), seqRun.Stats()
						if bs1.Points != bs2.Points || bs1.CellsCreated != bs2.CellsCreated ||
							bs1.Promotions != bs2.Promotions || bs1.Demotions != bs2.Demotions ||
							bs1.Deletions != bs2.Deletions {
							t.Fatalf("lifecycle counters differ:\n  batch      %+v\n  sequential %+v", bs1, bs2)
						}
						if bRun.Tau() != seqRun.Tau() {
							t.Fatalf("τ differs: batch %v, sequential %v", bRun.Tau(), seqRun.Tau())
						}
					})
				}
			}
		}
	}
}

// TestBatchMidBatchCellChurn feeds one batch that changes the cell set
// under its own later points, and compares it against per-point
// ingestion for both index policies:
//
//   - cell A at the origin is created before the batch, then deleted by
//     a mid-batch sweep (its idle time crosses DeleteDelay while the
//     batch's earlier points advance the clock), so the batch's later
//     origin points must not be absorbed by the deleted A;
//   - the batch's points at a fresh location find no cell, and all but
//     the first must be absorbed by the cell the first one creates
//     mid-batch.
//
// The clustering must stay byte-identical to per-point ingestion, and
// the deletion must actually have happened (otherwise this test isn't
// testing the deleted-cell path).
func TestBatchMidBatchCellChurn(t *testing.T) {
	cfg := Config{
		Radius: 1.0, Tau: 3.0, InitPoints: 10,
		SweepInterval: 0.2, DeleteDelay: 0.5, EvolutionInterval: 0.25,
	}
	rng := rand.New(rand.NewSource(99))
	jit := func() float64 { return rng.NormFloat64() * 0.05 }

	var pre, batch []stream.Point
	emit := func(dst *[]stream.Point, x, y, tm float64) {
		*dst = append(*dst, stream.Point{
			ID: int64(len(pre) + len(batch)), Vector: []float64{x, y}, Time: tm, Label: stream.NoLabel,
		})
	}
	// Pre-batch: initialize on a far-away cluster, then seed cell A at
	// the origin.
	for i := 0; i < 12; i++ {
		emit(&pre, 100+jit(), 100+jit(), float64(i)*0.001)
	}
	emit(&pre, 0, 0, 0.012)
	// Batch: 120 far-away points advance the clock past A's expiry (the
	// sweeps run mid-batch), 20 points at a fresh location get absorbed
	// by a mid-batch cell, and 20 origin points arrive after A's
	// deletion.
	for i := 0; i < 120; i++ {
		emit(&batch, 100+jit(), 100+jit(), 0.02+float64(i)*0.008)
	}
	for i := 0; i < 20; i++ {
		emit(&batch, 50+jit(), 50+jit(), 0.985+float64(i)*0.0001)
	}
	for i := 0; i < 20; i++ {
		emit(&batch, jit(), jit(), 0.99+float64(i)*0.0001)
	}

	for _, policy := range []IndexPolicy{IndexGrid, IndexLinear} {
		t.Run(policy.String(), func(t *testing.T) {
			run := func(asBatch bool) *EDMStream {
				c := cfg
				c.IndexPolicy = policy
				e, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pre {
					if err := e.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				if asBatch {
					if err := e.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, p := range batch {
						if err := e.Insert(p); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := e.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				return e
			}

			seq := run(false)
			bat := run(true)
			compareSnapshots(t, []Snapshot{bat.Snapshot()}, []Snapshot{seq.Snapshot()})
			compareCells(t, bat, seq)
			compareEvents(t, bat.Events(), seq.Events())

			st := bat.Stats()
			if st.Deletions == 0 {
				t.Fatal("no mid-batch deletion happened; the scenario no longer exercises the deleted-cell path")
			}
			// All 20 fresh-location points must sit in the one cell the
			// first of them created mid-batch.
			var fresh []*Cell
			for _, c := range bat.sortedCells() {
				if c.seed.Vector[0] > 25 && c.seed.Vector[0] < 75 {
					fresh = append(fresh, c)
				}
			}
			if len(fresh) != 1 {
				t.Fatalf("fresh location has %d cells, want 1", len(fresh))
			}
			if fresh[0].count != 20 {
				t.Fatalf("fresh-location cell absorbed %d points, want 20", fresh[0].count)
			}
		})
	}
}

// TestBatchWholeStream feeds the entire stream as one batch and
// compares the final state against point-by-point ingestion. The
// batch creates hundreds of cells and runs every sweep and refresh
// mid-batch.
func TestBatchWholeStream(t *testing.T) {
	pts := burstyStream(11, 2000, 3, 0.2)
	cfg := Config{Radius: 0.7, Tau: 2, InitPoints: 150, EvolutionInterval: 0.25, SweepInterval: 0.2}

	seq, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if err := seq.Insert(pts[i]); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.InsertBatch(pts); err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, []Snapshot{whole.Snapshot()}, []Snapshot{seq.Snapshot()})
	compareCells(t, whole, seq)
	compareEvents(t, whole.Events(), seq.Events())
	if err := whole.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDetailedStatsEquivalence pins the DetailedStats contract: the
// knob only toggles wall-clock instrumentation, so runs with it on and
// off must produce identical clustering output, and the timing
// counters must be zero exactly when it is off.
func TestDetailedStatsEquivalence(t *testing.T) {
	pts := burstyStream(5, 2000, 3, 0.2)
	base := Config{Radius: 0.8, Tau: 2.5, InitPoints: 200, EvolutionInterval: 0.25, SweepInterval: 0.2}

	onCfg, offCfg := base, base
	onCfg.DetailedStats = true
	onRun, onSnaps := equivRun(t, onCfg, pts, 500)
	offRun, offSnaps := equivRun(t, offCfg, pts, 500)

	compareSnapshots(t, onSnaps, offSnaps)
	compareCells(t, onRun, offRun)
	compareEvents(t, onRun.Events(), offRun.Events())

	on, off := onRun.Stats(), offRun.Stats()
	if off.AssignTime != 0 || off.DependencyUpdateTime != 0 {
		t.Errorf("timing counters nonzero with DetailedStats off: %+v", off)
	}
	if on.AssignTime <= 0 {
		t.Errorf("AssignTime not collected with DetailedStats on: %+v", on)
	}
	if on.DependencyUpdateTime <= 0 {
		t.Errorf("DependencyUpdateTime not collected with DetailedStats on: %+v", on)
	}
}

// TestInsertBatchValidation checks the all-or-nothing batch contract:
// one invalid point rejects the whole batch without touching state.
func TestInsertBatchValidation(t *testing.T) {
	e, err := New(Config{Radius: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	good := stream.Point{ID: 1, Vector: []float64{0, 0}, Time: 0.001, Label: stream.NoLabel}
	bad := stream.Point{ID: 2, Time: 0.002, Label: stream.NoLabel} // no vector, no tokens
	if err := e.InsertBatch([]stream.Point{good, bad}); err == nil {
		t.Fatal("batch with an invalid point was accepted")
	}
	if got := e.Stats().Points; got != 0 {
		t.Fatalf("rejected batch still consumed %d points", got)
	}
	if e.Now() != 0 {
		t.Fatalf("rejected batch advanced the clock to %v", e.Now())
	}
	if err := e.InsertBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := e.InsertBatch([]stream.Point{good}); err != nil {
		t.Fatalf("valid batch after rejection: %v", err)
	}
	if got := e.Stats().Points; got != 1 {
		t.Fatalf("Points = %d after one valid batch point, want 1", got)
	}
}
