package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/densitymountain/edmstream/internal/stream"
)

// equivRun drives one EDMStream over pts with the given index policy,
// taking a snapshot every snapEvery points (plus a final one), and
// returns the instance together with the collected snapshots.
func equivRun(t *testing.T, cfg Config, pts []stream.Point, snapEvery int) (*EDMStream, []Snapshot) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg.IndexPolicy, err)
	}
	var snaps []Snapshot
	for i := range pts {
		if err := e.Insert(pts[i]); err != nil {
			t.Fatalf("%v: Insert(point %d): %v", cfg.IndexPolicy, i, err)
		}
		if err := checkOracleAt(e, i, i+1); err != nil {
			t.Fatalf("%v, after point %d: %v", cfg.IndexPolicy, i+1, err)
		}
		if snapEvery > 0 && (i+1)%snapEvery == 0 {
			snaps = append(snaps, e.Snapshot())
		}
	}
	snaps = append(snaps, e.Snapshot())
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("%v: %v", cfg.IndexPolicy, err)
	}
	return e, snaps
}

// compareSnapshots asserts two snapshot sequences are identical:
// cluster IDs, peaks, member cells, weights and cell counts.
func compareSnapshots(t *testing.T, grid, linear []Snapshot) {
	t.Helper()
	if len(grid) != len(linear) {
		t.Fatalf("snapshot counts differ: grid %d, linear %d", len(grid), len(linear))
	}
	for i := range grid {
		g, l := grid[i], linear[i]
		if g.Time != l.Time || g.Tau != l.Tau || g.ActiveCells != l.ActiveCells || g.OutlierCells != l.OutlierCells {
			t.Fatalf("snapshot %d header differs:\n  grid   %+v\n  linear %+v", i,
				Snapshot{Time: g.Time, Tau: g.Tau, ActiveCells: g.ActiveCells, OutlierCells: g.OutlierCells},
				Snapshot{Time: l.Time, Tau: l.Tau, ActiveCells: l.ActiveCells, OutlierCells: l.OutlierCells})
		}
		if len(g.Clusters) != len(l.Clusters) {
			t.Fatalf("snapshot %d: cluster counts differ: grid %d, linear %d", i, len(g.Clusters), len(l.Clusters))
		}
		for j := range g.Clusters {
			gc, lc := g.Clusters[j], l.Clusters[j]
			if gc.ID != lc.ID || gc.PeakCellID != lc.PeakCellID || gc.Weight != lc.Weight || gc.Points != lc.Points {
				t.Fatalf("snapshot %d cluster %d differs: grid {id %d peak %d w %v n %d}, linear {id %d peak %d w %v n %d}",
					i, j, gc.ID, gc.PeakCellID, gc.Weight, gc.Points, lc.ID, lc.PeakCellID, lc.Weight, lc.Points)
			}
			if len(gc.CellIDs) != len(lc.CellIDs) {
				t.Fatalf("snapshot %d cluster %d: member counts differ: grid %d, linear %d", i, j, len(gc.CellIDs), len(lc.CellIDs))
			}
			for k := range gc.CellIDs {
				if gc.CellIDs[k] != lc.CellIDs[k] {
					t.Fatalf("snapshot %d cluster %d member %d differs: grid cell %d, linear cell %d",
						i, j, k, gc.CellIDs[k], lc.CellIDs[k])
				}
			}
		}
	}
}

// compareCells asserts two runs ended with byte-identical cell
// populations: same IDs, seeds, counts, densities, activity and
// dependency structure.
func compareCells(t *testing.T, grid, linear *EDMStream) {
	t.Helper()
	if grid.cells.len() != linear.cells.len() {
		t.Fatalf("cell counts differ: grid %d, linear %d", grid.cells.len(), linear.cells.len())
	}
	for _, gc := range grid.sortedCells() {
		id := gc.id
		lc := cellByID(linear, id)
		if lc == nil {
			t.Fatalf("cell %d exists only in the grid run", id)
		}
		if gc.count != lc.count || gc.rho != lc.rho || gc.rhoTime != lc.rhoTime || gc.active != lc.active {
			t.Fatalf("cell %d state differs: grid {n %d ρ %v t %v active %v}, linear {n %d ρ %v t %v active %v}",
				id, gc.count, gc.rho, gc.rhoTime, gc.active, lc.count, lc.rho, lc.rhoTime, lc.active)
		}
		for d := range gc.seed.Vector {
			if gc.seed.Vector[d] != lc.seed.Vector[d] {
				t.Fatalf("cell %d seed differs in dim %d: %v vs %v", id, d, gc.seed.Vector[d], lc.seed.Vector[d])
			}
		}
		gdep, ldep := int64(-1), int64(-1)
		if gc.dep != nil {
			gdep = gc.dep.id
		}
		if lc.dep != nil {
			ldep = lc.dep.id
		}
		if gdep != ldep || gc.delta != lc.delta {
			t.Fatalf("cell %d dependency differs: grid (dep %d, δ %v), linear (dep %d, δ %v)",
				id, gdep, gc.delta, ldep, lc.delta)
		}
	}
}

// cellByID returns e's live cell with the given ID, or nil.
func cellByID(e *EDMStream, id int64) *Cell {
	for _, c := range e.cells.bySlot {
		if c != nil && c.id == id {
			return c
		}
	}
	return nil
}

// compareEvents asserts two evolution logs are identical.
func compareEvents(t *testing.T, grid, linear []Event) {
	t.Helper()
	if len(grid) != len(linear) {
		t.Fatalf("event counts differ: grid %d, linear %d", len(grid), len(linear))
	}
	for i := range grid {
		g, l := grid[i], linear[i]
		if g.Kind != l.Kind || g.Time != l.Time {
			t.Fatalf("event %d differs: grid %v, linear %v", i, g, l)
		}
	}
}

// TestIndexEquivalenceRandomStreams is the property test required by
// the index subsystem: on seeded random Euclidean streams, a
// grid-indexed run and a linear-scan run must produce identical cell
// populations, snapshots and evolution events. The grid only changes
// which candidates the nearest-seed and dependency searches touch,
// never their answers, so any divergence is a bug in the index.
func TestIndexEquivalenceRandomStreams(t *testing.T) {
	seeds := []int64{1, 7, 42, 99, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		clusters := 2 + rng.Intn(3)
		centers := make([][]float64, clusters)
		for i := range centers {
			centers[i] = []float64{rng.Float64()*20 - 10, rng.Float64()*20 - 10}
		}
		noise := 0.1 + 0.2*rng.Float64()
		radius := 0.5 + rng.Float64()

		n := 2500
		pts := make([]stream.Point, n)
		for i := range pts {
			var vec []float64
			if rng.Float64() < noise {
				vec = []float64{rng.Float64()*40 - 20, rng.Float64()*40 - 20}
			} else {
				c := centers[rng.Intn(clusters)]
				vec = []float64{c[0] + rng.NormFloat64()*0.6, c[1] + rng.NormFloat64()*0.6}
			}
			pts[i] = stream.Point{ID: int64(i), Vector: vec, Time: float64(i) / 1000, Label: stream.NoLabel}
		}

		cfg := Config{
			Radius:            radius,
			InitPoints:        200,
			AdaptiveTau:       seed%2 == 0, // exercise both τ modes
			Tau:               2.5,
			EvolutionInterval: 0.25,
			SweepInterval:     0.2,
		}
		gridCfg, linCfg := cfg, cfg
		gridCfg.IndexPolicy = IndexGrid
		linCfg.IndexPolicy = IndexLinear

		gridRun, gridSnaps := equivRun(t, gridCfg, pts, 500)
		linRun, linSnaps := equivRun(t, linCfg, pts, 500)

		if got := gridRun.IndexKind(); got != "grid" {
			t.Fatalf("seed %d: grid run resolved to %q", seed, got)
		}
		if got := linRun.IndexKind(); got != "linear" {
			t.Fatalf("seed %d: linear run resolved to %q", seed, got)
		}

		compareSnapshots(t, gridSnaps, linSnaps)
		compareCells(t, gridRun, linRun)
		compareEvents(t, gridRun.Events(), linRun.Events())

		gs, ls := gridRun.Stats(), linRun.Stats()
		if gs.CellsCreated != ls.CellsCreated || gs.Promotions != ls.Promotions ||
			gs.Demotions != ls.Demotions || gs.Deletions != ls.Deletions {
			t.Fatalf("seed %d: lifecycle counters differ:\n  grid   %+v\n  linear %+v", seed, gs, ls)
		}
		if gridRun.Tau() != linRun.Tau() {
			t.Fatalf("seed %d: τ differs: grid %v, linear %v", seed, gridRun.Tau(), linRun.Tau())
		}
		// The whole point of the grid: it must measure far fewer seed
		// distances than the linear scan on a multi-cell 2-D stream.
		if gs.SeedCandidates >= ls.SeedCandidates {
			t.Fatalf("seed %d: grid measured %d seed distances, linear %d — no pruning happened",
				seed, gs.SeedCandidates, ls.SeedCandidates)
		}
	}
}

// TestIndexEquivalenceMixedStream pins the equivalence guarantee on a
// degenerate stream mixing numeric and token-set points: the grid
// files token-set seeds in a side set and must still give them the
// same absorption behavior the linear scan does.
func TestIndexEquivalenceMixedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	topics := [][]string{{"gpu", "ai"}, {"vote", "poll"}, {"rain", "storm"}}
	n := 1500
	pts := make([]stream.Point, n)
	for i := range pts {
		p := stream.Point{ID: int64(i), Time: float64(i) / 1000, Label: stream.NoLabel}
		// The first point must be numeric so the grid policy resolves
		// to the grid (a leading token-set point forces the linear
		// fallback even under IndexGrid).
		if i%3 == 2 {
			topic := topics[rng.Intn(len(topics))]
			tokens := map[string]struct{}{topic[0]: {}, topic[1]: {}}
			if rng.Float64() < 0.5 {
				tokens["extra"] = struct{}{}
			}
			p.Tokens = tokens
		} else {
			p.Vector = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		pts[i] = p
	}
	cfg := Config{Radius: 0.7, Tau: 2, InitPoints: 150, EvolutionInterval: 0.25, SweepInterval: 0.2}
	gridCfg, linCfg := cfg, cfg
	gridCfg.IndexPolicy = IndexGrid
	linCfg.IndexPolicy = IndexLinear
	gridRun, gridSnaps := equivRun(t, gridCfg, pts, 500)
	linRun, linSnaps := equivRun(t, linCfg, pts, 500)
	if gridRun.IndexKind() != "grid" || linRun.IndexKind() != "linear" {
		t.Fatalf("index kinds: %q, %q", gridRun.IndexKind(), linRun.IndexKind())
	}
	compareSnapshots(t, gridSnaps, linSnaps)
	compareCells(t, gridRun, linRun)
	compareEvents(t, gridRun.Events(), linRun.Events())
}

// TestIndexAutoSelection checks the IndexAuto heuristic: grid for
// low-dimensional numeric streams, linear for high-dimensional and
// token-set streams, and honoring explicit overrides.
func TestIndexAutoSelection(t *testing.T) {
	lowD := stream.Point{ID: 1, Vector: []float64{1, 2}, Time: 0, Label: stream.NoLabel}
	highD := stream.Point{ID: 1, Vector: make([]float64, maxAutoGridDim+1), Time: 0, Label: stream.NoLabel}
	text := stream.Point{ID: 1, Tokens: map[string]struct{}{"a": {}}, Time: 0, Label: stream.NoLabel}

	cases := []struct {
		name   string
		policy IndexPolicy
		first  stream.Point
		want   string
	}{
		{"auto low-d", IndexAuto, lowD, "grid"},
		{"auto high-d", IndexAuto, highD, "linear"},
		{"auto text", IndexAuto, text, "linear"},
		{"forced grid", IndexGrid, lowD, "grid"},
		{"forced grid high-d", IndexGrid, highD, "grid"},
		{"forced grid text", IndexGrid, text, "linear"},
		{"forced linear", IndexLinear, lowD, "linear"},
	}
	for _, tc := range cases {
		e, err := New(Config{Radius: 0.5, IndexPolicy: tc.policy})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := e.Insert(tc.first); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := e.IndexKind(); got != tc.want {
			t.Errorf("%s: resolved to %q, want %q", tc.name, got, tc.want)
		}
	}
	if err := (Config{Radius: 1, IndexPolicy: IndexPolicy(9)}).Validate(); err == nil {
		t.Error("unknown index policy passed validation")
	}
}

// TestGridIndexRemovalConsistency exercises cell deletion through the
// index: a burst of outliers must be deleted after DeleteDelay and the
// seed index must shrink with the cell map.
func TestGridIndexRemovalConsistency(t *testing.T) {
	e, err := New(Config{Radius: 0.5, Tau: 2, InitPoints: 50, IndexPolicy: IndexGrid, SweepInterval: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// A dense blob keeps the stream alive; scattered one-off outliers
	// must eventually be deleted.
	for i := 0; i < 4000; i++ {
		var vec []float64
		if i%20 == 5 {
			vec = []float64{rng.Float64()*1000 - 500, rng.Float64()*1000 - 500}
		} else {
			vec = []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}
		}
		p := stream.Point{ID: int64(i), Vector: vec, Time: float64(i) / 100, Label: stream.NoLabel}
		if err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats().Deletions == 0 {
		t.Fatal("no cells were deleted; the test is not exercising index removal")
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if math.IsInf(e.Tau(), 0) || math.IsNaN(e.Tau()) {
		t.Fatalf("bad tau %v", e.Tau())
	}
}
