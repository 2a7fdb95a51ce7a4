package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream/internal/index"
	"github.com/densitymountain/edmstream/internal/stream"
)

// EDMStream is the density-mountain stream clustering algorithm of
// Sec. 4. It consumes a timestamped point stream through Insert (or
// InsertBatch, which amortizes the per-point bookkeeping) and can be
// queried at any time for the current clustering (Snapshot), the
// decision graph (DecisionGraph) and the cluster evolution log
// (Events).
//
// Concurrency: all mutating methods (Insert, InsertBatch, Snapshot,
// Clusters, Refresh, DecisionGraph, ...) must be called from a single
// owner goroutine. The read-only serving methods — LastSnapshot,
// Assign, AssignBatch, Events and Stats — are safe to call from any
// number of goroutines concurrently with ingestion: they work off
// state the owner publishes through atomic pointers and never block
// or race the write path.
type EDMStream struct {
	cfg Config

	tree *dpTree
	res  *reservoir
	// cells holds every cluster-cell (active and inactive) by slot
	// (see cellSlab), and seeds their seed vectors, one row per slot.
	cells cellSlab
	seeds index.Seeds
	// probes holds, per slot, the distance from the most recently
	// probed point to the cell's seed, valid when its stamp equals the
	// probe's point counter; it feeds the triangle-inequality filter
	// (Theorem 2) without a per-point map.
	probes []probe
	// seedIdx indexes every cell's seed for nearest-seed probes. It is
	// resolved lazily from the first point (grid for low-dimensional
	// Euclidean streams, linear scan otherwise — see IndexPolicy).
	seedIdx index.SeedIndex
	// lnDecay is λ·ln(1/a), the per-second log-density decay rate used
	// to maintain Cell.logNorm.
	lnDecay float64

	nextCellID int64
	now        float64

	tuner   tauTuner
	tracker *evolutionTracker

	initialized   bool
	lastSweep     float64
	lastEvolution float64

	// pub is the atomically published read side: the latest clustering
	// snapshot plus the holder of its lazily built query index. Readers
	// (LastSnapshot, Assign) load it without locking; the owner stores
	// a fresh value at every clustering refresh.
	pub atomic.Pointer[published]

	stats Stats
	// mirror and statsShadow implement the race-free Stats view:
	// statsShadow is the owner's copy of the last published counters,
	// and mirror holds one atomic per field, stored only when a value
	// changed (publishStats) so concurrent Stats readers never race the
	// plain counters on the hot path.
	mirror      statsMirror
	statsShadow Stats

	// fullExtract, when set, replaces the incremental cluster
	// extraction with the from-scratch rebuild (the PR 2 behavior):
	// msdSubtrees walk, per-refresh membership sets and per-refresh
	// seed clones. Output is byte-identical; only the refresh cost
	// differs. It exists as the baseline for the serve benchmark and
	// the equivalence property tests.
	fullExtract bool

	// onProbe is the reusable nearest-seed distance callback: it stamps
	// measured distances onto cells for the triangle-inequality filter.
	// probeStamp parameterizes it per probe so the hot path does not
	// allocate a closure per insert.
	onProbe    func(slot int32, d float64)
	probeStamp int64

	// acks, while non-nil, collects the ID of the cluster-cell that
	// absorbed (or was seeded by) each ingested point, in point order.
	// Set only for the duration of an InsertBatchAssigned call; the
	// plain Insert/InsertBatch paths leave it nil and pay nothing.
	acks *[]int64

	// Scratch buffers reused across calls so steady-state ingestion
	// does not allocate: one backs single-point Inserts, demote/repair
	// back the sweep, ordered backs sortedCells, deltas backs the
	// adaptive-τ retune and part the partition handed to the evolution
	// tracker.
	one     [1]stream.Point
	demote  []*Cell
	repair  []*Cell
	ordered []*Cell
	deltas  []float64
	part    []obsCluster
}

// probe is one slot's entry in the triangle-filter distance column.
type probe struct {
	dist  float64
	stamp int64
}

// published is one atomically swapped read-side state: an immutable
// snapshot view and the holder of its query index. The snapshot's
// slices are shared with the engine's persistent cluster views and
// with whatever the readers currently hold — all of it read-only by
// contract — so publishing is O(clusters), not O(cells).
type published struct {
	snap Snapshot
	// assign holds the query index over this snapshot's seeds, built
	// lazily by the first Assign call and then shared. When membership
	// did not change between refreshes the holder itself is carried
	// forward, so steady-state refreshes never invalidate the index.
	assign *assignHolder
}

// assignHolder publishes a snapshot's query index once built.
type assignHolder struct {
	idx atomic.Pointer[assignIndex]
}

// assignIndex is the query index of one publication, built from the
// engine's own index types: a column holding the published seeds, a
// grid over it under the IndexAuto rule (a linear scan otherwise) and
// each slot's cluster ID. Nothing mutates it once built, so any number
// of readers probe it at once, each with its own stack scratch.
type assignIndex struct {
	radius  float64
	seeds   index.Seeds
	grid    *index.Grid
	linear  *index.Linear
	cluster []int
}

// newAssignIndex indexes every seed of the published clusters, slot i
// holding the i-th seed in cluster order.
func newAssignIndex(clusters []ClusterInfo, radius float64) *assignIndex {
	a := &assignIndex{radius: radius}
	var idx index.SeedIndex
	for ci := range clusters {
		cl := &clusters[ci]
		for i, id := range cl.CellIDs {
			p := cl.SeedPoints[i]
			if idx == nil {
				if autoGrid(p) {
					a.grid = index.NewGrid(radius, &a.seeds)
					idx = a.grid
				} else {
					a.linear = index.NewLinear()
					idx = a.linear
				}
			}
			slot := int32(len(a.cluster))
			a.seeds.Put(slot, p.Vector)
			idx.Insert(slot, id, p)
			a.cluster = append(a.cluster, cl.ID)
		}
	}
	return a
}

// assign returns the cluster of the published seed nearest to p within
// the cell radius. A vector of another width than the seeds' is an
// outlier, like a point no seed is near.
func (a *assignIndex) assign(p stream.Point) (int, bool) {
	if !p.IsText() && len(p.Vector) != a.seeds.Dim() {
		return 0, false
	}
	var slot int32
	var ok bool
	switch {
	case a.grid != nil:
		var rows [index.ProbeRows * maxAutoGridDim]int64
		slot, _, ok = a.grid.NearestWithin(p, a.radius, nil, rows[:])
	case a.linear != nil:
		slot, _, ok = a.linear.NearestWithin(p, a.radius, nil, nil)
	}
	if !ok {
		return 0, false
	}
	return a.cluster[slot], true
}

// statsMirror holds the atomically readable copy of every Stats field,
// updated by publishStats at the end of each public mutating call.
type statsMirror struct {
	points, cellsCreated                                         atomic.Int64
	activeCells, inactiveCells                                   atomic.Int64
	promotions, demotions, deletions                             atomic.Int64
	depCandidates, filteredDensity, filteredTriangle, depRelinks atomic.Int64
	depUpdateNanos, assignNanos                                  atomic.Int64
	seedCandidates, evolutionEvents                              atomic.Int64
}

// New creates an EDMStream instance with the given configuration.
func New(cfg Config) (*EDMStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	e := &EDMStream{
		cfg:     cfg,
		tree:    newDPTree(cfg.Decay),
		res:     newReservoir(),
		lnDecay: cfg.Decay.Lambda * math.Log(1/cfg.Decay.A),
		tracker: newEvolutionTracker(cfg.MaxEvents),
	}
	e.tree.slab, e.tree.seeds = &e.cells, &e.seeds
	e.onProbe = func(slot int32, d float64) {
		e.probes[slot] = probe{dist: d, stamp: e.probeStamp}
		e.stats.SeedCandidates++
	}
	return e, nil
}

// maxAutoGridDim is the largest stream dimensionality for which
// IndexAuto still selects the grid index: beyond it, enumerating the
// 3^d neighboring buckets costs more than it saves over the linear
// scan on realistic cell counts.
const maxAutoGridDim = 8

// autoGrid is the IndexAuto rule, applied to a stream's first point
// and to a publication's first seed: a grid for a numeric vector of 1
// to maxAutoGridDim coordinates, a linear scan otherwise.
func autoGrid(p stream.Point) bool {
	return !p.IsText() && p.Dim() > 0 && p.Dim() <= maxAutoGridDim
}

// ensureIndex resolves the nearest-seed index from the first observed
// point: grid for Euclidean streams within the policy's
// dimensionality budget, linear scan otherwise. The grid is shared
// with the DP-Tree, whose dependency searches use it to expand bucket
// shells instead of scanning every active cell.
func (e *EDMStream) ensureIndex(p stream.Point) {
	if e.seedIdx != nil {
		return
	}
	useGrid := false
	switch e.cfg.IndexPolicy {
	case IndexGrid:
		useGrid = !p.IsText()
	case IndexLinear:
	default: // IndexAuto
		useGrid = autoGrid(p)
	}
	if useGrid {
		g := index.NewGrid(e.cfg.Radius, &e.seeds)
		e.seedIdx = g
		e.tree.accel = g
	} else {
		e.seedIdx = index.NewLinear()
	}
}

// IndexKind reports which nearest-seed index the stream resolved to
// ("grid", "linear", or "" before the first point).
func (e *EDMStream) IndexKind() string {
	if e.seedIdx == nil {
		return ""
	}
	return e.seedIdx.Kind()
}

// addCell registers a newly created cell in the cell slab, the seed
// column and the seed index, and stamps its decay-normalized
// log-density key.
func (e *EDMStream) addCell(c *Cell) {
	e.ensureIndex(c.seed)
	e.cells.put(c)
	c.col = e.seeds.Put(c.slot, c.seed.Vector)
	if int(c.slot) == len(e.probes) {
		e.probes = append(e.probes, probe{})
	} else {
		e.probes[c.slot] = probe{}
	}
	e.tree.resetRow(c.slot)
	e.seedIdx.Insert(c.slot, c.id, c.seed)
	e.refreshLogNorm(c)
}

// removeCell unregisters a deleted cell. A cell deleted while it still
// leads a cluster (it was demoted after the last extraction and expired
// before the next one) is detached from that cluster, so no cluster
// names a cell that no longer exists; the cluster drains at the next
// extraction.
func (e *EDMStream) removeCell(c *Cell) {
	if r := e.tree.row(c); r.leads != nil {
		r.leads.peak = nil
		r.leads = nil
	}
	e.seedIdx.Remove(c.slot, c.seed)
	e.cells.remove(c)
}

// refreshLogNorm recomputes c's decay-normalized log-density key after
// its stored density changed (see Cell.logNorm).
func (e *EDMStream) refreshLogNorm(c *Cell) {
	c.logNorm = math.Log(c.rho) + e.lnDecay*c.rhoTime
}

// Name implements stream.Clusterer.
func (e *EDMStream) Name() string { return "EDMStream" }

// Config returns the effective configuration (defaults applied).
func (e *EDMStream) Config() Config { return e.cfg }

// Now returns the latest stream time observed.
func (e *EDMStream) Now() float64 { return e.now }

// Stats returns a copy of the internal counters. It is safe to call
// from any goroutine concurrently with ingestion. Called from the
// owner goroutine, the values are exact as of the end of its most
// recent public call; a concurrent reader racing the owner sees each
// counter individually no staler than the owner's previous call, but
// the fields are loaded independently and may mix two adjacent
// publications.
func (e *EDMStream) Stats() Stats {
	m := &e.mirror
	return Stats{
		Points:               m.points.Load(),
		CellsCreated:         m.cellsCreated.Load(),
		ActiveCells:          int(m.activeCells.Load()),
		InactiveCells:        int(m.inactiveCells.Load()),
		Promotions:           m.promotions.Load(),
		Demotions:            m.demotions.Load(),
		Deletions:            m.deletions.Load(),
		DependencyCandidates: m.depCandidates.Load(),
		FilteredByDensity:    m.filteredDensity.Load(),
		FilteredByTriangle:   m.filteredTriangle.Load(),
		DependencyRelinks:    m.depRelinks.Load(),
		DependencyUpdateTime: time.Duration(m.depUpdateNanos.Load()),
		AssignTime:           time.Duration(m.assignNanos.Load()),
		SeedCandidates:       m.seedCandidates.Load(),
		EvolutionEvents:      m.evolutionEvents.Load(),
	}
}

// publishStats copies the owner's plain counters into the atomic
// mirror so concurrent Stats readers never touch the hot-path fields.
// Only fields whose value changed are stored, which keeps the cost of
// a single-point Insert at a handful of atomic stores.
func (e *EDMStream) publishStats() {
	s := e.stats
	s.ActiveCells = e.tree.size()
	s.InactiveCells = e.res.size()
	s.EvolutionEvents = int64(e.tracker.total())
	o := &e.statsShadow
	m := &e.mirror
	if s.Points != o.Points {
		m.points.Store(s.Points)
	}
	if s.CellsCreated != o.CellsCreated {
		m.cellsCreated.Store(s.CellsCreated)
	}
	if s.ActiveCells != o.ActiveCells {
		m.activeCells.Store(int64(s.ActiveCells))
	}
	if s.InactiveCells != o.InactiveCells {
		m.inactiveCells.Store(int64(s.InactiveCells))
	}
	if s.Promotions != o.Promotions {
		m.promotions.Store(s.Promotions)
	}
	if s.Demotions != o.Demotions {
		m.demotions.Store(s.Demotions)
	}
	if s.Deletions != o.Deletions {
		m.deletions.Store(s.Deletions)
	}
	if s.DependencyCandidates != o.DependencyCandidates {
		m.depCandidates.Store(s.DependencyCandidates)
	}
	if s.FilteredByDensity != o.FilteredByDensity {
		m.filteredDensity.Store(s.FilteredByDensity)
	}
	if s.FilteredByTriangle != o.FilteredByTriangle {
		m.filteredTriangle.Store(s.FilteredByTriangle)
	}
	if s.DependencyRelinks != o.DependencyRelinks {
		m.depRelinks.Store(s.DependencyRelinks)
	}
	if s.DependencyUpdateTime != o.DependencyUpdateTime {
		m.depUpdateNanos.Store(int64(s.DependencyUpdateTime))
	}
	if s.AssignTime != o.AssignTime {
		m.assignNanos.Store(int64(s.AssignTime))
	}
	if s.SeedCandidates != o.SeedCandidates {
		m.seedCandidates.Store(s.SeedCandidates)
	}
	if s.EvolutionEvents != o.EvolutionEvents {
		m.evolutionEvents.Store(s.EvolutionEvents)
	}
	e.statsShadow = s
}

// Tau returns the cluster-separation threshold currently in effect.
func (e *EDMStream) Tau() float64 { return e.tuner.tau }

// Alpha returns the balance parameter of the adaptive τ objective
// (meaningful after initialization when AdaptiveTau is enabled).
func (e *EDMStream) Alpha() float64 { return e.tuner.alpha }

// activeThreshold returns the density above which a cell is active.
func (e *EDMStream) activeThreshold() float64 {
	return e.cfg.Decay.ActiveThreshold(e.cfg.Beta, e.cfg.Rate)
}

// ReservoirBound returns the theoretical upper bound on the outlier
// reservoir size for the configured parameters (Sec. 4.4), used by the
// Fig. 16 experiment.
func (e *EDMStream) ReservoirBound() float64 {
	return e.cfg.DeleteDelay*e.cfg.Rate + 1/e.cfg.Beta
}

// Insert consumes one stream point. Implements stream.Clusterer.
func (e *EDMStream) Insert(p stream.Point) error {
	e.one[0] = p
	return e.InsertBatch(e.one[:])
}

// InsertBatch consumes a batch of stream points in order. It is
// equivalent to inserting the points one by one — identical cells,
// snapshots and evolution events — but amortizes the per-point
// bookkeeping: validation runs up front for the whole batch, and runs
// of consecutive points absorbed by the same active cell share one
// density-band dependency update, one log-density refresh and one
// density-band rebucket instead of one each per point. Every point is
// routed to its nearest seed by the same serial probe Insert uses, on
// the calling goroutine.
//
// Validation is all-or-nothing: if any point is invalid (malformed, or
// a vector of another dimensionality than the stream's) the whole
// batch is rejected with no state change. An empty batch is a no-op.
func (e *EDMStream) InsertBatch(pts []stream.Point) error {
	if err := e.admit(pts); err != nil {
		return err
	}
	e.ingest(pts)
	e.publishStats()
	return nil
}

// InsertBatchAssigned consumes a batch exactly like InsertBatch —
// identical validation, routing, clustering output — and additionally
// records, per point, the ID of the cluster-cell that absorbed it (the
// new cell's ID when the point seeded one). dst is overwritten,
// reusing its backing array, and returned; pass nil to allocate. On
// error (any invalid point rejects the whole batch with no state
// change) the returned slice is dst truncated to zero length.
//
// The recorded IDs name the cells at absorption time: a maintenance
// sweep later in the same batch may deactivate or delete an acked
// cell, and cell IDs are not cluster IDs (use Assign against a
// published snapshot for cluster membership). The serving daemon uses
// this call to hand each coalesced ingest request its per-point acks.
func (e *EDMStream) InsertBatchAssigned(pts []stream.Point, dst []int64) ([]int64, error) {
	dst = dst[:0]
	if err := e.admit(pts); err != nil {
		return dst, err
	}
	if cap(dst) < len(pts) {
		dst = make([]int64, 0, len(pts))
	}
	e.acks = &dst
	e.ingest(pts)
	e.acks = nil
	e.publishStats()
	return dst, nil
}

// admit validates a batch all-or-nothing, before any of it is applied.
// Every point must be well formed, and every vector must match the
// stream's dimensionality: the seed column's width, which the first
// vector ever ingested fixes. Token sets are admitted beside vectors.
func (e *EDMStream) admit(pts []stream.Point) error {
	dim := e.seeds.Dim()
	for i := range pts {
		err := pts[i].Validate()
		if v := pts[i].Vector; err == nil && v != nil {
			if dim < 0 {
				dim = len(v)
			}
			if len(v) != dim {
				err = fmt.Errorf("%d-d vector on a %d-d stream", len(v), dim)
			}
		}
		if err != nil {
			return fmt.Errorf("core: point %d of %d rejected: %w", i, len(pts), err)
		}
	}
	return nil
}

// absorbRun tracks a run of consecutive points absorbed by the same
// active cell. The run's dependency maintenance is deferred to
// flushRun: because all densities decay at the same rate, the density
// bands of the individual absorptions tile the run's combined band
// exactly in the decay-normalized log domain, so one update over
// [logBefore, logNorm) at the run's final time links exactly the cells
// the per-point updates would have linked.
type absorbRun struct {
	cell *Cell
	// logBefore is cell.logNorm before the run's first absorption (the
	// lower edge of the combined density band).
	logBefore float64
	// stamp is stats.Points at the run's last probe; it keys the
	// triangle-inequality filter's distance stamps.
	stamp int64
	// last is the stream time of the run's last absorption.
	last float64
}

// ingest drives the point loop shared by Insert and InsertBatch. All
// points must be pre-validated. Runs of consecutive points absorbed by
// the same active cell are coalesced; every other event — new cells,
// inactive-cell absorptions (which may cross the promotion threshold
// at a specific point), sweeps, evolution checks and initialization —
// flushes the open run first so it observes exactly the state a
// point-by-point ingestion would have produced.
func (e *EDMStream) ingest(pts []stream.Point) {
	var run absorbRun
	detailed := e.cfg.DetailedStats
	for i := range pts {
		p := pts[i]
		if p.Time > e.now {
			e.now = p.Time
		}
		now := e.now
		e.stats.Points++
		e.ensureIndex(p)

		var start time.Time
		if detailed {
			start = time.Now()
		}
		cell, _, absorbed := e.nearestSeed(p)
		if detailed {
			e.stats.AssignTime += time.Since(start)
		}

		switch {
		case !absorbed:
			// No cell's seed is within Radius: the point seeds a new
			// cluster-cell, cached in the outlier reservoir because of
			// its low density.
			e.flushRun(&run)
			c := newCell(e.nextCellID, p)
			c.seed.Time = now
			c.lastAbsorb = now
			c.rhoTime = now
			e.nextCellID++
			e.addCell(c)
			e.res.add(c)
			e.stats.CellsCreated++
			if e.initialized {
				e.maybePromote(c, now)
			}
			cell = c
		case cell == run.cell:
			// Same active cell as the open run: fold the point in and
			// leave the dependency maintenance to the flush.
			cell.absorb(now, e.cfg.Decay)
			run.stamp = e.stats.Points
			run.last = now
		case e.initialized && cell.active:
			e.flushRun(&run)
			run = absorbRun{cell: cell, logBefore: cell.logNorm, stamp: e.stats.Points, last: now}
			cell.absorb(now, e.cfg.Decay)
		default:
			// Inactive (or pre-initialization) cells cross the
			// promotion threshold at a specific point, so their
			// absorptions are never coalesced.
			e.flushRun(&run)
			cell.absorb(now, e.cfg.Decay)
			e.refreshLogNorm(cell)
			if e.initialized {
				e.maybePromote(cell, now)
			}
		}
		if e.acks != nil {
			// Ack the cell the point landed in: the absorbing cell, or
			// the cell the point just seeded. The ID names the cell at
			// absorption time; a later sweep may delete it.
			*e.acks = append(*e.acks, cell.id)
		}

		if !e.initialized {
			if e.stats.Points >= int64(e.cfg.InitPoints) {
				e.finalizeInit(now)
			}
			continue
		}

		if now-e.lastSweep >= e.cfg.SweepInterval {
			e.flushRun(&run)
			e.sweep(now)
			e.lastSweep = now
		}
		if e.cfg.EvolutionInterval > 0 && now-e.lastEvolution >= e.cfg.EvolutionInterval {
			e.flushRun(&run)
			e.refreshClustering(now)
			e.lastEvolution = now
		}
	}
	e.flushRun(&run)
}

// flushRun applies the deferred maintenance of an open absorption run:
// the cell's log-density key is refreshed, it moves to its current
// density bucket, and one density-band dependency update covers every
// absorption of the run.
func (e *EDMStream) flushRun(run *absorbRun) {
	c := run.cell
	if c == nil {
		return
	}
	run.cell = nil
	e.refreshLogNorm(c)
	e.tree.rebucket(c)
	var start time.Time
	if e.cfg.DetailedStats {
		start = time.Now()
	}
	e.updateDependenciesBand(c, run.logBefore, run.last, run.stamp)
	if e.cfg.DetailedStats {
		e.stats.DependencyUpdateTime += time.Since(start)
	}
}

// nearestSeed returns the cell whose seed is closest to p among those
// within the cell radius, with the distance; ok is false when no cell
// can absorb the point. The per-cell distances measured during the
// probe are stamped onto the cells so the triangle-inequality filter
// can reuse them at no extra cost; with the grid index only the cells
// in the probed buckets are stamped, which merely narrows where that
// filter applies (Theorem 2 skips are optional, never required).
func (e *EDMStream) nearestSeed(p stream.Point) (*Cell, float64, bool) {
	e.probeStamp = e.stats.Points
	slot, d, ok := e.seedIdx.NearestWithin(p, e.cfg.Radius, e.onProbe, nil)
	if !ok {
		return nil, 0, false
	}
	return e.cells.at(slot), d, true
}

// logBandSlack widens the density filter's log-domain band to absorb
// the rounding of the log transform: a candidate within the slack of a
// band edge is examined rather than skipped, which keeps the filter
// conservative (skipping is only ever an optimization, per Theorem 1).
const logBandSlack = 1e-6

// noStamp is a triangle-filter stamp no probe carries (probe stamps
// are point counters, from 1): passed to relinkToward, it turns the
// filter off.
const noStamp = -1

// updateDependenciesBand restores the DP-Tree invariants after cell c
// absorbed one or more points, the last at stream time now, applying
// the density filter (Theorem 1) and the triangle-inequality filter
// (Theorem 2) to skip cells whose dependency cannot have changed.
//
// The density band is expressed directly in the decay-normalized log
// domain: every cell decays at the same rate, so densities at a common
// time compare exactly as the cells' logNorm keys do. logBefore is c's
// key before the absorption(s); c.logNorm is its refreshed key. Using
// the stored keys (instead of re-deriving the band from densities at
// now) costs no logarithms and makes consecutive per-point bands tile
// a coalesced run's combined band float-exactly.
func (e *EDMStream) updateDependenciesBand(c *Cell, logBefore, now float64, stamp int64) {
	// Theorem 1: only cells whose density lies in the band the
	// absorption(s) moved c across can see their dependency move — c
	// outranked everything below the band already, and still does not
	// outrank anything at or above it. The slack absorbs log rounding,
	// erring toward examining. Without the density filter the band is
	// every key.
	lo, hi := math.Inf(-1), math.Inf(1)
	if e.cfg.Filters&FilterDensity != 0 {
		lo, hi = logBefore-logBandSlack, c.logNorm+logBandSlack
	}
	if e.cfg.Filters&FilterTriangle == 0 {
		stamp = noStamp
	}
	tally := e.relinkToward(c, lo, hi, now, stamp)
	others := int64(len(e.tree.list) - 1)
	e.stats.DependencyCandidates += others
	// Every cell the band walk did not reach is filtered by density
	// without being touched.
	e.stats.FilteredByDensity += tally.outOfBand + others - tally.examined
	e.stats.FilteredByTriangle += tally.triangle
	e.stats.DependencyRelinks += tally.moved

	// c's own dependency: absorbing only raises c's decay-normalized
	// rank, so its higher-density set can only have shrunk. A root
	// stays a root (nothing re-enters the shrunk set); a linked cell
	// keeps its dependency if that dependency still outranks it (the
	// nearest member of a set remains nearest in any subset), and
	// recomputes from scratch otherwise.
	if c.dep != nil && !e.tree.outranks(c.dep, c, now) {
		e.tree.computeDependency(c, now)
	}
}

// relinkTally counts one relinkToward pass: the cells examined (every
// cell in the walked buckets but c), those outside the key band, those
// the triangle filter skipped, and the dependencies moved.
type relinkTally struct {
	examined, outOfBand, triangle, moved int64
}

// relinkToward moves to c the dependency of every active cell o whose
// key lies in [lo, hi), that c outranks at time now and for which c is
// the better dependency under the tie rule of computeDependency:
// |o,c| < δ_o, or |o,c| = δ_o and c's ID is below that of o's current
// dependency. It is the one relink rule of the DP-Tree, run whenever c
// rose in rank (Sec. 4.2): a cell c overtakes gains one member, c, in
// its higher-ranked set, so its dependency either stays or becomes c.
// An absorption passes the Theorem 1 band, a promotion every key up to
// c's own, and the unfiltered mode every key.
//
// Only the density buckets covering [lo, hi) are walked, each entry
// tested on its inline key, δ and seed row; a cell is dereferenced only
// to break a near-tie or to be relinked. With a stamp other than
// noStamp the triangle filter (Theorem 2) skips cells whose probe
// distances bound |o,c| above δ_o. The decision is made on the same
// float64 distance computeDependency would measure, so an incremental
// relink and a search from scratch agree bit for bit.
func (e *EDMStream) relinkToward(c *Cell, lo, hi, now float64, stamp int64) relinkTally {
	t := e.tree
	var tally relinkTally
	toC := e.probes[c.slot]
	triangle := stamp != noStamp && toC.stamp == stamp
	var cv []float64
	if c.col {
		cv = e.seeds.Row(c.slot)
	}
	// The occupied buckets covering the band, in key order: a superset
	// of the band; the per-cell key check stays authoritative.
	keys, last := t.densKeys, int64(math.MaxInt64)
	if !math.IsInf(lo, -1) {
		keys = keys[t.densFrom(densBucketOf(lo)):]
	}
	if !math.IsInf(hi, 1) {
		last = densBucketOf(hi)
	}
	for _, b := range keys {
		if b > last {
			break
		}
		bucket := t.byDensity[b]
		for i := range bucket {
			o := &bucket[i]
			if o.cell == c {
				continue
			}
			tally.examined++
			if o.logNorm < lo || o.logNorm >= hi {
				tally.outOfBand++
				continue
			}
			// Theorem 2: ||p,s_o| − |p,s_c|| is a lower bound on
			// |s_o,s_c|; if it already exceeds o's dependent distance,
			// c cannot become o's new dependency.
			if triangle {
				if toO := e.probes[o.slot]; toO.stamp == stamp && math.Abs(toO.dist-toC.dist) > o.delta {
					tally.triangle++
					continue
				}
			}
			if !t.outranksBy(c.logNorm-o.logNorm, c, o.cell, now) {
				continue
			}
			var d float64
			if o.col && cv != nil {
				var near bool
				if d, near = withinBound(e.seeds.Row(o.slot), cv, o.delta); !near {
					continue
				}
			} else {
				d = t.seedDist(o.cell, c)
			}
			if held := (nearestPick{o.cell.dep, o.delta}); held.beats(c, d) {
				t.link(o.cell, c, d)
				tally.moved++
			}
		}
	}
	return tally
}

// maybePromote moves an inactive cell into the DP-Tree once its timely
// density reaches the active threshold (cluster-cell emergence,
// Sec. 4.3). The newcomer outranks every active cell below it, so it
// may become their dependency: a relink over every key up to its own,
// with the triangle filter off (no probe measured the cells against
// it) and no Theorem 1/2 counters.
func (e *EDMStream) maybePromote(c *Cell, now float64) {
	if c.active || c.Density(now, e.cfg.Decay) < e.activeThreshold() {
		return
	}
	var start time.Time
	if e.cfg.DetailedStats {
		start = time.Now()
	}
	e.res.remove(c)
	e.tree.insert(c)
	e.tree.computeDependency(c, now)
	e.relinkToward(c, math.Inf(-1), c.logNorm+logBandSlack, now, noStamp)
	e.stats.Promotions++
	if e.cfg.DetailedStats {
		e.stats.DependencyUpdateTime += time.Since(start)
	}
}

// sweep performs periodic maintenance: active cells whose density
// decayed below the threshold are moved (with their whole subtree) to
// the outlier reservoir (cluster-cell decay, Sec. 4.3), and inactive
// cells that have not absorbed points for ΔTdel are deleted
// (memory recycling, Sec. 4.4).
//
// Below-threshold cells are found through the density band index: in
// the decay-normalized log domain the threshold at `now` is a single
// key, so the sweep enumerates the occupied density buckets and scans
// cells only in those at or below the key — cells in higher buckets
// (the vast majority on a healthy stream) are never touched, and the
// occupied-bucket count is typically far below the cell count. Cells
// within the rounding slack of the key fall through to the exact
// density comparison.
func (e *EDMStream) sweep(now float64) {
	threshold := e.activeThreshold()
	key := math.Log(threshold) + e.lnDecay*now
	hiBucket := densBucketOf(key + logBandSlack)
	demote := e.demote[:0]
	for _, b := range e.tree.densKeys {
		if b > hiBucket {
			break
		}
		for _, en := range e.tree.byDensity[b] {
			if en.logNorm < key-logBandSlack {
				demote = append(demote, en.cell)
			} else if en.logNorm < key+logBandSlack && en.cell.Density(now, e.cfg.Decay) < threshold {
				demote = append(demote, en.cell)
			}
		}
	}
	// Demotion order is by cell ID, not by bucket.
	slices.SortFunc(demote, func(a, b *Cell) int { return cmp.Compare(a.id, b.id) })

	// Because every cell's dependency outranks it, a demoted cell's
	// dependents are below the threshold too and are demoted in the
	// same sweep — so demotions cannot orphan an active cell, and
	// cells that were already roots need no dependency search. The
	// repair pass below is defensive: it recomputes only cells that
	// verifiably lost their dependency to a demotion (possible in
	// principle at the rounding slack's edge), not every dep-less cell.
	repair := e.repair[:0]
	for _, c := range demote {
		for _, child := range c.children {
			repair = append(repair, child)
		}
		e.tree.remove(c)
		e.res.add(c)
		e.stats.Demotions++
	}
	for _, c := range repair {
		if c.active && c.dep == nil {
			e.tree.computeDependency(c, now)
		}
	}
	e.demote = demote[:0]
	e.repair = repair[:0]

	for _, c := range e.res.expire(now, e.cfg.DeleteDelay) {
		e.removeCell(c)
		e.stats.Deletions++
	}
}

// finalizeInit ends the initialization phase (Sec. 4.1): dependencies
// of all cached cells are computed to draw the decision graph, τ⁰ is
// chosen (by the configured selector or the static Tau), α is fitted,
// qualifying cells enter the DP-Tree and the first clustering snapshot
// is taken.
func (e *EDMStream) finalizeInit(now float64) {
	graph, deltas := e.initialDecisionGraph(now)

	tau0 := e.cfg.Tau
	if tau0 <= 0 {
		tau0 = e.cfg.TauSelector(graph)
	}
	if tau0 <= 0 {
		// Degenerate selector output: fall back to three times the mean
		// finite dependent distance, which separates only clearly
		// isolated mountains.
		var sum float64
		var n int
		for _, d := range deltas {
			sum += d
			n++
		}
		if n > 0 {
			tau0 = 3 * sum / float64(n)
		} else {
			tau0 = e.cfg.Radius * 4
		}
	}
	e.tuner.initialize(tau0, e.cfg.Alpha, deltas)

	// Cells that already meet the density threshold enter the DP-Tree
	// (in cell-ID order, so the active list — and everything downstream
	// of its iteration order — is deterministic).
	threshold := e.activeThreshold()
	for _, c := range e.sortedCells() {
		if c.Density(now, e.cfg.Decay) >= threshold {
			e.res.remove(c)
			e.tree.insert(c)
		}
	}
	for _, c := range e.tree.list {
		e.tree.computeDependency(c, now)
	}

	e.initialized = true
	e.lastSweep = now
	e.lastEvolution = now
	e.refreshClustering(now)
}

// sortedCells returns every cached cell ordered by ID. The returned
// slice is scratch owned by the engine and valid until the next call.
func (e *EDMStream) sortedCells() []*Cell {
	cells := e.ordered[:0]
	for _, c := range e.cells.bySlot {
		if c != nil {
			cells = append(cells, c)
		}
	}
	slices.SortFunc(cells, func(a, b *Cell) int { return cmp.Compare(a.id, b.id) })
	e.ordered = cells[:0]
	return cells
}

// initialDecisionGraph computes (ρ, δ) for every cached cell against
// all other cached cells, which is the decision graph shown to the
// user (or to the TauSelector heuristic) at initialization time. The
// per-cell dependency search goes through the seed index, so on
// gridded streams initialization is no longer quadratic in the cell
// count.
func (e *EDMStream) initialDecisionGraph(now float64) ([]DecisionPoint, []float64) {
	cells := e.sortedCells()
	graph := make([]DecisionPoint, 0, len(cells))
	var deltas []float64
	for _, c := range cells {
		best := math.Inf(1)
		if e.seedIdx != nil {
			if _, d, ok := e.seedIdx.NearestWhere(c.seed, func(slot int32) bool {
				o := e.cells.at(slot)
				return o != c && e.tree.outranks(o, c, now)
			}); ok {
				best = d
			}
		}
		graph = append(graph, DecisionPoint{CellID: c.id, Rho: c.Density(now, e.cfg.Decay), Delta: best})
		if !math.IsInf(best, 1) {
			deltas = append(deltas, best)
		}
	}
	return graph, deltas
}

// DecisionGraph returns the current decision graph: the (ρ, δ) pair of
// every active cell (Fig. 15). Before initialization it is computed
// over all cached cells.
func (e *EDMStream) DecisionGraph() []DecisionPoint {
	now := e.now
	if !e.initialized {
		graph, _ := e.initialDecisionGraph(now)
		return graph
	}
	graph := make([]DecisionPoint, 0, e.tree.size())
	for _, c := range e.tree.list {
		graph = append(graph, DecisionPoint{CellID: c.id, Rho: c.Density(now, e.cfg.Decay), Delta: c.delta})
	}
	return graph
}

// refreshClustering recomputes τ (if adaptive), brings the cluster
// partition up to date, lets the evolution tracker diff it against the
// previous partition when membership changed, and atomically publishes
// the resulting snapshot for the read side.
//
// The extraction is incremental: only subtrees whose dependency links
// changed since the last refresh are reprocessed (see extract.go), the
// evolution diff is skipped entirely when no membership moved, and the
// published member views (CellIDs, SeedPoints) are reused from the
// previous refresh for clusters that did not change. With fullExtract
// set, the PR 2 from-scratch rebuild runs instead (identical output).
func (e *EDMStream) refreshClustering(now float64) {
	e.sweep(now)
	e.lastSweep = now

	if e.cfg.AdaptiveTau {
		deltas := e.deltas[:0]
		for _, c := range e.tree.list {
			deltas = append(deltas, c.delta)
		}
		e.deltas = deltas[:0]
		e.tuner.retune(deltas)
	}
	tau := e.tuner.tau

	if e.fullExtract {
		e.refreshClusteringFull(now, tau)
		return
	}

	changed := e.tree.extract(tau)
	clusters := e.tree.clusters
	if changed {
		part := e.part[:0]
		for _, cl := range clusters {
			// A cluster whose views are stale is exactly one whose
			// membership changed since the last refresh; the tracker
			// settles the others without touching their members.
			chg := !cl.viewsValid
			e.tree.buildViews(cl)
			part = append(part, obsCluster{ids: cl.ids, prevID: cl.id, changed: chg})
		}
		e.part = part[:0]
		ids := e.tracker.observe(now, part)
		for i, cl := range clusters {
			cl.id = ids[i]
		}
		e.tree.partChanged = false
	}

	// lnNow is the decay-normalization offset at snapshot time: a
	// cell's timely density is exp(logNorm − lnNow), one exp instead of
	// one Pow per member (see Cell.logNorm).
	lnNow := e.lnDecay * now
	infos := make([]ClusterInfo, 0, len(clusters))
	for _, cl := range clusters {
		e.tree.buildViews(cl)
		peak := cl.peak
		info := ClusterInfo{
			ID:          cl.id,
			PeakCellID:  peak.id,
			PeakDensity: math.Exp(peak.logNorm - lnNow),
			CellIDs:     cl.ids,
			SeedPoints:  cl.seeds,
		}
		// Member order (and with it the CellIDs ↔ SeedPoints
		// correspondence and the float summation order of Weight) is
		// fixed by cell ID so snapshots are fully deterministic.
		for _, c := range cl.members {
			info.Weight += math.Exp(c.logNorm - lnNow)
			info.Points += c.count
		}
		infos = append(infos, info)
	}
	sortClusterInfo(infos)
	e.publishSnapshot(now, tau, infos, changed)
}

// refreshClusteringFull is the preserved PR 2 refresh: a from-scratch
// msdSubtrees walk with per-refresh membership structures and seed
// clones, and an unconditional evolution diff. Its output is
// byte-identical to the incremental path; it exists as the baseline
// the serve benchmark and the equivalence property tests compare
// against.
func (e *EDMStream) refreshClusteringFull(now, tau float64) {
	// The incremental dirty set is not consumed on this path; drain it
	// so it cannot grow without bound (and cannot pin deleted cells).
	e.tree.clearDirty()
	e.tree.extractValid = false

	subtrees := e.tree.msdSubtrees(tau)
	peaks := make([]*Cell, 0, len(subtrees))
	members := make([][]*Cell, 0, len(subtrees))
	for peak, cells := range subtrees {
		peaks = append(peaks, peak)
		members = append(members, cells)
	}
	// Deterministic order (by peak cell id) before the tracker assigns
	// IDs.
	order := make([]int, len(peaks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return peaks[order[a]].id < peaks[order[b]].id })
	partition := make([]obsCluster, len(order))
	for i, idx := range order {
		sort.Slice(members[idx], func(a, b int) bool { return members[idx][a].id < members[idx][b].id })
		ids := make([]int64, len(members[idx]))
		for j, c := range members[idx] {
			ids[j] = c.id
		}
		partition[i] = obsCluster{ids: ids, changed: true}
	}
	ids := e.tracker.observe(now, partition)

	lnNow := e.lnDecay * now
	clusters := make([]ClusterInfo, 0, len(order))
	for i, idx := range order {
		peak := peaks[idx]
		info := ClusterInfo{
			ID:          ids[i],
			PeakCellID:  peak.id,
			PeakDensity: math.Exp(peak.logNorm - lnNow),
			CellIDs:     partition[i].ids,
		}
		for _, c := range members[idx] {
			// Clone the seed per refresh, as the PR 2 path did.
			info.SeedPoints = append(info.SeedPoints, c.seed.Clone())
			info.Weight += math.Exp(c.logNorm - lnNow)
			info.Points += c.count
		}
		clusters = append(clusters, info)
	}
	sortClusterInfo(clusters)
	e.publishSnapshot(now, tau, clusters, true)
}

// publishSnapshot atomically swaps in the new read-side state. When
// membership did not change, the previous snapshot's query-index
// holder is carried forward, so steady-state refreshes never
// invalidate a built index.
func (e *EDMStream) publishSnapshot(now, tau float64, clusters []ClusterInfo, changed bool) {
	pub := &published{snap: Snapshot{
		Time:         now,
		Tau:          tau,
		Clusters:     clusters,
		OutlierCells: e.res.size(),
		ActiveCells:  e.tree.size(),
	}}
	if prev := e.pub.Load(); prev != nil && !changed {
		pub.assign = prev.assign
	} else {
		pub.assign = &assignHolder{}
	}
	e.pub.Store(pub)
}

// Refresh recomputes the clustering at the latest observed stream time
// and publishes it, returning the published (read-only) snapshot
// view. It is the refresh primitive behind Snapshot, exposed so
// benchmarks and serving loops can trigger a refresh without paying
// for Snapshot's defensive deep copy. The returned snapshot shares
// its slices with the published state and must be treated as
// read-only.
func (e *EDMStream) Refresh() Snapshot {
	if !e.initialized {
		e.finalizeInit(e.now)
	} else {
		e.refreshClustering(e.now)
		e.lastEvolution = e.now
	}
	e.publishStats()
	if pub := e.pub.Load(); pub != nil {
		return pub.snap
	}
	return Snapshot{}
}

// Snapshot refreshes and returns the current clustering. It forces
// initialization if the stream is still in its init phase. The result
// is an independent deep copy the caller may hold or mutate freely;
// serving loops that only read should prefer LastSnapshot, which
// returns the shared published view without copying.
func (e *EDMStream) Snapshot() Snapshot {
	return e.Refresh().clone()
}

// LastSnapshot returns the most recent published snapshot without
// recomputing the clustering. It is safe to call from any goroutine
// concurrently with ingestion. The returned snapshot is a shared
// read-only view: callers must not modify its slices (use Snapshot
// for an owned copy).
func (e *EDMStream) LastSnapshot() Snapshot {
	if pub := e.pub.Load(); pub != nil {
		return pub.snap
	}
	return Snapshot{}
}

// Clusters implements stream.Clusterer: it refreshes the clustering at
// time now and reports the macro-clusters. Like Snapshot it returns
// owned data (MacroCluster centers alias the deep copy, not the shared
// published views), so harness code may mutate the result freely.
func (e *EDMStream) Clusters(now float64) []stream.MacroCluster {
	if now > e.now {
		e.now = now
	}
	return e.Snapshot().MacroClusters()
}

// Events returns the cluster evolution log recorded so far. It is safe
// to call from any goroutine concurrently with ingestion.
func (e *EDMStream) Events() []Event {
	return e.tracker.logView()
}

// EventsSince returns the evolution events with sequence number >=
// cursor together with the next cursor, supporting resumable,
// incremental consumption of the log. Sequence numbers start at 0 and
// are assigned in log order; the returned cursor is the sequence
// number one past the last event recorded so far, so passing it back
// yields exactly the events recorded in between — and it only advances
// when new events are recorded, never from an intervening refresh that
// detected no activity.
//
// A cursor at or past the end returns an empty slice (never an error)
// with the current end cursor: EventsSince(0) on a fresh engine is
// (nil, 0). When Config.MaxEvents trims the log, a cursor pointing
// into the trimmed prefix resumes at the oldest retained event — the
// skipped events are unrecoverable, exactly as with Events.
//
// Like Events it is safe to call from any goroutine concurrently with
// ingestion.
func (e *EDMStream) EventsSince(cursor uint64) ([]Event, uint64) {
	return e.tracker.eventsSince(cursor)
}

// SetFullExtraction switches the engine to the from-scratch cluster
// extraction (the PR 2 refresh path) when on is true. The clustering
// output is byte-identical to the incremental default; only the
// refresh cost differs. It exists for benchmarking and for the
// incremental-vs-full equivalence tests, and must be set before the
// first point is ingested.
func (e *EDMStream) SetFullExtraction(on bool) { e.fullExtract = on }

// Assign classifies a point against the most recent published
// snapshot: it returns the ID of the cluster whose member cell's seed
// is nearest to p within the cell radius, or ok == false when no
// cluster claims the point (it would be an outlier) or no snapshot has
// been published yet. It is safe to call from any number of goroutines
// concurrently with ingestion, never blocks the write path, and does
// not allocate.
//
// The classification is against the published snapshot, not the live
// cells: a point near a cell that emerged after the last refresh is
// not matched until the next refresh publishes it.
func (e *EDMStream) Assign(p stream.Point) (int, bool) {
	pub := e.pub.Load()
	if pub == nil {
		return 0, false
	}
	return e.assignIndex(pub).assign(p)
}

// AssignBatch classifies every point in pts against one consistent
// published snapshot, overwriting dst (reusing its backing) with one
// cluster ID per point and returning it; outliers get AssignOutlier.
// Like Assign it is safe for concurrent use.
func (e *EDMStream) AssignBatch(pts []stream.Point, dst []int) []int {
	dst = dst[:0]
	pub := e.pub.Load()
	if pub == nil {
		for range pts {
			dst = append(dst, AssignOutlier)
		}
		return dst
	}
	idx := e.assignIndex(pub)
	for i := range pts {
		if id, ok := idx.assign(pts[i]); ok {
			dst = append(dst, id)
		} else {
			dst = append(dst, AssignOutlier)
		}
	}
	return dst
}

// AssignOutlier is the cluster ID AssignBatch reports for points no
// cluster claims.
const AssignOutlier = -1

// assignIndex returns the query index for the published state,
// building it on first use. Concurrent first queries may build it
// twice; the CAS keeps exactly one and the loser's work is discarded
// (the index derives deterministically from the immutable snapshot,
// so both candidates are interchangeable).
func (e *EDMStream) assignIndex(pub *published) *assignIndex {
	if a := pub.assign.idx.Load(); a != nil {
		return a
	}
	a := newAssignIndex(pub.snap.Clusters, e.cfg.Radius)
	if !pub.assign.idx.CompareAndSwap(nil, a) {
		a = pub.assign.idx.Load()
	}
	return a
}

// CheckInvariants validates the DP-Tree invariants; it returns an error
// describing the first violation, or nil. It exists for tests and
// debugging.
func (e *EDMStream) CheckInvariants() error {
	if msg := e.tree.checkInvariants(e.now); msg != "" {
		return fmt.Errorf("core: invariant violation: %s", msg)
	}
	live := 0
	for slot, c := range e.cells.bySlot {
		if c == nil {
			continue
		}
		live++
		id := c.id
		if c.slot != int32(slot) {
			return fmt.Errorf("core: cell slab slot %d holds cell %d addressed as slot %d", slot, id, c.slot)
		}
		if c.active {
			if c.treeIdx < 0 || int(c.treeIdx) >= len(e.tree.list) || e.tree.list[c.treeIdx] != c {
				return fmt.Errorf("core: active cell %d missing from DP-Tree", id)
			}
		} else {
			if _, ok := e.res.cells[c.id]; !ok {
				return fmt.Errorf("core: inactive cell %d missing from reservoir", id)
			}
		}
	}
	if live != e.cells.len() || live+len(e.cells.free) != len(e.cells.bySlot) {
		return fmt.Errorf("core: cell slab count %d, free slots %d and live slots %d of %d disagree",
			e.cells.len(), len(e.cells.free), live, len(e.cells.bySlot))
	}
	if e.tree.size()+e.res.size() != e.cells.len() {
		return fmt.Errorf("core: tree (%d) + reservoir (%d) != total cells (%d)", e.tree.size(), e.res.size(), e.cells.len())
	}
	if e.seedIdx != nil && e.seedIdx.Len() != e.cells.len() {
		return fmt.Errorf("core: seed index size %d != cell slab size %d", e.seedIdx.Len(), e.cells.len())
	}
	if e.seedIdx == nil && e.cells.len() > 0 {
		return fmt.Errorf("core: %d cells registered without a seed index", e.cells.len())
	}
	if !e.fullExtract {
		if msg := e.tree.clusterBookkeepingInvariants(); msg != "" {
			return fmt.Errorf("core: invariant violation: %s", msg)
		}
	}
	return nil
}
