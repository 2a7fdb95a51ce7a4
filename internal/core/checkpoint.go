package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/index"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file implements engine-state checkpoints: EncodeCheckpoint
// serializes every piece of state that influences future output, and
// DecodeCheckpoint rebuilds an engine that continues the stream
// byte-identically to one that was never checkpointed (the
// checkpoint_equiv_test.go property). The durability layer
// (internal/wal) persists these checkpoints so recovery only replays
// the log tail written after the last one.
//
// What must be stored exactly (and why) versus what is rebuilt:
//
//   - The active-cell list order: the adaptive-τ retune collects
//     dependent distances in list order and the objective sums floats
//     in that order, so the order is part of the output.
//   - The extraction dirty list (IDs, in order) and each cell's
//     children order: they drive which subtrees the next incremental
//     extraction reprocesses and in what order.
//   - The incremental cluster partition (peak, members, stable ID,
//     view validity) plus extractTau/extractValid/partChanged: the
//     strongness-flip fast path in link() compares against extractTau,
//     and the tracker diff only runs when membership moved.
//   - The full Stats block: Stats.Points doubles as the probe stamp
//     for the triangle-inequality filter (the probe stamp column).
//   - The published snapshot verbatim: its cluster weights were
//     computed with the decay normalization of their refresh time and
//     cannot be re-derived later.
//
// Rebuilt instead of stored: the seed index (inserting cells in ID
// order is exact because every index search breaks distance ties
// toward the lowest cell ID), the density-band buckets (per-candidate
// examination is order-independent and every sweep sorts by ID), the
// logNorm keys (a pure function of rho/rhoTime), and the extraction
// epoch stamps (only equality within one pass matters).

// ckptMagic identifies a checkpoint payload; the trailing byte is the
// format version.
var ckptMagic = [8]byte{'E', 'D', 'M', 'C', 'K', 'P', '1'}

// ckptPoint is the serializable form of a stream.Point. Token sets are
// flattened to sorted slices so the encoding is deterministic and
// avoids gob's handling of struct{}-valued maps.
type ckptPoint struct {
	ID        int64
	Vector    []float64
	Tokens    []string
	HasTokens bool
	Label     int
	Time      float64
}

func toCkptPoint(p stream.Point) ckptPoint {
	cp := ckptPoint{ID: p.ID, Label: p.Label, Time: p.Time}
	if p.Vector != nil {
		cp.Vector = append([]float64(nil), p.Vector...)
	}
	if p.Tokens != nil {
		cp.HasTokens = true
		cp.Tokens = make([]string, 0, len(p.Tokens))
		for tok := range p.Tokens {
			cp.Tokens = append(cp.Tokens, tok)
		}
		sort.Strings(cp.Tokens)
	}
	return cp
}

func (cp ckptPoint) point() stream.Point {
	p := stream.Point{ID: cp.ID, Label: cp.Label, Time: cp.Time}
	if cp.Vector != nil {
		p.Vector = append([]float64(nil), cp.Vector...)
	}
	if cp.HasTokens {
		p.Tokens = make(distance.TokenSet, len(cp.Tokens))
		for _, tok := range cp.Tokens {
			p.Tokens.Add(tok)
		}
	}
	return p
}

// ckptCell is the serializable form of a Cell. Dependencies are stored
// by ID (-1 for none) and children as an ID list preserving slice
// order.
type ckptCell struct {
	ID            int64
	Seed          ckptPoint
	Rho           float64
	RhoTime       float64
	LastAbsorb    float64
	Count         int64
	Active        bool
	DepID         int64
	Delta         float64
	ChildIDs      []int64
	LastDist      float64
	LastDistStamp int64
}

// ckptCluster is one incremental MSD cluster: its peak (-1 when the
// peak was deleted since the last extraction), member IDs in
// members-slice order, the tracker-assigned stable ID and whether the
// snapshot-facing views were valid.
type ckptCluster struct {
	PeakID     int64
	MemberIDs  []int64
	ID         int
	ViewsValid bool
}

type ckptClusterInfo struct {
	ID          int
	PeakCellID  int64
	PeakDensity float64
	CellIDs     []int64
	SeedPoints  []ckptPoint
	Weight      float64
	Points      int64
}

type ckptSnapshot struct {
	Time         float64
	Tau          float64
	Clusters     []ckptClusterInfo
	OutlierCells int
	ActiveCells  int
}

// ckptPrev is one tracker prev entry (cluster ID -> sorted member cell
// IDs), stored as a sorted slice for deterministic encoding.
type ckptPrev struct {
	ClusterID int
	CellIDs   []int64
}

// ckptState is the complete serialized engine state.
type ckptState struct {
	Fingerprint string

	Now           float64
	NextCellID    int64
	Initialized   bool
	LastSweep     float64
	LastEvolution float64
	TunerTau      float64
	TunerAlpha    float64
	IndexKind     string

	Cells     []ckptCell
	ActiveIDs []int64
	DirtyIDs  []int64

	Clusters       []ckptCluster
	ClustersSorted bool
	ExtractTau     float64
	ExtractValid   bool
	PartChanged    bool

	Stats Stats

	TrackerNextID int
	TrackerPrev   []ckptPrev
	TrackerEvents []Event
	TrackerBase   uint64

	HasSnapshot bool
	Snapshot    ckptSnapshot
}

// fingerprint summarizes every configuration field that influences
// clustering output or observable statistics; a checkpoint only
// restores into an engine configured identically. %g/%v round-trip
// float64 exactly (shortest unique representation). TauSelector is
// excluded because it only runs at initialization, which the
// checkpoint has already passed through (an uninitialized checkpoint
// re-runs the selector of the restoring engine, which the caller
// supplies along with the rest of the configuration).
func (c Config) fingerprint() string {
	return fmt.Sprintf("radius=%g decayA=%g decayL=%g beta=%g rate=%g tau=%g adaptive=%t alpha=%g init=%d filters=%d evolution=%g sweep=%g delete=%g maxevents=%d index=%s detailed=%t",
		c.Radius, c.Decay.A, c.Decay.Lambda, c.Beta, c.Rate, c.Tau,
		c.AdaptiveTau, c.Alpha, c.InitPoints, c.Filters,
		c.EvolutionInterval, c.SweepInterval, c.DeleteDelay, c.MaxEvents,
		c.IndexPolicy, c.DetailedStats)
}

// EncodeCheckpoint writes the engine's complete state to w: a magic
// header, a length-prefixed gob payload and a CRC-32 trailer. A stream
// resumed from the checkpoint by DecodeCheckpoint produces output
// byte-identical to one that was never interrupted. Owner goroutine
// only.
func (e *EDMStream) EncodeCheckpoint(w io.Writer) error {
	st := ckptState{
		Fingerprint:   e.cfg.fingerprint(),
		Now:           e.now,
		NextCellID:    e.nextCellID,
		Initialized:   e.initialized,
		LastSweep:     e.lastSweep,
		LastEvolution: e.lastEvolution,
		TunerTau:      e.tuner.tau,
		TunerAlpha:    e.tuner.alpha,
		IndexKind:     e.IndexKind(),

		ClustersSorted: e.tree.clustersSorted,
		ExtractTau:     e.tree.extractTau,
		ExtractValid:   e.tree.extractValid,
		PartChanged:    e.tree.partChanged,

		Stats: e.stats,

		TrackerNextID: e.tracker.nextClusterID,
		TrackerEvents: e.tracker.events,
		TrackerBase:   e.tracker.base,
	}

	// Cells in ID order.
	for _, c := range e.sortedCells() {
		cc := ckptCell{
			ID:            c.id,
			Seed:          toCkptPoint(c.seed),
			Rho:           c.rho,
			RhoTime:       c.rhoTime,
			LastAbsorb:    c.lastAbsorb,
			Count:         c.count,
			Active:        c.active,
			DepID:         -1,
			Delta:         c.delta,
			LastDist:      e.probes[c.slot].dist,
			LastDistStamp: e.probes[c.slot].stamp,
		}
		if c.dep != nil {
			cc.DepID = c.dep.id
		}
		for _, child := range c.children {
			cc.ChildIDs = append(cc.ChildIDs, child.id)
		}
		st.Cells = append(st.Cells, cc)
	}

	for _, c := range e.tree.list {
		st.ActiveIDs = append(st.ActiveIDs, c.id)
	}
	// The dirty list may hold cells that were deleted after being
	// marked; extract() skips them (they are inactive), so only
	// slab-live entries need to survive, in order.
	for _, c := range e.tree.dirty {
		if e.cells.live(c) {
			st.DirtyIDs = append(st.DirtyIDs, c.id)
		}
	}

	for _, cl := range e.tree.clusters {
		kc := ckptCluster{PeakID: -1, ID: cl.id, ViewsValid: cl.viewsValid}
		if cl.peak != nil {
			kc.PeakID = cl.peak.id
		}
		for _, c := range cl.members {
			kc.MemberIDs = append(kc.MemberIDs, c.id)
		}
		st.Clusters = append(st.Clusters, kc)
	}

	for id, cells := range e.tracker.prev {
		st.TrackerPrev = append(st.TrackerPrev, ckptPrev{ClusterID: id, CellIDs: cells})
	}
	sort.Slice(st.TrackerPrev, func(a, b int) bool {
		return st.TrackerPrev[a].ClusterID < st.TrackerPrev[b].ClusterID
	})

	if pub := e.pub.Load(); pub != nil {
		st.HasSnapshot = true
		st.Snapshot = ckptSnapshot{
			Time:         pub.snap.Time,
			Tau:          pub.snap.Tau,
			OutlierCells: pub.snap.OutlierCells,
			ActiveCells:  pub.snap.ActiveCells,
		}
		for _, ci := range pub.snap.Clusters {
			kci := ckptClusterInfo{
				ID:          ci.ID,
				PeakCellID:  ci.PeakCellID,
				PeakDensity: ci.PeakDensity,
				CellIDs:     ci.CellIDs,
				Weight:      ci.Weight,
				Points:      ci.Points,
			}
			for _, p := range ci.SeedPoints {
				kci.SeedPoints = append(kci.SeedPoints, toCkptPoint(p))
			}
			st.Snapshot.Clusters = append(st.Snapshot.Clusters, kci)
		}
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&st); err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	var header [20]byte
	copy(header[:8], ckptMagic[:])
	binary.LittleEndian.PutUint64(header[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(header[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("core: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("core: writing checkpoint payload: %w", err)
	}
	return nil
}

// maxCheckpointBytes bounds the payload length a reader will believe;
// anything larger is treated as corruption.
const maxCheckpointBytes = 1 << 32

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint and
// returns a fresh engine holding exactly the encoded state. cfg must
// match the configuration of the engine that wrote the checkpoint
// (compared by fingerprint; a mismatch is an error, because replaying
// under different parameters would silently produce a different
// clustering).
func DecodeCheckpoint(cfg Config, r io.Reader) (*EDMStream, error) {
	var header [20]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	if !bytes.Equal(header[:8], ckptMagic[:]) {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", header[:8])
	}
	n := binary.LittleEndian.Uint64(header[8:16])
	if n > maxCheckpointBytes {
		return nil, fmt.Errorf("core: checkpoint payload length %d exceeds limit", n)
	}
	sum := binary.LittleEndian.Uint32(header[16:20])
	// Read incrementally rather than allocating the claimed length up
	// front: a corrupt header costs no more memory than the bytes that
	// actually arrive.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("core: checkpoint payload truncated at %d of %d bytes", len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("core: checkpoint CRC mismatch (stored %08x, computed %08x)", sum, got)
	}
	var st ckptState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}

	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if fp := e.cfg.fingerprint(); fp != st.Fingerprint {
		return nil, fmt.Errorf("core: checkpoint configuration mismatch:\n  checkpoint: %s\n  engine:     %s", st.Fingerprint, fp)
	}
	if err := e.restore(&st); err != nil {
		return nil, err
	}
	return e, nil
}

// restore loads the decoded state into a freshly constructed engine.
func (e *EDMStream) restore(st *ckptState) error {
	e.now = st.Now
	e.nextCellID = st.NextCellID
	e.initialized = st.Initialized
	e.lastSweep = st.LastSweep
	e.lastEvolution = st.LastEvolution
	e.tuner.tau = st.TunerTau
	e.tuner.alpha = st.TunerAlpha

	// The index kind is restored rather than re-resolved: ensureIndex
	// decides from the first-ever point, which may belong to a cell
	// that has since been deleted (mixed streams under IndexAuto).
	switch st.IndexKind {
	case "grid":
		g := index.NewGrid(e.cfg.Radius, &e.seeds)
		e.seedIdx = g
		e.tree.accel = g
	case "linear":
		e.seedIdx = index.NewLinear()
	case "":
		if len(st.Cells) > 0 {
			return fmt.Errorf("core: checkpoint holds %d cells but no index kind", len(st.Cells))
		}
	default:
		return fmt.Errorf("core: checkpoint has unknown index kind %q", st.IndexKind)
	}

	// Pass 1: materialize cells in ID order. Inserting into the seed
	// index in ID order is exact: every index search resolves distance
	// ties toward the lowest cell ID, so insertion order (and the slots
	// the cells receive) is not observable. byID resolves the IDs the
	// checkpoint names for the rest of the restore.
	byID := make(map[int64]*Cell, len(st.Cells))
	for i := range st.Cells {
		cc := &st.Cells[i]
		if byID[cc.ID] != nil {
			return fmt.Errorf("core: checkpoint repeats cell %d", cc.ID)
		}
		c := &Cell{
			id:         cc.ID,
			seed:       cc.Seed.point(),
			rho:        cc.Rho,
			rhoTime:    cc.RhoTime,
			lastAbsorb: cc.LastAbsorb,
			count:      cc.Count,
			delta:      cc.Delta,
		}
		byID[c.id] = c
		e.addCell(c)
		e.probes[c.slot] = probe{dist: cc.LastDist, stamp: cc.LastDistStamp}
	}

	// Active cells in list order (the order the adaptive-τ retune and
	// the full extraction iterate in); everything else parks in the
	// reservoir.
	for i, id := range st.ActiveIDs {
		c := byID[id]
		if c == nil {
			return fmt.Errorf("core: active list names missing cell %d", id)
		}
		if c.active {
			return fmt.Errorf("core: active list repeats cell %d", id)
		}
		c.active = true
		c.treeIdx = i
		e.tree.list = append(e.tree.list, c)
		e.tree.densInsert(c)
	}

	// Pass 2: wire dependency links, then children (slice order
	// preserved — it drives extraction walk order). Only active cells
	// link, and a dependency must outrank its cell at the restored
	// clock, the rule every link is made by: that also rules out a
	// cycle, which peakOf's walk up the tree would never leave.
	links := 0
	for i := range st.Cells {
		cc := &st.Cells[i]
		c := byID[cc.ID]
		if cc.DepID < 0 {
			if c.active && !math.IsInf(c.delta, 1) {
				return fmt.Errorf("core: root cell %d has finite dependent distance %v", cc.ID, c.delta)
			}
			continue
		}
		dep := byID[cc.DepID]
		switch {
		case dep == nil:
			return fmt.Errorf("core: cell %d depends on missing cell %d", cc.ID, cc.DepID)
		case !c.active || !dep.active:
			return fmt.Errorf("core: cell %d depends on cell %d outside the DP-Tree", cc.ID, cc.DepID)
		case !higherRanked(dep, c, e.now, e.cfg.Decay):
			return fmt.Errorf("core: cell %d depends on cell %d, which does not outrank it", cc.ID, cc.DepID)
		case !(c.delta >= 0):
			return fmt.Errorf("core: cell %d has dependent distance %v", cc.ID, c.delta)
		}
		c.dep = dep
		links++
	}
	for i := range st.Cells {
		cc := &st.Cells[i]
		c := byID[cc.ID]
		for _, childID := range cc.ChildIDs {
			child := byID[childID]
			if child == nil {
				return fmt.Errorf("core: cell %d lists missing child %d", cc.ID, childID)
			}
			// An unplaced child still has childIdx 0, where another
			// child or nothing sits.
			placed := child.childIdx < len(c.children) && c.children[child.childIdx] == child
			if child.dep != c || placed {
				return fmt.Errorf("core: cell %d lists child %d, which does not depend on it once", cc.ID, childID)
			}
			child.childIdx = len(c.children)
			c.children = append(c.children, child)
			links--
		}
	}
	if links != 0 {
		return fmt.Errorf("core: %d dependency links missing from their cells' child lists", links)
	}
	for i := range st.Cells {
		if c := byID[st.Cells[i].ID]; !c.active {
			e.res.add(c)
		}
	}

	for _, id := range st.DirtyIDs {
		c := byID[id]
		if c == nil {
			return fmt.Errorf("core: dirty list names missing cell %d", id)
		}
		c.dirtyMark = true
		e.tree.dirty = append(e.tree.dirty, c)
	}

	for i := range st.Clusters {
		kc := &st.Clusters[i]
		cl := &msdCluster{id: kc.ID}
		// A peak that names no live cell was deleted after the last
		// extraction: -1, or its old ID in checkpoints written before
		// deletion detached it. Either way the cluster is detached and
		// drains at the next extraction, as it would have uninterrupted.
		if peak := byID[kc.PeakID]; peak != nil {
			cl.peak = peak
			peak.leads = cl
		}
		for j, mid := range kc.MemberIDs {
			c := byID[mid]
			if c == nil {
				return fmt.Errorf("core: cluster %d has missing member cell %d", kc.ID, mid)
			}
			c.cluster = cl
			c.memberIdx = j
			cl.members = append(cl.members, c)
		}
		if kc.ViewsValid {
			cl.buildViews()
		}
		e.tree.clusters = append(e.tree.clusters, cl)
	}
	e.tree.clustersSorted = st.ClustersSorted
	e.tree.extractTau = st.ExtractTau
	e.tree.extractValid = st.ExtractValid
	e.tree.partChanged = st.PartChanged

	e.stats = st.Stats

	t := e.tracker
	t.nextClusterID = st.TrackerNextID
	for _, pe := range st.TrackerPrev {
		t.prev[pe.ClusterID] = pe.CellIDs
	}
	t.events = st.TrackerEvents
	t.base = st.TrackerBase
	t.publish()

	if st.HasSnapshot {
		snap := Snapshot{
			Time:         st.Snapshot.Time,
			Tau:          st.Snapshot.Tau,
			OutlierCells: st.Snapshot.OutlierCells,
			ActiveCells:  st.Snapshot.ActiveCells,
		}
		for _, kci := range st.Snapshot.Clusters {
			ci := ClusterInfo{
				ID:          kci.ID,
				PeakCellID:  kci.PeakCellID,
				PeakDensity: kci.PeakDensity,
				CellIDs:     kci.CellIDs,
				Weight:      kci.Weight,
				Points:      kci.Points,
			}
			for _, p := range kci.SeedPoints {
				ci.SeedPoints = append(ci.SeedPoints, p.point())
			}
			snap.Clusters = append(snap.Clusters, ci)
		}
		e.pub.Store(&published{snap: snap, assign: &assignHolder{}})
	}

	// Guard against a corrupt-but-CRC-valid checkpoint leaving NaN
	// poison in the hot comparisons.
	if math.IsNaN(e.now) || math.IsNaN(e.tuner.tau) {
		return fmt.Errorf("core: checkpoint holds non-finite engine clock or tau")
	}

	e.publishStats()
	return nil
}
