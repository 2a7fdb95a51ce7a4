package core

import (
	"math"
	"sort"

	"github.com/densitymountain/edmstream/internal/stream"
)

// This file implements incremental MSD-subtree extraction: instead of
// recomputing the cluster partition from scratch on every refresh, the
// DP-Tree tracks dirtiness at the dependency-link level (relinks,
// promotions, demotions and strongness flips mark only the affected
// subtrees) and keeps a persistent peak/membership structure that a
// refresh brings up to date by reprocessing only the invalidated
// subtrees. On a steady-state stream where few links move between
// refreshes, a refresh touches a handful of cells instead of all of
// them.
//
// The invariants the structure maintains between extractions:
//
//  1. Every active cell belongs to exactly one msdCluster, the one
//     whose peak is the first ancestor reached from the cell by
//     following only strong links (δ ≤ τ), unless the cell's link
//     changed since the last extraction (then it is marked dirty and
//     the next extraction reassigns its whole subtree).
//  2. A cluster's member views (ids, seeds) are immutable once built:
//     membership changes invalidate them and the next build allocates
//     fresh slices, so published snapshots can share them safely.
//  3. partChanged is true whenever the current membership may differ
//     from the partition last handed to the evolution tracker; only
//     then does a refresh re-run the tracker diff.

// msdCluster is one maximal strongly dependent subtree of the DP-Tree
// (Def. 2), maintained incrementally across clustering refreshes.
type msdCluster struct {
	// peak is the subtree's root: the member every other member
	// transitively depends on through strong links. It is nil between
	// the deletion of a demoted peak and the next extraction, which
	// drops the drained cluster.
	peak *Cell
	// members holds the cluster's cells, unordered; each cell's
	// extractRow.member is its position here (O(1) removal).
	members []*Cell
	// ids and seeds are the snapshot-facing member views: member cell
	// IDs sorted ascending, and the matching member seeds, index
	// aligned. They are rebuilt (with fresh backing) after a membership
	// change and shared with published snapshots, so they are never
	// mutated in place once built. When viewsValid is true, members is
	// also sorted by cell ID.
	ids        []int64
	seeds      []stream.Point
	viewsValid bool
	// id is the stable cluster ID assigned by the evolution tracker at
	// the last refresh that ran the tracker diff.
	id int
}

// extractRow is one cell's incremental-extraction bookkeeping, held in
// the slot-addressed column dpTree.ext rather than in the Cell: only
// extraction reads it, never the ingest hot path. cluster is the MSD
// subtree the cell currently belongs to (nil while inactive or before
// its first extraction) and member its position in that cluster's
// member list. leads is non-nil iff the cell is currently the peak of
// a cluster. dirty records that the cell's dependency link changed
// since the last extraction, and epoch stamps the extraction pass that
// last recomputed the cell's peak. A slot's row is reset when the slot
// is handed to a new cell.
type extractRow struct {
	cluster *msdCluster
	leads   *msdCluster
	epoch   uint64
	member  int32
	dirty   bool
}

// resetRow hands slot's extraction row, fresh, to a new cell.
func (t *dpTree) resetRow(slot int32) {
	if int(slot) == len(t.ext) {
		t.ext = append(t.ext, extractRow{})
	} else {
		t.ext[slot] = extractRow{}
	}
}

// row returns c's extraction bookkeeping.
func (t *dpTree) row(c *Cell) *extractRow { return &t.ext[c.slot] }

// addMember appends c to cluster cl.
func (t *dpTree) addMember(cl *msdCluster, c *Cell) {
	t.row(c).member = int32(len(cl.members))
	cl.members = append(cl.members, c)
	cl.viewsValid = false
}

// removeMember deletes c from cluster cl (swap-remove).
func (t *dpTree) removeMember(cl *msdCluster, c *Cell) {
	i := t.row(c).member
	last := len(cl.members) - 1
	cl.members[i] = cl.members[last]
	t.row(cl.members[i]).member = i
	cl.members[last] = nil
	cl.members = cl.members[:last]
	cl.viewsValid = false
}

// buildViews brings cluster cl's snapshot-facing views up to date:
// members are sorted by cell ID and the ids/seeds slices are rebuilt
// with fresh backing (the old ones may be shared with a published
// snapshot). The seeds are the cells' own, which never change. A no-op
// when nothing changed since the last build.
func (t *dpTree) buildViews(cl *msdCluster) {
	if cl.viewsValid {
		return
	}
	// Insertion sort: members leave a rebuild sorted and a refresh
	// perturbs only a few slots, so this beats sort.Slice on the
	// near-sorted small slices it actually sees.
	m := cl.members
	for i := 1; i < len(m); i++ {
		c := m[i]
		j := i - 1
		for j >= 0 && m[j].id > c.id {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = c
	}
	ids := make([]int64, len(m))
	seeds := make([]stream.Point, len(m))
	for i, c := range m {
		t.row(c).member = int32(i)
		ids[i] = c.id
		seeds[i] = c.seed
	}
	cl.ids, cl.seeds = ids, seeds
	cl.viewsValid = true
}

// markDirty records that c's dependency link changed since the last
// extraction, scheduling its subtree for peak recomputation.
func (t *dpTree) markDirty(c *Cell) {
	r := t.row(c)
	if r.dirty {
		return
	}
	r.dirty = true
	t.dirty = append(t.dirty, c)
}

// clearDirty empties the dirty list and its marks.
func (t *dpTree) clearDirty() {
	for _, c := range t.dirty {
		t.row(c).dirty = false
	}
	t.dirty = t.dirty[:0]
}

// dropMember takes a cell out of its cluster (demotion path). The
// cluster object itself is dropped at the next extraction if it
// drains completely.
func (t *dpTree) dropMember(c *Cell) {
	if r := t.row(c); r.cluster != nil {
		t.removeMember(r.cluster, c)
		r.cluster = nil
		t.partChanged = true
	}
}

// newCluster registers a fresh cluster led by peak p.
func (t *dpTree) newCluster(p *Cell) *msdCluster {
	var cl *msdCluster
	if n := len(t.clusterPool); n > 0 {
		cl = t.clusterPool[n-1]
		t.clusterPool[n-1] = nil
		t.clusterPool = t.clusterPool[:n-1]
		cl.members = cl.members[:0]
	} else {
		cl = &msdCluster{}
	}
	cl.peak = p
	cl.ids, cl.seeds = nil, nil
	cl.viewsValid = false
	cl.id = 0
	t.row(p).leads = cl
	t.clusters = append(t.clusters, cl)
	t.clustersSorted = false
	return cl
}

// truePeak walks c's raw dependency links (never the cached cluster
// assignments) to the root of its maximal strongly dependent subtree
// under the extraction τ.
func (t *dpTree) truePeak(c *Cell) *Cell {
	return t.peakOf(c, t.extractTau)
}

// clusterFor returns the cluster p should lead. When p has no cluster
// yet, it first tries to *rename* p's current cluster instead of
// creating a fresh one: if that cluster's registered peak itself now
// peaks at p, then every member whose links did not change still peaks
// at p too (its unchanged strong chain reaches the old peak, whose
// chain continues to p), so the whole cluster continues under p and
// none of its unmoved members need to be touched. This is the common
// steady-state event — a burst promotes another member to the top of
// an otherwise stable subtree — and without the rename it would read
// as every member leaving one cluster and entering a new one.
func (t *dpTree) clusterFor(p *Cell) *msdCluster {
	pr := t.row(p)
	if cl := pr.leads; cl != nil {
		return cl
	}
	if x := pr.cluster; x != nil && x.peak != nil && t.truePeak(x.peak) == p {
		if xr := t.row(x.peak); xr.leads == x {
			xr.leads = nil
		}
		x.peak = p
		pr.leads = x
		t.clustersSorted = false
		return x
	}
	return t.newCluster(p)
}

// assignPeak moves cell c into the cluster led by p (creating or
// renaming it when necessary) and stamps c as processed for the
// current extraction.
func (t *dpTree) assignPeak(c, p *Cell) {
	r := t.row(c)
	r.epoch = t.epoch
	if cl := r.cluster; cl != nil && cl.peak == p {
		return
	}
	target := t.clusterFor(p)
	if r.cluster == target {
		// The rename above re-keyed c's own cluster; c stays put.
		return
	}
	if cl := r.cluster; cl != nil {
		t.removeMember(cl, c)
	}
	t.addMember(target, c)
	r.cluster = target
	t.partChanged = true
}

// extractFrom recomputes the peak assignment of c and of every cell in
// c's strongly-dependent subtree. c's true peak is found by walking
// the raw dependency links (never the cached assignments, which may be
// stale), then pushed down through strong links; weak-linked children
// are their own peaks and their subtrees cannot have changed unless
// their own links did, in which case they carry their own dirty mark.
func (t *dpTree) extractFrom(c *Cell, tau float64) {
	p := t.truePeak(c)
	t.assignPeak(c, p)
	stack := append(t.walk[:0], c)
	for len(stack) > 0 {
		y := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, child := range y.children {
			if child.delta <= tau && t.row(child).epoch != t.epoch {
				t.assignPeak(child, p)
				stack = append(stack, child)
			}
		}
	}
	t.walk = stack[:0]
}

// extract brings the cluster partition up to date for threshold tau.
// Only subtrees whose links changed since the last extraction are
// reprocessed; a τ change (or the first extraction) invalidates every
// cached peak and reprocesses the whole tree. It returns whether
// membership may differ from the partition last handed to the
// evolution tracker (the caller resets the flag after deciding).
func (t *dpTree) extract(tau float64) bool {
	full := !t.extractValid || tau != t.extractTau
	// The extraction τ is set up front: truePeak walks (and the rename
	// check inside clusterFor) must judge strongness under the τ this
	// extraction is building, not the previous one.
	t.extractTau = tau
	if full {
		t.epoch++
		for _, c := range t.list {
			if t.row(c).epoch != t.epoch {
				t.extractFrom(c, tau)
			}
		}
	} else if len(t.dirty) > 0 {
		t.epoch++
		for _, c := range t.dirty {
			if c.active && t.row(c).epoch != t.epoch {
				t.extractFrom(c, tau)
			}
		}
	}
	t.clearDirty()

	// Drop drained clusters (their peak was demoted or absorbed into
	// another mountain and every member has been reassigned).
	kept := t.clusters[:0]
	for _, cl := range t.clusters {
		if len(cl.members) == 0 {
			if cl.peak != nil && t.row(cl.peak).leads == cl {
				t.row(cl.peak).leads = nil
			}
			cl.peak = nil
			cl.ids, cl.seeds = nil, nil
			t.clusterPool = append(t.clusterPool, cl)
			t.partChanged = true
			continue
		}
		kept = append(kept, cl)
	}
	for i := len(kept); i < len(t.clusters); i++ {
		t.clusters[i] = nil
	}
	t.clusters = kept
	if !t.clustersSorted {
		sort.Slice(t.clusters, func(a, b int) bool { return t.clusters[a].peak.id < t.clusters[b].peak.id })
		t.clustersSorted = true
	}
	t.extractValid = true
	return t.partChanged
}

// checkExtraction verifies the incremental partition against a from-
// scratch msdSubtrees computation (tests only). It returns the first
// inconsistency found, or "".
func (t *dpTree) checkExtraction() string {
	if !t.extractValid {
		return ""
	}
	if len(t.dirty) > 0 {
		// Pending dirty subtrees: the cached partition is allowed to be
		// stale until the next extraction.
		return ""
	}
	want := t.msdSubtrees(t.extractTau)
	if len(want) != len(t.clusters) {
		return "incremental cluster count differs from msdSubtrees"
	}
	for _, cl := range t.clusters {
		members, ok := want[cl.peak]
		if !ok {
			return "incremental peak is not an msdSubtrees peak"
		}
		if len(members) != len(cl.members) {
			return "incremental member count differs from msdSubtrees"
		}
		for _, c := range cl.members {
			if t.row(c).cluster != cl {
				return "member's cluster pointer does not match its cluster"
			}
		}
		seen := make(map[int64]bool, len(members))
		for _, c := range members {
			seen[c.id] = true
		}
		for _, c := range cl.members {
			if !seen[c.id] {
				return "incremental membership differs from msdSubtrees"
			}
		}
	}
	for i, cl := range t.clusters {
		if t.row(cl.peak).leads != cl {
			return "peak's leads pointer out of sync"
		}
		if i > 0 && t.clusters[i-1].peak.id >= cl.peak.id {
			return "cluster list not sorted by peak ID"
		}
	}
	return ""
}

// clusterBookkeepingInvariants checks the structural consistency of
// the incremental membership bookkeeping (valid at any time, including
// between extractions with dirty subtrees pending).
func (t *dpTree) clusterBookkeepingInvariants() string {
	assigned := 0
	for _, cl := range t.clusters {
		for i, c := range cl.members {
			if r := t.row(c); r.cluster != cl || int(r.member) != i {
				return "cluster member bookkeeping out of sync"
			}
			if !c.active {
				return "inactive cell retained in a cluster"
			}
			assigned++
		}
	}
	for _, c := range t.list {
		r := t.row(c)
		if r.cluster == nil && t.extractValid && !r.dirty {
			return "active cell with no cluster and no dirty mark"
		}
		if r.leads != nil && r.leads.peak != c {
			return "cell leads a cluster with a different peak"
		}
	}
	if t.extractValid && assigned > len(t.list) {
		return "more cluster members than active cells"
	}
	if math.IsNaN(t.extractTau) {
		return "NaN extraction tau"
	}
	return ""
}
