package core

import (
	"math"
	"slices"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/index"
	"github.com/densitymountain/edmstream/internal/stream"
)

// dpTree holds the active cluster-cells and the dependency links
// between them (Sec. 2.2). Each active cell points at its nearest
// active cell with higher density; the cell with the globally highest
// density is the root and has no dependency. Clusters are the maximal
// strongly dependent subtrees obtained by cutting every link longer
// than τ (Def. 2).
type dpTree struct {
	// list holds the active cells in a slice for cache-friendly,
	// deterministic iteration on the per-point hot path (dependency
	// updates after an absorption). Membership is tracked by the cells'
	// active flag; there is no separate map.
	list  []*Cell
	decay stream.Decay
	// accel, when non-nil, is the stream's grid seed index (shared
	// with EDMStream); dependency searches then expand bucket shells
	// outward instead of scanning every active cell. It indexes all
	// cells — active and reservoir — so searches filter by membership
	// in the tree.
	accel index.SeedIndex
	// slab resolves index candidates (slots) to cells and seeds holds
	// the seed rows; both are the engine's, shared at construction.
	slab  *cellSlab
	seeds *index.Seeds
	// byDensity buckets the active cells by their decay-normalized
	// log-density key (floor(logNorm/densBucketWidth)), so the density
	// filter of Theorem 1 can enumerate just the cells inside an
	// absorption's density band instead of scanning every active cell.
	byDensity map[int64][]densEntry
	// densKeys lists byDensity's occupied bucket keys in ascending
	// order, so searches reach the buckets at, above or below a key
	// without walking the whole map, and walk them in a fixed order.
	densKeys []int64

	// higherPred is the reusable NearestWhere predicate of the indexed
	// dependency search ("active, not the target, outranks the
	// target"); predCell/predNow parameterize it per call so the hot
	// path does not allocate a closure.
	higherPred func(slot int32) bool
	predCell   *Cell
	predNow    float64

	// Incremental MSD-subtree extraction state (see extract.go): ext
	// holds each slot's extractRow, dirty lists the cells whose
	// dependency link changed since the last extraction, clusters the
	// live partition (sorted by peak ID when clustersSorted), epoch
	// stamps extraction passes, extractTau is the τ the cached
	// partition was built with, and partChanged records that membership
	// may differ from the partition last handed to the evolution
	// tracker. walk and clusterPool are reused scratch.
	ext            []extractRow
	dirty          []*Cell
	clusters       []*msdCluster
	clustersSorted bool
	clusterPool    []*msdCluster
	walk           []*Cell
	epoch          uint64
	extractTau     float64
	extractValid   bool
	partChanged    bool
}

// densEntry is an active cell's entry in the density band index. It
// carries the keys the band loop of a dependency update filters and
// tests on — the cell's logNorm and δ, its slot and whether its seed
// has a column row — inline, so the loop reads one contiguous bucket
// plus the slot-addressed columns and dereferences a Cell only to
// relink it or to break a near-tie. logNorm and delta mirror the
// cell's fields: rebucket and setDelta keep them in sync.
type densEntry struct {
	logNorm float64
	delta   float64
	cell    *Cell
	slot    int32
	col     bool
}

// densBucketWidth is the log-density width of one density band bucket.
// An absorption's band is ln(1 + 1/ρ) wide, so established cells span
// a bucket or two while brand-new cells (ρ ≈ 1) span three.
const densBucketWidth = 0.25

func newDPTree(d stream.Decay) *dpTree {
	t := &dpTree{byDensity: make(map[int64][]densEntry), decay: d}
	t.higherPred = func(slot int32) bool {
		o := t.slab.at(slot)
		return o.active && o != t.predCell && t.outranks(o, t.predCell, t.predNow)
	}
	return t
}

// densBucketOf returns the density bucket for a log-density key.
func densBucketOf(logNorm float64) int64 {
	return int64(math.Floor(logNorm / densBucketWidth))
}

// densFrom returns the position in densKeys of the first occupied
// bucket at or above key b.
func (t *dpTree) densFrom(b int64) int {
	i, _ := slices.BinarySearch(t.densKeys, b)
	return i
}

// densInsert adds an active cell to the density band index.
func (t *dpTree) densInsert(c *Cell) {
	b := densBucketOf(c.logNorm)
	bucket := t.byDensity[b]
	if len(bucket) == 0 {
		t.densKeys = slices.Insert(t.densKeys, t.densFrom(b), b)
	}
	c.densBucket = b
	c.densIdx = int32(len(bucket))
	t.byDensity[b] = append(bucket, densEntry{logNorm: c.logNorm, delta: c.delta, cell: c, slot: c.slot, col: c.col})
}

// densRemove takes an active cell out of the density band index
// (O(1) swap-remove).
func (t *dpTree) densRemove(c *Cell) {
	bucket := t.byDensity[c.densBucket]
	last := len(bucket) - 1
	bucket[c.densIdx] = bucket[last]
	bucket[c.densIdx].cell.densIdx = c.densIdx
	bucket[last] = densEntry{}
	bucket = bucket[:last]
	if len(bucket) == 0 {
		delete(t.byDensity, c.densBucket)
		i := t.densFrom(c.densBucket)
		t.densKeys = slices.Delete(t.densKeys, i, i+1)
	} else {
		t.byDensity[c.densBucket] = bucket
	}
}

// rebucket moves an active cell to its current density bucket after
// its logNorm key changed (it absorbed a point).
func (t *dpTree) rebucket(c *Cell) {
	if densBucketOf(c.logNorm) == c.densBucket {
		t.byDensity[c.densBucket][c.densIdx].logNorm = c.logNorm
		return
	}
	t.densRemove(c)
	t.densInsert(c)
}

// setDelta sets c's dependent distance, mirroring it into c's density
// band entry while c is active.
func (t *dpTree) setDelta(c *Cell, delta float64) {
	c.delta = delta
	if c.active {
		t.byDensity[c.densBucket][c.densIdx].delta = delta
	}
}

// size returns the number of active cells.
func (t *dpTree) size() int { return len(t.list) }

// insert adds a cell to the tree without wiring dependencies; callers
// are responsible for calling computeDependency and for relinking the
// cells the newcomer outranks (EDMStream.relinkToward).
func (t *dpTree) insert(c *Cell) {
	c.active = true
	c.treeIdx = int32(len(t.list))
	t.list = append(t.list, c)
	t.densInsert(c)
	// A promoted cell has no cached peak yet; the next extraction
	// assigns it (and whatever subtree forms beneath it).
	t.markDirty(c)
}

// remove detaches the cell from the tree: it is unlinked from its
// dependency, its children lose their dependency (the caller decides
// what happens to them), and it is marked inactive.
func (t *dpTree) remove(c *Cell) {
	t.unlink(c)
	for i, child := range c.children {
		child.dep = nil
		t.setDelta(child, math.Inf(1))
		// Each child becomes a root; its subtree's peaks must be
		// recomputed at the next extraction.
		t.markDirty(child)
		c.children[i] = nil
	}
	c.children = c.children[:0]
	c.active = false
	last := len(t.list) - 1
	t.list[c.treeIdx] = t.list[last]
	t.list[c.treeIdx].treeIdx = c.treeIdx
	t.list = t.list[:last]
	t.densRemove(c)
	t.dropMember(c)
}

// link sets c's dependency to dep at distance delta, maintaining the
// children index and the extraction dirty set.
func (t *dpTree) link(c, dep *Cell, delta float64) {
	if c.dep == dep {
		// Same dependency: the subtree's peaks only move if the link's
		// strongness (δ ≤ τ) flips relative to the τ the cached
		// partition was built with. (If the next refresh changes τ, the
		// whole partition is rebuilt regardless of marks.)
		if t.extractValid && (c.delta <= t.extractTau) != (delta <= t.extractTau) {
			t.markDirty(c)
		}
		t.setDelta(c, delta)
		return
	}
	t.unlink(c)
	c.dep = dep
	t.setDelta(c, delta)
	if dep != nil {
		c.childIdx = int32(len(dep.children))
		dep.children = append(dep.children, c)
	}
	t.markDirty(c)
}

// unlink clears c's dependency (O(1) swap-remove from the children
// slice).
func (t *dpTree) unlink(c *Cell) {
	if dep := c.dep; dep != nil {
		last := len(dep.children) - 1
		dep.children[c.childIdx] = dep.children[last]
		dep.children[c.childIdx].childIdx = c.childIdx
		dep.children[last] = nil
		dep.children = dep.children[:last]
		t.markDirty(c)
	}
	c.dep = nil
	t.setDelta(c, math.Inf(1))
}

// outranks reports whether cell a outranks cell b in density at time
// now, like higherRanked, but first tries to decide from the cells'
// decay-normalized log-density keys: densities at a common time
// compare as their logNorm keys do, so when the keys differ by more
// than the rounding slack no exponentiation is needed. Only
// near-equal keys (including exact density ties, which the cell-ID
// tie-break resolves) fall through to the exact comparison.
func (t *dpTree) outranks(a, b *Cell, now float64) bool {
	return t.outranksBy(a.logNorm-b.logNorm, a, b, now)
}

// outranksBy is outranks given the key difference d = a.logNorm −
// b.logNorm, so a caller holding b's key inline (a density band entry)
// touches b only to break a near-tie.
func (t *dpTree) outranksBy(d float64, a, b *Cell, now float64) bool {
	if d > logBandSlack {
		return true
	} else if d < -logBandSlack {
		return false
	}
	return higherRanked(a, b, now, t.decay)
}

// dependencyScanCap is the higher-ranked set size up to which a gridded
// stream's computeDependency prefers enumerating the density buckets
// above the cell over expanding grid shells around it: few
// higher-ranked cells means the nearest one may be anywhere spatially
// (bad for shells) but is cheap to find by trying them all.
const dependencyScanCap = 128

// nearestPick accumulates the nearest candidate with the lowest-ID
// tie-break every dependency decision in this package must apply, from
// scratch or incremental, so the determinism rule lives in exactly one
// place.
type nearestPick struct {
	best *Cell
	dist float64
}

// beats reports whether candidate o at distance d displaces the pick:
// strictly nearer, or equally near with a lower ID. Incomparable seeds
// (numeric vs token-set, d = +Inf) never do, even when nothing else is
// admissible.
func (p *nearestPick) beats(o *Cell, d float64) bool {
	return !math.IsInf(d, 1) && (p.best == nil || d < p.dist || d == p.dist && o.id < p.best.id)
}

func (p *nearestPick) consider(o *Cell, d float64) {
	if p.beats(o, d) {
		p.best, p.dist = o, d
	}
}

// computeDependency finds c's nearest active cell with higher density
// at time now and links it. If no active cell outranks c, c becomes a
// root (no dependency). Distance ties break toward the lowest cell ID
// so the result does not depend on iteration order (or on the index
// backing the search).
//
// Only the density buckets at or above c's key can hold a cell that
// outranks c, so the exact search tries those. On a gridded stream
// where more than dependencyScanCap cells lie there, it expands grid
// shells around c's seed instead, which terminates quickly because
// higher-ranked cells are plentiful.
func (t *dpTree) computeDependency(c *Cell, now float64) {
	above := t.densKeys[t.densFrom(densBucketOf(c.logNorm-logBandSlack)):]
	if t.accel != nil {
		higher := 0
		for _, b := range above {
			if higher += len(t.byDensity[b]); higher > dependencyScanCap {
				break
			}
		}
		if higher > dependencyScanCap {
			t.predCell, t.predNow = c, now
			slot, d, ok := t.accel.NearestWhere(c.seed, t.higherPred)
			t.predCell = nil
			if !ok {
				t.unlink(c)
				return
			}
			t.link(c, t.slab.at(slot), d)
			return
		}
	}
	var pick nearestPick
	for _, b := range above {
		bucket := t.byDensity[b]
		for i := range bucket {
			o := bucket[i].cell
			if o == c || !t.outranks(o, c, now) {
				continue
			}
			pick.consider(o, t.seedDist(c, o))
		}
	}
	if pick.best == nil {
		t.unlink(c)
		return
	}
	t.link(c, pick.best, pick.dist)
}

// seedDist returns the distance between the seeds of a and b, read
// from the seed column when both have a row there.
func (t *dpTree) seedDist(a, b *Cell) float64 {
	if a.col && b.col {
		return distance.Euclid(t.seeds.Row(a.slot), t.seeds.Row(b.slot))
	}
	return a.distanceToCell(b)
}

// withinBound returns the Euclidean distance between two vectors of
// equal length — bit for bit what distance.Euclid returns — unless it
// certainly exceeds bound, when ok is false. The test runs in the
// squared domain, so the square root, a large share of a candidate
// examination on the dependency-update hot path, is only taken near or
// below the bound. bound² rounds either way, so the test keeps a margin
// (relative, and absolute for the subnormal range): a distance of
// exactly bound always comes back, and the caller decides on it.
func withinBound(a, b []float64, bound float64) (float64, bool) {
	var sum float64
	for i, x := range a {
		d := x - b[i]
		sum += d * d
	}
	if sum > bound*bound*(1+0x1p-30)+0x1p-1000 {
		return 0, false
	}
	return math.Sqrt(sum), true
}

// subtree returns c and every cell transitively depending on it.
func (t *dpTree) subtree(c *Cell) []*Cell {
	out := []*Cell{c}
	for i := 0; i < len(out); i++ {
		for _, child := range out[i].children {
			out = append(out, child)
		}
	}
	return out
}

// root returns the cell with the highest density (the cell without a
// dependency). Returns nil for an empty tree.
func (t *dpTree) root() *Cell {
	for _, c := range t.list {
		if c.dep == nil {
			return c
		}
	}
	return nil
}

// peakOf returns the root of the maximal strongly dependent subtree
// containing c for threshold tau: the first ancestor reached by
// following only strong links (δ ≤ τ).
func (t *dpTree) peakOf(c *Cell, tau float64) *Cell {
	cur := c
	for cur.dep != nil && cur.delta <= tau {
		cur = cur.dep
	}
	return cur
}

// msdSubtrees partitions the active cells into maximal strongly
// dependent subtrees for the given τ, returning a map from peak cell to
// its member cells (peak included).
func (t *dpTree) msdSubtrees(tau float64) map[*Cell][]*Cell {
	peaks := make(map[*Cell][]*Cell)
	memo := make(map[int64]*Cell, len(t.list))
	var findPeak func(c *Cell) *Cell
	findPeak = func(c *Cell) *Cell {
		if p, ok := memo[c.id]; ok {
			return p
		}
		var p *Cell
		if c.dep == nil || c.delta > tau {
			p = c
		} else {
			p = findPeak(c.dep)
		}
		memo[c.id] = p
		return p
	}
	for _, c := range t.list {
		p := findPeak(c)
		peaks[p] = append(peaks[p], c)
	}
	return peaks
}

// checkInvariants verifies the structural invariants of the DP-Tree at
// time now. It is used by tests and returns the first violation found
// (empty string when the tree is consistent).
func (t *dpTree) checkInvariants(now float64) string {
	roots := 0
	for _, c := range t.list {
		if !c.active {
			return "inactive cell present in DP-Tree"
		}
		if c.dep == nil {
			roots++
			if !math.IsInf(c.delta, 1) {
				return "root cell has a finite dependent distance"
			}
			continue
		}
		if !c.dep.active {
			return "cell depends on a cell outside the DP-Tree"
		}
		if !higherRanked(c.dep, c, now, t.decay) {
			return "cell depends on a cell that does not outrank it"
		}
		if c.childIdx < 0 || int(c.childIdx) >= len(c.dep.children) || c.dep.children[c.childIdx] != c {
			return "dependency's children index is missing the cell"
		}
		if c.delta < 0 || math.IsNaN(c.delta) {
			return "negative or NaN dependent distance"
		}
	}
	if len(t.list) > 0 && roots == 0 {
		return "DP-Tree has no root"
	}
	// Every root must be maximal: no active cell may outrank it at a
	// finite distance (otherwise computeDependency/relinkToward failed
	// to link it). On a single-metric stream this implies exactly one
	// root; streams mixing numeric and token-set points legitimately
	// hold one root per metric space, since cross-type distances are
	// infinite.
	for _, c := range t.list {
		if c.dep != nil {
			continue
		}
		for _, o := range t.list {
			if o == c || !higherRanked(o, c, now, t.decay) {
				continue
			}
			if !math.IsInf(c.distanceToCell(o), 1) {
				return "root cell has an admissible dependency it is not linked to"
			}
		}
	}
	// Acyclicity: walking up from any cell must terminate.
	for _, c := range t.list {
		seen := map[int64]bool{}
		for cur := c; cur != nil; cur = cur.dep {
			if seen[cur.id] {
				return "dependency cycle detected"
			}
			seen[cur.id] = true
		}
	}
	for i, c := range t.list {
		if int(c.treeIdx) != i {
			return "active cell list index out of sync"
		}
	}
	if len(t.densKeys) != len(t.byDensity) || !slices.IsSorted(t.densKeys) {
		return "occupied density bucket keys out of sync"
	}
	for _, b := range t.densKeys {
		if len(t.byDensity[b]) == 0 {
			return "occupied density bucket keys name an empty bucket"
		}
	}
	inBuckets := 0
	for b, bucket := range t.byDensity {
		for i, en := range bucket {
			c := en.cell
			inBuckets++
			if en.logNorm != c.logNorm || en.delta != c.delta || en.slot != c.slot || en.col != c.col {
				return "density band entry keys out of sync with its cell"
			}
			if c.densBucket != b || int(c.densIdx) != i {
				return "density band index out of sync"
			}
			if !c.active {
				return "inactive cell present in density band index"
			}
			if densBucketOf(c.logNorm) != b {
				return "cell filed in the wrong density bucket"
			}
		}
	}
	if inBuckets != len(t.list) {
		return "density band index and active cell list sizes differ"
	}
	return ""
}
