package index

import (
	"math"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/stream"
)

// Frozen is an immutable nearest-seed index mapping seeds to cluster
// IDs, built once from a published clustering snapshot and then read
// concurrently by any number of goroutines. It backs the read-only
// query path (Clusterer.Assign): a query finds the seed nearest to the
// probe point among those within the cell radius — the same rule, with
// the same lowest-cell-ID tie-break, the ingest path uses to absorb a
// point — and reports that seed's cluster.
//
// Queries never allocate: the grid probe keeps its bucket-coordinate
// scratch in fixed-size stack arrays (dimensions above
// MaxFrozenGridDim fall back to a flat scan, which needs no scratch at
// all), and the bucket table is an ordinary map read-only after
// Freeze, so no synchronization is required.
type Frozen struct {
	radius float64
	// dim is the vector dimensionality the grid is built for; -1 when
	// the grid is unused (no numeric seeds, inconsistent or oversized
	// dimensionality) and queries scan flat.
	dim int
	// grid maps hashed bucket coordinates to the entries whose seeds
	// quantize there. Hash collisions are benign: a colliding far seed
	// simply fails the radius check during the scan.
	grid     map[uint64][]frozenEntry
	nbuckets int
	// flat holds every numeric entry for the linear fallback.
	flat []frozenEntry
	// tokens holds token-set seeds (text streams), always scanned
	// linearly like the live index's vectorless side set.
	tokens []frozenTokenEntry
}

type frozenEntry struct {
	id      int64
	cluster int
	vec     []float64
}

type frozenTokenEntry struct {
	id      int64
	cluster int
	tokens  distance.TokenSet
}

// MaxFrozenGridDim is the largest vector dimensionality the frozen
// grid buckets; it matches the live index's auto-grid budget (probing
// 3^d neighbor buckets stops paying off beyond it).
const MaxFrozenGridDim = 8

// FrozenBuilder accumulates (seed, cluster) pairs and freezes them
// into an immutable query index.
type FrozenBuilder struct {
	f *Frozen
}

// NewFrozenBuilder starts a frozen index for the given cell radius
// (which is both the query radius and the grid bucket side).
func NewFrozenBuilder(radius float64) *FrozenBuilder {
	return &FrozenBuilder{f: &Frozen{radius: radius, dim: -1}}
}

// Add registers one seed with its cluster ID. Seeds are shared, not
// copied: callers must hand in immutable data (snapshot views qualify).
func (b *FrozenBuilder) Add(id int64, p stream.Point, cluster int) {
	f := b.f
	if p.Vector == nil {
		f.tokens = append(f.tokens, frozenTokenEntry{id: id, cluster: cluster, tokens: p.Tokens})
		return
	}
	if len(f.flat) == 0 {
		f.dim = len(p.Vector)
	} else if f.dim != len(p.Vector) {
		f.dim = -1
	}
	f.flat = append(f.flat, frozenEntry{id: id, cluster: cluster, vec: p.Vector})
}

// Freeze finalizes the index. The builder must not be used afterwards.
func (b *FrozenBuilder) Freeze() *Frozen {
	f := b.f
	b.f = nil
	if f.dim <= 0 || f.dim > MaxFrozenGridDim || !(f.radius > 0) {
		f.dim = -1
		return f
	}
	f.grid = make(map[uint64][]frozenEntry, len(f.flat))
	var coords [MaxFrozenGridDim]int64
	for _, en := range f.flat {
		for i, v := range en.vec {
			coords[i] = int64(math.Floor(v / f.radius))
		}
		h := hashCoords(coords[:f.dim])
		if _, ok := f.grid[h]; !ok {
			f.nbuckets++
		}
		f.grid[h] = append(f.grid[h], en)
	}
	return f
}

// Len returns the number of indexed seeds.
func (f *Frozen) Len() int { return len(f.flat) + len(f.tokens) }

// Assign classifies p: it returns the cluster of the seed nearest to p
// among those within the index radius, or ok == false when no seed is
// that close (the point would be an outlier). Safe for concurrent use
// from any number of goroutines; never allocates.
//
// The probe is exact, not approximate: a seed within radius r of p
// differs from p by at most r per axis, so with bucket side r its
// bucket lies within the 3^d window the probe enumerates (and the
// high-dimensional fallback scans every entry). A miss therefore
// always means no published seed is within the radius — a genuine
// outlier or a cell that postdates the snapshot — never a skipped
// bucket.
func (f *Frozen) Assign(p stream.Point) (cluster int, ok bool) {
	if p.Vector == nil {
		return f.assignTokens(p.Tokens)
	}
	if f.dim != len(p.Vector) || windowExceeds(3, f.dim, f.nbuckets) {
		return f.scanFlat(p.Vector)
	}
	var center, coords [MaxFrozenGridDim]int64
	d := f.dim
	for i, v := range p.Vector {
		center[i] = int64(math.Floor(v / f.radius))
	}
	var bestID int64
	var bestCluster int
	bestDist := math.Inf(1)
	found := false
	// Radius equals the bucket side, so the probe window is the 3^d
	// neighborhood, enumerated with an odometer over stack arrays.
	var off [MaxFrozenGridDim]int64
	for i := 0; i < d; i++ {
		off[i] = -1
	}
	for {
		for i := 0; i < d; i++ {
			coords[i] = center[i] + off[i]
		}
		for _, en := range f.grid[hashCoords(coords[:d])] {
			dist := distance.Euclid(en.vec, p.Vector)
			if dist <= f.radius && (dist < bestDist || (dist == bestDist && en.id < bestID)) {
				bestID, bestCluster, bestDist, found = en.id, en.cluster, dist, true
			}
		}
		i := 0
		for ; i < d; i++ {
			off[i]++
			if off[i] <= 1 {
				break
			}
			off[i] = -1
		}
		if i == d {
			break
		}
	}
	return bestCluster, found
}

// scanFlat is the linear fallback over every numeric seed. A seed of
// another dimensionality than the probe never answers it.
func (f *Frozen) scanFlat(vec []float64) (int, bool) {
	var bestID int64
	var bestCluster int
	bestDist := math.Inf(1)
	found := false
	for i := range f.flat {
		en := &f.flat[i]
		if len(en.vec) != len(vec) {
			continue
		}
		d := distance.Euclid(en.vec, vec)
		if d <= f.radius && (d < bestDist || (d == bestDist && en.id < bestID)) {
			bestID, bestCluster, bestDist, found = en.id, en.cluster, d, true
		}
	}
	return bestCluster, found
}

// assignTokens scans the token-set side entries with the Jaccard
// distance.
func (f *Frozen) assignTokens(tokens distance.TokenSet) (int, bool) {
	var bestID int64
	var bestCluster int
	bestDist := math.Inf(1)
	found := false
	for i := range f.tokens {
		en := &f.tokens[i]
		d := distance.Jaccard(en.tokens, tokens)
		if d <= f.radius && (d < bestDist || (d == bestDist && en.id < bestID)) {
			bestID, bestCluster, bestDist, found = en.id, en.cluster, d, true
		}
	}
	return bestCluster, found
}

// hashCoords mixes bucket coordinates into a 64-bit hash (FNV-1a over
// the coordinate words). Collisions are legal — a colliding far seed
// fails the radius check — they only cost a longer bucket scan.
func hashCoords(coords []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range coords {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// windowExceeds reports whether width^d > cap, without overflowing.
func windowExceeds(width int64, d, cap int) bool {
	prod := int64(1)
	for i := 0; i < d; i++ {
		prod *= width
		if prod > int64(cap) {
			return true
		}
	}
	return false
}
