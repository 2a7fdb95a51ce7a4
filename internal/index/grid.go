package index

import (
	"math"
	"math/bits"
	"slices"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/stream"
)

// Seeds is a slot-addressed column of seed vectors: row s of one
// row-major []float64 holds the vector of the seed in slot s. The
// engine that owns it allocates the slots (reusing freed ones), writes
// each new seed's row before indexing it, and hands the grid the same
// column, so probes and dependency checks read candidate vectors from
// one contiguous block instead of one allocation per seed. The first
// Put fixes the row width; a vector of any other width gets no row.
type Seeds struct {
	dim   int
	fixed bool
	vals  []float64
}

// Dim returns the row width, or -1 before the first Put.
func (s *Seeds) Dim() int {
	if !s.fixed {
		return -1
	}
	return s.dim
}

// Put stores vec as slot's row and reports whether it did: a nil
// vector, or one whose length differs from the row width, has no row.
func (s *Seeds) Put(slot int32, vec []float64) bool {
	if vec == nil {
		return false
	}
	if !s.fixed {
		s.dim, s.fixed = len(vec), true
	}
	if len(vec) != s.dim {
		return false
	}
	end := (int(slot) + 1) * s.dim
	if end > len(s.vals) {
		s.vals = slices.Grow(s.vals, end-len(s.vals))[:end]
	}
	copy(s.vals[end-s.dim:end], vec)
	return true
}

// Fix sets the row width before the first Put, as a column restored
// without rows must still refuse vectors of another width.
func (s *Seeds) Fix(dim int) {
	s.dim, s.fixed = dim, true
}

// Row returns slot's row. It aliases the column and stays valid until
// the next Put.
func (s *Seeds) Row(slot int32) []float64 {
	i := int(slot) * s.dim
	return s.vals[i : i+s.dim : i+s.dim]
}

// Grid is a uniform spatial hash over seed coordinates. Space is
// partitioned into axis-aligned buckets of side `side` (the
// cluster-cell radius r). A radius-r nearest-seed probe touches the
// 3^d buckets neighboring the query point's bucket, and an unbounded
// nearest search expands bucket shells outward until no closer seed
// can exist.
//
// Buckets are grouped into tiles of T^d ≤ 64 buckets, T = ⌊64^{1/d}⌋
// per axis (a power of two for every d; 1 beyond d = 6). Only occupied
// tiles exist, keyed by tile coordinates in one open-addressing table.
// A tile holds a uint64 occupancy mask, one bit per bucket, and the
// chain heads of its occupied buckets only, ranked by popcount; a
// bucket's seeds are chained through a per-slot next column. A box
// walk looks up the tiles the box intersects and visits only the set
// bits of the box's mask, so an empty bucket costs a bit test, not a
// hash probe, and memory grows with occupied buckets.
//
// The grid only buckets seeds whose vector has the seed column's row
// width. Token-set seeds of degenerate mixed streams live in a side
// set: they are at +Inf distance from every numeric probe (so they
// never answer one), and token-set probes scan the side set linearly —
// exactly the answers the linear scan would give, keeping the index
// choice invisible in the clustering output even on mixed streams.
type Grid struct {
	side  float64
	seeds *Seeds
	n     int
	// ids holds the cell ID per slot (distance ties break toward the
	// lowest ID) and next the slot chained after it in its bucket (-1
	// ends the chain).
	ids  []int64
	next []int32
	// loose is the side set of seeds the grid does not bucket.
	loose map[int32]stream.Point

	// Tile geometry, fixed by the first bucketed seed: dim axes, tiles
	// of side 1<<shift, prefix[a*(tside+1)+c] the mask of the tile bits
	// whose axis-a coordinate is below c, full the mask of every bit.
	geo    bool
	dim    int
	shift  uint
	tside  int64
	prefix []uint64
	full   uint64

	// table maps tile coordinates to tile index + 1 (0 = empty slot)
	// by linear probing; keys holds dim coordinates per tile index.
	// Emptied tiles return to freeTiles.
	table     []int32
	keys      []int64
	tiles     []tile
	freeTiles []int32
	ntiles    int
	nbuckets  int

	// Probe scratch, reused across calls so the per-point hot path does
	// not allocate: one block of dim-sized rows (see setGeometry), whose
	// first ProbeRows rows are the ones a radius probe works in, the
	// tiles a box walk finds, the bucket chain heads it collects and the
	// tiles an unbounded search has pending.
	rows                                              []int64
	lo, hi, tlo, thi, cur, center, flo, fhi, blo, bhi []int64
	found, hits                                       []int32
	pend                                              []pending
}

// ProbeRows is the number of dim-sized coordinate rows a radius probe
// works in (see NearestWithin).
const ProbeRows = 5

// pending is a tile an unbounded search has reached, with the mask of
// its occupied buckets no shell has visited yet.
type pending struct {
	ti   int32
	mask uint64
}

// tile is one group of up to 64 buckets: bit b of mask is set when
// bucket b is occupied, and heads holds the occupied buckets' chain
// heads in bit order.
type tile struct {
	mask  uint64
	heads []int32
}

// NewGrid creates an empty grid with the given bucket side length,
// which must be positive, reading seed vectors from seeds. The side
// should equal the radius used for NearestWithin probes: probes with
// r ≤ side stay within the 3^d neighborhood; larger radii widen the
// probe window proportionally.
func NewGrid(side float64, seeds *Seeds) *Grid {
	if !(side > 0) {
		panic("index: grid bucket side must be positive")
	}
	return &Grid{side: side, seeds: seeds, loose: make(map[int32]stream.Point)}
}

// Len implements SeedIndex.
func (g *Grid) Len() int { return g.n }

// Kind implements SeedIndex.
func (g *Grid) Kind() string { return "grid" }

// setGeometry fixes the tile layout for dim-dimensional seeds.
func (g *Grid) setGeometry(dim int) {
	g.geo, g.dim = true, dim
	g.shift, g.tside = 0, 1
	for dim > 0 {
		wider := int64(1)
		for i := 0; i < dim && wider <= 64; i++ {
			wider *= 2 * g.tside
		}
		if wider > 64 {
			break
		}
		g.shift++
		g.tside *= 2
	}
	nbits := 1
	for i := 0; i < dim; i++ {
		nbits *= int(g.tside)
	}
	g.full = ^uint64(0) >> (64 - nbits)
	w := g.tside + 1
	g.prefix = make([]uint64, int64(dim)*w)
	for a := 0; a < dim; a++ {
		for b := 0; b < nbits; b++ {
			coord := (int64(b) >> (uint(a) * g.shift)) & (g.tside - 1)
			for c := coord + 1; c <= g.tside; c++ {
				g.prefix[int64(a)*w+c] |= 1 << b
			}
		}
	}
	rows := []*[]int64{&g.lo, &g.hi, &g.tlo, &g.thi, &g.cur, &g.center, &g.flo, &g.fhi, &g.blo, &g.bhi}
	g.rows = make([]int64, len(rows)*dim)
	for i, r := range rows {
		*r = g.rows[i*dim : (i+1)*dim : (i+1)*dim]
	}
	g.rows = g.rows[:ProbeRows*dim]
}

// bucketed reports whether p's seed lives in a bucket rather than the
// side set.
func (g *Grid) bucketed(p stream.Point) bool {
	return g.geo && p.Vector != nil && len(p.Vector) == g.dim
}

// coordsOf quantizes a vector to integer bucket coordinates in the
// center scratch row (valid until the next coordsOf call).
func (g *Grid) coordsOf(vec []float64) []int64 {
	for i, v := range vec {
		g.center[i] = int64(math.Floor(v / g.side))
	}
	return g.center
}

// locate returns the tile coordinates (in the cur scratch row) and the
// tile bit of the bucket at coords.
func (g *Grid) locate(coords []int64) ([]int64, uint) {
	var bit uint
	for a, c := range coords {
		g.cur[a] = c >> g.shift
		bit |= uint(c&(g.tside-1)) << (uint(a) * g.shift)
	}
	return g.cur, bit
}

// hashKey mixes tile coordinates into a table position.
func hashKey(key []int64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, c := range key {
		h = (h ^ uint64(c)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// keyOf returns tile ti's coordinates.
func (g *Grid) keyOf(ti int32) []int64 {
	i := int(ti) * g.dim
	return g.keys[i : i+g.dim : i+g.dim]
}

// lookup returns the index of the occupied tile at key, or -1.
func (g *Grid) lookup(key []int64) int32 {
	if len(g.table) == 0 {
		return -1
	}
	mask := uint64(len(g.table) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		t := g.table[i]
		if t == 0 {
			return -1
		}
		if slices.Equal(g.keyOf(t-1), key) {
			return t - 1
		}
	}
}

// place files tile ti in the table (its key must be absent).
func (g *Grid) place(ti int32) {
	mask := uint64(len(g.table) - 1)
	i := hashKey(g.keyOf(ti)) & mask
	for g.table[i] != 0 {
		i = (i + 1) & mask
	}
	g.table[i] = ti + 1
}

// newTile creates an empty tile at key and returns its index.
func (g *Grid) newTile(key []int64) int32 {
	var ti int32
	if n := len(g.freeTiles); n > 0 {
		ti = g.freeTiles[n-1]
		g.freeTiles = g.freeTiles[:n-1]
		copy(g.keyOf(ti), key)
	} else {
		ti = int32(len(g.tiles))
		g.tiles = append(g.tiles, tile{})
		g.keys = append(g.keys, key...)
	}
	g.ntiles++
	if 2*g.ntiles > len(g.table) {
		old := g.table
		g.table = make([]int32, max(16, 2*len(old)))
		for _, t := range old {
			if t != 0 {
				g.place(t - 1)
			}
		}
	}
	g.place(ti)
	return ti
}

// dropTile removes the emptied tile ti from the table (backward-shift
// deletion, so probe chains stay unbroken without tombstones).
func (g *Grid) dropTile(ti int32) {
	mask := uint64(len(g.table) - 1)
	i := hashKey(g.keyOf(ti)) & mask
	for g.table[i] != ti+1 {
		i = (i + 1) & mask
	}
	for j := i; ; {
		g.table[i] = 0
		for {
			j = (j + 1) & mask
			t := g.table[j]
			if t == 0 {
				g.ntiles--
				g.freeTiles = append(g.freeTiles, ti)
				return
			}
			// The entry at j may move into the hole at i unless its home
			// position lies cyclically in (i, j].
			home := hashKey(g.keyOf(t-1)) & mask
			if (j-home)&mask >= (j-i)&mask {
				g.table[i] = t
				i = j
				break
			}
		}
	}
}

// setSlot records slot's cell ID, growing the per-slot columns.
func (g *Grid) setSlot(slot int32, id int64) {
	for int(slot) >= len(g.ids) {
		g.ids = append(g.ids, 0)
		g.next = append(g.next, -1)
	}
	g.ids[slot] = id
}

// Insert implements SeedIndex. A bucketed seed's vector must already
// be stored as slot's row of the grid's seed column.
func (g *Grid) Insert(slot int32, id int64, p stream.Point) {
	g.setSlot(slot, id)
	g.n++
	if !g.geo && p.Vector != nil && g.seeds.Dim() == len(p.Vector) {
		g.setGeometry(len(p.Vector))
	}
	if !g.bucketed(p) {
		g.loose[slot] = p
		return
	}
	key, bit := g.locate(g.coordsOf(p.Vector))
	ti := g.lookup(key)
	if ti < 0 {
		ti = g.newTile(key)
	}
	t := &g.tiles[ti]
	rank := bits.OnesCount64(t.mask & (1<<bit - 1))
	if t.mask&(1<<bit) == 0 {
		t.mask |= 1 << bit
		t.heads = slices.Insert(t.heads, rank, slot)
		g.next[slot] = -1
		g.nbuckets++
		return
	}
	g.next[slot] = t.heads[rank]
	t.heads[rank] = slot
}

// Remove implements SeedIndex.
func (g *Grid) Remove(slot int32, p stream.Point) {
	if _, ok := g.loose[slot]; ok {
		delete(g.loose, slot)
		g.n--
		return
	}
	if !g.bucketed(p) {
		return
	}
	key, bit := g.locate(g.coordsOf(p.Vector))
	ti := g.lookup(key)
	if ti < 0 || g.tiles[ti].mask&(1<<bit) == 0 {
		return
	}
	t := &g.tiles[ti]
	rank := bits.OnesCount64(t.mask & (1<<bit - 1))
	if t.heads[rank] == slot {
		t.heads[rank] = g.next[slot]
	} else {
		prev := t.heads[rank]
		for prev >= 0 && g.next[prev] != slot {
			prev = g.next[prev]
		}
		if prev < 0 {
			return
		}
		g.next[prev] = g.next[slot]
	}
	g.n--
	if t.heads[rank] >= 0 {
		return
	}
	t.heads = slices.Delete(t.heads, rank, rank+1)
	t.mask &^= 1 << bit
	g.nbuckets--
	if t.mask == 0 {
		g.dropTile(ti)
	}
}

// NearestWithin implements SeedIndex. It scans the occupied buckets
// within Chebyshev bucket distance m = ceil(r/side) of the query's
// bucket — the 3^d neighborhood in the standard r == side
// configuration — one tile at a time, as the walk over the tile box
// finds it.
//
// scratch holds the probe's coordinates: ProbeRows rows of the grid's
// dimensionality. nil selects the grid's own rows, which only the
// goroutine that mutates the grid may use. A probe given its own
// scratch writes nothing in the grid, so any number of goroutines may
// probe a grid that is no longer mutated, each with its own scratch.
func (g *Grid) NearestWithin(p stream.Point, r float64, onDist func(slot int32, d float64), scratch []int64) (int32, float64, bool) {
	if !g.bucketed(p) {
		return g.withinLoose(p, r, onDist)
	}
	if g.nbuckets == 0 {
		return 0, 0, false
	}
	if scratch == nil {
		scratch = g.rows
	}
	d := g.dim
	lo, hi, tlo, thi, cur := scratch[:d], scratch[d:2*d], scratch[2*d:3*d], scratch[3*d:4*d], scratch[4*d:5*d]
	m := int64(math.Ceil(r / g.side))
	for a, v := range p.Vector {
		c := int64(math.Floor(v / g.side))
		lo[a], hi[a] = c-m, c+m
	}
	b := best{r: r}
	if g.span(lo, hi, tlo, thi) > int64(g.ntiles) {
		for ti := range g.tiles {
			if g.tiles[ti].mask != 0 {
				g.scanWithin(&b, int32(ti), g.boxMask(int32(ti), lo, hi), p.Vector, onDist)
			}
		}
	} else {
		copy(cur, tlo)
		for more := true; more; more = step(cur, tlo, thi) {
			if ti := g.lookup(cur); ti >= 0 {
				g.scanWithin(&b, ti, g.boxMask(ti, lo, hi), p.Vector, onDist)
			}
		}
	}
	return b.slot, b.dist, b.found
}

// best is the running answer of a radius probe.
type best struct {
	r     float64
	slot  int32
	dist  float64
	found bool
}

// scanWithin measures the seeds of tile ti's occupied buckets in m
// against vec, keeping in b the nearest within b.r (ties to the
// lowest cell ID).
func (g *Grid) scanWithin(b *best, ti int32, m uint64, vec []float64, onDist func(slot int32, d float64)) {
	t := &g.tiles[ti]
	for m &= t.mask; m != 0; m &= m - 1 {
		below := t.mask & (1<<bits.TrailingZeros64(m) - 1)
		for s := t.heads[bits.OnesCount64(below)]; s >= 0; s = g.next[s] {
			d := distance.Euclid(g.seeds.Row(s), vec)
			if onDist != nil {
				onDist(s, d)
			}
			if d <= b.r && (!b.found || d < b.dist || (d == b.dist && g.ids[s] < g.ids[b.slot])) {
				b.slot, b.dist, b.found = s, d, true
			}
		}
	}
}

// NearestWhere implements SeedIndex with an expanding-shell search:
// shell k holds the buckets at Chebyshev bucket distance exactly k
// from the query's bucket, and every seed in shell k is strictly
// farther than (k−1)·side, so the search can stop as soon as the
// current best distance rules the next shell out. Each tile is looked
// up once, when the shells first reach it, and then stays pending
// with the mask of its buckets no shell has visited yet. When the
// tiles a shell's box spans outnumber the occupied tiles (sparse or
// high-dimensional grids), it scans every not-yet-visited bucket
// directly instead and stops.
func (g *Grid) NearestWhere(p stream.Point, pred func(slot int32) bool) (int32, float64, bool) {
	if !g.bucketed(p) {
		return g.whereLoose(p, pred)
	}
	if g.nbuckets == 0 {
		return 0, 0, false
	}
	center := g.coordsOf(p.Vector)
	var best int32
	bestDist := math.Inf(1)
	found := false
	visited := 0
	pend := g.pend[:0]
	for k := int64(0); visited < g.nbuckets; k++ {
		if found && float64(k-1)*g.side >= bestDist {
			break
		}
		for a, c := range center {
			g.lo[a], g.hi[a] = c-k, c+k
		}
		g.hits = g.hits[:0]
		rest := g.span(g.lo, g.hi, g.tlo, g.thi) > int64(g.ntiles)
		if rest {
			// Every bucket outside shells 0..k−1 is left: scan them all.
			for a, c := range center {
				g.lo[a], g.hi[a] = c-k+1, c+k-1
			}
			for ti := range g.tiles {
				if m := g.tiles[ti].mask; m != 0 {
					if k > 0 {
						m &^= g.boxMask(int32(ti), g.lo, g.hi)
					}
					g.collect(int32(ti), m)
				}
			}
		} else {
			// Look up the tiles this shell reaches first: the tile box
			// minus the previous shell's tile box (kept in flo/fhi).
			g.found = g.found[:0]
			g.tilesIn(k > 0)
			for _, ti := range g.found {
				pend = append(pend, pending{ti: ti, mask: g.tiles[ti].mask})
			}
			copy(g.flo, g.tlo)
			copy(g.fhi, g.thi)
			for i := 0; i < len(pend); {
				pt := &pend[i]
				m := pt.mask & g.boxMask(pt.ti, g.lo, g.hi)
				g.collect(pt.ti, m)
				if pt.mask &^= m; pt.mask != 0 {
					i++
					continue
				}
				pend[i] = pend[len(pend)-1]
				pend = pend[:len(pend)-1]
			}
		}
		visited += len(g.hits)
		for _, s := range g.hits {
			for ; s >= 0; s = g.next[s] {
				if pred != nil && !pred(s) {
					continue
				}
				d := distance.Euclid(g.seeds.Row(s), p.Vector)
				if d < bestDist || (d == bestDist && found && g.ids[s] < g.ids[best]) {
					best, bestDist, found = s, d, true
				}
			}
		}
		if rest {
			break
		}
	}
	g.pend = pend[:0]
	if !found {
		return 0, 0, false
	}
	return best, bestDist, true
}

// withinLoose answers a radius-bounded probe against the side set,
// reporting every measured distance through onDist like the bucket
// path does.
func (g *Grid) withinLoose(p stream.Point, r float64, onDist func(slot int32, d float64)) (int32, float64, bool) {
	var best int32
	bestDist := math.Inf(1)
	found := false
	for s, q := range g.loose {
		d := q.Distance(p)
		if onDist != nil {
			onDist(s, d)
		}
		if d <= r && (d < bestDist || (d == bestDist && found && g.ids[s] < g.ids[best])) {
			best, bestDist, found = s, d, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return best, bestDist, true
}

// whereLoose is NearestWhere over the side set.
func (g *Grid) whereLoose(p stream.Point, pred func(slot int32) bool) (int32, float64, bool) {
	var best int32
	bestDist := math.Inf(1)
	found := false
	for s, q := range g.loose {
		if pred != nil && !pred(s) {
			continue
		}
		d := q.Distance(p)
		if math.IsInf(d, 1) {
			continue
		}
		if d < bestDist || (d == bestDist && g.ids[s] < g.ids[best]) {
			best, bestDist, found = s, d, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return best, bestDist, true
}

// span sets the tile box [tlo, thi] covering the bucket box [lo, hi]
// and returns how many tiles it spans, saturating just above the
// occupied tile count.
func (g *Grid) span(lo, hi, tlo, thi []int64) int64 {
	limit := int64(g.ntiles)
	n := int64(1)
	for a := range lo {
		tlo[a], thi[a] = lo[a]>>g.shift, hi[a]>>g.shift
		// w ≤ 0 only when bucket coordinates overflowed (seeds beyond
		// ±9.2e18 buckets): walk the occupied tiles instead.
		if w := thi[a] - tlo[a] + 1; w <= 0 || w > limit || n > limit/w {
			n = limit + 1
		} else {
			n *= w
		}
	}
	return n
}

// tilesIn appends to found the occupied tiles in the tile box
// [tlo, thi] — minus the tile box [flo, fhi], which it contains, when
// hollow is set. The difference is walked one slab per axis and side,
// so no excluded tile is looked up.
func (g *Grid) tilesIn(hollow bool) {
	if !hollow {
		g.lookupBox(g.tlo, g.thi)
		return
	}
	for a := range g.tlo {
		for j := range g.tlo {
			if j < a {
				g.blo[j], g.bhi[j] = g.flo[j], g.fhi[j]
			} else {
				g.blo[j], g.bhi[j] = g.tlo[j], g.thi[j]
			}
		}
		g.bhi[a] = g.flo[a] - 1
		g.lookupBox(g.blo, g.bhi)
		g.blo[a], g.bhi[a] = g.fhi[a]+1, g.thi[a]
		g.lookupBox(g.blo, g.bhi)
	}
}

// lookupBox appends to found every occupied tile with coordinates in
// [lo, hi].
func (g *Grid) lookupBox(lo, hi []int64) {
	cur := g.cur
	for a := range cur {
		if lo[a] > hi[a] {
			return
		}
		cur[a] = lo[a]
	}
	for more := true; more; more = step(cur, lo, hi) {
		if ti := g.lookup(cur); ti >= 0 {
			g.found = append(g.found, ti)
		}
	}
}

// step advances cur to the next point of the box [lo, hi] in odometer
// order and reports whether there was one.
func step(cur, lo, hi []int64) bool {
	for a := range cur {
		if cur[a]++; cur[a] <= hi[a] {
			return true
		}
		cur[a] = lo[a]
	}
	return false
}

// collect appends to hits the chain heads of tile ti's occupied
// buckets in m.
func (g *Grid) collect(ti int32, m uint64) {
	t := &g.tiles[ti]
	for m &= t.mask; m != 0; m &= m - 1 {
		below := t.mask & (1<<bits.TrailingZeros64(m) - 1)
		g.hits = append(g.hits, t.heads[bits.OnesCount64(below)])
	}
}

// boxMask returns the bits of tile ti whose buckets lie in the box
// [lo, hi].
func (g *Grid) boxMask(ti int32, lo, hi []int64) uint64 {
	m := g.full
	w := g.tside + 1
	for a, k := range g.keyOf(ti) {
		origin := k << g.shift
		l, h := max(lo[a]-origin, 0), min(hi[a]-origin, g.tside-1)
		if l > h {
			return 0
		}
		row := g.prefix[int64(a)*w : int64(a+1)*w]
		m &= row[h+1] &^ row[l]
	}
	return m
}
