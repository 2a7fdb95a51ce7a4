package index

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/densitymountain/edmstream/internal/stream"
)

func vec(coords ...float64) stream.Point {
	return stream.Point{Vector: coords}
}

// testIndex pairs a SeedIndex with the seed column its owner keeps,
// addressing each seed's slot by its ID.
type testIndex struct {
	SeedIndex
	seeds *Seeds
}

func testGrid(side float64) testIndex {
	s := &Seeds{}
	return testIndex{NewGrid(side, s), s}
}

func testLinear() testIndex { return testIndex{NewLinear(), &Seeds{}} }

// add stores p's row and indexes it as cell id in slot id.
func (x testIndex) add(id int64, p stream.Point) {
	x.seeds.Put(int32(id), p.Vector)
	x.Insert(int32(id), id, p)
}

func (x testIndex) del(id int64, p stream.Point) { x.Remove(int32(id), p) }

func TestEmptyIndexes(t *testing.T) {
	for _, idx := range []testIndex{testGrid(1.0), testLinear()} {
		if idx.Len() != 0 {
			t.Fatalf("%s: empty index has Len %d", idx.Kind(), idx.Len())
		}
		if _, _, ok := idx.NearestWithin(vec(0, 0), 1, nil, nil); ok {
			t.Fatalf("%s: NearestWithin on empty index returned ok", idx.Kind())
		}
		if _, _, ok := idx.NearestWhere(vec(0, 0), nil); ok {
			t.Fatalf("%s: NearestWhere on empty index returned ok", idx.Kind())
		}
	}
}

func TestGridInsertRemove(t *testing.T) {
	g := testGrid(1.0)
	g.add(1, vec(0.5, 0.5))
	g.add(2, vec(5.5, 5.5))
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if id, d, ok := g.NearestWithin(vec(0.4, 0.5), 1, nil, nil); !ok || id != 1 || math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("NearestWithin = (%d, %v, %v), want cell 1 at 0.1", id, d, ok)
	}
	g.del(1, vec(0.5, 0.5))
	if g.Len() != 1 {
		t.Fatalf("Len after remove = %d, want 1", g.Len())
	}
	if _, _, ok := g.NearestWithin(vec(0.4, 0.5), 1, nil, nil); ok {
		t.Fatal("removed seed still found within radius")
	}
	if id, _, ok := g.NearestWhere(vec(0.4, 0.5), nil); !ok || id != 2 {
		t.Fatalf("NearestWhere after remove = (%d, %v), want cell 2", id, ok)
	}
	// Removing a seed twice, or one that was never inserted, is a no-op.
	g.del(1, vec(0.5, 0.5))
	g.del(99, vec(7, 7))
	if g.Len() != 1 {
		t.Fatalf("Len after no-op removes = %d, want 1", g.Len())
	}
}

func TestGridBucketBoundaries(t *testing.T) {
	g := testGrid(1.0)
	// Seeds exactly on bucket boundaries, including negative coords.
	g.add(1, vec(0, 0))
	g.add(2, vec(1, 0))
	g.add(3, vec(-1, 0))
	g.add(4, vec(-2.5, 0))

	// A probe at distance exactly r must still find the seed (the
	// absorb condition of the core algorithm is d ≤ r inclusive).
	if id, d, ok := g.NearestWithin(vec(2, 0), 1, nil, nil); !ok || id != 2 || d != 1 {
		t.Fatalf("exact-radius probe = (%d, %v, %v), want cell 2 at 1", id, d, ok)
	}
	// Equidistant seeds break the tie toward the lowest ID.
	if id, d, ok := g.NearestWithin(vec(0.5, 0), 1, nil, nil); !ok || id != 1 || d != 0.5 {
		t.Fatalf("tie probe = (%d, %v, %v), want cell 1 at 0.5", id, d, ok)
	}
	// A probe sitting exactly on a boundary sees both sides.
	if id, _, ok := g.NearestWithin(vec(-1.8, 0), 1, nil, nil); !ok || id != 4 {
		t.Fatalf("negative-coord probe = (%d, %v), want cell 4", id, ok)
	}
}

func TestGridNearestWhere(t *testing.T) {
	g := testGrid(1.0)
	g.add(1, vec(0, 0))
	g.add(2, vec(10, 0))
	g.add(3, vec(10.5, 0))
	g.add(4, vec(-40, 0))

	// Unrestricted: nearest overall.
	if id, d, ok := g.NearestWhere(vec(0.25, 0), nil); !ok || id != 1 || d != 0.25 {
		t.Fatalf("NearestWhere = (%d, %v, %v), want cell 1", id, d, ok)
	}
	// Predicate excludes the near seed: the shell search must keep
	// expanding (far past the 3^d neighborhood) to the admissible one.
	not1 := func(id int32) bool { return id != 1 }
	if id, d, ok := g.NearestWhere(vec(0.25, 0), not1); !ok || id != 2 || d != 9.75 {
		t.Fatalf("NearestWhere(≠1) = (%d, %v, %v), want cell 2 at 9.75", id, d, ok)
	}
	// Nothing admissible.
	if _, _, ok := g.NearestWhere(vec(0, 0), func(int32) bool { return false }); ok {
		t.Fatal("NearestWhere with rejecting predicate returned ok")
	}
	// A probe far from every seed exercises the direct-scan fallback
	// (the shell window quickly exceeds the occupied bucket count).
	if id, _, ok := g.NearestWhere(vec(-39, 200), nil); !ok || id != 4 {
		t.Fatalf("far probe = (%d, %v), want cell 4", id, ok)
	}
}

func TestGridVectorlessEntries(t *testing.T) {
	tokens := func(toks ...string) stream.Point {
		set := map[string]struct{}{}
		for _, tok := range toks {
			set[tok] = struct{}{}
		}
		return stream.Point{Tokens: set}
	}
	g := testGrid(0.5)
	l := testLinear()
	for id, p := range map[int64]stream.Point{
		1: tokens("a", "b"),
		2: vec(1, 1),
		3: tokens("a", "c"),
	} {
		g.add(id, p)
		l.add(id, p)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	// Token-set entries never answer numeric probes...
	if id, _, ok := g.NearestWhere(vec(1, 1), nil); !ok || id != 2 {
		t.Fatalf("numeric NearestWhere = (%d, %v), want cell 2", id, ok)
	}
	// ...but token-set probes reach them, with the same answers the
	// linear scan gives (Jaccard distance, lowest-ID tie-break).
	probe := tokens("a", "b", "d")
	gid, gd, gok := g.NearestWithin(probe, 0.9, nil, nil)
	lid, ld, lok := l.NearestWithin(probe, 0.9, nil, nil)
	if !gok || gid != 1 || gok != lok || gid != lid || gd != ld {
		t.Fatalf("token probe: grid (%d, %v, %v) vs linear (%d, %v, %v)", gid, gd, gok, lid, ld, lok)
	}
	gid, gd, gok = g.NearestWhere(probe, func(id int32) bool { return id != 1 })
	lid, ld, lok = l.NearestWhere(probe, func(id int32) bool { return id != 1 })
	if !gok || gid != 3 || gok != lok || gid != lid || gd != ld {
		t.Fatalf("token NearestWhere: grid (%d, %v, %v) vs linear (%d, %v, %v)", gid, gd, gok, lid, ld, lok)
	}
	g.del(1, tokens("a", "b"))
	if g.Len() != 2 {
		t.Fatalf("Len after vectorless remove = %d, want 2", g.Len())
	}
	if _, _, ok := g.NearestWithin(tokens("a", "b"), 0.1, nil, nil); ok {
		t.Fatal("removed token-set seed still found")
	}
}

func TestGridOnDistCallback(t *testing.T) {
	g := testGrid(1.0)
	g.add(1, vec(0, 0))
	g.add(2, vec(0.5, 0))
	g.add(3, vec(20, 20)) // far outside the probe window
	seen := map[int64]float64{}
	if _, _, ok := g.NearestWithin(vec(0.25, 0), 1, func(id int32, d float64) { seen[int64(id)] = d }, nil); !ok {
		t.Fatal("probe failed")
	}
	if _, ok := seen[1]; !ok {
		t.Fatal("onDist not called for cell 1")
	}
	if _, ok := seen[2]; !ok {
		t.Fatal("onDist not called for cell 2")
	}
	if _, ok := seen[3]; ok {
		t.Fatal("onDist called for a cell outside the probe window")
	}
}

// TestGridMatchesLinear cross-checks the grid against the linear scan
// on random point sets: every query must return the identical (id,
// distance) answer. This is the index-level half of the equivalence
// property (internal/core asserts the algorithm-level half).
func TestGridMatchesLinear(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(40 + dim)))
		side := 0.8
		g := testGrid(side)
		l := testLinear()
		n := 400
		pts := make([]stream.Point, 0, n)
		for i := 0; i < n; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()*20 - 10
			}
			p := stream.Point{Vector: v}
			pts = append(pts, p)
			g.add(int64(i), p)
			l.add(int64(i), p)
		}
		// Random removals keep both sides in sync.
		for i := 0; i < n/5; i++ {
			id := int64(rng.Intn(n))
			g.del(id, pts[id])
			l.del(id, pts[id])
		}
		if g.Len() != l.Len() {
			t.Fatalf("dim %d: Len mismatch grid %d linear %d", dim, g.Len(), l.Len())
		}
		pred := func(id int32) bool { return id%3 != 0 }
		for q := 0; q < 200; q++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()*24 - 12
			}
			p := stream.Point{Vector: v}
			gid, gd, gok := g.NearestWithin(p, side, nil, nil)
			lid, ld, lok := l.NearestWithin(p, side, nil, nil)
			if gok != lok || (gok && (gid != lid || gd != ld)) {
				t.Fatalf("dim %d query %d: NearestWithin grid (%d,%v,%v) != linear (%d,%v,%v)",
					dim, q, gid, gd, gok, lid, ld, lok)
			}
			gid, gd, gok = g.NearestWhere(p, pred)
			lid, ld, lok = l.NearestWhere(p, pred)
			if gok != lok || (gok && (gid != lid || gd != ld)) {
				t.Fatalf("dim %d query %d: NearestWhere grid (%d,%v,%v) != linear (%d,%v,%v)",
					dim, q, gid, gd, gok, lid, ld, lok)
			}
		}
	}
}

// TestGridConcurrentReaders builds a grid once and probes it from
// several goroutines at once, each with its own scratch, as the query
// path does with a publication's index: every answer must equal the
// linear scan's, and under -race no probe may write what another
// reads. Radii above the bucket side and a sparse 7-d grid take the
// wider-window and walk-every-tile paths too.
func TestGridConcurrentReaders(t *testing.T) {
	for _, dim := range []int{2, 3, 7} {
		rng := rand.New(rand.NewSource(int64(60 + dim)))
		g, l := testGrid(0.5), testLinear()
		for i := 0; i < 300; i++ {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64() * 6
			}
			g.add(int64(i), stream.Point{Vector: v})
			l.add(int64(i), stream.Point{Vector: v})
		}
		probes := make([]stream.Point, 200)
		for i := range probes {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()*7 - 0.5
			}
			probes[i] = stream.Point{Vector: v}
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				scratch := make([]int64, ProbeRows*dim)
				for i := range probes {
					p, radius := probes[(i+r*53)%len(probes)], 0.5*float64(1+i%3)
					gs, gd, gok := g.NearestWithin(p, radius, nil, scratch)
					ls, ld, lok := l.NearestWithin(p, radius, nil, nil)
					if gok != lok || gok && (gs != ls || gd != ld) {
						t.Errorf("dim %d reader %d probe %v r %v: grid (%d,%v,%v), linear (%d,%v,%v)",
							dim, r, p.Vector, radius, gs, gd, gok, ls, ld, lok)
						return
					}
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestGridStorageBoundedByLiveSeeds slides a window of live seeds
// across the plane, reusing each removed seed's slot for the next
// insert, and requires the grid's per-slot columns, tile store and
// tile table to stay bounded by the live population rather than grow
// with the number of seeds ever inserted or tiles ever touched.
func TestGridStorageBoundedByLiveSeeds(t *testing.T) {
	const live = 50
	x := testGrid(1.0)
	g := x.SeedIndex.(*Grid)
	type seed struct {
		slot int32
		p    stream.Point
	}
	var window []seed
	for id := int64(0); id < 20000; id++ {
		slot := int32(id)
		if len(window) == live {
			old := window[0]
			window = window[1:]
			g.Remove(old.slot, old.p)
			slot = old.slot
		}
		p := vec(float64(id)*0.7, float64(id)*0.2)
		x.seeds.Put(slot, p.Vector)
		g.Insert(slot, id, p)
		window = append(window, seed{slot, p})
	}
	if g.Len() != live {
		t.Fatalf("Len = %d, want %d", g.Len(), live)
	}
	if len(g.ids) > live || len(g.next) > live {
		t.Fatalf("slot columns hold %d/%d entries for %d live seeds", len(g.ids), len(g.next), live)
	}
	if len(g.tiles) > live || len(g.table) > 4*live {
		t.Fatalf("%d tiles in a %d-slot table for %d live seeds", len(g.tiles), len(g.table), live)
	}
	if len(x.seeds.vals) > 2*live {
		t.Fatalf("seed column holds %d values for %d live 2-D seeds", len(x.seeds.vals), live)
	}
}

// TestGridExtremeCoordinates indexes seeds whose bucket coordinates
// overflow int64 (|v|/side beyond 9.2e18) next to ordinary ones: the
// grid must not panic and must answer as the linear scan does.
func TestGridExtremeCoordinates(t *testing.T) {
	g, l := testGrid(0.5), testLinear()
	pts := []stream.Point{
		vec(1e300, 1e300), vec(-1e300, -1e300), vec(1e300, -1e300),
		vec(0, 0), vec(1e300+1e285, 1e300), vec(-4e18, 4e18), vec(4.7e18, -4.7e18),
	}
	for i, p := range pts {
		g.add(int64(i), p)
		l.add(int64(i), p)
	}
	for _, p := range append(pts, vec(1e300, 0), vec(-4e18, 4e18+3)) {
		for _, r := range []float64{0.5, 1.5} {
			gs, gd, gok := g.NearestWithin(p, r, nil, nil)
			ls, ld, lok := l.NearestWithin(p, r, nil, nil)
			if gok != lok || gok && (gs != ls || gd != ld) {
				t.Fatalf("NearestWithin(%v, %g): grid (%d, %v, %v), linear (%d, %v, %v)", p.Vector, r, gs, gd, gok, ls, ld, lok)
			}
		}
		gs, gd, gok := g.NearestWhere(p, func(s int32) bool { return s != 3 })
		ls, ld, lok := l.NearestWhere(p, func(s int32) bool { return s != 3 })
		if gok != lok || gok && (gs != ls || gd != ld) {
			t.Fatalf("NearestWhere(%v): grid (%d, %v, %v), linear (%d, %v, %v)", p.Vector, gs, gd, gok, ls, ld, lok)
		}
	}
}
