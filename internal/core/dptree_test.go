package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/densitymountain/edmstream/internal/distance"
)

// buildTestTree creates a DP-Tree with cells at the given 1-D positions
// and densities (densities are set directly, all anchored at time 0).
// It wires every dependency with computeDependency.
func buildTestTree(t *testing.T, positions []float64, densities []float64) (*dpTree, []*Cell) {
	t.Helper()
	if len(positions) != len(densities) {
		t.Fatalf("positions and densities length mismatch")
	}
	tree := newDPTree(testDecay())
	cells := make([]*Cell, len(positions))
	for i := range positions {
		c := newCell(int64(i+1), numericPoint(int64(i), 0, positions[i]))
		c.rho = densities[i]
		c.rhoTime = 0
		cells[i] = c
		insertTestCell(tree, c)
	}
	for _, c := range cells {
		tree.computeDependency(c, 0)
	}
	if msg := tree.checkInvariants(0); msg != "" {
		t.Fatalf("test tree violates invariants: %s", msg)
	}
	return tree, cells
}

// insertTestCell gives c the next free slot of a bare tree (one without
// an engine's slab) and inserts it.
func insertTestCell(tree *dpTree, c *Cell) {
	c.slot = int32(len(tree.ext))
	tree.resetRow(c.slot)
	tree.insert(c)
}

func TestComputeDependencyBasic(t *testing.T) {
	// Two density mountains on a line:
	//   positions: 0    1    2    10   11   12
	//   densities: 9    10   8    5    6    4
	// Peak of the left mountain is position 1 (density 10, the global
	// root); peak of the right mountain is position 11 (density 6),
	// which depends on the left mountain across the valley.
	tree, cells := buildTestTree(t,
		[]float64{0, 1, 2, 10, 11, 12},
		[]float64{9, 10, 8, 5, 6, 4},
	)
	root := tree.root()
	if root != cells[1] {
		t.Fatalf("root should be the densest cell, got cell %d", root.ID())
	}
	if !math.IsInf(cells[1].Delta(), 1) {
		t.Errorf("root delta = %v, want +Inf", cells[1].Delta())
	}
	wantDeps := map[int]int{
		0: 1, // position 0 depends on position 1
		2: 1, // position 2 depends on position 1
		3: 4, // position 10 depends on position 11
		5: 4, // position 12 depends on position 11
		4: 2, // the right peak depends on the nearest higher-density cell, position 2
	}
	for idx, depIdx := range wantDeps {
		if cells[idx].Dependency() != cells[depIdx] {
			gotID := int64(-1)
			if cells[idx].Dependency() != nil {
				gotID = cells[idx].Dependency().ID()
			}
			t.Errorf("cell at position %v depends on cell %d, want cell %d", cells[idx].seed.Vector[0], gotID, cells[depIdx].ID())
		}
	}
	// Dependent distances are the actual seed distances.
	if math.Abs(cells[4].Delta()-9) > 1e-12 {
		t.Errorf("right peak delta = %v, want 9", cells[4].Delta())
	}
}

func TestMSDSubtrees(t *testing.T) {
	tree, cells := buildTestTree(t,
		[]float64{0, 1, 2, 10, 11, 12},
		[]float64{9, 10, 8, 5, 6, 4},
	)
	// With τ = 3 the long link (length 9) across the valley is weak, so
	// there are two clusters (two density mountains).
	subtrees := tree.msdSubtrees(3)
	if len(subtrees) != 2 {
		t.Fatalf("got %d MSDSubTrees with tau=3, want 2", len(subtrees))
	}
	sizes := map[int64]int{}
	for peak, members := range subtrees {
		sizes[peak.ID()] = len(members)
	}
	if sizes[cells[1].ID()] != 3 || sizes[cells[4].ID()] != 3 {
		t.Errorf("subtree sizes = %v, want 3 and 3", sizes)
	}
	// With τ = 100 every link is strong: one cluster.
	if got := tree.msdSubtrees(100); len(got) != 1 {
		t.Errorf("got %d MSDSubTrees with tau=100, want 1", len(got))
	}
	// With τ = 0.5 even the within-mountain links (length 1) are weak:
	// every cell is its own cluster.
	if got := tree.msdSubtrees(0.5); len(got) != len(cells) {
		t.Errorf("got %d MSDSubTrees with tau=0.5, want %d", len(got), len(cells))
	}
}

func TestPeakOf(t *testing.T) {
	tree, cells := buildTestTree(t,
		[]float64{0, 1, 2, 10, 11, 12},
		[]float64{9, 10, 8, 5, 6, 4},
	)
	if got := tree.peakOf(cells[5], 3); got != cells[4] {
		t.Errorf("peakOf(position 12, tau=3) = cell %d, want the right peak", got.ID())
	}
	if got := tree.peakOf(cells[5], 100); got != cells[1] {
		t.Errorf("peakOf(position 12, tau=100) = cell %d, want the global root", got.ID())
	}
	if got := tree.peakOf(cells[1], 3); got != cells[1] {
		t.Errorf("peakOf(root) should be the root itself")
	}
}

// newTestEngine returns an engine for hand-built DP-Trees at stream
// time 0; addTestCell places its cells.
func newTestEngine(t *testing.T) *EDMStream {
	t.Helper()
	e, err := New(Config{Radius: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// addTestCell registers an inactive cell with the given ID, density
// (anchored at time 0) and seed on e; e.maybePromote moves it into the
// DP-Tree along the engine's promotion path.
func addTestCell(e *EDMStream, id int64, rho float64, coords ...float64) *Cell {
	c := newCell(id, numericPoint(id, 0, coords...))
	c.rho = rho
	e.addCell(c)
	e.res.add(c)
	return c
}

// promoteTestCells promotes cells in order, each linking its own
// dependency and relinking the active cells it outranks.
func promoteTestCells(t *testing.T, e *EDMStream, cells ...*Cell) {
	t.Helper()
	for _, c := range cells {
		e.maybePromote(c, 0)
		if !c.active {
			t.Fatalf("cell %d (density %v) was not promoted", c.id, c.rho)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := checkNearestDependencies(e); err != nil {
		t.Fatal(err)
	}
}

func TestPromotionRelinksLower(t *testing.T) {
	e := newTestEngine(t)
	positions := []float64{0, 1, 2, 10, 11, 12}
	densities := []float64{9, 10, 8, 5, 6, 4}
	cells := make([]*Cell, len(positions))
	for i := range positions {
		cells[i] = addTestCell(e, int64(i+1), densities[i], positions[i])
	}
	promoteTestCells(t, e, cells...)
	// Promote a dense cell at position 9.5: the right-mountain cells are
	// all lower-density and closer to it than to their old dependencies,
	// so they must relink.
	c := addTestCell(e, 100, 7, 9.5)
	promoteTestCells(t, e, c)
	if cells[4].Dependency() != c {
		t.Errorf("right peak should now depend on the new cell")
	}
	if cells[3].Dependency() != c {
		t.Errorf("position 10 should now depend on the new cell (distance 0.5 < 1)")
	}
	// The new cell itself depends on the nearest higher-density cell,
	// which is position 2 (density 8).
	if c.Dependency() != cells[2] {
		t.Errorf("new cell depends on cell %d, want position-2 cell", c.Dependency().ID())
	}
}

// depID returns the ID of c's dependency, -1 for a root.
func depID(c *Cell) int64 {
	if c.dep == nil {
		return -1
	}
	return c.dep.id
}

// TestRelinkTieGoesToLowerID pins the tie rule of incremental relinks
// to computeDependency's: cell o depends on x (ID 3) at distance 2, and
// when y (ID 1), also at distance exactly 2, overtakes o — by absorbing
// points or by promotion — o must move to y, the lower ID.
func TestRelinkTieGoesToLowerID(t *testing.T) {
	check := func(t *testing.T, e *EDMStream, o, y *Cell) {
		t.Helper()
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := checkNearestDependencies(e); err != nil {
			t.Fatal(err)
		}
		if o.dep != y || o.delta != 2 {
			t.Fatalf("cell %d depends on %d at δ %v, want cell %d at 2", o.id, depID(o), o.delta, y.id)
		}
	}
	t.Run("absorption", func(t *testing.T) {
		e := newTestEngine(t)
		y := addTestCell(e, 1, 4, -2)
		o := addTestCell(e, 2, 5, 0)
		x := addTestCell(e, 3, 10, 2)
		promoteTestCells(t, e, x, o, y)
		if o.dep != x {
			t.Fatalf("setup: cell o depends on %d, want x", depID(o))
		}
		e.initialized = true
		for range 2 {
			if err := e.Insert(numericPoint(0, 0, -2)); err != nil {
				t.Fatal(err)
			}
		}
		if !higherRanked(y, o, 0, e.cfg.Decay) {
			t.Fatalf("setup: y (density %v) does not outrank o (%v)", y.rho, o.rho)
		}
		check(t, e, o, y)
	})
	t.Run("promotion", func(t *testing.T) {
		e := newTestEngine(t)
		y := addTestCell(e, 1, 6, -2)
		o := addTestCell(e, 2, 5, 0)
		x := addTestCell(e, 3, 10, 2)
		promoteTestCells(t, e, x, o)
		if o.dep != x {
			t.Fatalf("setup: cell o depends on %d, want x", depID(o))
		}
		promoteTestCells(t, e, y)
		check(t, e, o, y)
	})
}

// TestWithinBoundKeepsExactBound: the squared-domain pre-filter of the
// relink loop never rejects a seed at exactly the bound, and returns
// the distance bit for bit as distance.Euclid measures it, so the tie
// rule sees every exact tie.
func TestWithinBoundKeepsExactBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(a, b []float64) {
		t.Helper()
		want := distance.Euclid(a, b)
		for _, args := range [][2][]float64{{a, b}, {b, a}} {
			d, ok := withinBound(args[0], args[1], want)
			if !ok || math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("withinBound(%v, %v, %v) = %v, %v; want the bound itself", args[0], args[1], want, d, ok)
			}
		}
	}
	for range 100000 {
		dim := 1 + rng.Intn(8)
		a, b := make([]float64, dim), make([]float64, dim)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*10, rng.NormFloat64()*10
		}
		check(a, b)
	}
	check([]float64{0}, []float64{1e-160})
	check([]float64{0, 0}, []float64{3e-170, 4e-170})
	check([]float64{1e300}, []float64{-1e300})
	if _, ok := withinBound([]float64{0, 0}, []float64{3, 4}, 4.99); ok {
		t.Error("withinBound kept a seed well beyond the bound")
	}
}

func TestRemoveAndSubtree(t *testing.T) {
	tree, cells := buildTestTree(t,
		[]float64{0, 1, 2, 10, 11, 12},
		[]float64{9, 10, 8, 5, 6, 4},
	)
	sub := tree.subtree(cells[4])
	if len(sub) != 3 {
		t.Fatalf("right-peak subtree has %d cells, want 3", len(sub))
	}
	tree.remove(cells[4])
	if cells[4].Active() {
		t.Error("removed cell still marked active")
	}
	if tree.size() != 5 {
		t.Errorf("tree size after remove = %d, want 5", tree.size())
	}
	// Its children lost their dependency.
	if cells[3].Dependency() != nil || cells[5].Dependency() != nil {
		t.Error("children of a removed cell should have their dependency cleared")
	}
	// After recomputing the orphans' dependencies, invariants hold again.
	tree.computeDependency(cells[3], 0)
	tree.computeDependency(cells[5], 0)
	if msg := tree.checkInvariants(0); msg != "" {
		t.Errorf("invariants violated after re-linking orphans: %s", msg)
	}
}

func TestEmptyAndSingletonTree(t *testing.T) {
	tree := newDPTree(testDecay())
	if tree.root() != nil {
		t.Error("empty tree should have no root")
	}
	if msg := tree.checkInvariants(0); msg != "" {
		t.Errorf("empty tree should satisfy invariants: %s", msg)
	}
	if got := tree.msdSubtrees(1); len(got) != 0 {
		t.Errorf("empty tree should have no subtrees, got %d", len(got))
	}
	c := newCell(1, numericPoint(0, 0, 5))
	insertTestCell(tree, c)
	tree.computeDependency(c, 0)
	if tree.root() != c {
		t.Error("singleton tree root should be the only cell")
	}
	if got := tree.msdSubtrees(1); len(got) != 1 {
		t.Errorf("singleton tree should have exactly one subtree")
	}
	if msg := tree.checkInvariants(0); msg != "" {
		t.Errorf("singleton tree invariants: %s", msg)
	}
}

func TestDensityMonotoneAlongDependencyChain(t *testing.T) {
	// Walking up any dependency chain, density must be non-decreasing —
	// the defining property of a density mountain.
	tree, cells := buildTestTree(t,
		[]float64{0, 1, 2, 3, 10, 11, 12, 20, 21},
		[]float64{5, 9, 7, 3, 6, 8, 2, 4, 4.5},
	)
	for _, c := range cells {
		for cur := c; cur.Dependency() != nil; cur = cur.Dependency() {
			if cur.Density(0, tree.decay) > cur.Dependency().Density(0, tree.decay) {
				t.Fatalf("cell %d has higher density than its dependency", cur.ID())
			}
		}
	}
}
