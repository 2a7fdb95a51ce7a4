package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/stream"
)

// assignSeed is one published seed: its cell, its cluster and its
// point.
type assignSeed struct {
	id      int64
	cluster int
	p       stream.Point
}

// assignReference is the naive rule the query index must reproduce:
// the cluster of the seed nearest to p within radius, ties to the
// lowest cell ID, +Inf across the numeric/token divide, and no answer
// for a vector of another width than the seeds'.
func assignReference(seeds []assignSeed, p stream.Point, radius float64) (int, bool) {
	best := -1
	bestDist := math.Inf(1)
	var bestID int64
	for _, s := range seeds {
		if !p.IsText() && !s.p.IsText() && len(p.Vector) != len(s.p.Vector) {
			continue
		}
		d := s.p.Distance(p)
		if d <= radius && (best == -1 || d < bestDist || (d == bestDist && s.id < bestID)) {
			best, bestDist, bestID = s.cluster, d, s.id
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}

// buildAssign publishes seeds as clusters (one per distinct cluster
// ID, in order of first appearance) and indexes them.
func buildAssign(seeds []assignSeed, radius float64) *assignIndex {
	var clusters []ClusterInfo
	at := map[int]int{}
	for _, s := range seeds {
		i, ok := at[s.cluster]
		if !ok {
			i = len(clusters)
			at[s.cluster] = i
			clusters = append(clusters, ClusterInfo{ID: s.cluster})
		}
		clusters[i].CellIDs = append(clusters[i].CellIDs, s.id)
		clusters[i].SeedPoints = append(clusters[i].SeedPoints, s.p)
	}
	return newAssignIndex(clusters, radius)
}

func randomVector(rng *rand.Rand, dim int, lo, hi float64) stream.Point {
	vec := make([]float64, dim)
	for d := range vec {
		vec[d] = lo + rng.Float64()*(hi-lo)
	}
	return stream.Point{Vector: vec}
}

// checkAssign compares the index against the reference on probes.
func checkAssign(t *testing.T, name string, a *assignIndex, seeds []assignSeed, radius float64, probes []stream.Point) {
	t.Helper()
	for _, p := range probes {
		gotID, gotOK := a.assign(p)
		wantID, wantOK := assignReference(seeds, p, radius)
		if gotOK != wantOK || (gotOK && gotID != wantID) {
			t.Fatalf("%s probe %v%v: assign = (%d,%v), reference = (%d,%v)",
				name, p.Vector, p.Tokens, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestAssignIndexMatchesReference cross-checks the gridded query index
// against the naive scan on random seed sets and probes, including
// probes just inside and outside the radius.
func TestAssignIndexMatchesReference(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 8} {
		rng := rand.New(rand.NewSource(int64(dim) * 77))
		const radius = 0.5
		var seeds []assignSeed
		for i := 0; i < 300; i++ {
			seeds = append(seeds, assignSeed{id: int64(i), cluster: 1 + i%7, p: randomVector(rng, dim, 0, 10)})
		}
		a := buildAssign(seeds, radius)
		if a.grid == nil || a.grid.Len() != len(seeds) {
			t.Fatalf("dim %d: want a grid over %d seeds, got grid %v", dim, len(seeds), a.grid != nil)
		}
		var probes []stream.Point
		for q := 0; q < 500; q++ {
			probes = append(probes, randomVector(rng, dim, -1, 11))
		}
		checkAssign(t, fmt.Sprintf("dim %d", dim), a, seeds, radius, probes)
	}
}

// TestAssignIndexHighDimScansLinearly checks that dimensionality above
// the grid budget is served by the exact linear scan.
func TestAssignIndexHighDimScansLinearly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = maxAutoGridDim + 4
	var seeds []assignSeed
	for i := 0; i < 100; i++ {
		seeds = append(seeds, assignSeed{id: int64(i), cluster: i % 3, p: randomVector(rng, dim, 0, 4)})
	}
	a := buildAssign(seeds, 1.0)
	if a.linear == nil {
		t.Fatal("a 12-d publication should be scanned linearly")
	}
	var probes []stream.Point
	for q := 0; q < 200; q++ {
		probes = append(probes, randomVector(rng, dim, 0, 4))
	}
	checkAssign(t, "high-d", a, seeds, 1.0, probes)
}

// TestAssignIndexTokenSeeds checks token and mixed publications in
// both orders (a leading numeric seed builds a grid that keeps token
// seeds aside, a leading token seed a linear scan): token probes match
// token seeds under Jaccard and never numeric ones, and a vector of
// another width than the seeds' is an outlier.
func TestAssignIndexTokenSeeds(t *testing.T) {
	tok := []assignSeed{
		{id: 0, cluster: 1, p: stream.Point{Tokens: distance.NewTokenSet("a", "b", "c")}},
		{id: 1, cluster: 2, p: stream.Point{Tokens: distance.NewTokenSet("x", "y", "z")}},
	}
	num := assignSeed{id: 2, cluster: 3, p: stream.Point{Vector: []float64{0, 0}}}
	for _, tc := range []struct {
		name  string
		seeds []assignSeed
		grid  bool
	}{
		{"token first", append(append([]assignSeed{}, tok...), num), false},
		{"numeric first", append([]assignSeed{num}, tok...), true},
	} {
		a := buildAssign(tc.seeds, 0.5)
		if (a.grid != nil) != tc.grid {
			t.Fatalf("%s: grid %v, want %v", tc.name, a.grid != nil, tc.grid)
		}
		if id, ok := a.assign(stream.Point{Tokens: distance.NewTokenSet("a", "b", "c", "d")}); !ok || id != 1 {
			t.Fatalf("%s: token probe = (%d,%v), want (1,true)", tc.name, id, ok)
		}
		if _, ok := a.assign(stream.Point{Tokens: distance.NewTokenSet("q", "r", "s")}); ok {
			t.Fatalf("%s: unrelated token probe matched", tc.name)
		}
		if id, ok := a.assign(stream.Point{Vector: []float64{0.1, 0}}); !ok || id != 3 {
			t.Fatalf("%s: numeric probe = (%d,%v), want (3,true)", tc.name, id, ok)
		}
		for _, v := range [][]float64{{0}, {0, 0, 0}, {}} {
			if _, ok := a.assign(stream.Point{Vector: v}); ok {
				t.Fatalf("%s: %d-d probe on 2-d seeds matched", tc.name, len(v))
			}
		}
	}
	a := buildAssign(tok, 0.5)
	if _, ok := a.assign(stream.Point{Vector: []float64{0, 0}}); ok {
		t.Fatal("numeric probe matched a token-only publication")
	}
}

// TestAssignIndexEmpty checks the degenerate empty publication.
func TestAssignIndexEmpty(t *testing.T) {
	a := buildAssign(nil, 1)
	if _, ok := a.assign(stream.Point{Vector: []float64{0}}); ok {
		t.Fatal("empty index assigned a point")
	}
	if _, ok := a.assign(stream.Point{Tokens: distance.NewTokenSet("a")}); ok {
		t.Fatal("empty index assigned a token point")
	}
}

// TestAssignIndexNoAlloc pins the zero-allocation query contract at
// the index level for the grid and the linear scan.
func TestAssignIndexNoAlloc(t *testing.T) {
	for _, dim := range []int{2, maxAutoGridDim + 1} {
		rng := rand.New(rand.NewSource(5))
		var seeds []assignSeed
		for i := 0; i < 500; i++ {
			seeds = append(seeds, assignSeed{id: int64(i), cluster: i % 5, p: randomVector(rng, dim, 0, 20)})
		}
		a := buildAssign(seeds, 0.5)
		probe := randomVector(rng, dim, 10, 10)
		if allocs := testing.AllocsPerRun(200, func() { a.assign(probe) }); allocs != 0 {
			t.Fatalf("%d-d assign allocates %.1f per call", dim, allocs)
		}
	}
}

// assignStream is a seeded stream of one kind: Gaussian blobs in dim
// dimensions, token sets ("token"), or both interleaved ("mixed").
func assignStream(kind string, dim int, seed int64) []stream.Point {
	rng := rand.New(rand.NewSource(seed))
	topics := [][]string{{"gpu", "ai"}, {"vote", "poll"}, {"rain", "storm"}}
	pts := make([]stream.Point, 2400)
	for i := range pts {
		p := stream.Point{ID: int64(i), Time: float64(i) / 1000, Label: stream.NoLabel}
		if kind == "token" || kind == "mixed" && i%3 == 2 {
			topic := topics[rng.Intn(len(topics))]
			p.Tokens = distance.NewTokenSet(topic[0], topic[1])
			if rng.Float64() < 0.5 {
				p.Tokens.Add(fmt.Sprint("w", rng.Intn(3)))
			}
		} else {
			p.Vector = make([]float64, dim)
			k := float64(rng.Intn(3) * 4)
			for d := range p.Vector {
				p.Vector[d] = k + rng.NormFloat64()*0.4
			}
		}
		pts[i] = p
	}
	return pts
}

// TestAssignMatchesSnapshotAcrossStreams checks Assign and AssignBatch
// against the naive rule over the published snapshot on 1- to 8-d,
// above-8-d, token and mixed streams under every index policy: the
// query index is chosen by the publication, not the policy, and never
// changes an answer.
func TestAssignMatchesSnapshotAcrossStreams(t *testing.T) {
	type streamCase struct {
		kind   string
		dim    int
		radius float64
	}
	cases := []streamCase{{"blobs", 1, 0.3}, {"blobs", 2, 0.5}, {"blobs", 3, 0.6}, {"blobs", 5, 0.9},
		{"blobs", 8, 1.2}, {"blobs", 12, 1.6}, {"token", 0, 0.6}, {"mixed", 2, 0.6}}
	for ci, sc := range cases {
		pts := assignStream(sc.kind, sc.dim, int64(ci+1))
		for _, policy := range []IndexPolicy{IndexAuto, IndexGrid, IndexLinear} {
			name := fmt.Sprintf("%s-%dd/%s", sc.kind, sc.dim, policy)
			e, err := New(Config{Radius: sc.radius, Tau: 1.5, InitPoints: 200, EvolutionInterval: 0.25,
				SweepInterval: 0.2, IndexPolicy: policy})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InsertBatch(pts); err != nil {
				t.Fatal(err)
			}
			e.Refresh()
			var seeds []assignSeed
			for _, cl := range e.LastSnapshot().Clusters {
				for i, id := range cl.CellIDs {
					seeds = append(seeds, assignSeed{id: id, cluster: cl.ID, p: cl.SeedPoints[i]})
				}
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			var probes []stream.Point
			for i := 0; i < len(pts); i += 5 {
				p := pts[i].Clone()
				for d := range p.Vector {
					p.Vector[d] += rng.NormFloat64() * sc.radius / 2
				}
				probes = append(probes, p)
			}
			probes = append(probes, stream.Point{Vector: make([]float64, sc.dim+1)},
				stream.Point{Tokens: distance.NewTokenSet("gpu", "ai")})
			got := e.AssignBatch(probes, nil)
			hits := 0
			for i, p := range probes {
				want, ok := assignReference(seeds, p, sc.radius)
				if !ok {
					want = AssignOutlier
				} else {
					hits++
				}
				if got[i] != want {
					t.Fatalf("%s probe %d %v%v: AssignBatch %d, reference %d", name, i, p.Vector, p.Tokens, got[i], want)
				}
				if id, ok := e.Assign(p); ok != (want != AssignOutlier) || ok && id != want {
					t.Fatalf("%s probe %d: Assign (%d,%v), reference %d", name, i, id, ok, want)
				}
			}
			if hits == 0 {
				t.Fatalf("%s: no probe hit a cluster (%d clusters); the case checks nothing", name, len(e.LastSnapshot().Clusters))
			}
		}
	}
}
