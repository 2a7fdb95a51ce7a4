package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/gen"
	"github.com/densitymountain/edmstream/internal/stream"
)

// blobStream builds a stream of n points drawn round-robin from
// isotropic Gaussian blobs at the given centers, stamped at the given
// arrival rate.
func blobStream(centers [][]float64, sigma float64, n int, rate float64, seed int64) []stream.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]stream.Point, n)
	for i := range pts {
		k := i % len(centers)
		vec := make([]float64, len(centers[k]))
		for d := range vec {
			vec[d] = centers[k][d] + rng.NormFloat64()*sigma
		}
		pts[i] = stream.Point{
			ID:     int64(i),
			Vector: vec,
			Label:  k,
			Time:   float64(i) / rate,
		}
	}
	return pts
}

func feed(t *testing.T, e *EDMStream, pts []stream.Point) {
	t.Helper()
	for i := range pts {
		if err := e.Insert(pts[i]); err != nil {
			t.Fatalf("Insert(point %d): %v", i, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	valid := Config{Radius: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("minimal config should be valid: %v", err)
	}
	bad := []Config{
		{Radius: 0},
		{Radius: -1},
		{Radius: 1, Decay: stream.Decay{A: 2, Lambda: 1}},
		{Radius: 1, Rate: -5},
		{Radius: 1, Beta: 1.5},
		{Radius: 1, Tau: -1},
		{Radius: 1, Alpha: 1.5},
		{Radius: 1, InitPoints: -1},
		{Radius: 1, SweepInterval: -1},
		{Radius: 1, DeleteDelay: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// A negative EvolutionInterval is the documented way to disable
	// automatic evolution checks, not an error.
	disabled := Config{Radius: 1, EvolutionInterval: -1}
	if err := disabled.Validate(); err != nil {
		t.Errorf("negative EvolutionInterval should disable tracking, got %v", err)
	}
	if got := disabled.withDefaults().EvolutionInterval; got != 0 {
		t.Errorf("negative EvolutionInterval resolved to %v, want 0 (disabled)", got)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with zero config should fail (radius required)")
	}
}

func TestFilterModeString(t *testing.T) {
	cases := map[FilterMode]string{
		FilterNone:     "wf",
		FilterDensity:  "df",
		FilterTriangle: "tif",
		FilterAll:      "df+tif",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("FilterMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
}

func TestTwoClusterStream(t *testing.T) {
	pts := blobStream([][]float64{{0, 0}, {10, 10}}, 0.5, 4000, 1000, 1)
	e, err := New(Config{Radius: 0.8, Tau: 3, InitPoints: 300})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, pts)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.NumClusters() != 2 {
		t.Fatalf("got %d clusters, want 2 (snapshot: %+v)", snap.NumClusters(), snap)
	}
	// Each cluster's peak must be near one of the true centers.
	var nearOrigin, nearTen bool
	for _, c := range snap.Clusters {
		if len(c.CellIDs) == 0 || len(c.SeedPoints) != len(c.CellIDs) {
			t.Fatalf("malformed cluster info: %+v", c)
		}
		peak, ok := snap.Cluster(c.ID)
		if !ok || peak.ID != c.ID {
			t.Fatalf("Cluster(%d) lookup failed", c.ID)
		}
		var peakSeed stream.Point
		for i, id := range c.CellIDs {
			if id == c.PeakCellID {
				peakSeed = c.SeedPoints[i]
			}
		}
		d0 := distance.Euclid(peakSeed.Vector, []float64{0, 0})
		d1 := distance.Euclid(peakSeed.Vector, []float64{10, 10})
		if d0 < 2 {
			nearOrigin = true
		}
		if d1 < 2 {
			nearTen = true
		}
	}
	if !nearOrigin || !nearTen {
		t.Errorf("cluster peaks not near the true centers")
	}
	// The macro-cluster view used by the evaluation harness agrees.
	macro := snap.MacroClusters()
	if len(macro) != 2 {
		t.Errorf("MacroClusters = %d, want 2", len(macro))
	}
	assigned := stream.AssignToClusters(pts[len(pts)-500:], macro, 0)
	// Recent points must be split across the two macro clusters in a
	// label-consistent way.
	byLabel := map[int]map[int]int{}
	for i, a := range assigned {
		p := pts[len(pts)-500+i]
		if byLabel[p.Label] == nil {
			byLabel[p.Label] = map[int]int{}
		}
		byLabel[p.Label][a]++
	}
	for label, counts := range byLabel {
		best, total := 0, 0
		for _, c := range counts {
			total += c
			if c > best {
				best = c
			}
		}
		if float64(best) < 0.9*float64(total) {
			t.Errorf("label %d not consistently assigned: %v", label, counts)
		}
	}
}

func TestSnapshotPartitionInvariants(t *testing.T) {
	pts := blobStream([][]float64{{0, 0}, {6, 0}, {0, 6}}, 0.5, 3000, 1000, 2)
	e, err := New(Config{Radius: 0.8, Tau: 2.5, InitPoints: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("after %d points: %v", i+1, err)
			}
			snap := e.Snapshot()
			// Partition property: clusters are disjoint and cover all
			// active cells.
			seen := map[int64]bool{}
			total := 0
			for _, c := range snap.Clusters {
				for _, id := range c.CellIDs {
					if seen[id] {
						t.Fatalf("cell %d appears in two clusters", id)
					}
					seen[id] = true
					total++
				}
			}
			if total != snap.ActiveCells {
				t.Fatalf("clusters cover %d cells, active cells = %d", total, snap.ActiveCells)
			}
		}
	}
}

// TestFilterEquivalence verifies the central claim of Theorems 1 and 2:
// the filters skip only updates that cannot change anything, so the
// final clustering is identical with and without them.
func TestFilterEquivalence(t *testing.T) {
	pts := blobStream([][]float64{{0, 0}, {7, 0}, {3, 6}}, 0.6, 2500, 1000, 3)

	run := func(mode FilterMode) (Snapshot, Stats) {
		cfg := Config{Radius: 0.9, Tau: 2.5, InitPoints: 200}
		cfg.SetFilters(mode)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, e, pts)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		return e.Snapshot(), e.Stats()
	}

	partition := func(s Snapshot) map[int64]int64 {
		// map cell id -> peak cell id (cluster identity independent of
		// tracker-assigned IDs)
		m := map[int64]int64{}
		for _, c := range s.Clusters {
			for _, id := range c.CellIDs {
				m[id] = c.PeakCellID
			}
		}
		return m
	}

	base, statsNone := run(FilterNone)
	basePart := partition(base)
	for _, mode := range []FilterMode{FilterDensity, FilterAll} {
		snap, stats := run(mode)
		part := partition(snap)
		if len(part) != len(basePart) {
			t.Fatalf("mode %v: %d clustered cells, want %d", mode, len(part), len(basePart))
		}
		for id, peak := range basePart {
			if part[id] != peak {
				t.Fatalf("mode %v: cell %d assigned to peak %d, want %d", mode, id, part[id], peak)
			}
		}
		if stats.FilteredByDensity == 0 {
			t.Errorf("mode %v: density filter never fired", mode)
		}
		if mode == FilterAll && stats.FilteredByTriangle == 0 {
			t.Errorf("mode %v: triangle filter never fired", mode)
		}
		// The filters may skip only updates that change nothing, so every
		// mode moves the same dependencies.
		if stats.DependencyRelinks != statsNone.DependencyRelinks {
			t.Errorf("mode %v: %d dependency relinks, wf made %d", mode, stats.DependencyRelinks, statsNone.DependencyRelinks)
		}
	}
	if statsNone.FilteredByDensity != 0 || statsNone.FilteredByTriangle != 0 {
		t.Errorf("wf run should not filter anything: %+v", statsNone)
	}
}

func TestSDSEvolutionEndToEnd(t *testing.T) {
	ds, err := gen.SDS(gen.SDSConfig{N: 10000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src, err := ds.RateSource(1000)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Radius: 0.3, Tau: 2.0, InitPoints: 500, EvolutionInterval: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	streamSeconds := float64(ds.Len()) / 1000
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		if err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	events := e.Events()
	if len(events) == 0 {
		t.Fatal("no evolution events recorded")
	}
	kindTimes := map[EventKind][]float64{}
	for _, ev := range events {
		kindTimes[ev.Kind] = append(kindTimes[ev.Kind], ev.Time)
	}
	// All four scripted activity kinds must be observed.
	for _, k := range []EventKind{Emerge, Merge, Disappear, Split} {
		if len(kindTimes[k]) == 0 {
			t.Errorf("no %v event observed (events: %v)", k, events)
		}
	}
	// The merge of the two initial clusters must be observed before the
	// late-stream split of the new cluster.
	if len(kindTimes[Merge]) > 0 && len(kindTimes[Split]) > 0 {
		firstMerge := kindTimes[Merge][0]
		lastSplit := kindTimes[Split][len(kindTimes[Split])-1]
		if !(firstMerge < lastSplit) {
			t.Errorf("expected a merge (%.2fs) before the final split (%.2fs)", firstMerge, lastSplit)
		}
		if firstMerge > 0.6*streamSeconds {
			t.Errorf("first merge at %.2fs, expected before 60%% of the stream (%.2fs)", firstMerge, 0.6*streamSeconds)
		}
		if lastSplit < 0.5*streamSeconds {
			t.Errorf("last split at %.2fs, expected in the second half of the stream", lastSplit)
		}
	}
	// At the end of the stream there are exactly two clusters (C1, C2).
	final := e.Snapshot()
	if final.NumClusters() != 2 {
		t.Errorf("final snapshot has %d clusters, want 2", final.NumClusters())
	}
}

func TestPromotionDemotionDeletion(t *testing.T) {
	// Phase 1: points around (0,0) for 2 seconds. Phase 2: points
	// around (20,20) for 4 seconds. The first cluster must decay, be
	// demoted and eventually deleted.
	rate := 1000.0
	var pts []stream.Point
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6000; i++ {
		ts := float64(i) / rate
		center := []float64{0, 0}
		label := 0
		if ts >= 2.0 {
			center = []float64{20, 20}
			label = 1
		}
		pts = append(pts, stream.Point{
			ID:     int64(i),
			Vector: []float64{center[0] + rng.NormFloat64()*0.4, center[1] + rng.NormFloat64()*0.4},
			Label:  label,
			Time:   ts,
		})
	}
	e, err := New(Config{Radius: 0.6, Tau: 2, InitPoints: 300, SweepInterval: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, pts)
	stats := e.Stats()
	if stats.Promotions == 0 {
		t.Error("no cells were ever promoted into the DP-Tree")
	}
	if stats.Demotions == 0 {
		t.Error("no cells were ever demoted to the reservoir")
	}
	if stats.Deletions == 0 {
		t.Error("no outdated cells were ever deleted")
	}
	snap := e.Snapshot()
	if snap.NumClusters() != 1 {
		t.Fatalf("final snapshot has %d clusters, want only the recent one", snap.NumClusters())
	}
	peak := snap.Clusters[0].SeedPoints[0]
	if distance.Euclid(peak.Vector, []float64{20, 20}) > 5 {
		t.Errorf("final cluster is not the recent one (seed %v)", peak.Vector)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReservoirStaysWithinBound(t *testing.T) {
	// A stream with a substantial fraction of scattered noise keeps
	// creating outlier cells; the reservoir must stay within the
	// theoretical bound of Sec. 4.4.
	rng := rand.New(rand.NewSource(5))
	rate := 1000.0
	var pts []stream.Point
	for i := 0; i < 8000; i++ {
		ts := float64(i) / rate
		var vec []float64
		label := 0
		if rng.Float64() < 0.3 {
			vec = []float64{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
			label = stream.NoLabel
		} else {
			vec = []float64{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5}
		}
		pts = append(pts, stream.Point{ID: int64(i), Vector: vec, Label: label, Time: ts})
	}
	e, err := New(Config{Radius: 0.8, Tau: 3, InitPoints: 300, SweepInterval: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	bound := e.ReservoirBound()
	if bound <= 0 {
		t.Fatalf("ReservoirBound = %v", bound)
	}
	maxSeen := 0
	for i, p := range pts {
		if err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
		if i%200 == 0 {
			if n := e.Stats().InactiveCells; n > maxSeen {
				maxSeen = n
			}
		}
	}
	if float64(maxSeen) > bound {
		t.Errorf("reservoir size %d exceeded the theoretical bound %v", maxSeen, bound)
	}
	if e.Stats().Deletions == 0 {
		t.Error("expected outdated outlier cells to be deleted")
	}
}

func TestTextStreamClustering(t *testing.T) {
	// Two clearly separated topics with Jaccard distance.
	rng := rand.New(rand.NewSource(6))
	topics := [][]string{
		{"google", "android", "wearable", "sdk", "watch"},
		{"apple", "iphone", "patent", "court", "samsung"},
	}
	var pts []stream.Point
	for i := 0; i < 3000; i++ {
		k := i % 2
		doc := distance.NewTokenSet(topics[k][0], topics[k][1])
		for j := 0; j < 3; j++ {
			doc.Add(topics[k][rng.Intn(len(topics[k]))])
		}
		pts = append(pts, stream.Point{ID: int64(i), Tokens: doc, Label: k, Time: float64(i) / 1000})
	}
	e, err := New(Config{Radius: 0.4, Tau: 0.8, InitPoints: 200})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, pts)
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.NumClusters() != 2 {
		t.Fatalf("text stream produced %d clusters, want 2", snap.NumClusters())
	}
	// Each cluster's seeds must be dominated by one topic's tokens.
	for _, c := range snap.Clusters {
		var googleish, appleish int
		for _, seed := range c.SeedPoints {
			if seed.Tokens.Contains("google") || seed.Tokens.Contains("android") {
				googleish++
			}
			if seed.Tokens.Contains("apple") || seed.Tokens.Contains("iphone") {
				appleish++
			}
		}
		if googleish > 0 && appleish > 0 {
			t.Errorf("cluster %d mixes both topics (%d google-ish, %d apple-ish seeds)", c.ID, googleish, appleish)
		}
	}
}

func TestAdaptiveTauInitialization(t *testing.T) {
	pts := blobStream([][]float64{{0, 0}, {8, 0}}, 0.5, 3000, 1000, 8)
	e, err := New(Config{Radius: 0.8, AdaptiveTau: true, InitPoints: 400})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, pts)
	snap := e.Snapshot()
	if !(e.Alpha() > 0 && e.Alpha() < 1) {
		t.Errorf("alpha = %v, want a fitted value in (0,1)", e.Alpha())
	}
	if e.Tau() <= 0 {
		t.Errorf("tau = %v, want positive", e.Tau())
	}
	if snap.Tau != e.Tau() {
		t.Errorf("snapshot tau %v != current tau %v", snap.Tau, e.Tau())
	}
	if snap.NumClusters() != 2 {
		t.Errorf("adaptive tau produced %d clusters, want 2", snap.NumClusters())
	}
	// The decision graph is available and contains the active cells.
	graph := e.DecisionGraph()
	if len(graph) != snap.ActiveCells {
		t.Errorf("decision graph has %d entries, active cells %d", len(graph), snap.ActiveCells)
	}
	roots := 0
	for _, dp := range graph {
		if math.IsInf(dp.Delta, 1) {
			roots++
		}
		if dp.Rho <= 0 {
			t.Errorf("decision point with non-positive density: %+v", dp)
		}
	}
	if roots != 1 {
		t.Errorf("decision graph has %d roots, want exactly 1", roots)
	}
}

func TestInsertErrors(t *testing.T) {
	e, err := New(Config{Radius: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(stream.Point{}); err == nil {
		t.Error("point without vector or tokens should be rejected")
	}
	if err := e.Insert(stream.Point{Vector: []float64{math.NaN()}}); err == nil {
		t.Error("NaN point should be rejected")
	}
	if got := e.Stats().Points; got != 0 {
		t.Errorf("rejected points must not be counted, got %d", got)
	}
}

// TestVectorDimensionality pins the stream's fixed vector width: the
// first numeric point fixes it, a vector of another width is rejected
// by every insert path with no state change (never a panic or a silent
// accept), token-set points stay legal beside vectors, a checkpoint
// restores the width it stores (one from an older build without it
// re-derives the width from its seeds), and Assign answers a probe of
// another width as an outlier.
func TestVectorDimensionality(t *testing.T) {
	cfg := Config{Radius: 0.8, Tau: 3, InitPoints: 100}
	trained := func(t *testing.T) *EDMStream {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, e, blobStream([][]float64{{0, 0}, {10, 10}}, 0.5, 600, 1000, 1))
		e.Snapshot()
		return e
	}
	fresh := func(t *testing.T) *EDMStream {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	vec := func(v ...float64) stream.Point { return stream.Point{Vector: v, Time: 1} }
	text := stream.Point{Tokens: distance.NewTokenSet("a", "b"), Time: 1}
	// reencode rewrites e's checkpoint state with fault and decodes it.
	reencode := func(t *testing.T, e *EDMStream, fault func(*ckptState)) (*EDMStream, error) {
		var buf bytes.Buffer
		if err := e.EncodeCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		var st ckptState
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[20:])).Decode(&st); err != nil {
			t.Fatal(err)
		}
		fault(&st)
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(&st); err != nil {
			t.Fatal(err)
		}
		img, _ := engineImage(append(buf.Bytes()[:20:20], body.Bytes()...))
		return DecodeCheckpoint(cfg, bytes.NewReader(img))
	}
	for _, tc := range []struct {
		name  string
		start func(*testing.T) *EDMStream
		run   func(*testing.T, *EDMStream) error
		want  string // error substring; "" for success
	}{
		{"insert-wider", trained, func(_ *testing.T, e *EDMStream) error {
			return e.Insert(vec(0, 0, 0))
		}, "3-d vector on a 2-d stream"},
		{"insert-narrower", trained, func(_ *testing.T, e *EDMStream) error {
			return e.Insert(vec(0))
		}, "1-d vector on a 2-d stream"},
		{"insert-tokens-beside-vectors", trained, func(_ *testing.T, e *EDMStream) error {
			return e.Insert(text)
		}, ""},
		{"batch-mismatch-last", trained, func(_ *testing.T, e *EDMStream) error {
			return e.InsertBatch([]stream.Point{vec(0, 0), text, vec(0)})
		}, "point 2 of 3 rejected: 1-d vector"},
		{"batch-assigned-mismatch", trained, func(t *testing.T, e *EDMStream) error {
			acks, err := e.InsertBatchAssigned([]stream.Point{vec(0, 0), vec(1, 2, 3)}, make([]int64, 4))
			if len(acks) != 0 {
				t.Errorf("rejected batch acked %d points", len(acks))
			}
			return err
		}, "point 1 of 2 rejected: 3-d vector"},
		{"fresh-batch-first-vector-fixes", fresh, func(_ *testing.T, e *EDMStream) error {
			return e.InsertBatch([]stream.Point{text, vec(1, 2, 3), vec(1, 2)})
		}, "2-d vector on a 3-d stream"},
		{"fresh-rejected-batch-fixes-nothing", fresh, func(_ *testing.T, e *EDMStream) error {
			if err := e.InsertBatch([]stream.Point{vec(1, 2), vec(1)}); err == nil {
				return errors.New("mixed batch accepted")
			}
			return e.InsertBatch([]stream.Point{text, vec(1, 2, 3), vec(4, 5, 6)})
		}, ""},
		{"restore-keeps-width", trained, func(t *testing.T, e *EDMStream) error {
			r, err := reencode(t, e, func(*ckptState) {})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			return r.Insert(vec(0, 0, 0))
		}, "3-d vector on a 2-d stream"},
		{"restore-rederives", trained, func(t *testing.T, e *EDMStream) error {
			r, err := reencode(t, e, func(st *ckptState) { st.SeedWidth = 0 })
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			return r.Insert(vec(0, 0, 0))
		}, "3-d vector on a 2-d stream"},
		{"restore-seeds-wider-than-width", trained, func(t *testing.T, e *EDMStream) error {
			_, err := reencode(t, e, func(st *ckptState) { st.SeedWidth = 2 })
			return err
		}, "2-d seed on a 1-d stream"},
		{"restore-negative-width", trained, func(t *testing.T, e *EDMStream) error {
			_, err := reencode(t, e, func(st *ckptState) { st.SeedWidth = -1 })
			return err
		}, "seed width -2"},
		{"restore-mismatched-seed", trained, func(t *testing.T, e *EDMStream) error {
			_, err := reencode(t, e, func(st *ckptState) {
				last := &st.Cells[len(st.Cells)-1].Seed
				last.Vector = append(last.Vector, 0)
			})
			return err
		}, "3-d seed on a 2-d stream"},
		{"assign-outlier", trained, func(_ *testing.T, e *EDMStream) error {
			if id, ok := e.Assign(vec(0, 0)); !ok {
				return fmt.Errorf("in-cluster probe unassigned (%d)", id)
			}
			for _, p := range []stream.Point{vec(0), vec(0, 0, 0)} {
				if id, ok := e.Assign(p); ok {
					return fmt.Errorf("%d-d probe assigned to cluster %d", p.Dim(), id)
				}
			}
			got := e.AssignBatch([]stream.Point{vec(0), vec(0, 0, 0), text}, nil)
			if !slices.Equal(got, []int{AssignOutlier, AssignOutlier, AssignOutlier}) {
				return fmt.Errorf("AssignBatch of mismatched probes = %v, want all outliers", got)
			}
			return nil
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.start(t)
			var before bytes.Buffer
			if err := e.EncodeCheckpoint(&before); err != nil {
				t.Fatal(err)
			}
			err := tc.run(t, e)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("got %v, want success", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
			var after bytes.Buffer
			if err := e.EncodeCheckpoint(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Error("a rejected call changed the engine state")
			}
		})
	}
}

func TestSnapshotBeforeAndAfterInit(t *testing.T) {
	pts := blobStream([][]float64{{0, 0}}, 0.3, 100, 1000, 9)
	e, err := New(Config{Radius: 0.5, Tau: 1, InitPoints: 10000})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot before any point: empty but well-formed.
	empty := e.Snapshot()
	if empty.NumClusters() != 0 {
		t.Errorf("empty snapshot has %d clusters", empty.NumClusters())
	}
	feed(t, e, pts)
	// InitPoints was never reached, but Snapshot forces initialization.
	snap := e.Snapshot()
	if snap.ActiveCells == 0 {
		t.Error("forced initialization produced no active cells")
	}
	if snap.NumClusters() == 0 {
		t.Error("forced initialization produced no clusters")
	}
	if e.Name() != "EDMStream" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestClusterersInterfaceCompliance(t *testing.T) {
	var _ stream.Clusterer = (*EDMStream)(nil)
}

func TestOutOfOrderTimestamps(t *testing.T) {
	// A point whose timestamp is older than the current stream time
	// must not move the clock backwards or corrupt densities.
	e, err := New(Config{Radius: 1, Tau: 2, InitPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		ts := float64(i) / 1000
		if i%50 == 0 && i > 0 {
			ts = float64(i-40) / 1000 // occasionally stale timestamp
		}
		p := stream.Point{ID: int64(i), Vector: []float64{rng.NormFloat64(), rng.NormFloat64()}, Time: ts}
		if err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if e.Now() < 1.9 {
		t.Errorf("stream clock went backwards: now = %v", e.Now())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateAndIdenticalPoints(t *testing.T) {
	// A stream of identical points must produce exactly one cell and
	// one cluster, never NaNs or panics.
	e, err := New(Config{Radius: 0.5, Tau: 1, InitPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := stream.Point{ID: int64(i), Vector: []float64{1, 1}, Time: float64(i) / 1000}
		if err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Snapshot()
	if snap.ActiveCells != 1 {
		t.Errorf("identical points created %d active cells, want 1", snap.ActiveCells)
	}
	if snap.NumClusters() != 1 {
		t.Errorf("identical points produced %d clusters, want 1", snap.NumClusters())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	pts := blobStream([][]float64{{0, 0}, {5, 5}}, 0.5, 2000, 1000, 12)
	e, err := New(Config{Radius: 0.7, Tau: 2, InitPoints: 200, DetailedStats: true})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, e, pts)
	s := e.Stats()
	if s.Points != int64(len(pts)) {
		t.Errorf("Points = %d, want %d", s.Points, len(pts))
	}
	if s.CellsCreated == 0 || s.ActiveCells == 0 {
		t.Errorf("cell accounting broken: %+v", s)
	}
	if s.DependencyCandidates == 0 {
		t.Error("no dependency candidates were ever examined")
	}
	if s.FilteredByDensity == 0 {
		t.Error("density filter never fired on a clustered stream")
	}
	if s.AssignTime <= 0 || s.DependencyUpdateTime < 0 {
		t.Errorf("timing counters broken: %+v", s)
	}
	if s.ActiveCells+s.InactiveCells != int(s.CellsCreated)-int(s.Deletions) {
		t.Errorf("cell bookkeeping mismatch: %+v", s)
	}
}
