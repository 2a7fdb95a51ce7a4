package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/densitymountain/edmstream/internal/distance"
	"github.com/densitymountain/edmstream/internal/stream"
)

// roundTrip encodes e into a checkpoint and decodes it into a fresh
// engine under the same configuration.
func roundTrip(t *testing.T, e *EDMStream) *EDMStream {
	t.Helper()
	var buf bytes.Buffer
	if err := e.EncodeCheckpoint(&buf); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	restored, err := DecodeCheckpoint(e.Config(), &buf)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	return restored
}

// checkpointRun is batchRun with a checkpoint+restore inserted after
// every batch whose last point index `end` satisfies cut: the engine is
// serialized, thrown away, rebuilt from the checkpoint and fed the
// remainder of the stream. Its output must be byte-identical to an
// uninterrupted run.
func checkpointRun(t *testing.T, cfg Config, pts []stream.Point, batchSize, snapEvery int, cut func(end int) bool) (*EDMStream, []Snapshot) {
	t.Helper()
	if snapEvery%batchSize != 0 {
		t.Fatalf("snapEvery %d must be a multiple of batchSize %d", snapEvery, batchSize)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%v): %v", cfg.IndexPolicy, err)
	}
	var snaps []Snapshot
	for i := 0; i < len(pts); i += batchSize {
		end := i + batchSize
		if end > len(pts) {
			end = len(pts)
		}
		if err := e.InsertBatch(pts[i:end]); err != nil {
			t.Fatalf("InsertBatch(points %d:%d): %v", i, end, err)
		}
		if end%snapEvery == 0 {
			snaps = append(snaps, e.Snapshot())
		}
		if cut(end) {
			e = roundTrip(t, e)
			if err := checkNearestDependencies(e, numericOnly(e)); err != nil {
				t.Fatalf("restored after point %d: %v", end, err)
			}
		} else if err := checkOracleAt(e, i, end); err != nil {
			t.Fatalf("after point %d: %v", end, err)
		}
	}
	snaps = append(snaps, e.Snapshot())
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return e, snaps
}

// TestCheckpointReplayEquivalence is the durability property test: for
// random streams, batch sizes, both index policies and both τ modes, a
// run interrupted by checkpoint+restore must be byte-identical to an
// uninterrupted run — same snapshots (cluster IDs, peaks, members,
// weights), same cells, same evolution events, same statistics and
// same τ. The cut points cover the initialization phase (the engine is
// checkpointed before the DP-Tree exists), steady state, and every
// batch. The lattice stream under the default configuration demotes
// and deletes cluster peaks between refreshes, so checkpointing after
// every batch lands in that window many times.
func TestCheckpointReplayEquivalence(t *testing.T) {
	streams := map[string][]stream.Point{
		"bursty":  burstyStream(7, 3000, 3, 0.15),
		"shuffed": burstyStream(42, 2500, 4, 0.3),
		"lattice": latticeStream(1, 3200, 20),
	}
	cfgs := map[string]Config{
		"static": {
			Radius: 0.8, Tau: 2.5, InitPoints: 200,
			EvolutionInterval: 0.25, SweepInterval: 0.2,
		},
		"adaptive": {
			Radius: 0.8, AdaptiveTau: true, Tau: 2.5, InitPoints: 200,
			EvolutionInterval: 0.25, SweepInterval: 0.2,
		},
		"default": {Radius: 1, Rate: 1000},
	}
	batchSizes := []int{25, 250}
	const snapEvery = 500

	for sname, pts := range streams {
		for cname, cfg := range cfgs {
			for _, policy := range []IndexPolicy{IndexGrid, IndexLinear} {
				cfg := cfg
				cfg.IndexPolicy = policy
				for _, bs := range batchSizes {
					ref, refSnaps := batchRun(t, cfg, pts, bs, snapEvery)
					// 2·bs lands inside the initialization phase for
					// the small batch size (before InitPoints have
					// arrived); 1500 is steady state for both.
					cuts := map[string]func(int) bool{
						fmt.Sprintf("cut%d", 2*bs): func(end int) bool { return end == 2*bs },
						"cut1500":                  func(end int) bool { return end == 1500 },
						"every":                    func(int) bool { return true },
					}
					for cutName, cut := range cuts {
						name := fmt.Sprintf("%s/%s/%s/bs%d/%s", sname, cname, policy, bs, cutName)
						t.Run(name, func(t *testing.T) {
							ck, ckSnaps := checkpointRun(t, cfg, pts, bs, snapEvery, cut)
							compareSnapshots(t, ckSnaps, refSnaps)
							compareCells(t, ck, ref)
							compareEvents(t, ck.Events(), ref.Events())
							if cs, rs := ck.Stats(), ref.Stats(); cs != rs {
								t.Fatalf("stats differ:\n  checkpointed %+v\n  reference    %+v", cs, rs)
							}
							if ck.Tau() != ref.Tau() || ck.Alpha() != ref.Alpha() {
								t.Fatalf("τ/α differ: checkpointed (%v, %v), reference (%v, %v)",
									ck.Tau(), ck.Alpha(), ref.Tau(), ref.Alpha())
							}
							if ck.Now() != ref.Now() {
								t.Fatalf("stream clock differs: checkpointed %v, reference %v", ck.Now(), ref.Now())
							}
						})
					}
				}
			}
		}
	}
}

// latticeStream generates a 2-D stream over a sites×sites lattice of
// sites 4 apart, each with a random weight, in bursts of 2–6 points per
// site plus 0.5% uniform noise, at 1000 points per stream-second. With
// a cell radius of 1 every site is its own cell, and the light sites
// lead small clusters that decay, are demoted and expire between
// clustering refreshes.
func latticeStream(seed int64, n, sites int) []stream.Point {
	const spacing = 4.0
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, sites*sites)
	total := 0.0
	for i := range cum {
		total += 1 + 20*rng.Float64()
		cum[i] = total
	}
	span := float64(sites) * spacing
	pts := make([]stream.Point, 0, n)
	emit := func(x, y float64) {
		pts = append(pts, stream.Point{
			ID: int64(len(pts)), Vector: []float64{x, y}, Time: float64(len(pts)) / 1000, Label: stream.NoLabel,
		})
	}
	for len(pts) < n {
		if rng.Float64() < 0.005 {
			emit(rng.Float64()*span, rng.Float64()*span)
			continue
		}
		s := sort.SearchFloat64s(cum, rng.Float64()*total)
		x, y := float64(s/sites)*spacing, float64(s%sites)*spacing
		for b := 2 + rng.Intn(5); b > 0 && len(pts) < n; b-- {
			emit(x+rng.NormFloat64()*0.25, y+rng.NormFloat64()*0.25)
		}
	}
	return pts
}

// TestCheckpointDeterministicBytes asserts the encoding itself is
// deterministic: encoding, decoding and re-encoding yields the exact
// same bytes. The WAL layer relies on this — a recovered engine's next
// checkpoint must not differ just because it went through a restore.
func TestCheckpointDeterministicBytes(t *testing.T) {
	pts := burstyStream(11, 2000, 3, 0.2)
	cfg := Config{Radius: 0.8, AdaptiveTau: true, Tau: 2.5, InitPoints: 200,
		EvolutionInterval: 0.25, SweepInterval: 0.2}
	e, _ := batchRun(t, cfg, pts, 100, 1000)

	var first bytes.Buffer
	if err := e.EncodeCheckpoint(&first); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	restored, err := DecodeCheckpoint(e.Config(), bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	var second bytes.Buffer
	if err := restored.EncodeCheckpoint(&second); err != nil {
		t.Fatalf("re-EncodeCheckpoint: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("checkpoint bytes differ after a decode/encode round trip (%d vs %d bytes)",
			first.Len(), second.Len())
	}
}

// TestCheckpointPublishedState asserts the read-side state survives a
// restore verbatim: the published snapshot (weights were normalized at
// refresh time and cannot be recomputed later), the event log with its
// cursor arithmetic, and the mirrored statistics.
func TestCheckpointPublishedState(t *testing.T) {
	pts := burstyStream(3, 2200, 3, 0.2)
	cfg := Config{Radius: 0.8, Tau: 2.5, InitPoints: 200, MaxEvents: 8,
		EvolutionInterval: 0.25, SweepInterval: 0.2}
	e, _ := batchRun(t, cfg, pts, 100, 1100)
	restored := roundTrip(t, e)

	a, b := e.LastSnapshot(), restored.LastSnapshot()
	compareSnapshots(t, []Snapshot{a}, []Snapshot{b})
	for i := range a.Clusters {
		if a.Clusters[i].PeakDensity != b.Clusters[i].PeakDensity {
			t.Fatalf("cluster %d peak density differs: %v vs %v",
				i, a.Clusters[i].PeakDensity, b.Clusters[i].PeakDensity)
		}
	}

	// Event cursors must agree even when MaxEvents trimmed the log.
	ea, ca := e.EventsSince(0)
	eb, cb := restored.EventsSince(0)
	if ca != cb {
		t.Fatalf("event cursors differ: %d vs %d", ca, cb)
	}
	compareEvents(t, ea, eb)
	if sa, sb := e.Stats(), restored.Stats(); sa != sb {
		t.Fatalf("published stats differ:\n  original %+v\n  restored %+v", sa, sb)
	}
}

// TestCheckpointTokenStream exercises the token-set seed codec: text
// points carry map-backed token sets that must round-trip through the
// checkpoint's sorted-slice encoding.
func TestCheckpointTokenStream(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	pts := make([]stream.Point, 1200)
	for i := range pts {
		toks := distance.NewTokenSet(vocab[rng.Intn(4)], vocab[4+rng.Intn(4)], vocab[rng.Intn(8)])
		pts[i] = stream.Point{ID: int64(i), Tokens: toks, Label: stream.NoLabel, Time: float64(i) / 1000}
	}
	cfg := Config{Radius: 0.6, Tau: 0.9, InitPoints: 100,
		EvolutionInterval: 0.25, SweepInterval: 0.2}

	ref, refSnaps := batchRun(t, cfg, pts, 50, 600)
	ck, ckSnaps := checkpointRun(t, cfg, pts, 50, 600, func(end int) bool { return end == 600 })
	compareSnapshots(t, ckSnaps, refSnaps)
	compareCells(t, ck, ref)
	compareEvents(t, ck.Events(), ref.Events())
}

// TestCheckpointConfigMismatch asserts a checkpoint refuses to restore
// under a different configuration instead of silently diverging.
func TestCheckpointConfigMismatch(t *testing.T) {
	pts := burstyStream(9, 800, 2, 0.2)
	cfg := Config{Radius: 0.8, Tau: 2.5, InitPoints: 200,
		EvolutionInterval: 0.25, SweepInterval: 0.2}
	e, _ := batchRun(t, cfg, pts, 100, 400)

	var buf bytes.Buffer
	if err := e.EncodeCheckpoint(&buf); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	other := cfg
	other.Radius = 0.9
	if _, err := DecodeCheckpoint(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("DecodeCheckpoint accepted a checkpoint written under a different radius")
	}
}

// TestCheckpointCorruption asserts a flipped payload byte is caught by
// the CRC and a truncated checkpoint is caught by the length prefix —
// recovery must never build an engine from damaged state.
func TestCheckpointCorruption(t *testing.T) {
	pts := burstyStream(13, 800, 2, 0.2)
	cfg := Config{Radius: 0.8, Tau: 2.5, InitPoints: 200,
		EvolutionInterval: 0.25, SweepInterval: 0.2}
	e, _ := batchRun(t, cfg, pts, 100, 400)

	var buf bytes.Buffer
	if err := e.EncodeCheckpoint(&buf); err != nil {
		t.Fatalf("EncodeCheckpoint: %v", err)
	}
	raw := buf.Bytes()

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := DecodeCheckpoint(cfg, bytes.NewReader(flipped)); err == nil {
		t.Fatal("DecodeCheckpoint accepted a corrupted payload")
	}

	for _, cut := range []int{4, 19, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeCheckpoint(cfg, bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("DecodeCheckpoint accepted a checkpoint truncated to %d bytes", cut)
		}
	}
}

// TestCheckpointRejectsInconsistentState re-encodes a real
// checkpoint's state with one structural fault at a time, with a valid
// CRC, and requires DecodeCheckpoint to refuse it. A dependency cycle
// among strong links would otherwise hang peakOf on the first
// extraction after recovery.
func TestCheckpointRejectsInconsistentState(t *testing.T) {
	pts := burstyStream(13, 800, 2, 0.2)
	cfg := Config{Radius: 0.8, Tau: 2.5, InitPoints: 200,
		EvolutionInterval: 0.25, SweepInterval: 0.2}
	e, _ := batchRun(t, cfg, pts, 100, 400)
	var buf bytes.Buffer
	if err := e.EncodeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[20:]
	decode := func() *ckptState {
		var st ckptState
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return &st
	}

	// A child c whose dependency d is not the root, and an active cell
	// ranked below c that is not c's dependency.
	st := decode()
	at := map[int64]int{}
	for i, cc := range st.Cells {
		at[cc.ID] = i
	}
	density := func(id int64) float64 {
		cc := st.Cells[at[id]]
		return e.cfg.Decay.Scale(cc.Rho, st.Now, cc.RhoTime)
	}
	c, d, low := -1, -1, int64(-1)
	for i, cc := range st.Cells {
		if cc.DepID >= 0 && st.Cells[at[cc.DepID]].DepID >= 0 {
			c, d = i, at[cc.DepID]
			break
		}
	}
	if c < 0 {
		t.Fatal("no two-level dependency chain in the checkpoint")
	}
	for _, id := range st.ActiveIDs {
		if density(id) < density(st.Cells[c].ID) {
			low = id
			break
		}
	}
	if low < 0 {
		t.Fatal("no active cell ranked below the child")
	}
	cID, dID := st.Cells[c].ID, st.Cells[d].ID

	for _, tc := range []struct {
		name, want string
		fault      func(st *ckptState)
	}{
		{"no-fault", "", func(*ckptState) {}},
		{"repeated-active-id", "repeats cell", func(st *ckptState) {
			st.ActiveIDs = append(st.ActiveIDs, st.ActiveIDs[0])
		}},
		{"strong-cycle", "does not outrank", func(st *ckptState) {
			st.Cells[d].DepID, st.Cells[d].Delta = cID, st.Cells[c].Delta
			st.Cells[c].ChildIDs = append(st.Cells[c].ChildIDs, dID)
		}},
		{"dependency-ranked-below", "does not outrank", func(st *ckptState) {
			st.Cells[c].DepID = low
		}},
		{"child-of-another-cell", "does not depend on it", func(st *ckptState) {
			st.Cells[at[low]].ChildIDs = append(st.Cells[at[low]].ChildIDs, cID)
		}},
		{"child-listed-twice", "does not depend on it once", func(st *ckptState) {
			st.Cells[d].ChildIDs = append(st.Cells[d].ChildIDs, cID)
		}},
		{"child-unlisted", "missing from their cells' child lists", func(st *ckptState) {
			kids := st.Cells[d].ChildIDs
			for i, id := range kids {
				if id == cID {
					st.Cells[d].ChildIDs = append(kids[:i:i], kids[i+1:]...)
					break
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := decode()
			tc.fault(st)
			var body bytes.Buffer
			if err := gob.NewEncoder(&body).Encode(st); err != nil {
				t.Fatal(err)
			}
			img, _ := engineImage(append(append([]byte(nil), buf.Bytes()[:20]...), body.Bytes()...))
			_, err := DecodeCheckpoint(cfg, bytes.NewReader(img))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("the re-encoded checkpoint does not decode: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeCheckpoint = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
