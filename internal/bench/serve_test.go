package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/densitymountain/edmstream"
)

// TestRunServeSmall smoke-tests the serving experiment at a small
// scale: both refresh modes must run the same number of refreshes and
// agree on the clustering (RunServe errors otherwise), the concurrent
// phase must issue queries that hit clusters, and steady-state queries
// must be allocation-free. Absolute speedups are machine-dependent and
// documented by the committed BENCH_serve.json artifact, not asserted
// here.
func TestRunServeSmall(t *testing.T) {
	s := SmallScale()
	rep, err := RunServe(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-serve/v2" {
		t.Errorf("schema = %q", rep.Schema)
	}
	for _, r := range []ServeRefreshResult{rep.Incremental, rep.Full} {
		if r.Refreshes < 5 || r.MeanNanos <= 0 {
			t.Errorf("%s: degenerate refresh measurement: %+v", r.Mode, r)
		}
		if r.ActiveCells == 0 || r.Clusters == 0 {
			t.Errorf("%s: degenerate clustering: %+v", r.Mode, r)
		}
	}
	if rep.RefreshSpeedup <= 0 {
		t.Errorf("refresh speedup = %v", rep.RefreshSpeedup)
	}
	if rep.Readers != ServeReaders {
		t.Errorf("readers = %d, want %d", rep.Readers, ServeReaders)
	}
	if rep.Queries <= 0 || rep.QueriesPerSec <= 0 {
		t.Errorf("no queries measured: %+v", rep)
	}
	// In-distribution probes are drawn like the workload's cluster
	// bursts, so on a steady-state engine they should essentially
	// always land in a cluster; the committed artifact documents the
	// full-scale value (≥ 0.999). The bound here is looser only
	// because the smoke scale warms fewer refresh cycles.
	if rep.HitRate < 0.99 || rep.HitRate > 1 {
		t.Errorf("in-distribution hit rate = %v, want ≥ 0.99", rep.HitRate)
	}
	if rep.NoiseQueries > 0 && (rep.NoiseHitRate < 0 || rep.NoiseHitRate > 1) {
		t.Errorf("noise hit rate = %v", rep.NoiseHitRate)
	}
	if rep.AllocsPerQuery > 0.01 {
		t.Errorf("Assign allocates %.4f per query, want ~0", rep.AllocsPerQuery)
	}
	if rep.WriterPointsPerSec <= 0 {
		t.Errorf("writer made no progress while serving")
	}
}

// TestWriteServeJSON checks the artifact writer round-trips.
func TestWriteServeJSON(t *testing.T) {
	rep := ServeReport{Schema: "edmstream-serve/v2", Readers: ServeReaders}
	path := t.TempDir() + "/BENCH_serve.json"
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ServeReport
	if err := json.Unmarshal(raw, &back); err != nil || back != rep {
		t.Fatalf("artifact round-trip: %+v, %v", back, err)
	}
}

// TestServeStreamCheckpointEveryBatch is the checkpoint regression on
// the serving workload under default options: after every 128-point
// batch the engine is checkpointed, thrown away and restored, and it
// must keep matching an uninterrupted engine — the same published
// snapshot, evolution events, τ and statistics after every batch, and
// the same refreshed snapshot at the end. The stream demotes and
// deletes cluster peaks between clustering refreshes, so many
// checkpoints are written while a cluster's peak is already gone.
func TestServeStreamCheckpointEveryBatch(t *testing.T) {
	const (
		points = 6400
		batch  = 128
	)
	opts := edmstream.Options{Radius: 1, Rate: 1000}
	// stats drops the wall-clock timers, the only fields that differ
	// between two runs of the same stream.
	stats := func(c *edmstream.Clusterer) edmstream.Stats {
		st := c.Stats()
		st.DependencyUpdateTime, st.AssignTime = 0, 0
		return st
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pts := ServeStream(points, seed, opts.Rate)
			ref, err := edmstream.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			ck, err := edmstream.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for b := 0; b*batch < len(pts); b++ {
				part := pts[b*batch : min((b+1)*batch, len(pts))]
				if err := ref.InsertBatch(part); err != nil {
					t.Fatal(err)
				}
				if err := ck.InsertBatch(part); err != nil {
					t.Fatal(err)
				}
				switch {
				case !reflect.DeepEqual(ck.LastSnapshot(), ref.LastSnapshot()):
					t.Fatalf("batch %d: published snapshot differs from the uninterrupted run", b)
				case !reflect.DeepEqual(ck.Events(), ref.Events()):
					t.Fatalf("batch %d: evolution events differ from the uninterrupted run", b)
				case ck.Tau() != ref.Tau():
					t.Fatalf("batch %d: τ %v, uninterrupted %v", b, ck.Tau(), ref.Tau())
				case stats(ck) != stats(ref):
					t.Fatalf("batch %d: stats differ:\n  restored      %+v\n  uninterrupted %+v", b, stats(ck), stats(ref))
				}
				buf.Reset()
				if err := ck.WriteCheckpoint(&buf); err != nil {
					t.Fatal(err)
				}
				if ck, err = edmstream.New(opts); err != nil {
					t.Fatal(err)
				}
				if err := ck.RestoreCheckpoint(&buf); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
			if !reflect.DeepEqual(ck.Snapshot(), ref.Snapshot()) {
				t.Fatal("final snapshot differs from the uninterrupted run")
			}
		})
	}
}
