package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWALSmoke runs the full durability experiment at a small
// scale: both throughput modes against real WAL directories, then the
// SIGKILL / restart / byte-identical-recovery drill against a child
// process. Every contract violation is an error from RunWAL, so most
// of the assertion weight is inside the experiment itself.
func TestRunWALSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning durability experiment in -short mode")
	}
	s := Scale{Points: 2048, Seed: 1, Rate: 1000}
	rep, err := RunWAL(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-wal/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if len(rep.Throughput) != 2 {
		t.Fatalf("throughput modes = %d, want 2", len(rep.Throughput))
	}
	wantPts := int64(s.Points/drillBatch) * drillBatch
	for _, tr := range rep.Throughput {
		if tr.Points != wantPts {
			t.Errorf("%s ingested %d points, want %d", tr.Mode, tr.Points, wantPts)
		}
		if tr.PointsPerSec <= 0 || tr.WallSeconds <= 0 {
			t.Errorf("%s throughput not measured: %+v", tr.Mode, tr)
		}
		// Warm-up plus measurement, one record per flush at minimum
		// granularity: the WAL must have seen every point.
		if tr.WALRecords == 0 || tr.WALBytes == 0 {
			t.Errorf("%s WAL accounting empty: %+v", tr.Mode, tr)
		}
		if tr.Checkpoints == 0 {
			t.Errorf("%s took no checkpoints at cadence %d: %+v", tr.Mode, walCheckpointEvery, tr)
		}
	}
	if rep.Throughput[0].Mode != "fsync" || rep.Throughput[1].Mode != "nosync" {
		t.Errorf("mode order = %s, %s", rep.Throughput[0].Mode, rep.Throughput[1].Mode)
	}
	if rep.Throughput[0].FsyncP50Micros <= 0 {
		t.Errorf("fsync mode reports no fsync latency: %+v", rep.Throughput[0])
	}
	if rep.NoSyncSpeedup <= 0 {
		t.Errorf("nosync speedup = %g", rep.NoSyncSpeedup)
	}

	k := rep.Kill
	if k.AckedPoints == 0 {
		t.Error("kill drill acknowledged no points before the kill")
	}
	if k.RecoveredPoints < k.AckedPoints {
		t.Errorf("recovered %d < acked %d", k.RecoveredPoints, k.AckedPoints)
	}
	if k.RecoveredPoints%drillBatch != 0 {
		t.Errorf("recovered %d points: not whole batches", k.RecoveredPoints)
	}
	if !k.SnapshotIdentical {
		t.Error("recovered snapshot not verified byte-identical")
	}
	if !k.HasCheckpoint {
		t.Errorf("recovery used no checkpoint despite cadence %d over %d points", walCheckpointEvery, k.RecoveredPoints)
	}
	// ReplayedRecords is usually positive but legitimately zero when
	// the kill lands exactly on a checkpoint boundary — reported, not
	// asserted.
	if want := k.RecoveredPoints + 2*drillBatch; k.PostRestartPoints != want {
		t.Errorf("post-restart points = %d, want %d", k.PostRestartPoints, want)
	}
	if FormatWAL(rep) == "" {
		t.Error("empty formatted report")
	}

	path := filepath.Join(t.TempDir(), "BENCH_wal.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back WALReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("artifact not round-trippable: %v", err)
	}
	if back.Kill.RecoveredPoints != k.RecoveredPoints || back.Schema != rep.Schema {
		t.Errorf("artifact round-trip mismatch: %+v", back)
	}
}
