package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWALSmoke runs the SIGKILL / restart / byte-identical-recovery
// drill against a child process at a small scale. Every contract
// violation is an error from RunWAL, so most of the assertion weight
// is inside the drill itself.
func TestRunWALSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning durability experiment in -short mode")
	}
	s := Scale{Points: 2048, Seed: 1, Rate: 1000}
	rep, err := RunWAL(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-wal/v2" {
		t.Errorf("schema = %q", rep.Schema)
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
