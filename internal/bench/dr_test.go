package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunDRSmoke runs the full disaster-recovery drill at a small
// scale: a durable child shipping to a fault-injected remote, a total
// outage that must not fail an ack, SIGKILL plus rm -rf of the data
// directory, and a restore-from-archive restart verified
// byte-identical. Every contract violation is an error from RunDR, so
// most of the assertion weight is inside the drill itself.
func TestRunDRSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning disaster drill in -short mode")
	}
	s := Scale{Points: 4096, Seed: 1, Rate: 1000}
	rep, err := RunDR(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-dr/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.AckedPoints == 0 || rep.OutageAckedPoints == 0 {
		t.Errorf("drill acked %d points (%d during the outage); both must be positive", rep.AckedPoints, rep.OutageAckedPoints)
	}
	if rep.ArchivedThroughSeq == 0 {
		t.Error("nothing was archived before the kill")
	}
	if rep.ArchiveFailed == 0 || rep.ArchiveRetried == 0 {
		t.Errorf("the flaky remote never forced a retry: failed=%d retried=%d", rep.ArchiveFailed, rep.ArchiveRetried)
	}
	if rep.CompressionRatio <= 0 || rep.CompressionRatio >= 1 {
		t.Errorf("compression ratio = %g, want in (0, 1)", rep.CompressionRatio)
	}
	if rep.RecoveredPoints == 0 || rep.RecoveredPoints%drillBatch != 0 {
		t.Errorf("recovered %d points: zero or not whole batches", rep.RecoveredPoints)
	}
	if rep.RestoreCheckpoints == 0 || rep.RestoreSegments == 0 {
		t.Errorf("restore downloaded %d checkpoints, %d segments; want both positive", rep.RestoreCheckpoints, rep.RestoreSegments)
	}
	if !rep.SnapshotIdentical {
		t.Error("restored snapshot not verified byte-identical")
	}
	if rep.RestartWallSeconds <= 0 || rep.RestartWallSeconds >= rep.RecoveryBudgetSeconds {
		t.Errorf("restart wall = %gs against a %gs budget", rep.RestartWallSeconds, rep.RecoveryBudgetSeconds)
	}
	if want := rep.RecoveredPoints + drLiveBatches*drillBatch; rep.PostRestartPoints != want {
		t.Errorf("post-restore points = %d, want %d", rep.PostRestartPoints, want)
	}
	if FormatDR(rep) == "" {
		t.Error("empty formatted report")
	}

	path := filepath.Join(t.TempDir(), "BENCH_recovery.json")
	if err := WriteDRJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back DRReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("artifact not round-trippable: %v", err)
	}
	if back.RecoveredPoints != rep.RecoveredPoints || back.Schema != rep.Schema {
		t.Errorf("artifact round-trip mismatch: %+v", back)
	}
}
