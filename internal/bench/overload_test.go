package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunOverloadSmoke runs the full overload chaos drill: a child
// server on an injected slow disk driven at 4x capacity, a mid-run
// disk death and recovery, a graceful drain, and an exact
// acked-vs-recovered ledger check against a restarted child. Every
// contract violation is an error from RunOverload, so most of the
// assertion weight lives inside the drill.
func TestRunOverloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning overload drill in -short mode")
	}
	rep, err := RunOverload(Scale{Points: 2048, Seed: 1, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-overload/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.CapacityPointsPerSec <= 0 || rep.GoodputPointsPerSec <= 0 {
		t.Errorf("throughput not measured: capacity=%g goodput=%g", rep.CapacityPointsPerSec, rep.GoodputPointsPerSec)
	}
	if rep.OverloadFactor < 4 {
		t.Errorf("overload factor %.2f < 4", rep.OverloadFactor)
	}
	if rep.Shed429 == 0 || rep.Shed503 == 0 {
		t.Errorf("shed mix incomplete: %d x 429, %d x 503", rep.Shed429, rep.Shed503)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Errorf("shed rate %.3f not in (0,1)", rep.ShedRate)
	}
	if rep.AcceptedP99Micros < rep.AcceptedP50Micros || rep.AcceptedP50Micros <= 0 {
		t.Errorf("accepted latency quantiles inconsistent: p50=%g p99=%g", rep.AcceptedP50Micros, rep.AcceptedP99Micros)
	}
	if rep.DegradedSeconds <= 0 || rep.RecoverySeconds <= 0 {
		t.Errorf("degraded window not measured: degraded=%.3fs recovery=%.3fs", rep.DegradedSeconds, rep.RecoverySeconds)
	}
	if rep.DegradedEntered == 0 || rep.DegradedRecovered == 0 {
		t.Errorf("degraded transitions: entered=%d recovered=%d", rep.DegradedEntered, rep.DegradedRecovered)
	}
	if rep.RecoveredPoints != rep.TotalAckedPoints || rep.TotalAckedPoints == 0 {
		t.Errorf("ledger mismatch: acked=%d recovered=%d", rep.TotalAckedPoints, rep.RecoveredPoints)
	}
	if FormatOverload(rep) == "" {
		t.Error("empty formatted report")
	}

	path := filepath.Join(t.TempDir(), "BENCH_overload.json")
	if err := WriteJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back OverloadReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("artifact not round-trippable: %v", err)
	}
	if back.RecoveredPoints != rep.RecoveredPoints || back.Schema != rep.Schema {
		t.Errorf("artifact round-trip mismatch: %+v", back)
	}
}
