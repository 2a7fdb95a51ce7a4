package bench

import (
	"testing"
)

// TestRunTenantsSmoke runs the multi-tenant drill at its minimum
// scale: 32 streams under eviction churn, a SIGKILL mid-traffic, and a
// restart whose every stream must be byte-identical to a solo replay
// of its recovered prefix. Every contract violation is an error from
// RunTenants, so most of the assertion weight is inside the drill.
func TestRunTenantsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning tenancy drill in -short mode")
	}
	rep, err := RunTenants(Scale{Points: 6144, Seed: 1, Rate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "edmstream-tenancy/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.EvictionsBeforeKill == 0 {
		t.Error("no evictions before the kill")
	}
	if rep.RevivalsAfterRestart < uint64(tenantStreams) {
		t.Errorf("%d revivals for %d streams", rep.RevivalsAfterRestart, tenantStreams)
	}
	if rep.StreamsVerified != tenantStreams || len(rep.PerStream) != tenantStreams {
		t.Errorf("verified %d of %d streams (%d reported)", rep.StreamsVerified, tenantStreams, len(rep.PerStream))
	}
	var surplus int
	for _, ps := range rep.PerStream {
		if !ps.SnapshotIdentical {
			t.Errorf("%s not verified byte-identical", ps.Stream)
		}
		if d := ps.RecoveredBatches - ps.AckedBatches; d < 0 || d > 1 {
			t.Errorf("%s recovered %d batches against %d acked", ps.Stream, ps.RecoveredBatches, ps.AckedBatches)
		}
		surplus += ps.RecoveredBatches - ps.AckedBatches
	}
	if surplus > tenantWriters {
		t.Errorf("%d unacknowledged batches recovered, more than the %d writers had in flight", surplus, tenantWriters)
	}
	if !rep.PostRestartLive {
		t.Error("post-restart ingest not verified")
	}
	if FormatTenants(rep) == "" {
		t.Error("empty formatted report")
	}
}
