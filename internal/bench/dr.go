package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/server"
)

// This file holds the disaster-recovery drill: a durable child
// edmserved ships its WAL to a deliberately flaky object store
// (periodic upload failures with visible partial-upload debris,
// periodic download failures, and a full outage window mid-run) while
// a sequential writer ingests. The archive contract under test: a
// remote outage NEVER fails or blocks an acknowledged ingest — the
// server only reports archive-lagging — and after the local data
// directory is destroyed outright, a fresh child restores from the
// remote, recovers a whole-batch prefix of the acknowledged stream
// covering everything the archive had shipped, serves a clustering
// byte-identical to a fresh engine fed that prefix, and does it all
// inside the recovery-time budget (BENCH_recovery.json).

const (
	// drCheckpointEvery keeps checkpoints dense enough that the remote
	// holds one well before the outage, so the restore exercises both
	// the checkpoint download and the segment tail replay.
	drCheckpointEvery = 2000
	// drSegmentBytes keeps WAL segments small enough that every drill
	// phase — including the short outage window at CI scale — seals
	// and ships several.
	drSegmentBytes = 16 << 10
	// drBudget is the recovery-time budget handed to both children:
	// the full restart of the second child — download, validate,
	// replay, bind — must come in under it.
	drBudget = 5 * time.Second
	// drLiveBatches is the post-restore liveness traffic.
	drLiveBatches = 2
)

// DRReport is the JSON-serializable outcome of the drill.
type DRReport struct {
	Schema      string  `json:"schema"`
	Points      int     `json:"points"`
	Seed        int64   `json:"seed"`
	Rate        float64 `json:"rate"`
	IngestBatch int     `json:"ingest_batch"`

	// AckedPoints is every point 200-acked across all phases before
	// the kill; OutageAckedPoints the subset acked while the remote
	// was fully down (the never-block contract: each one was a clean
	// 200 with zero retries).
	AckedPoints       int64 `json:"acked_points"`
	OutageAckedPoints int64 `json:"outage_acked_points"`

	// Archive accounting at the moment of the kill. ArchivedThroughSeq
	// is the sealed-segment high-water mark the remote held; every WAL
	// record below it must be recoverable. CompressionRatio is
	// shipped-over-read bytes for the gzip'd uploads.
	ArchivedThroughSeq uint64  `json:"archived_through_seq"`
	ArchiveFailed      uint64  `json:"archive_failed_uploads"`
	ArchiveRetried     uint64  `json:"archive_upload_retries"`
	CompressionRatio   float64 `json:"compression_ratio"`

	// The disaster: SIGKILL plus rm -rf of the data directory, then a
	// restore-from-archive restart. RecoveredPoints is what the
	// restored child holds — whole batches only, at most AckedPoints,
	// at least what the archive had sealed.
	RecoveredPoints    int64   `json:"recovered_points"`
	RestoreCheckpoints int     `json:"restore_checkpoints"`
	RestoreSegments    int     `json:"restore_segments"`
	RestoreBytes       int64   `json:"restore_bytes"`
	RestoreBadObjects  int     `json:"restore_bad_objects"`
	RestoreRetried     int     `json:"restore_retried"`
	RestoreSeconds     float64 `json:"restore_seconds"`

	// RestartWallSeconds is the full disaster restart — process start
	// to bound address — which the drill requires under
	// RecoveryBudgetSeconds.
	RestartWallSeconds    float64 `json:"restart_wall_seconds"`
	RecoveryBudgetSeconds float64 `json:"recovery_budget_seconds"`
	BudgetCheckpoints     uint64  `json:"budget_checkpoints"`
	ReplayPointsPerSec    int64   `json:"replay_points_per_sec"`

	// SnapshotIdentical records that the restored clustering is
	// byte-identical to a fresh engine fed the recovered prefix.
	SnapshotIdentical bool  `json:"snapshot_identical"`
	PostRestartPoints int64 `json:"post_restart_points"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// RunDR drives the disaster-recovery drill end to end. s.Points is
// the acknowledged traffic pool (rounded down to whole batches).
func RunDR(s Scale) (DRReport, error) {
	spec, dir, err := newChildSpec("dr", s.Rate)
	if err != nil {
		return DRReport{}, err
	}
	defer os.RemoveAll(dir)
	measuredBatches := s.Points / drillBatch
	if measuredBatches < 8 {
		return DRReport{}, fmt.Errorf("bench: the dr drill needs at least %d points, got %d", 8*drillBatch, s.Points)
	}
	warmupBatches := drillWarmup / drillBatch
	total := (warmupBatches + measuredBatches + drLiveBatches) * drillBatch
	pts := LatticeStream(total, s.Seed, s.Rate)
	bodies, err := drillBodies(pts)
	if err != nil {
		return DRReport{}, err
	}
	// Phase split of the measured batches: half against the flaky-but-
	// up remote, a quarter during the total outage, the rest after the
	// heal so the shipper's catch-up runs under fresh traffic.
	outageStart := warmupBatches + measuredBatches/2
	outageEnd := outageStart + measuredBatches/4
	killAt := warmupBatches + measuredBatches

	rep := DRReport{
		Schema:                "edmstream-dr/v1",
		Points:                measuredBatches * drillBatch,
		Seed:                  s.Seed,
		Rate:                  s.Rate,
		IngestBatch:           drillBatch,
		RecoveryBudgetSeconds: drBudget.Seconds(),
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		NumCPU:                runtime.NumCPU(),
	}
	client := &http.Client{}

	child, err := startChild("dr", spec)
	if err != nil {
		return rep, err
	}
	defer child.kill()
	url := child.url

	// One sequential writer: with requests strictly one at a time the
	// acknowledged set is always an exact whole-batch prefix of the
	// stream, which is what makes the reference replay well-defined.
	acked := 0
	post := func(b int) error {
		if err := politeRetry.post(client, url+"/v1/ingest", bodies[b]); err != nil {
			return fmt.Errorf("bench: dr ingest (batch %d): %w", b, err)
		}
		acked++
		return nil
	}

	// Phase 1: flaky remote (periodic failed and partial uploads, the
	// shipper retries through all of it).
	for b := 0; b < outageStart; b++ {
		if err := post(b); err != nil {
			return rep, err
		}
	}
	if err := waitUntil(30*time.Second, 10*time.Millisecond, "the archive to hold a checkpoint and sealed segments", func() (bool, error) {
		st, err := fetchStats(client, url+"/v1/stats")
		if err != nil {
			return false, err
		}
		a := st.Server.Archive
		return a != nil && a.ShippedCheckpointSeq > 0 && a.ShippedThroughSeq > 0, nil
	}); err != nil {
		return rep, err
	}

	// Phase 2: total remote outage. Every ingest must still be a clean
	// first-try 200 — local durability is the ack authority, the
	// archive only reports lag.
	if err := child.fault(true); err != nil {
		return rep, fmt.Errorf("bench: arming the remote outage: %w", err)
	}
	for b := outageStart; b < outageEnd; b++ {
		status, _, raw, err := doRequest(client, http.MethodPost, url+"/v1/ingest", bodies[b])
		if err != nil {
			return rep, fmt.Errorf("bench: ingest during the remote outage: %w", err)
		}
		if status != http.StatusOK {
			return rep, fmt.Errorf("bench: the remote outage failed an ingest ack: batch %d got %d: %s", b, status, raw)
		}
		acked++
	}
	rep.OutageAckedPoints = int64(outageEnd-outageStart) * drillBatch
	if err := waitUntil(30*time.Second, 10*time.Millisecond, "the server to report archive-lagging", func() (bool, error) {
		st, err := fetchStats(client, url+"/v1/stats")
		if err != nil {
			return false, err
		}
		a := st.Server.Archive
		if a == nil || !a.Lagging || a.Failed == 0 {
			return false, nil
		}
		raw, err := politeRetry.get(client, url+"/healthz")
		if err != nil {
			return false, err
		}
		return strings.Contains(string(raw), "archive-lagging"), nil
	}); err != nil {
		return rep, err
	}

	// Phase 3: the remote heals (back to merely flaky); the shipper
	// must catch up to zero lag on its own while traffic continues.
	if err := child.fault(false); err != nil {
		return rep, fmt.Errorf("bench: healing the remote: %w", err)
	}
	for b := outageEnd; b < killAt; b++ {
		if err := post(b); err != nil {
			return rep, err
		}
	}
	var preKill statsView
	if err := waitUntil(30*time.Second, 10*time.Millisecond, "the shipper to catch up after the outage", func() (bool, error) {
		st, err := fetchStats(client, url+"/v1/stats")
		if err != nil {
			return false, err
		}
		a := st.Server.Archive
		if a == nil || a.Lagging || a.LagObjects != 0 {
			return false, nil
		}
		preKill = st
		return true, nil
	}); err != nil {
		return rep, err
	}
	rep.AckedPoints = int64(acked) * drillBatch
	a := preKill.Server.Archive
	rep.ArchivedThroughSeq = a.ShippedThroughSeq
	rep.ArchiveFailed = a.Failed
	rep.ArchiveRetried = a.Retried
	if a.ReadBytes > 0 {
		rep.CompressionRatio = float64(a.ShippedBytes) / float64(a.ReadBytes)
	}
	if a.Failed == 0 || a.Retried == 0 {
		return rep, fmt.Errorf("bench: the flaky remote never exercised the retry path: failed=%d retried=%d", a.Failed, a.Retried)
	}
	if a.ShippedBytes >= a.ReadBytes {
		return rep, fmt.Errorf("bench: compressed shipping did not shrink the stream: shipped %d bytes of %d read", a.ShippedBytes, a.ReadBytes)
	}
	if preKill.Server.Durability == nil || !preKill.Server.Durability.CheckpointCompressed {
		return rep, errors.New("bench: the child does not report compressed checkpoints")
	}

	// The disaster: SIGKILL, then the data directory is destroyed
	// outright. The remote archive is all that survives.
	child.kill()
	if err := os.RemoveAll(spec.DataDir); err != nil {
		return rep, fmt.Errorf("bench: destroying the data directory: %w", err)
	}

	spec.Restore = true
	t0 := time.Now()
	child2, err := startChild("dr", spec)
	if err != nil {
		return rep, fmt.Errorf("bench: restore-from-archive restart: %w", err)
	}
	rep.RestartWallSeconds = time.Since(t0).Seconds()
	defer child2.kill()
	st2, err := fetchStats(client, child2.url+"/v1/stats")
	if err != nil {
		return rep, err
	}
	recovered := st2.Engine.Points
	rep.RecoveredPoints = recovered
	a2 := st2.Server.Archive
	if a2 == nil || a2.Restore == nil {
		return rep, errors.New("bench: the restored child reports no restore info — RestoreFromArchive did not run")
	}
	rep.RestoreCheckpoints = a2.Restore.Checkpoints
	rep.RestoreSegments = a2.Restore.Segments
	rep.RestoreBytes = a2.Restore.Bytes
	rep.RestoreBadObjects = a2.Restore.BadObjects
	rep.RestoreRetried = a2.Restore.Retried
	rep.RestoreSeconds = a2.Restore.DurationSeconds
	if st2.Server.Durability != nil {
		rep.BudgetCheckpoints = st2.Server.Durability.BudgetCheckpoints
		rep.ReplayPointsPerSec = st2.Server.Durability.ReplayPointsPerSec
	}

	// The recovery contract: whole batches only, nothing beyond what
	// was acknowledged, nothing less than what the archive had sealed.
	sealed := int64(rep.ArchivedThroughSeq-1) * drillBatch
	if err := checkLedger("restore", recovered, drillBatch, sealed, rep.AckedPoints); err != nil {
		return rep, err
	}
	if rep.RestoreCheckpoints == 0 || rep.RestoreSegments == 0 {
		return rep, fmt.Errorf("bench: restore downloaded %d checkpoints and %d segments; the drill needs both paths exercised", rep.RestoreCheckpoints, rep.RestoreSegments)
	}
	if rep.RestartWallSeconds >= drBudget.Seconds() {
		return rep, fmt.Errorf("bench: disaster restart took %.2fs, over the %.0fs recovery budget", rep.RestartWallSeconds, drBudget.Seconds())
	}

	if err := checkReplay(client, child2.url+"/v1/snapshot", pts, recovered, s.Rate); err != nil {
		return rep, err
	}
	rep.SnapshotIdentical = true
	rep.PostRestartPoints, err = finishLive(client, child2, liveStream{"/v1", bodies[len(bodies)-drLiveBatches:], recovered})
	return rep, err
}

// drChild is the disaster drill's child: a durable edmserved shipping
// compressed checkpoints and sealed segments to a fault-injected
// object store under spec.RemoteDir. The remote is flaky by
// construction — periodic upload failures that leave truncated
// partial-upload debris visible, and periodic download failures — and
// the drill's fault is a total outage.
func drChild(spec childSpec) (server.Config, func(bool), error) {
	inner, err := archive.NewDirStore(spec.RemoteDir)
	if err != nil {
		return server.Config{}, nil, err
	}
	fstore := archive.NewFaultStore(inner)
	// Flaky from the first byte: every 5th upload dies after leaving a
	// 64-byte truncated object behind, every 4th download fails once.
	fstore.Inject(
		archive.Fault{Op: "put", After: 3, Every: 5, Partial: 64},
		archive.Fault{Op: "get", After: 1, Every: 4},
	)
	return server.Config{
		WALSegmentBytes: drSegmentBytes,
		CheckpointEvery: drCheckpointEvery,

		ArchiveStore:       fstore,
		ArchiveQueue:       16,
		ArchiveRetryBase:   20 * time.Millisecond,
		ArchiveRetryMax:    250 * time.Millisecond,
		ArchiveResync:      150 * time.Millisecond,
		CheckpointCompress: true,
		RecoveryBudget:     drBudget,
		RestoreFromArchive: spec.Restore,
	}, fstore.SetOutage, nil
}

// FormatDR renders the report for the terminal.
func FormatDR(rep DRReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Disaster-recovery drill: flaky remote archive, total outage, rm -rf, restore\n")
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d-point batches, checkpoint every %d points, %v budget)\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.IngestBatch, drCheckpointEvery, time.Duration(rep.RecoveryBudgetSeconds*float64(time.Second)))
	fmt.Fprintf(&b, "acked %d points (%d of them during the total remote outage, every one a first-try 200)\n",
		rep.AckedPoints, rep.OutageAckedPoints)
	fmt.Fprintf(&b, "archive at kill time: sealed through seq %d; %d failed uploads, %d retries; gzip ratio %.2f\n",
		rep.ArchivedThroughSeq, rep.ArchiveFailed, rep.ArchiveRetried, rep.CompressionRatio)
	fmt.Fprintf(&b, "restore: %d checkpoints + %d segments = %.1f KiB in %.2fs (%d bad objects skipped, %d download retries)\n",
		rep.RestoreCheckpoints, rep.RestoreSegments, float64(rep.RestoreBytes)/1024, rep.RestoreSeconds, rep.RestoreBadObjects, rep.RestoreRetried)
	fmt.Fprintf(&b, "recovered %d points (<= acked, >= archived) in %.2fs restart, under the %.0fs budget\n",
		rep.RecoveredPoints, rep.RestartWallSeconds, rep.RecoveryBudgetSeconds)
	fmt.Fprintf(&b, "  replay %d points/sec, %d budget-triggered checkpoints\n", rep.ReplayPointsPerSec, rep.BudgetCheckpoints)
	fmt.Fprintf(&b, "restored clustering byte-identical to an uninterrupted run: %v\n", rep.SnapshotIdentical)
	fmt.Fprintf(&b, "post-restore ingest accepted; engine at %d points, graceful drain clean\n", rep.PostRestartPoints)
	return b.String()
}
