package bench

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"

	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the durability drill: a child edmserved process is
// SIGKILLed mid-traffic, restarted on the same WAL directory, and must
// come back holding every acknowledged point — verified byte-for-byte
// against a fresh engine fed the same prefix, which only determinism
// plus the checkpoint+replay equivalence (internal/wal, internal/server
// tests) make possible. What the fsync costs is measured by the
// benchmark/ module's ingest-wal workload.

// walCheckpointEvery keeps the checkpoint cadence dense enough that
// the kill lands between checkpoints and recovery exercises both the
// checkpoint restore and the tail replay.
const walCheckpointEvery = 1000

// WALKillResult is the outcome of the kill-and-restart drill.
type WALKillResult struct {
	// AckedPoints is how many points had received an HTTP 200 before
	// the SIGKILL; the durability contract is that every one of them
	// survives. RecoveredPoints is what the restarted server holds —
	// at least AckedPoints, at most the sent total (a batch that was
	// fsynced but whose response never reached the client also
	// survives; that is allowed, losing an acked batch is not).
	AckedPoints     int64 `json:"acked_points"`
	RecoveredPoints int64 `json:"recovered_points"`
	// ReplayedRecords and HasCheckpoint describe the recovery the
	// restarted child reported: records replayed from the log tail on
	// top of the newest checkpoint.
	ReplayedRecords int  `json:"replayed_records"`
	HasCheckpoint   bool `json:"has_checkpoint"`
	// SnapshotIdentical records that the restarted server's published
	// clustering is byte-identical to a fresh engine fed the same
	// recovered prefix (the run errors out when it is not).
	SnapshotIdentical bool `json:"snapshot_identical"`
	// PostRestartPoints is the engine size after the restarted server
	// accepted fresh traffic (liveness: recovery yields a server, not
	// a read-only museum).
	PostRestartPoints int64 `json:"post_restart_points"`
	// DrainRestartIdentical records that a boot after the graceful
	// drain recovered from its checkpoint alone, with the same state.
	DrainRestartIdentical bool `json:"drain_restart_identical"`
}

// WALReport is the JSON-serializable outcome of the drill.
type WALReport struct {
	Schema      string        `json:"schema"`
	Points      int           `json:"points"`
	Seed        int64         `json:"seed"`
	Rate        float64       `json:"rate"`
	IngestBatch int           `json:"ingest_batch"`
	Kill        WALKillResult `json:"kill_restart"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	NumCPU      int           `json:"num_cpu"`
}

// RunWAL runs the kill-and-restart drill. s.Points, rounded down to
// whole batches, is the traffic sent after the warm-up; the kill lands
// halfway through it.
func RunWAL(s Scale) (WALReport, error) {
	const liveBatches = 2
	measuredBatches := s.Points / drillBatch
	if measuredBatches < 4 {
		return WALReport{}, fmt.Errorf("bench: the wal drill needs at least %d points, got %d", 4*drillBatch, s.Points)
	}
	warmupBatches := drillWarmup / drillBatch
	total := (warmupBatches + measuredBatches + liveBatches) * drillBatch
	pts := LatticeStream(total, s.Seed, s.Rate)
	bodies, err := drillBodies(pts)
	if err != nil {
		return WALReport{}, err
	}
	kill, err := runWALKill(s, pts, bodies, warmupBatches, liveBatches)
	if err != nil {
		return WALReport{}, err
	}
	return WALReport{
		Schema:      "edmstream-wal/v2",
		Points:      measuredBatches * drillBatch,
		Seed:        s.Seed,
		Rate:        s.Rate,
		IngestBatch: drillBatch,
		Kill:        kill,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}, nil
}

// walChild is the kill-and-restart child: a durable edmserved with a
// dense checkpoint cadence and no fault beyond the SIGKILL.
func walChild(childSpec) (server.Config, func(bool), error) {
	return server.Config{CheckpointEvery: walCheckpointEvery}, nil, nil
}

// runWALKill is the crash drill: SIGKILL a durable child mid-traffic,
// restart it on the same WAL directory, and verify the recovered
// state is exactly the acknowledged prefix — byte-identical to a
// fresh engine fed that prefix directly. After the post-restart
// traffic and a graceful drain, a third boot must come back from the
// drain checkpoint alone with the same state.
func runWALKill(s Scale, pts []stream.Point, bodies [][]byte, warmupBatches, liveBatches int) (WALKillResult, error) {
	spec, dir, err := newChildSpec("wal-kill", s.Rate)
	if err != nil {
		return WALKillResult{}, err
	}
	defer os.RemoveAll(dir)
	client := &http.Client{}
	child, err := startChild("wal", spec)
	if err != nil {
		return WALKillResult{}, err
	}
	defer child.kill()

	// One sequential writer: with requests strictly one at a time the
	// acknowledged set is always an exact prefix of the stream, which
	// is what makes the reference replay below well-defined.
	send := bodies[:len(bodies)-liveBatches]
	killAfter := int64(warmupBatches + (len(send)-warmupBatches)/2)
	var acked atomic.Int64
	var killIssued atomic.Bool
	var writerErr error
	threshold := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, body := range send {
			if err := politeRetry.post(client, child.url+"/v1/ingest", body); err != nil {
				// The error after the SIGKILL is the crash happening
				// mid-request — expected. Before it, it is a failure.
				if !killIssued.Load() {
					writerErr = err
				}
				return
			}
			if acked.Add(1) == killAfter {
				close(threshold)
			}
		}
	}()
	select {
	case <-threshold:
	case <-done:
	}
	killIssued.Store(true)
	child.kill()
	<-done
	if writerErr != nil {
		return WALKillResult{}, fmt.Errorf("bench: ingest before the kill: %w", writerErr)
	}
	ackedPoints := acked.Load() * drillBatch

	// Restart on the same directory; startChild returning means
	// recovery completed.
	child2, err := startChild("wal", spec)
	if err != nil {
		return WALKillResult{}, fmt.Errorf("bench: restarting after the kill: %w", err)
	}
	defer child2.kill()
	st, err := fetchStats(client, child2.url+"/v1/stats")
	if err != nil {
		return WALKillResult{}, err
	}
	recovered := st.Engine.Points
	res := WALKillResult{AckedPoints: ackedPoints, RecoveredPoints: recovered}
	if st.Server.Durability != nil {
		res.ReplayedRecords = st.Server.Durability.Recovery.RecordsReplayed
		res.HasCheckpoint = st.Server.Durability.Recovery.HasCheckpoint
	}
	// The warm-up alone crosses the checkpoint cadence, so the crash
	// recovery must start from a checkpoint, not from an empty engine.
	if !res.HasCheckpoint {
		return res, fmt.Errorf("bench: crash recovery found no checkpoint (%d records replayed)", res.ReplayedRecords)
	}

	// The contract: every acknowledged point survived, nothing beyond
	// the sent stream appeared, and the clustering is the one a fresh
	// engine fed the recovered prefix publishes.
	if err := checkLedger("crash recovery", recovered, drillBatch, ackedPoints, int64(len(send))*drillBatch); err != nil {
		return res, err
	}
	if err := checkReplay(client, child2.url+"/v1/snapshot", pts, recovered, s.Rate); err != nil {
		return res, err
	}
	res.SnapshotIdentical = true
	res.PostRestartPoints, err = finishLive(client, child2, liveStream{"/v1", bodies[len(bodies)-liveBatches:], recovered})
	if err != nil {
		return res, err
	}

	// The drain's final checkpoint covers every committed point: the
	// third boot replays no record and serves the recovered prefix
	// followed by the post-restart traffic.
	child3, err := startChild("wal", spec)
	if err != nil {
		return res, fmt.Errorf("bench: restarting after the drain: %w", err)
	}
	defer child3.kill()
	if st, err = fetchStats(client, child3.url+"/v1/stats"); err != nil {
		return res, err
	}
	if d := st.Server.Durability; d == nil || !d.Recovery.HasCheckpoint || d.Recovery.RecordsReplayed != 0 {
		return res, fmt.Errorf("bench: restart after the drain did not recover from the drain checkpoint alone (%+v)", d)
	}
	if st.Engine.Points != res.PostRestartPoints {
		return res, fmt.Errorf("bench: restart after the drain holds %d points, want %d", st.Engine.Points, res.PostRestartPoints)
	}
	served := append(pts[:recovered:recovered], pts[len(send)*drillBatch:]...)
	if err := checkReplay(client, child3.url+"/v1/snapshot", served, res.PostRestartPoints, s.Rate); err != nil {
		return res, err
	}
	res.DrainRestartIdentical = true
	return res, child3.stop()
}

// FormatWAL renders the report for the terminal.
func FormatWAL(rep WALReport) string {
	var b bytes.Buffer
	k := rep.Kill
	fmt.Fprintf(&b, "Durability: kill-and-restart recovery\n")
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d-point batches, checkpoint every %d points)\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.IngestBatch, walCheckpointEvery)
	fmt.Fprintf(&b, "SIGKILL mid-traffic, restart on the same WAL directory\n")
	fmt.Fprintf(&b, "  acked %d points before the kill; recovered %d (checkpoint %v + %d replayed records)\n",
		k.AckedPoints, k.RecoveredPoints, k.HasCheckpoint, k.ReplayedRecords)
	fmt.Fprintf(&b, "  recovered clustering byte-identical to an uninterrupted run: %v\n", k.SnapshotIdentical)
	fmt.Fprintf(&b, "  post-restart ingest accepted; engine at %d points, graceful drain clean\n", k.PostRestartPoints)
	fmt.Fprintf(&b, "  restart after the drain: checkpoint only, clustering unchanged: %v\n", k.DrainRestartIdentical)
	return b.String()
}
