package bench

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file holds the durability experiment: what the WAL's
// fsync-before-ack costs, and what it buys. Phase one measures ingest
// throughput through durable edmserved instances with the fsync on
// and off (WALNoSync), so the group-commit amortization of the
// coalescer is machine-readable across revisions (BENCH_wal.json).
// Phase two is the crash drill: a child edmserved process is SIGKILLed
// mid-traffic, restarted on the same WAL directory, and must come back
// holding every acknowledged point — verified byte-for-byte against a
// fresh engine fed the same prefix, which only determinism plus the
// checkpoint+replay equivalence (internal/wal, internal/server tests)
// make possible.

const (
	// walWriters is the concurrent HTTP writer count of the
	// throughput phase; concurrency is what lets one fsync cover
	// several requests (group commit through the coalescer).
	walWriters = 2
	// walCheckpointEvery keeps the checkpoint cadence dense enough
	// that the kill lands between checkpoints and recovery exercises
	// both the checkpoint restore and the tail replay.
	walCheckpointEvery = 1000
)

// WALThroughputResult is one durability mode's ingest measurement.
type WALThroughputResult struct {
	// Mode is "fsync" (the default durable path: every acknowledged
	// batch is on disk) or "nosync" (WALNoSync: the log is written
	// but acknowledgments do not wait for the disk).
	Mode           string  `json:"mode"`
	Points         int64   `json:"points"`
	WallSeconds    float64 `json:"wall_seconds"`
	PointsPerSec   float64 `json:"points_per_sec"`
	WALRecords     uint64  `json:"wal_records"`
	WALBytes       uint64  `json:"wal_bytes"`
	Checkpoints    uint64  `json:"checkpoints"`
	FsyncP50Micros float64 `json:"fsync_p50_micros"`
	FsyncP99Micros float64 `json:"fsync_p99_micros"`
}

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
}

// WALReport is the JSON-serializable outcome of the experiment.
type WALReport struct {
	Schema      string                `json:"schema"`
	Points      int                   `json:"points"`
	Seed        int64                 `json:"seed"`
	Rate        float64               `json:"rate"`
	IngestBatch int                   `json:"ingest_batch"`
	Throughput  []WALThroughputResult `json:"throughput"`
	// NoSyncSpeedup is nosync over fsync points/sec: the price of the
	// durability guarantee on this machine's disk.
	NoSyncSpeedup float64       `json:"nosync_speedup"`
	Kill          WALKillResult `json:"kill_restart"`
	GOMAXPROCS    int           `json:"gomaxprocs"`
	NumCPU        int           `json:"num_cpu"`
}

// RunWAL measures the durable ingest path and runs the kill-and-
// restart drill. s.Points is the measured ingest volume per
// throughput mode (rounded down to whole batches) and the traffic
// pool of the drill.
func RunWAL(s Scale) (WALReport, error) {
	const liveBatches = 2
	measuredBatches := s.Points / drillBatch
	if measuredBatches < 4 {
		return WALReport{}, fmt.Errorf("bench: the wal experiment needs at least %d points, got %d", 4*drillBatch, s.Points)
	}
	warmupBatches := drillWarmup / drillBatch
	total := (warmupBatches + measuredBatches + liveBatches) * drillBatch
	pts := ServeStream(total, s.Seed, s.Rate)
	bodies, err := drillBodies(pts)
	if err != nil {
		return WALReport{}, err
	}

	rep := WALReport{
		Schema:      "edmstream-wal/v1",
		Points:      measuredBatches * drillBatch,
		Seed:        s.Seed,
		Rate:        s.Rate,
		IngestBatch: drillBatch,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
	for _, noSync := range []bool{false, true} {
		res, err := runWALThroughput(noSync, s, bodies[:warmupBatches+measuredBatches], warmupBatches)
		if err != nil {
			return WALReport{}, err
		}
		rep.Throughput = append(rep.Throughput, res)
	}
	if rep.Throughput[0].PointsPerSec > 0 {
		rep.NoSyncSpeedup = rep.Throughput[1].PointsPerSec / rep.Throughput[0].PointsPerSec
	}

	kill, err := runWALKill(s, pts, bodies, warmupBatches, liveBatches)
	if err != nil {
		return WALReport{}, err
	}
	rep.Kill = kill
	return rep, nil
}

// runWALThroughput drives one durable in-process server with
// concurrent writers and reports the measured ingest rate plus the
// server's WAL accounting.
func runWALThroughput(noSync bool, s Scale, bodies [][]byte, warmupBatches int) (WALThroughputResult, error) {
	mode := "fsync"
	if noSync {
		mode = "nosync"
	}
	dir, err := os.MkdirTemp("", "edmbench-wal-")
	if err != nil {
		return WALThroughputResult{}, err
	}
	defer os.RemoveAll(dir)

	c, err := edmstream.New(walOptions(s.Rate))
	if err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: building clusterer: %w", err)
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		WALNoSync:       noSync,
		CheckpointEvery: walCheckpointEvery,
	})
	if err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: building %s server: %w", mode, err)
	}
	if err := srv.Start(); err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: starting %s server: %w", mode, err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        walWriters + 2,
		MaxIdleConnsPerHost: walWriters + 2,
	}}

	for b := 0; b < warmupBatches; b++ {
		if err := politeRetry.post(client, base+"/v1/ingest", bodies[b]); err != nil {
			return WALThroughputResult{}, fmt.Errorf("bench: %s warm-up: %w", mode, err)
		}
	}

	measured := bodies[warmupBatches:]
	var firstErr atomic.Value // error
	var npts atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < walWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < len(measured); b += walWriters {
				if err := politeRetry.post(client, base+"/v1/ingest", measured[b]); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				npts.Add(drillBatch)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(begin)
	if err, _ := firstErr.Load().(error); err != nil {
		return WALThroughputResult{}, fmt.Errorf("bench: %s ingest: %w", mode, err)
	}

	st, err := fetchStats(client, base+"/v1/stats")
	if err != nil {
		return WALThroughputResult{}, err
	}
	d := st.Server.Durability
	if d == nil {
		return WALThroughputResult{}, fmt.Errorf("bench: %s server reports no durability section — WAL not wired in", mode)
	}
	if d.NoSync != noSync {
		return WALThroughputResult{}, fmt.Errorf("bench: %s server reports no_sync=%v", mode, d.NoSync)
	}
	return WALThroughputResult{
		Mode:           mode,
		Points:         npts.Load(),
		WallSeconds:    wall.Seconds(),
		PointsPerSec:   float64(npts.Load()) / wall.Seconds(),
		WALRecords:     d.Records,
		WALBytes:       d.Bytes,
		Checkpoints:    d.Checkpoints,
		FsyncP50Micros: d.FsyncP50Sec * 1e6,
		FsyncP99Micros: d.FsyncP99Sec * 1e6,
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
// fresh engine fed that prefix directly.
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
	return res, err
}

// FormatWAL renders the report for the terminal.
func FormatWAL(rep WALReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Durability: WAL fsync-before-ack cost and kill-and-restart recovery\n")
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d writers, %d-point batches, checkpoint every %d points)\n",
		rep.GOMAXPROCS, rep.NumCPU, walWriters, rep.IngestBatch, walCheckpointEvery)
	fmt.Fprintf(&b, "%-8s %10s %9s %12s %12s %10s %22s\n",
		"mode", "points", "wall(s)", "points/sec", "wal records", "wal MiB", "fsync p50/p99 (us)")
	for _, t := range rep.Throughput {
		fmt.Fprintf(&b, "%-8s %10d %9.2f %12.0f %12d %10.2f %11.0f/%-10.0f\n",
			t.Mode, t.Points, t.WallSeconds, t.PointsPerSec,
			t.WALRecords, float64(t.WALBytes)/(1<<20), t.FsyncP50Micros, t.FsyncP99Micros)
	}
	fmt.Fprintf(&b, "nosync/fsync speedup: %.2fx (what the durability guarantee costs on this disk)\n", rep.NoSyncSpeedup)
	k := rep.Kill
	fmt.Fprintf(&b, "kill-and-restart: SIGKILL mid-traffic, restart on the same WAL directory\n")
	fmt.Fprintf(&b, "  acked %d points before the kill; recovered %d (checkpoint %v + %d replayed records)\n",
		k.AckedPoints, k.RecoveredPoints, k.HasCheckpoint, k.ReplayedRecords)
	fmt.Fprintf(&b, "  recovered clustering byte-identical to an uninterrupted run: %v\n", k.SnapshotIdentical)
	fmt.Fprintf(&b, "  post-restart ingest accepted; engine at %d points, graceful drain clean\n", k.PostRestartPoints)
	return b.String()
}
