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

// This file holds the multi-tenant serving drill: many named streams,
// each with its own writer goroutine, under a memory budget
// small enough that the evictor churns engines to disk and back while
// traffic is live. Phase one measures the single-stream sequential
// baseline every acceptance ratio is against. Phase two boots a child
// edmserved process with tenantStreams streams, drives one sequential
// writer per stream, SIGKILLs the child mid-traffic, restarts it on
// the same data directory, and requires every stream's recovered
// clustering to be byte-identical to a solo reference replay of
// exactly that stream's acknowledged batches — multi-tenancy may cost
// latency, never isolation or durability.

const (
	// tenantStreams is how many named streams the drill runs
	// concurrently (the acceptance floor is 32).
	tenantStreams = 32
	// tenantWriters is the client goroutine count; each one round-robins
	// over tenantStreams/tenantWriters streams, one batch per turn. The
	// rotation is what makes eviction churn possible at all: a stream
	// whose writer never pauses keeps its server-side writer busy, and
	// the evictor (correctly) refuses to touch it — real tenants
	// interleave, so the drill's traffic does too.
	tenantWriters = 8
	// tenantSweepInterval keeps the evictor hot while traffic runs.
	tenantSweepInterval = 5 * time.Millisecond
	// tenantEvictIdle evicts anything untouched for this long, so the
	// idle path churns alongside the budget path.
	tenantEvictIdle = 500 * time.Millisecond
)

// tenantBudget is the global memory budget the child runs under:
// room for roughly half the streams, so the LRU evictor is always
// working while all of them carry traffic.
func tenantBudget() int64 {
	return int64(tenantStreams/2) * server.MinMemoryBudget
}

// TenantStreamResult is one stream's ledger through the kill drill.
type TenantStreamResult struct {
	Stream string `json:"stream"`
	// AckedBatches is how many batches had an HTTP 200 before the
	// SIGKILL; RecoveredBatches is what the restarted child holds. The
	// contract: acked <= recovered <= acked+1 (the one in-flight batch
	// may have committed before its response was cut).
	AckedBatches      int  `json:"acked_batches"`
	RecoveredBatches  int  `json:"recovered_batches"`
	SnapshotIdentical bool `json:"snapshot_identical"`
}

// TenancyReport is the JSON-serializable outcome of the drill.
type TenancyReport struct {
	Schema           string `json:"schema"`
	Streams          int    `json:"streams"`
	BatchesPerStream int    `json:"batches_per_stream"`
	IngestBatch      int    `json:"ingest_batch"`
	MemoryBudget     int64  `json:"memory_budget_bytes"`

	// BaselinePointsPerSec is the phase-one single-stream sequential
	// writer; AggregatePointsPerSec is all tenantStreams writers
	// together under budget churn, measured up to the kill threshold.
	BaselinePointsPerSec  float64 `json:"baseline_points_per_sec"`
	AggregatePointsPerSec float64 `json:"aggregate_points_per_sec"`
	AggregateSpeedup      float64 `json:"aggregate_speedup"`
	SpeedupAsserted       bool    `json:"speedup_asserted"`

	// EvictionsBeforeKill is the churn the budget forced while traffic
	// was live (the drill fails when it is zero — no churn, nothing
	// exercised). RevivalsAfterRestart counts the transparent revivals
	// the verification reads triggered in the restarted child.
	EvictionsBeforeKill  uint64 `json:"evictions_before_kill"`
	RevivalsAfterRestart uint64 `json:"revivals_after_restart"`

	AckedPoints     int64                `json:"acked_points"`
	RecoveredPoints int64                `json:"recovered_points"`
	StreamsVerified int                  `json:"streams_verified"`
	PerStream       []TenantStreamResult `json:"per_stream"`

	// PostRestartLive: the restarted child accepted fresh ingest on
	// revived streams (recovery yields a server, not a museum).
	PostRestartLive bool `json:"post_restart_live"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// tenantWorkload builds every stream's deterministic input: distinct
// seeds, whole batches, one spare batch per stream for the liveness
// check after the restart.
func tenantWorkload(s Scale) (batches int, bodies [][][]byte, pts [][]stream.Point, err error) {
	batches = s.Points / (8 * drillBatch)
	if batches < 6 {
		batches = 6
	}
	perStream := (batches + 1) * drillBatch // +1 spare liveness batch
	bodies = make([][][]byte, tenantStreams)
	pts = make([][]stream.Point, tenantStreams)
	for i := 0; i < tenantStreams; i++ {
		pts[i] = ServeStream(perStream, s.Seed+int64(i), s.Rate)
		bodies[i], err = drillBodies(pts[i])
		if err != nil {
			return 0, nil, nil, err
		}
	}
	return batches, bodies, pts, nil
}

// RunTenants runs the multi-tenant serving drill.
func RunTenants(s Scale) (TenancyReport, error) {
	batches, bodies, pts, err := tenantWorkload(s)
	if err != nil {
		return TenancyReport{}, err
	}
	rep := TenancyReport{
		Schema:           "edmstream-tenancy/v1",
		Streams:          tenantStreams,
		BatchesPerStream: batches,
		IngestBatch:      drillBatch,
		MemoryBudget:     tenantBudget(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
	}

	baseline, err := runTenantBaseline(s, bodies[0][:batches])
	if err != nil {
		return TenancyReport{}, err
	}
	rep.BaselinePointsPerSec = baseline

	if err := runTenantKill(s, &rep, bodies, pts); err != nil {
		return rep, err
	}
	if rep.BaselinePointsPerSec > 0 {
		rep.AggregateSpeedup = rep.AggregatePointsPerSec / rep.BaselinePointsPerSec
	}

	// The scaling assertion needs real hardware parallelism: on a
	// 1-2 core runner the 32 writers timeshare a core and the ratio
	// measures the scheduler, not the serving stack.
	if procs := min(runtime.NumCPU(), runtime.GOMAXPROCS(0)); procs >= 4 {
		rep.SpeedupAsserted = true
		if rep.AggregatePointsPerSec < rep.BaselinePointsPerSec {
			return rep, fmt.Errorf("bench: %d tenant streams aggregate %.0f points/sec below the single-stream baseline %.0f",
				tenantStreams, rep.AggregatePointsPerSec, rep.BaselinePointsPerSec)
		}
	}
	return rep, nil
}

// runTenantBaseline measures one sequential writer on a solo durable
// single-stream server: the reference rate the multi-tenant aggregate
// is compared against.
func runTenantBaseline(s Scale, bodies [][]byte) (float64, error) {
	dir, err := os.MkdirTemp("", "edmbench-tenants-base-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	c, err := edmstream.New(walOptions(s.Rate))
	if err != nil {
		return 0, err
	}
	srv, err := server.New(c, server.Config{
		Addr:            "127.0.0.1:0",
		DataDir:         dir,
		CheckpointEvery: walCheckpointEvery,
	})
	if err != nil {
		return 0, fmt.Errorf("bench: building baseline server: %w", err)
	}
	if err := srv.Start(); err != nil {
		return 0, fmt.Errorf("bench: starting baseline server: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	client := &http.Client{}
	base := "http://" + srv.Addr()
	begin := time.Now()
	for _, body := range bodies {
		if err := politeRetry.post(client, base+"/v1/ingest", body); err != nil {
			return 0, fmt.Errorf("bench: baseline ingest: %w", err)
		}
	}
	wall := time.Since(begin)
	return float64(len(bodies)*drillBatch) / wall.Seconds(), nil
}

// runTenantKill is the churn-and-crash phase. One sequential writer
// per stream keeps every acknowledged set an exact batch prefix of
// its stream, which is what makes the per-stream reference replays
// well-defined.
func runTenantKill(s Scale, rep *TenancyReport, bodies [][][]byte, pts [][]stream.Point) error {
	spec, dir, err := newChildSpec("tenants", s.Rate)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        tenantStreams + 4,
		MaxIdleConnsPerHost: tenantStreams + 4,
	}}
	child, err := startChild("tenants", spec)
	if err != nil {
		return err
	}
	defer child.kill()

	batches := rep.BatchesPerStream
	killAfter := int64(tenantStreams*batches) / 2
	var totalAcked atomic.Int64
	var killIssued atomic.Bool
	threshold := make(chan struct{})
	var thresholdOnce sync.Once

	acked := make([]int64, tenantStreams)
	writerErrs := make([]error, tenantWriters)
	var wg sync.WaitGroup
	begin := time.Now()
	var threshWall atomic.Int64 // nanoseconds to the kill threshold
	perWriter := tenantStreams / tenantWriters
	for w := 0; w < tenantWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Round-robin over this writer's streams, one batch per
			// turn: each stream stays strictly sequential (its acked set
			// is always an exact batch prefix) while sitting idle — and
			// evictable — between its turns.
			for b := 0; b < batches; b++ {
				for k := 0; k < perWriter; k++ {
					i := w*perWriter + k
					url := fmt.Sprintf("%s/v1/tenant-%02d/ingest", child.url, i)
					if err := politeRetry.post(client, url, bodies[i][b]); err != nil {
						// After the SIGKILL a failed request is the crash
						// happening — expected; before it, a real failure.
						if !killIssued.Load() {
							writerErrs[w] = err
						}
						return
					}
					atomic.AddInt64(&acked[i], 1)
					if totalAcked.Add(1) == killAfter {
						thresholdOnce.Do(func() {
							threshWall.Store(int64(time.Since(begin)))
							close(threshold)
						})
					}
				}
			}
		}(w)
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	select {
	case <-threshold:
	case <-writersDone:
		thresholdOnce.Do(func() {
			threshWall.Store(int64(time.Since(begin)))
			close(threshold)
		})
	}

	// Grab the churn ledger while the child is still alive, then kill
	// it mid-traffic.
	st, err := fetchStats(client, child.url+"/v1/stats")
	if err != nil {
		return fmt.Errorf("bench: pre-kill stats: %w", err)
	}
	rep.EvictionsBeforeKill = st.Server.Tenancy.Evictions
	killIssued.Store(true)
	child.kill()
	<-writersDone
	for w, werr := range writerErrs {
		if werr != nil {
			return fmt.Errorf("bench: writer %d ingest before the kill: %w", w, werr)
		}
	}
	if rep.EvictionsBeforeKill == 0 {
		return fmt.Errorf("bench: no evictions before the kill — the %d-byte budget exerted no pressure over %d streams", rep.MemoryBudget, tenantStreams)
	}
	rep.AggregatePointsPerSec = float64(killAfter*drillBatch) / time.Duration(threshWall.Load()).Seconds()
	for i := range acked {
		rep.AckedPoints += acked[i] * drillBatch
	}

	// Restart on the same directory: discovery re-registers every named
	// stream, and each verification read revives one transparently.
	child2, err := startChild("tenants", spec)
	if err != nil {
		return fmt.Errorf("bench: restarting after the kill: %w", err)
	}
	defer child2.kill()

	var live []liveStream
	for i := 0; i < tenantStreams; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		res := TenantStreamResult{Stream: name, AckedBatches: int(acked[i])}
		st, err := fetchStats(client, child2.url+"/v1/"+name+"/stats")
		if err != nil {
			return fmt.Errorf("bench: %s post-restart stats: %w", name, err)
		}
		recovered := st.Engine.Points
		res.RecoveredBatches = int(recovered / drillBatch)
		rep.RecoveredPoints += recovered
		rep.PerStream = append(rep.PerStream, res)
		// One sequential writer has at most one request in flight at
		// the kill: it may have committed without its response.
		ackedPts := acked[i] * drillBatch
		if err := checkLedger(name+"'s recovery", recovered, drillBatch, ackedPts, ackedPts+drillBatch); err != nil {
			return err
		}
		// Solo reference replay of exactly the recovered prefix:
		// tenancy, eviction churn and the crash were invisible to this
		// stream's state.
		if err := checkReplay(client, child2.url+"/v1/"+name+"/snapshot", pts[i], recovered, s.Rate); err != nil {
			return err
		}
		rep.PerStream[i].SnapshotIdentical = true
		rep.StreamsVerified++
		if i%8 == 0 {
			// The spare batch lies beyond the sent range, so IDs never
			// collide.
			live = append(live, liveStream{"/v1/" + name, bodies[i][batches:], recovered})
		}
	}
	// Across all streams, at most one batch per writer was in flight.
	if err := checkLedger("the tenant fleet's recovery", rep.RecoveredPoints, drillBatch, rep.AckedPoints, rep.AckedPoints+tenantWriters*drillBatch); err != nil {
		return err
	}
	st2, err := fetchStats(client, child2.url+"/v1/stats")
	if err != nil {
		return err
	}
	rep.RevivalsAfterRestart = st2.Server.Tenancy.Revivals
	if rep.RevivalsAfterRestart < uint64(tenantStreams) {
		return fmt.Errorf("bench: only %d revivals after reading all %d streams", rep.RevivalsAfterRestart, tenantStreams)
	}

	// Liveness: revived streams keep accepting writes, then every
	// stream's coalescer drains on SIGTERM.
	if _, err := finishLive(client, child2, live...); err != nil {
		return err
	}
	rep.PostRestartLive = true
	return nil
}

// tenantsChild is the drill's child: a durable multi-tenant edmserved
// with an engine factory, a tight memory budget and a hot sweep
// cadence.
func tenantsChild(spec childSpec) (server.Config, func(bool), error) {
	return server.Config{
		CheckpointEvery: walCheckpointEvery,
		MemoryBudget:    tenantBudget(),
		EvictIdleAfter:  tenantEvictIdle,
		SweepInterval:   tenantSweepInterval,
		NewEngine:       func() (*edmstream.Clusterer, error) { return edmstream.New(walOptions(spec.Rate)) },
	}, nil, nil
}

// FormatTenants renders the report for the terminal.
func FormatTenants(rep TenancyReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Multi-tenant serving: %d streams, one writer goroutine each, %.0f MiB budget\n",
		rep.Streams, float64(rep.MemoryBudget)/(1<<20))
	fmt.Fprintf(&b, "  (gomaxprocs %d, %d CPUs, %d batches of %d points per stream)\n",
		rep.GOMAXPROCS, rep.NumCPU, rep.BatchesPerStream, rep.IngestBatch)
	fmt.Fprintf(&b, "throughput: single-stream baseline %.0f points/sec, %d-stream aggregate %.0f (%.2fx",
		rep.BaselinePointsPerSec, rep.Streams, rep.AggregatePointsPerSec, rep.AggregateSpeedup)
	if rep.SpeedupAsserted {
		fmt.Fprintf(&b, ", asserted)\n")
	} else {
		fmt.Fprintf(&b, ", not asserted: <4 usable CPUs)\n")
	}
	fmt.Fprintf(&b, "churn: %d evictions under budget pressure before the SIGKILL; %d revivals after the restart\n",
		rep.EvictionsBeforeKill, rep.RevivalsAfterRestart)
	fmt.Fprintf(&b, "kill-and-restart: %d points acked across %d streams; %d recovered\n",
		rep.AckedPoints, rep.Streams, rep.RecoveredPoints)
	fmt.Fprintf(&b, "  %d/%d streams byte-identical to their solo reference replays; post-restart ingest live: %v\n",
		rep.StreamsVerified, rep.Streams, rep.PostRestartLive)
	return b.String()
}
