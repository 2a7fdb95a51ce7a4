package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/obs"
)

// errDraining is returned to ingest requests that arrive (or are
// still queued unserviced) while the server shuts down.
var errDraining = errors.New("server is draining")

// ingestReq is one HTTP ingest request queued for coalescing.
type ingestReq struct {
	pts []edmstream.Point
	// enqueued is when the request entered the queue; the coalescer
	// reports the oldest request's queue time as the batch wait.
	enqueued time.Time
	// reply receives exactly one ingestReply once the request's
	// points are committed (or the commit failed). Buffered so the
	// coalescer never blocks on a slow or vanished client.
	reply chan ingestReply
}

type ingestReply struct {
	cells []int64
	err   error
}

// coalescer accumulates concurrently arriving ingest requests into
// single InsertBatchAssigned calls under single-writer ownership of
// the clusterer's write path. It batches without a timer (group commit
// with no commit delay): a pass takes everything already queued, up to
// maxBatch points, and flushes at once when the queue is empty. No
// request ever waits for a partner; batches grow by themselves under
// load, because requests queue while the writer is busy with the
// previous flush or fsync. Each request's per-point cell acks are
// carved out of the batch ack slice and delivered on its reply
// channel.
//
// The writer is one goroutine per stream (run), owned by the
// coalescer: every mutation of the coalescer's owned state (carry,
// reused slices, the engine, the WAL) happens on it, so the stream's
// DP-Tree has exactly one writer.
type coalescer struct {
	c        *edmstream.Clusterer
	queue    chan *ingestReq
	maxBatch int

	// wakeCh is the writer's 1-slot wake channel: submit sends on it
	// after every enqueue and the janitor to request a degraded-mode
	// probe. A wake sent while one is pending is absorbed.
	wakeCh chan struct{}

	// state is the writer's retire gate (writerIdle, writerBusy,
	// writerRetired): the writer holds it busy for each pass, and the
	// evictor's tryRetire swaps it from idle to retired.
	state atomic.Int32

	// probeWanted is the janitor's probe request flag: runOne services
	// it first, under the same single-ownership the probe's WAL and
	// checkpoint writes require.
	probeWanted atomic.Bool

	// carry holds a request dequeued during gather that would push
	// the open batch past maxBatch; it becomes the trigger of the
	// next batch. With per-request point counts capped at maxBatch by
	// the HTTP layer, no committed batch ever exceeds maxBatch points.
	carry *ingestReq

	// stop is closed (once) to begin shutdown: the next runOne pass
	// drains whatever is queued, flushes, and closes done. Requests
	// still queued when the drain finishes get errDraining.
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	doneOnce sync.Once

	// onFlush, when non-nil, runs on the writer goroutine after every
	// committed batch (the server uses it to detect new evolution
	// events and wake long-pollers).
	onFlush func()

	// dur, when non-nil, is the durability subsystem: every gathered
	// batch is appended to the WAL and fsynced before it reaches the
	// engine, and committed point counts drive the checkpoint cadence.
	// Owned by the writer goroutine, like the clusterer.
	dur *durability

	// deg, when non-nil, is the stream's degraded-mode state machine:
	// an exhausted WAL retry budget flips it on (failing the batch and
	// everything queued behind it with errDegraded), and a janitor-
	// requested probe (probeWanted) flips it back off once the log
	// recovers.
	deg *degradedState

	// Admission estimate: running averages (estimateWeight) of the
	// latency of successful flushes, in seconds, and of requests per
	// batch, stored as float64 bits. The writer folds in every
	// successful flush; request goroutines read them with two atomic
	// loads. A zero flush latency means no service history yet.
	estFlush atomic.Uint64
	estReqs  atomic.Uint64

	// Telemetry: batch size in points, requests per batch, queue wait
	// of the oldest request in each batch, successful flush latency,
	// and totals.
	batchSize     *obs.Sample
	batchReqs     *obs.Sample
	batchWait     obs.Timing
	flushSeconds  obs.Timing
	batches       *obs.Counter
	pointsTotal   *obs.Counter
	pending       *obs.Gauge
	rejectsTotal  *obs.Counter
	clientCancels *obs.Counter

	// Reused across batches so a steady-state flush does not allocate
	// for the concatenation.
	pts  []edmstream.Point
	acks []int64
	reqs []*ingestReq
}

func newCoalescer(c *edmstream.Clusterer, cfg Config, reg *obs.Registry, labels string) *coalescer {
	return &coalescer{
		c:             c,
		queue:         make(chan *ingestReq, cfg.MaxPending),
		maxBatch:      cfg.MaxBatch,
		wakeCh:        make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
		batchSize:     reg.Sample("edmserved_coalescer_batch_points", labels),
		batchReqs:     reg.Sample("edmserved_coalescer_batch_requests", labels),
		batchWait:     reg.Timing("edmserved_coalescer_batch_wait_seconds", labels),
		flushSeconds:  reg.Timing("edmserved_coalescer_flush_seconds", labels),
		batches:       reg.Counter("edmserved_coalescer_batches_total", labels),
		pointsTotal:   reg.Counter("edmserved_coalescer_points_total", labels),
		pending:       reg.Gauge("edmserved_coalescer_pending_requests", labels),
		rejectsTotal:  reg.Counter("edmserved_coalescer_rejects_total", labels),
		clientCancels: reg.Counter("edmserved_coalescer_client_cancels_total", labels),
	}
}

// submit queues one request's pre-validated points and waits for the
// commit ack. It is called from request goroutines; backpressure is a
// blocking send on the bounded queue. After the ack the returned cell
// slice is owned by the caller.
func (co *coalescer) submit(ctx context.Context, pts []edmstream.Point) ([]int64, error) {
	// Fast-fail once shutdown began: without this check the send
	// below could win a race against the closed stop channel and park
	// a request the drain pass has already run past.
	select {
	case <-co.stop:
		co.rejectsTotal.Inc()
		return nil, errDraining
	default:
	}
	req := &ingestReq{pts: pts, enqueued: time.Now(), reply: make(chan ingestReply, 1)}
	select {
	case co.queue <- req:
		co.pending.Add(1)
		co.wake()
	case <-co.stop:
		co.rejectsTotal.Inc()
		return nil, errDraining
	case <-ctx.Done():
		// A cancelled enqueue commits nothing; count the client-gone
		// case separately from deadline sheds so the operator can tell
		// impatient clients from an overloaded queue.
		if errors.Is(ctx.Err(), context.Canceled) {
			co.clientCancels.Inc()
		}
		return nil, ctx.Err()
	}
	// Once queued, the request is serviced even if the client goes
	// away: the commit is cheap and bounded by the flush cadence, and
	// completing it keeps "acknowledged implies applied" exact.
	select {
	case rep := <-req.reply:
		return rep.cells, rep.err
	case <-co.done:
		// The writer drained and exited; it may have serviced this
		// request just before exiting, so prefer a waiting reply.
		select {
		case rep := <-req.reply:
			return rep.cells, rep.err
		default:
			co.pending.Add(-1)
			co.rejectsTotal.Inc()
			return nil, errDraining
		}
	}
}

// Writer states: the retire gate between the writer goroutine and the
// evictor.
const (
	writerIdle int32 = iota
	writerBusy
	writerRetired
)

// wake asks the writer for a pass. Safe from any goroutine; never
// blocks.
func (co *coalescer) wake() {
	select {
	case co.wakeCh <- struct{}{}:
	default:
	}
}

// run is the stream's writer goroutine and the only caller of runOne,
// which gives the stream single ownership of its write path by
// construction. It runs no pass before release is closed (the server
// started), then passes while work is queued, sleeping between wakes.
// It returns after the shutdown drain, on a stop before release, or
// once tryRetire has retired it.
func (co *coalescer) run(release <-chan struct{}) {
	select {
	case <-release:
	case <-co.stop:
	}
	select {
	case <-release:
	default:
		return // stopped before the server started
	}
	for {
		if !co.state.CompareAndSwap(writerIdle, writerBusy) {
			return // retired by the evictor
		}
		more := co.runOne()
		co.state.Store(writerIdle)
		select {
		case <-co.done:
			return
		default:
		}
		if !more {
			select {
			case <-co.wakeCh:
			case <-co.stop:
			}
		}
	}
}

// tryRetire is the evictor's exclusivity gate: it succeeds only while
// the writer is idle between passes, and once it has, the writer never
// runs another pass. Never blocks (it runs under the registry lock).
func (co *coalescer) tryRetire() bool {
	return co.state.CompareAndSwap(writerIdle, writerRetired)
}

// runOne is one writer pass: service a requested degraded-mode
// recovery probe, then gather and flush at most one batch. It returns
// true when work is already queued behind it. Once stop is closed the
// pass drains everything queued and closes done; later passes are
// harmless no-ops.
func (co *coalescer) runOne() bool {
	if co.probeWanted.CompareAndSwap(true, false) {
		co.probe()
	}
	select {
	case <-co.stop:
		co.drain()
		co.doneOnce.Do(func() { close(co.done) })
		return false
	default:
	}
	if !co.gather() {
		return false
	}
	co.flush()
	return co.carry != nil || len(co.queue) > 0
}

// probe attempts automatic recovery from degraded mode: reopen the WAL
// directory (recovery repairs whatever the failure left) and prove it
// writable with a fresh checkpoint of the current engine state — which
// also supersedes any ambiguous tail record a failed append may have
// landed. Only a full round-trip flips the server back to healthy.
func (co *coalescer) probe() {
	if co.deg == nil || co.dur == nil || !co.deg.isDegraded() {
		return
	}
	if co.dur.probe(co.c) {
		co.deg.exit()
	}
}

// estimateWeight is the weight a new successful flush gets in the
// admission estimate's running averages (the RFC 6298 RTT smoothing
// constant): about the last eight flushes dominate.
const estimateWeight = 0.125

// estimateWait predicts the commit wait a request admitted now would
// see: the queued requests ahead of it, in batches of the running
// average requests-per-batch, each taking the running average flush
// latency. Called from request goroutines; it costs three atomic
// loads.
func (co *coalescer) estimateWait() time.Duration {
	pending := co.pending.Value()
	if pending <= 0 {
		return 0
	}
	flush := math.Float64frombits(co.estFlush.Load())
	if flush == 0 {
		return 0 // no service history yet; the queue-send deadline backstops
	}
	reqsPerBatch := max(math.Float64frombits(co.estReqs.Load()), 1)
	batchesAhead := float64(pending)/reqsPerBatch + 1
	return time.Duration(batchesAhead * flush * float64(time.Second))
}

// noteService folds one successful flush into the admission estimate.
// Writer-only, so the load-then-store pairs cannot lose an update.
func (co *coalescer) noteService(flush time.Duration, reqs int) {
	fold := func(avg *atomic.Uint64, v float64) {
		if old := math.Float64frombits(avg.Load()); old != 0 {
			v = old + estimateWeight*(v-old)
		}
		avg.Store(math.Float64bits(v))
	}
	fold(&co.estFlush, flush.Seconds())
	fold(&co.estReqs, float64(reqs))
}

// gather collects one batch without waiting: the carried request, then
// everything already queued, up to maxBatch points. A request that
// would overflow the batch becomes the carry and opens the next one.
// It reports whether the batch holds any request.
func (co *coalescer) gather() bool {
	co.reqs = co.reqs[:0]
	npts := 0
	if co.carry != nil {
		co.reqs = append(co.reqs, co.carry)
		npts = len(co.carry.pts)
		co.carry = nil
	}
	for npts < co.maxBatch {
		select {
		case r := <-co.queue:
			if npts > 0 && npts+len(r.pts) > co.maxBatch {
				co.carry = r
				return true
			}
			co.reqs = append(co.reqs, r)
			npts += len(r.pts)
		default:
			return len(co.reqs) > 0
		}
	}
	return true
}

// flush commits the gathered requests as one InsertBatchAssigned call
// and hands each request its slice of the acks.
func (co *coalescer) flush() {
	if len(co.reqs) == 0 {
		return
	}
	co.pts = co.pts[:0]
	oldest := co.reqs[0].enqueued
	for _, r := range co.reqs {
		co.pts = append(co.pts, r.pts...)
		if r.enqueued.Before(oldest) {
			oldest = r.enqueued
		}
	}
	co.pending.Add(-int64(len(co.reqs)))

	// Durable-before-acknowledged: the batch must be on the log (and,
	// unless WALNoSync, on disk) before the engine applies it and any
	// client sees a 200. A WAL failure fails the whole batch without
	// touching the engine — no client is ever acknowledged for points
	// that would not survive a crash. The retry budget lives inside
	// appendBatch; exhausting it flips the server into degraded mode,
	// and batches flushed while degraded fail fast without touching the
	// sick disk (the probe owns recovery attempts).
	begin := time.Now()
	var acks []int64
	var err error
	if co.dur != nil {
		if co.deg != nil && co.deg.isDegraded() {
			err = errDegraded
		} else if aerr := co.dur.appendBatch(co.pts); aerr != nil {
			if co.deg != nil {
				co.deg.enter(aerr)
			}
			err = fmt.Errorf("%w (%v)", errDegraded, aerr)
		}
	}
	if err == nil {
		insertBegin := time.Now()
		acks, err = co.c.InsertBatchAssigned(co.pts, co.acks[:0])
		co.acks = acks
		if err == nil && co.dur != nil {
			// The pure engine-apply time (no WAL, no fsync) feeds the
			// recovery-budget estimator: replay is this same work.
			co.dur.noteApply(len(co.pts), time.Since(insertBegin))
		}
	}

	co.batches.Inc()
	co.batchSize.Observe(float64(len(co.pts)))
	co.batchReqs.Observe(float64(len(co.reqs)))
	co.batchWait.Observe(time.Since(oldest))
	if err == nil {
		// Only successful flushes feed the admission estimate: a
		// degraded fast-fail takes microseconds and would talk the
		// estimate down exactly when the server cannot serve.
		took := time.Since(begin)
		co.flushSeconds.Observe(took)
		co.noteService(took, len(co.reqs))
		co.pointsTotal.Add(uint64(len(co.pts)))
		if co.dur != nil {
			co.dur.noteCommitted(co.c, len(co.pts))
		}
	}

	off := 0
	for _, r := range co.reqs {
		rep := ingestReply{err: err}
		if err == nil {
			// Owned copy: co.acks is reused by the next batch.
			rep.cells = append([]int64(nil), acks[off:off+len(r.pts)]...)
		}
		off += len(r.pts)
		r.reply <- rep
	}
	// Zero the request pointers so the reused backing array does not
	// pin request payloads until the slots happen to be overwritten.
	clear(co.reqs)
	co.reqs = co.reqs[:0]

	if co.onFlush != nil {
		co.onFlush()
	}
}

// drain services everything queued at shutdown: requests already
// accepted into the queue are committed (in maxBatch-bounded batches)
// so no accepted work is dropped, then the loop exits and any
// requests that arrive later get errDraining from submit.
func (co *coalescer) drain() {
	for co.gather() {
		co.flush()
	}
}

// beginShutdown signals the writer to drain: its next pass commits
// everything queued and closes done. It returns immediately; the
// caller waits on done. Safe to call repeatedly.
func (co *coalescer) beginShutdown() {
	co.stopOnce.Do(func() { close(co.stop) })
}
