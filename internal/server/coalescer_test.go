package server

import (
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/obs"
)

// newTestCoalescer builds a coalescer over a fresh engine with no
// writer goroutine: the test drives runOne itself.
func newTestCoalescer(t *testing.T, maxBatch int) *coalescer {
	t.Helper()
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxBatch: maxBatch}.withDefaults()
	return newCoalescer(c, cfg, obs.NewRegistry(), "")
}

// enqueue queues a request the way submit does, without waiting for
// its reply.
func enqueue(co *coalescer, n int, t0 float64) *ingestReq {
	pts := make([]edmstream.Point, n)
	for i := range pts {
		pts[i] = edmstream.Point{Vector: []float64{float64(i % 3), 0}, Time: t0 + float64(i)/1000}
	}
	req := &ingestReq{pts: pts, enqueued: time.Now(), reply: make(chan ingestReply, 1)}
	co.queue <- req
	co.pending.Add(1)
	return req
}

// replied reports whether req already holds its reply, checking that
// a reply carries one cell ack per point.
func replied(t *testing.T, req *ingestReq) bool {
	t.Helper()
	select {
	case rep := <-req.reply:
		if rep.err != nil {
			t.Fatalf("commit failed: %v", rep.err)
		}
		if len(rep.cells) != len(req.pts) {
			t.Fatalf("%d acks for %d points", len(rep.cells), len(req.pts))
		}
		return true
	default:
		return false
	}
}

// TestRunOneMergesQueuedRequests drives the writer pass directly:
// requests queued before a pass merge into one InsertBatchAssigned
// call, a request that would overflow MaxBatch is carried into the
// next pass, and a pass never waits for requests that are not queued.
func TestRunOneMergesQueuedRequests(t *testing.T) {
	co := newTestCoalescer(t, 10)
	if co.runOne() {
		t.Fatal("a pass over an empty queue reported more work")
	}
	if got := co.batches.Value(); got != 0 {
		t.Fatalf("a pass over an empty queue flushed %d batches", got)
	}

	a, b, c, d := enqueue(co, 4, 0), enqueue(co, 4, 1), enqueue(co, 4, 2), enqueue(co, 3, 3)

	// Pass 1: a+b fit (8 points); c would make 12 > 10 and is carried.
	if !co.runOne() {
		t.Fatal("pass 1 left a carried request but reported no more work")
	}
	if co.batches.Value() != 1 || co.c.Stats().Points != 8 {
		t.Fatalf("after pass 1: %d batches, %d engine points; want 1 batch of 8",
			co.batches.Value(), co.c.Stats().Points)
	}
	if !replied(t, a) || !replied(t, b) {
		t.Fatal("requests merged into pass 1 have no reply when it returns")
	}
	if co.carry != c || replied(t, c) || replied(t, d) {
		t.Fatal("the overflowing request was not carried into the next batch")
	}

	// Pass 2: the carry opens the batch and d joins it (7 points).
	if co.runOne() {
		t.Fatal("pass 2 drained the queue but reported more work")
	}
	if !replied(t, c) || !replied(t, d) {
		t.Fatal("requests merged into pass 2 have no reply when it returns")
	}
	st := co.batchSize.Stats()
	if co.batches.Value() != 2 || st.Sum != 15 || st.WindowMax != 8 {
		t.Fatalf("batches = %d (points sum %g, max %g), want 2 batches of 8 and 7",
			co.batches.Value(), st.Sum, st.WindowMax)
	}
	if co.pending.Value() != 0 {
		t.Fatalf("pending = %d after every request was serviced", co.pending.Value())
	}

	// A lone request is flushed by the pass that finds it: nothing
	// waits for a partner.
	e := enqueue(co, 1, 4)
	co.runOne()
	if !replied(t, e) {
		t.Fatal("a lone request has no reply when its pass returns")
	}
	if co.batches.Value() != 3 {
		t.Fatalf("batches = %d, want 3", co.batches.Value())
	}
}

// TestEstimateWaitRunningAverage pins the admission rule over the
// running averages: zero without service history, then
// (pending/requests-per-batch + 1) × flush latency, with each new
// flush weighted by estimateWeight.
func TestEstimateWaitRunningAverage(t *testing.T) {
	co := newTestCoalescer(t, 10)
	co.pending.Set(4)
	if got := co.estimateWait(); got != 0 {
		t.Fatalf("cold-start estimate = %v, want 0", got)
	}
	co.noteService(10*time.Millisecond, 2)
	if got, want := co.estimateWait(), 30*time.Millisecond; got != want {
		t.Fatalf("estimate = %v, want (4/2+1) × 10ms = %v", got, want)
	}
	co.noteService(20*time.Millisecond, 4)
	// flush 10ms + 0.125×10ms = 11.25ms; requests 2 + 0.125×2 = 2.25.
	want := time.Duration((4/2.25 + 1) * 0.01125 * float64(time.Second))
	if got := co.estimateWait(); (got - want).Abs() > time.Microsecond {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
	co.pending.Set(0)
	if got := co.estimateWait(); got != 0 {
		t.Fatalf("estimate with an empty queue = %v, want 0", got)
	}

	// A pass over real requests feeds the estimate.
	fresh := newTestCoalescer(t, 10)
	enqueue(fresh, 2, 0)
	enqueue(fresh, 2, 1)
	fresh.runOne()
	fresh.pending.Set(1)
	if fresh.estimateWait() <= 0 {
		t.Fatal("a successful flush did not feed the estimate")
	}
}

// TestWriterRetireGate pins the evictor's exclusivity gate on the
// writer goroutine: tryRetire fails while a pass is running, succeeds
// once the writer is idle between passes, and after it a wake commits
// nothing.
func TestWriterRetireGate(t *testing.T) {
	co := newTestCoalescer(t, 10)
	inFlush := make(chan struct{}, 1)
	release := make(chan struct{})
	co.onFlush = func() {
		inFlush <- struct{}{}
		<-release
	}
	started := make(chan struct{})
	close(started)
	exited := make(chan struct{})
	go func() {
		co.run(started)
		close(exited)
	}()

	first := enqueue(co, 2, 0)
	co.wake()
	<-inFlush // the pass is held inside onFlush
	if co.tryRetire() {
		t.Fatal("tryRetire succeeded while a pass was running")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !co.tryRetire() {
		if time.Now().After(deadline) {
			t.Fatal("tryRetire never succeeded on an idle writer")
		}
		time.Sleep(time.Millisecond)
	}
	if !replied(t, first) {
		t.Fatal("the request committed before the retire has no reply")
	}

	second := enqueue(co, 2, 1)
	co.wake()
	time.Sleep(20 * time.Millisecond)
	if got := co.batches.Value(); got != 1 || replied(t, second) {
		t.Fatalf("a retired writer committed after a wake: %d batches", got)
	}
	co.beginShutdown() // what Evict does: the retired writer exits
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("the retired writer goroutine did not exit")
	}
	if got := co.batches.Value(); got != 1 {
		t.Fatalf("a retired writer ran a shutdown pass: %d batches", got)
	}
}
