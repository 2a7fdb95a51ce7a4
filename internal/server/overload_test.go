package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/wal"
)

// overloadConfig is the pressure-cooker configuration the overload
// tests share: a tiny queue, a tight admission deadline and a fast
// recovery probe, so every shedding and degradation path fires within
// test time.
func overloadConfig(dir string, ffs *wal.FaultFS) Config {
	return Config{
		Addr:                  "127.0.0.1:0",
		MaxBatch:              64,
		MaxPending:            4,
		IngestDeadline:        40 * time.Millisecond,
		DataDir:               dir,
		WALFS:                 ffs,
		WALRetryAttempts:      2,
		DegradedProbeInterval: 15 * time.Millisecond,
		CheckpointEvery:       100000,
	}
}

// TestDegradedModeEntersAndRecovers walks the degraded-mode state
// machine over the network: a sticky WAL sync fault flips ingest into
// machine-readable 503s while reads and /healthz keep serving, and
// clearing the fault lets the recovery probe flip the server back
// without a restart.
func TestDegradedModeEntersAndRecovers(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	s, _, base := startServer(t, testOptions(), overloadConfig(t.TempDir(), ffs))

	ingest := func() *http.Response {
		raw, _ := json.Marshal([]map[string]any{{"vector": []float64{1, 2}}})
		resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := ingest(); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest status %d, want 200", resp.StatusCode)
	}

	// Kill the disk: the next durable append exhausts its retries and
	// the server degrades instead of wedging.
	ffs.Inject(wal.Fault{Op: "sync", Sticky: true})
	resp := ingest()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with dead disk: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 missing Retry-After header")
	}
	var shed errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
		t.Fatalf("decoding degraded 503 body: %v", err)
	}
	if shed.Reason != reasonDegraded {
		t.Errorf("degraded 503 reason = %q, want %q", shed.Reason, reasonDegraded)
	}
	if shed.RetryAfterSeconds < 1 {
		t.Errorf("degraded 503 retry_after_seconds = %d, want >= 1", shed.RetryAfterSeconds)
	}

	// Subsequent ingests are refused at the door (no WAL traffic).
	if resp := ingest(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded: status %d, want 503", resp.StatusCode)
	}

	// Reads, health and stats keep serving while degraded.
	if resp := getJSON(t, base+"/v1/snapshot", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("snapshot while degraded: status %d, want 200", resp.StatusCode)
	}
	raw, _ := json.Marshal([]map[string]any{{"vector": []float64{0, 0}}})
	aresp, err := http.Post(base+"/v1/assign", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("assign while degraded: %v", err)
	}
	if aresp.StatusCode != http.StatusOK {
		t.Errorf("assign while degraded: status %d, want 200", aresp.StatusCode)
	}
	aresp.Body.Close()
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hbody := make([]byte, 32)
	n, _ := hresp.Body.Read(hbody)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || !bytes.Contains(hbody[:n], []byte("degraded")) {
		t.Errorf("healthz while degraded: status %d body %q, want 200 \"degraded\"", hresp.StatusCode, hbody[:n])
	}
	var stats statsResponse
	getJSON(t, base+"/v1/stats", &stats)
	if !stats.Server.Degraded || stats.Server.DegradedReason == "" {
		t.Errorf("stats while degraded: degraded=%v reason=%q", stats.Server.Degraded, stats.Server.DegradedReason)
	}

	// Heal the disk; the probe must recover the server automatically.
	ffs.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := ingest()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover within 5s (last ingest status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	getJSON(t, base+"/v1/stats", &stats)
	if stats.Server.Degraded {
		t.Error("stats still degraded after recovery")
	}
	if stats.Server.Admission.DegradedEntered < 1 || stats.Server.Admission.DegradedRecovered < 1 {
		t.Errorf("degraded transitions not counted: entered=%d recovered=%d",
			stats.Server.Admission.DegradedEntered, stats.Server.Admission.DegradedRecovered)
	}
	if s.def.deg.isDegraded() {
		t.Error("degraded flag still set after recovery")
	}
}

// TestOverloadAckInvariantExact is the ack-invariant property test:
// writers race load shedding, client cancellation, a disk that turns
// slow, then dead, then healthy, and finally a graceful drain — and
// the engine must end up holding exactly the points of the requests
// that saw an HTTP 200. Requests are driven through the handler
// in-process so every response status is observable even when its
// client context was cancelled (over a real socket the response would
// be lost and the accounting inherently racy).
func TestOverloadAckInvariantExact(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, overloadConfig(t.TempDir(), ffs))
	if err != nil {
		t.Fatal(err)
	}
	s.StartDetached()

	const writers = 8
	const ptsPerReq = 5
	var (
		acceptedPts   atomic.Int64
		shed429       atomic.Int64
		shed503       atomic.Int64
		postRecovery  atomic.Int64
		recoveredSeen atomic.Bool
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := make([]map[string]any, ptsPerReq)
				for j := range body {
					body[j] = map[string]any{"vector": []float64{float64(w), float64(i % 9)}}
				}
				raw, _ := json.Marshal(body)
				ctx := context.Background()
				var cancel context.CancelFunc
				var timer *time.Timer
				if i%3 == 0 {
					// A third of the traffic is impatient: cancel mid-flight
					// at a random moment, racing enqueue and commit.
					ctx, cancel = context.WithCancel(ctx)
					timer = time.AfterFunc(time.Duration(rng.Intn(4))*time.Millisecond, cancel)
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(raw)).WithContext(ctx)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if cancel != nil {
					timer.Stop()
					cancel()
				}
				switch rec.Code {
				case http.StatusOK:
					var ack ingestResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
						t.Errorf("200 with undecodable ack: %v", err)
						return
					}
					acceptedPts.Add(int64(ack.Accepted))
					if recoveredSeen.Load() {
						postRecovery.Add(1)
					}
				case http.StatusTooManyRequests:
					if rec.Header().Get("Retry-After") == "" {
						t.Error("429 missing Retry-After header")
						return
					}
					shed429.Add(1)
				case http.StatusServiceUnavailable:
					shed503.Add(1)
				default:
					t.Errorf("unexpected ingest status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}

	// Phase 1: healthy traffic.
	time.Sleep(60 * time.Millisecond)
	// Phase 2: the disk turns slow — each flush stalls past the 40ms
	// admission deadline, the queue fills, and enqueues shed with 429.
	ffs.Inject(wal.Fault{Op: "sync", Sticky: true, Delay: 60 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for shed429.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request was shed with 429 under a slow disk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	// Phase 3: the disk dies — the retry budget drains and the server
	// must flip to degraded.
	ffs.Inject(wal.Fault{Op: "sync", Sticky: true})
	deadline = time.Now().Add(5 * time.Second)
	for !s.def.deg.isDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("server did not enter degraded mode under a dead disk")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(40 * time.Millisecond) // collect degraded 503s
	// Phase 4: the disk heals — the probe must recover the server.
	ffs.Clear()
	deadline = time.Now().Add(5 * time.Second)
	for s.def.deg.isDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("server did not recover after the fault cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	recoveredSeen.Store(true)
	// Keep traffic flowing until the recovered server actually
	// acknowledges something (the flush-latency window still remembers
	// the slow disk, so the estimator sheds until the queue drains).
	deadline = time.Now().Add(5 * time.Second)
	for postRecovery.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request was acknowledged after recovery")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 5: graceful drain racing the writers.
	ctx, cancelShutdown := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelShutdown()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	got := int64(c.Stats().Points)
	want := acceptedPts.Load()
	if got != want {
		t.Fatalf("engine holds %d points but %d were acknowledged: the ack invariant broke under overload+faults", got, want)
	}
	if want == 0 {
		t.Fatal("test proved nothing: no request was acknowledged")
	}
	if shed429.Load() == 0 {
		t.Fatal("test proved nothing: no request saw a 429 overload shed")
	}
	if shed503.Load() == 0 {
		t.Fatal("test proved nothing: no request saw a 503")
	}
	t.Logf("acked %d points exactly (%d x 429, %d x 503, %d acks post-recovery, %d client cancels)",
		want, shed429.Load(), shed503.Load(), postRecovery.Load(), s.def.coal.clientCancels.Value())
}

// TestReadGuardSheds: with every read slot taken, a data-plane read is
// shed with 429 + Retry-After while the operator endpoints keep
// answering; freeing a slot restores service.
func TestReadGuardSheds(t *testing.T) {
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Config{MaxReadConcurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.adm.readSem <- struct{}{}
	s.adm.readSem <- struct{}{}

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	rec := get("/v1/snapshot")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("snapshot with saturated read slots: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("read-guard 429 missing Retry-After")
	}
	var shed errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &shed); err != nil || shed.Reason != reasonOverloaded {
		t.Errorf("read-guard 429 reason = %q (err %v), want %q", shed.Reason, err, reasonOverloaded)
	}
	// Operator endpoints bypass the guard.
	if rec := get("/v1/stats"); rec.Code != http.StatusOK {
		t.Errorf("stats behind saturated read slots: status %d, want 200", rec.Code)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz behind saturated read slots: status %d, want 200", rec.Code)
	}
	<-s.adm.readSem
	if rec := get("/v1/snapshot"); rec.Code != http.StatusOK {
		t.Errorf("snapshot after freeing a slot: status %d, want 200", rec.Code)
	}
}

// TestClientCancelCounter: a client that gives up while its request
// is parked on a full queue gets a 503 and is counted in the
// edmserved_coalescer_client_cancels_total counter (the PR 6 metrics
// gap: this path used to return without incrementing anything).
func TestClientCancelCounter(t *testing.T) {
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The coalescer is deliberately NOT started: the queue (capacity 1)
	// fills and stays full, so the second request parks in the enqueue
	// select until its context dies.
	s, err := New(c, Config{MaxPending: 1, IngestDeadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	send := func(ctx context.Context, done chan<- int) {
		raw, _ := json.Marshal([]map[string]any{{"vector": []float64{1, 1}}})
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(raw)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		done <- rec.Code
	}
	first := make(chan int, 1)
	go send(context.Background(), first) // fills the queue, waits for a reply

	// Wait until the queue is occupied so the next request must park.
	deadline := time.Now().Add(2 * time.Second)
	for s.def.coal.pending.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never entered the queue")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan int, 1)
	go send(ctx, second)
	time.Sleep(20 * time.Millisecond) // let it park on the full queue
	cancel()
	if code := <-second; code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled enqueue status %d, want 503", code)
	}
	if got := s.def.coal.clientCancels.Value(); got != 1 {
		t.Fatalf("client_cancels counter = %d, want 1", got)
	}

	// Drain: starting the coalescer services the first request, and the
	// counter must appear in /v1/stats.
	s.StartDetached()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request status %d, want 200", code)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Server.Coalescer.ClientCancels != 1 {
		t.Fatalf("stats client_cancels = %d, want 1", stats.Server.Coalescer.ClientCancels)
	}
	ctxSd, cancelSd := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelSd()
	if err := s.Shutdown(ctxSd); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestHTTPTimeoutsWired: New must arm every http.Server timeout, with
// the write timeout leaving room for the long-poll hold.
func TestHTTPTimeoutsWired(t *testing.T) {
	c, err := edmstream.New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, Config{LongPollTimeout: 7 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if s.http.ReadTimeout != defaultReadTimeout {
		t.Errorf("ReadTimeout = %v, want %v", s.http.ReadTimeout, defaultReadTimeout)
	}
	if s.http.IdleTimeout != defaultIdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", s.http.IdleTimeout, defaultIdleTimeout)
	}
	if s.http.ReadHeaderTimeout == 0 {
		t.Error("ReadHeaderTimeout unset")
	}
	if want := 7*time.Second + defaultWriteTimeoutSlack; s.http.WriteTimeout != want {
		t.Errorf("WriteTimeout = %v, want %v (LongPollTimeout + slack)", s.http.WriteTimeout, want)
	}
	if s.http.WriteTimeout <= 7*time.Second {
		t.Error("WriteTimeout does not clear the long-poll hold")
	}
}
