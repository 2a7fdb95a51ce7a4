package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGracefulShutdownDropsNoAcceptedIngest is the shutdown
// regression test: writers hammer the ingest endpoint while the
// server shuts down mid-flight, and afterwards every point whose
// request was acknowledged (HTTP 200) must be present in the engine —
// an ack is a durability promise the drain must honor. Requests that
// straddle the shutdown may get 503 (not accepted, free to retry);
// what is never allowed is a 200 whose points are missing.
func TestGracefulShutdownDropsNoAcceptedIngest(t *testing.T) {
	s, c, base := startServer(t, testOptions(), Config{})

	const writers = 6
	const ptsPerReq = 25
	var acceptedPts atomic.Int64
	var rejected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := make([]map[string]any, ptsPerReq)
				for j := range req {
					req[j] = map[string]any{
						"vector": []float64{float64(w) * 3, float64(i%7) * 3},
						"time":   float64(i) / 1000,
					}
				}
				raw, _ := json.Marshal(req)
				resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(raw))
				if err != nil {
					// Connection-level failure after shutdown: nothing
					// was acknowledged.
					return
				}
				var ack ingestResponse
				decodeErr := json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decodeErr != nil {
						t.Errorf("200 with undecodable ack: %v", decodeErr)
						return
					}
					acceptedPts.Add(int64(ack.Accepted))
				case http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					t.Errorf("unexpected ingest status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Let traffic build, then shut down while requests are in flight.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	got := c.Stats().Points
	want := acceptedPts.Load()
	if got != want {
		t.Fatalf("engine holds %d points but %d were acknowledged: acknowledged ingest was dropped (or phantom points appeared)", got, want)
	}
	if want == 0 {
		t.Fatal("test proved nothing: no request was acknowledged before shutdown")
	}
	t.Logf("acknowledged %d points across shutdown (%d requests rejected while draining), all present", want, rejected.Load())

	// After shutdown the server refuses new work but stays readable.
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader([]byte(`[{"vector":[0,0]}]`)))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-shutdown ingest status %d, want 503 (or connection refused)", resp.StatusCode)
		}
	}
}

// TestShutdownReleasesLongPolls: a parked /v1/events long-poll must
// return promptly (empty page, not an error) when shutdown begins, so
// the HTTP drain is not held hostage by the poll timeout.
func TestShutdownReleasesLongPolls(t *testing.T) {
	s, _, base := startServer(t, testOptions(), Config{})

	type result struct {
		status int
		page   eventsResponse
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/v1/events?cursor=0&wait=25s")
		if err != nil {
			done <- result{err: err}
			return
		}
		var p eventsResponse
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		done <- result{status: resp.StatusCode, page: p, err: err}
	}()
	time.Sleep(100 * time.Millisecond) // park the poll

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("shutdown took %v: long-poll held the drain", elapsed)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("long-poll errored at shutdown: %v", res.err)
		}
		if res.status != http.StatusOK {
			t.Errorf("long-poll status %d at shutdown, want 200 empty page", res.status)
		}
		if len(res.page.Events) != 0 {
			t.Errorf("idle engine long-poll returned events: %+v", res.page)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still parked after shutdown returned")
	}
}

// TestShutdownIdempotent: calling Shutdown twice is safe (the test
// cleanup in every other test relies on this).
func TestShutdownIdempotent(t *testing.T) {
	s, _, base := startServer(t, testOptions(), Config{})
	var ack ingestResponse
	postJSON(t, base+"/v1/ingest", []map[string]any{{"vector": []float64{1, 2}}}, &ack)
	if ack.Accepted != 1 {
		t.Fatalf("setup ingest failed: %+v", ack)
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown %d: %v", i, err)
		}
		cancel()
	}
}

// TestHealthzReportsDraining: the health endpoint flips to 503 during
// shutdown so load balancers stop routing to a draining instance.
// (Exercised through the handler directly: the real listener is
// already closed to new connections at that point.)
func TestHealthzReportsDraining(t *testing.T) {
	s, _, base := startServer(t, testOptions(), Config{})
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", rec.Code)
	}
}
