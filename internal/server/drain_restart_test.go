package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
)

// latticePoints is a 2-D stream over a sites×sites lattice of sites 4
// apart with random weights, emitted in bursts of 2–6 points per site
// plus 0.5% uniform noise, at 1000 points per stream-second. With a
// cell radius of 1 every site is its own cell, and the light sites
// lead small clusters whose peaks decay, are demoted and are deleted
// between clustering refreshes.
func latticePoints(seed int64, n, sites int) []edmstream.Point {
	const spacing = 4.0
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, sites*sites)
	total := 0.0
	for i := range cum {
		total += 1 + 20*rng.Float64()
		cum[i] = total
	}
	span := float64(sites) * spacing
	pts := make([]edmstream.Point, 0, n)
	emit := func(x, y float64) {
		pts = append(pts, edmstream.Point{
			ID: int64(len(pts)), Vector: []float64{x, y}, Time: float64(len(pts)) / 1000, Label: edmstream.NoLabel,
		})
	}
	for len(pts) < n {
		if rng.Float64() < 0.005 {
			emit(rng.Float64()*span, rng.Float64()*span)
			continue
		}
		s := sort.SearchFloat64s(cum, rng.Float64()*total)
		x, y := float64(s/sites)*spacing, float64(s%sites)*spacing
		for b := 2 + rng.Intn(5); b > 0 && len(pts) < n; b-- {
			emit(x+rng.NormFloat64()*0.25, y+rng.NormFloat64()*0.25)
		}
	}
	return pts
}

// TestDrainCheckpointRestartEquivalence restarts a durable server from
// its own drain checkpoint every few batches of a lattice stream, so
// across the seeds many drain checkpoints land between a cluster
// peak's deletion and the next refresh. Every restart must succeed
// from that checkpoint alone, and the restarted server's /v1/snapshot
// must be byte-identical to that of a never-restarted engine fed the
// same prefix.
func TestDrainCheckpointRestartEquivalence(t *testing.T) {
	opts := edmstream.Options{Radius: 1, Rate: 1000}
	const batch, restartEvery = 64, 4
	get := func(t *testing.T, s *Server, path string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	boot := func(t *testing.T, c *edmstream.Clusterer, dir string) *Server {
		t.Helper()
		// Periodic checkpoints off: every restart loads a drain
		// checkpoint.
		s, err := New(c, Config{DataDir: dir, CheckpointEvery: 1 << 30})
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		s.StartDetached()
		return s
	}
	shutdown := func(t *testing.T, s *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			pts := latticePoints(seed, 3200, 20)
			dir := t.TempDir()
			ref, err := edmstream.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			// The reference server only renders the reference engine's
			// snapshot; its runtime never starts, so feeding the
			// engine directly races nothing.
			refSrv, err := New(ref, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, refSrv)
			c, err := edmstream.New(opts)
			if err != nil {
				t.Fatal(err)
			}
			s := boot(t, c, dir)
			for b := 0; b*batch < len(pts); b++ {
				chunk := pts[b*batch : (b+1)*batch]
				wire := make([]map[string]any, len(chunk))
				for i, p := range chunk {
					wire[i] = map[string]any{"id": p.ID, "vector": p.Vector, "time": p.Time}
				}
				body, err := json.Marshal(wire)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("batch %d: ingest status %d: %s", b, rec.Code, rec.Body)
				}
				if err := ref.InsertBatch(chunk); err != nil {
					t.Fatal(err)
				}
				if (b+1)%restartEvery != 0 {
					continue
				}
				shutdown(t, s)
				if c, err = edmstream.New(opts); err != nil {
					t.Fatal(err)
				}
				s = boot(t, c, dir)
				if info := s.RecoveryInfo(); !info.HasCheckpoint || info.RecordsReplayable != 0 {
					t.Fatalf("batch %d: restart did not load the drain checkpoint alone: %+v", b, info)
				}
				if got, want := get(t, s, "/v1/snapshot"), get(t, refSrv, "/v1/snapshot"); !bytes.Equal(got, want) {
					t.Fatalf("batch %d: restarted snapshot differs from the uninterrupted engine's:\n  got  %s\n  want %s", b, got, want)
				}
			}
			shutdown(t, s)
		})
	}
}
