package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/stream"
)

// This file is the parent side of the drill harness the wal, overload,
// dr and tenants drills share: the engine configuration, the pre-rendered
// ingest bodies, one view of /v1/stats, one ledger verifier, the
// reference replay, the post-restart liveness tail and the artifact
// writer. The drills differ only in their faults and their traffic.

const (
	// drillBatch is the points per ingest request of the kill drills
	// (wal, dr, tenants): small enough that concurrent writers give
	// the coalescer real merging work, large enough to be a sane
	// client batch.
	drillBatch = 128
	// drillWarmup is the pre-measurement stream: enough to initialize
	// the DP-Tree (InitPoints 500) and publish a first clustering.
	drillWarmup = 1024
)

// walOptions is the engine configuration shared by every child, the
// in-process servers and the parent's reference engines: grid index,
// slow decay for a stable steady-state density ranking, evolution
// tracking on so the events endpoint has traffic.
func walOptions(rate float64) edmstream.Options {
	return edmstream.Options{
		Radius:      1.0,
		Rate:        rate,
		Decay:       stream.Decay{A: 0.99999, Lambda: rate},
		Beta:        3e-5,
		Tau:         6.0,
		InitPoints:  500,
		IndexPolicy: edmstream.IndexGrid,
	}
}

// drillBodies pre-renders the stream as ingest request bodies of
// drillBatch points each (dropping the tail remainder).
func drillBodies(pts []stream.Point) ([][]byte, error) {
	type wirePt struct {
		ID     int64     `json:"id"`
		Vector []float64 `json:"vector"`
		Time   float64   `json:"time"`
	}
	bodies := make([][]byte, 0, len(pts)/drillBatch)
	batch := make([]wirePt, drillBatch)
	for b := 0; b+drillBatch <= len(pts); b += drillBatch {
		for i := range batch {
			p := pts[b+i]
			batch[i] = wirePt{ID: p.ID, Vector: p.Vector, Time: p.Time}
		}
		raw, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("bench: rendering ingest body: %w", err)
		}
		bodies = append(bodies, raw)
	}
	return bodies, nil
}

// statsView is the union of the GET /v1/stats fields the drills read
// (the wire contract, decoded like any other client would).
type statsView struct {
	Engine struct {
		Points int64 `json:"Points"`
	} `json:"engine"`
	Server struct {
		Degraded  bool `json:"degraded"`
		Admission struct {
			DegradedEntered   uint64 `json:"degraded_entered"`
			DegradedRecovered uint64 `json:"degraded_recovered"`
		} `json:"admission"`
		Durability *struct {
			BudgetCheckpoints    uint64 `json:"budget_checkpoints"`
			ReplayPointsPerSec   int64  `json:"replay_points_per_sec"`
			CheckpointCompressed bool   `json:"checkpoint_compressed"`
			Recovery             struct {
				HasCheckpoint   bool `json:"has_checkpoint"`
				RecordsReplayed int  `json:"records_replayed"`
			} `json:"recovery"`
		} `json:"durability"`
		Archive *struct {
			ShippedBytes         uint64               `json:"shipped_bytes"`
			ReadBytes            uint64               `json:"read_bytes"`
			Failed               uint64               `json:"failed"`
			Retried              uint64               `json:"retried"`
			LagObjects           int64                `json:"lag_objects"`
			Lagging              bool                 `json:"lagging"`
			ShippedThroughSeq    uint64               `json:"shipped_through_seq"`
			ShippedCheckpointSeq uint64               `json:"shipped_checkpoint_seq"`
			Restore              *archive.RestoreInfo `json:"restore"`
		} `json:"archive"`
		Tenancy struct {
			Evictions uint64 `json:"evictions"`
			Revivals  uint64 `json:"revivals"`
		} `json:"tenancy"`
	} `json:"server"`
}

// fetchStats reads one stream's stats: url is base+"/v1/stats" for
// the default stream, base+"/v1/<name>/stats" for a named one.
func fetchStats(client *http.Client, url string) (statsView, error) {
	raw, err := politeRetry.get(client, url)
	if err != nil {
		return statsView{}, err
	}
	var st statsView
	if err := json.Unmarshal(raw, &st); err != nil {
		return statsView{}, fmt.Errorf("bench: stats response: %w", err)
	}
	return st, nil
}

// checkLedger is the one recovery contract every drill asserts on the
// points a restarted server holds: whole batches of batch points only,
// and lo <= recovered <= hi. Each drill passes its own bounds — what
// was acknowledged (or archived) below, what may have committed
// without an acknowledgement above.
func checkLedger(what string, recovered, batch, lo, hi int64) error {
	switch {
	case recovered%batch != 0:
		return fmt.Errorf("bench: %s kept a partial batch: %d points is not a multiple of %d", what, recovered, batch)
	case recovered < lo:
		return fmt.Errorf("bench: %s lost points: %d recovered, at least %d required", what, recovered, lo)
	case recovered > hi:
		return fmt.Errorf("bench: %s invented points: %d recovered, at most %d possible", what, recovered, hi)
	}
	return nil
}

// checkReplay is the byte-identity half of the ledger: a fresh engine
// fed the first recovered points of pts directly must publish exactly
// the clustering the recovered server serves at snapURL, which only
// determinism plus the checkpoint+replay equivalence make possible.
func checkReplay(client *http.Client, snapURL string, pts []stream.Point, recovered int64, rate float64) error {
	got, err := politeRetry.get(client, snapURL)
	if err != nil {
		return err
	}
	ref, err := edmstream.New(walOptions(rate))
	if err != nil {
		return fmt.Errorf("bench: building reference clusterer: %w", err)
	}
	for b := int64(0); b < recovered; b += drillBatch {
		if err := ref.InsertBatch(pts[b : b+drillBatch]); err != nil {
			return fmt.Errorf("bench: reference replay: %w", err)
		}
	}
	refSrv, err := server.New(ref, server.Config{})
	if err != nil {
		return fmt.Errorf("bench: building reference server: %w", err)
	}
	refSrv.StartDetached()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = refSrv.Shutdown(ctx)
	}()
	want := httptest.NewRecorder()
	refSrv.Handler().ServeHTTP(want, httptest.NewRequest(http.MethodGet, "/v1/snapshot", nil))
	if want.Code != http.StatusOK {
		return fmt.Errorf("bench: reference snapshot status %d", want.Code)
	}
	if !bytes.Equal(got, want.Body.Bytes()) {
		return fmt.Errorf("bench: %s diverges from a fresh engine fed the same %d points (%d vs %d snapshot bytes)",
			snapURL, recovered, len(got), want.Body.Len())
	}
	return nil
}

// liveStream is one stream's post-restart liveness traffic.
type liveStream struct {
	// prefix is the stream's endpoint root: "/v1" for the default
	// stream, "/v1/<name>" for a named one.
	prefix    string
	bodies    [][]byte
	recovered int64 // points the stream held after the restart
}

// finishLive is the tail of the kill drills: every stream must accept
// its liveness batches and then hold exactly its recovered points plus
// those (recovery yields a server, not a read-only museum), and the
// child must then drain on SIGTERM and exit 0. It returns the last
// stream's final point count.
func finishLive(client *http.Client, c *benchChild, streams ...liveStream) (int64, error) {
	var points int64
	for _, ls := range streams {
		for _, body := range ls.bodies {
			if err := politeRetry.post(client, c.url+ls.prefix+"/ingest", body); err != nil {
				return 0, fmt.Errorf("bench: post-restart ingest on %s: %w", ls.prefix, err)
			}
		}
		st, err := fetchStats(client, c.url+ls.prefix+"/stats")
		if err != nil {
			return 0, err
		}
		points = st.Engine.Points
		if want := ls.recovered + int64(len(ls.bodies))*drillBatch; points != want {
			return 0, fmt.Errorf("bench: %s holds %d points after the post-restart ingest, want %d", ls.prefix, points, want)
		}
	}
	if err := c.stop(); err != nil {
		return 0, fmt.Errorf("bench: graceful shutdown after recovery: %v", err)
	}
	return points, nil
}

// WriteJSON writes an experiment's report as the indented JSON
// artifact at path.
func WriteJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshaling %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
