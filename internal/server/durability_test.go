package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/obs"
)

// recoverFresh builds a fresh clusterer and recovers it from the WAL
// directory exactly the way a restarted server would.
func recoverFresh(t *testing.T, opts edmstream.Options, dir string) *edmstream.Clusterer {
	t.Helper()
	c, err := edmstream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := openDurability(c, Config{DataDir: dir}.withDefaults(), dir, "", obs.NewRegistry(), nil)
	if err != nil {
		t.Fatalf("recovering from %s: %v", dir, err)
	}
	if err := d.log.Close(); err != nil {
		t.Fatalf("closing recovered log: %v", err)
	}
	return c
}

// checkpointBytes serializes an engine's complete state; two engines
// with equal bytes are indistinguishable.
func checkpointBytes(t *testing.T, c *edmstream.Clusterer) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestGracefulShutdownDurableAckOnDisk is the durable-mode variant of
// TestGracefulShutdownDropsNoAcceptedIngest: writers hammer ingest
// while the server shuts down, and afterwards every acknowledged point
// must be recoverable FROM DISK by a fresh process — the ack contract
// upgrades from "applied" to "durable". The recovered engine must not
// merely hold the right count: its serialized state must be
// byte-identical to the live engine's.
func TestGracefulShutdownDurableAckOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, c, base := startServer(t, testOptions(), Config{
		DataDir:         dir,
		CheckpointEvery: 500,
	})

	const writers = 4
	const ptsPerReq = 25
	var acceptedPts atomic.Int64
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
				default:
					t.Errorf("unexpected ingest status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	want := acceptedPts.Load()
	if want == 0 {
		t.Fatal("test proved nothing: no request was acknowledged before shutdown")
	}
	if got := c.Stats().Points; got != want {
		t.Fatalf("live engine holds %d points but %d were acknowledged", got, want)
	}

	recovered := recoverFresh(t, testOptions(), dir)
	if got := recovered.Stats().Points; got != want {
		t.Fatalf("recovered engine holds %d points but %d were acknowledged: an acknowledged ingest did not survive on disk", got, want)
	}
	if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, c)) {
		t.Fatal("recovered engine state differs from the live engine over the same acknowledged stream")
	}
}

// TestServerCrashRecoveryEquivalence models the crash (not the
// graceful exit): after a burst of acknowledged ingest the WAL
// directory is copied as-is — no final checkpoint, exactly what a
// SIGKILL would leave, since every acknowledged batch was fsynced —
// and a fresh engine recovered from the copy must be byte-identical
// to the live one.
func TestServerCrashRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, c, base := startServer(t, testOptions(), Config{
		DataDir:         dir,
		CheckpointEvery: 150, // several checkpoints plus a live tail
	})

	pts := twoBlobPoints(600, 1)
	for i := 0; i < len(pts); i += 50 {
		var ack ingestResponse
		resp := postJSON(t, base+"/v1/ingest", pts[i:i+50], &ack)
		if resp.StatusCode != http.StatusOK || ack.Accepted != 50 {
			t.Fatalf("ingest chunk %d: status %d, accepted %d", i/50, resp.StatusCode, ack.Accepted)
		}
	}

	// Freeze the crash image while the server is still running (no
	// writes are in flight: every request above was acknowledged, and
	// acknowledged means fsynced).
	crashDir := t.TempDir() + "/image"
	if err := os.CopyFS(crashDir, os.DirFS(dir)); err != nil {
		t.Fatalf("copying WAL dir: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	recovered := recoverFresh(t, testOptions(), crashDir)
	if got, want := recovered.Stats(), c.Stats(); got != want {
		t.Fatalf("recovered stats differ:\n  recovered %+v\n  live      %+v", got, want)
	}
	if !bytes.Equal(checkpointBytes(t, recovered), checkpointBytes(t, c)) {
		t.Fatal("crash-recovered engine state differs from the live engine")
	}

	// The graceful path through the original dir recovers identically.
	regraceful := recoverFresh(t, testOptions(), dir)
	if !bytes.Equal(checkpointBytes(t, regraceful), checkpointBytes(t, c)) {
		t.Fatal("shutdown-recovered engine state differs from the live engine")
	}
}

// TestStatsReportsDurability: /v1/stats carries the WAL section when
// (and only when) the server runs with a data dir.
func TestStatsReportsDurability(t *testing.T) {
	_, _, base := startServer(t, testOptions(), Config{DataDir: t.TempDir()})
	var ack ingestResponse
	postJSON(t, base+"/v1/ingest", twoBlobPoints(50, 2), &ack)
	if ack.Accepted != 50 {
		t.Fatalf("setup ingest: %+v", ack)
	}
	var stats statsResponse
	getJSON(t, base+"/v1/stats", &stats)
	d := stats.Server.Durability
	if d == nil {
		t.Fatal("durable server reports no durability stats")
	}
	if d.Records == 0 || d.Bytes == 0 || d.Segments == 0 {
		t.Fatalf("durability stats look idle after 50 acknowledged points: %+v", d)
	}
	if d.Recovery.HasCheckpoint || d.Recovery.RecordsReplayed != 0 {
		t.Fatalf("fresh dir should recover nothing: %+v", d.Recovery)
	}

	_, _, base2 := startServer(t, testOptions(), Config{})
	var stats2 statsResponse
	getJSON(t, base2+"/v1/stats", &stats2)
	if stats2.Server.Durability != nil {
		t.Fatal("in-memory server reports durability stats")
	}
}

// TestServerRecoveryAcrossRestart boots a second server on the same
// data dir and keeps ingesting: the recovered instance serves reads
// immediately and its recovery info reaches /v1/stats.
func TestServerRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, c1, base1 := startServer(t, testOptions(), Config{DataDir: dir, CheckpointEvery: 100})
	var ack ingestResponse
	postJSON(t, base1+"/v1/ingest", twoBlobPoints(400, 3), &ack)
	if ack.Accepted != 400 {
		t.Fatalf("first-life ingest: %+v", ack)
	}
	snap1 := c1.LastSnapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, c2, base2 := startServer(t, testOptions(), Config{DataDir: dir, CheckpointEvery: 100})
	if got := c2.Stats().Points; got != 400 {
		t.Fatalf("restarted server recovered %d points, want 400", got)
	}
	if !s2.RecoveryInfo().HasCheckpoint {
		t.Fatalf("restart found no checkpoint after a graceful shutdown: %+v", s2.RecoveryInfo())
	}
	// The published snapshot (the read path) survived the restart.
	snap2 := c2.LastSnapshot()
	if snap2.Time != snap1.Time || len(snap2.Clusters) != len(snap1.Clusters) {
		t.Fatalf("recovered snapshot differs: time %v vs %v, %d vs %d clusters",
			snap2.Time, snap1.Time, len(snap2.Clusters), len(snap1.Clusters))
	}
	// And the second life keeps ingesting on the same stream.
	postJSON(t, base2+"/v1/ingest", twoBlobPoints(100, 4), &ack)
	if ack.Accepted != 100 {
		t.Fatalf("second-life ingest: %+v", ack)
	}
	if got := c2.Stats().Points; got != 500 {
		t.Fatalf("engine holds %d points after the second life, want 500", got)
	}
}

// TestDurabilityConfigValidation covers the new Config fields.
func TestDurabilityConfigValidation(t *testing.T) {
	bad := []Config{
		{WALSegmentBytes: -1},
		{CheckpointEvery: -5},
		{WALNoSync: true}, // no DataDir to skip syncing
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated but should not", i, cfg)
		}
	}
	good := Config{DataDir: t.TempDir(), WALNoSync: true, WALSegmentBytes: 1 << 20, CheckpointEvery: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid durable config rejected: %v", err)
	}
	if got := (Config{}).withDefaults().CheckpointEvery; got != defaultCheckpointEvery {
		t.Errorf("CheckpointEvery default = %d, want %d", got, defaultCheckpointEvery)
	}
}

// TestBatchRecordCodec round-trips vector, token and labeled points
// through the WAL record encoding, and rejects truncations at every
// length — a decoder panic during recovery would turn a benign torn
// record into a crash loop.
func TestBatchRecordCodec(t *testing.T) {
	pts := []edmstream.Point{
		{ID: 1, Vector: []float64{1.5, -2.25, 0}, Label: 3, Time: 0.75},
		{ID: -9, Vector: []float64{0.125}, Label: edmstream.NoLabel, Time: 123.5},
		{ID: 42, Tokens: edmstream.NewTokenSet("gamma", "alpha", "beta"), Label: 0, Time: 2},
		{ID: 0, Tokens: edmstream.NewTokenSet(""), Label: -7, Time: 0},
	}
	raw := encodeBatchRecord(pts)
	got, err := decodeBatchRecord(raw)
	if err != nil {
		t.Fatalf("decodeBatchRecord: %v", err)
	}
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i := range pts {
		p, q := pts[i], got[i]
		if p.ID != q.ID || p.Label != q.Label || p.Time != q.Time {
			t.Fatalf("point %d scalars differ: %+v vs %+v", i, p, q)
		}
		if len(p.Vector) != len(q.Vector) {
			t.Fatalf("point %d vector length differs", i)
		}
		for j := range p.Vector {
			if p.Vector[j] != q.Vector[j] {
				t.Fatalf("point %d coordinate %d differs", i, j)
			}
		}
		if (p.Tokens == nil) != (q.Tokens == nil) || p.Tokens.Len() != q.Tokens.Len() {
			t.Fatalf("point %d tokens differ", i)
		}
		for _, tok := range p.Tokens.Tokens() {
			if !q.Tokens.Contains(tok) {
				t.Fatalf("point %d lost token %q", i, tok)
			}
		}
	}
	// Deterministic bytes: re-encoding the decoded batch is identical
	// (token sets are maps; the codec must sort).
	if !bytes.Equal(encodeBatchRecord(got), raw) {
		t.Fatal("batch record encoding is not deterministic")
	}
	// Every truncation errors cleanly.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodeBatchRecord(raw[:cut]); err == nil {
			t.Fatalf("decodeBatchRecord accepted a record truncated to %d bytes", cut)
		}
	}
	if _, err := decodeBatchRecord(append(raw[:len(raw):len(raw)], 0)); err == nil {
		t.Fatal("decodeBatchRecord accepted trailing garbage")
	}
}
