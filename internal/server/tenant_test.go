package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/densitymountain/edmstream"
)

// tenantConfig is the base multi-tenant server configuration: an
// engine factory cloning the test options, so named streams can be
// created lazily.
func tenantConfig() Config {
	return Config{
		NewEngine: func() (*edmstream.Clusterer, error) { return edmstream.New(testOptions()) },
	}
}

// fetch runs one request and returns the status and raw body.
func fetch(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// doReq runs one request and returns the status and decoded error
// body (zero-valued when the body is not an errorResponse).
func doReq(t *testing.T, method, url string, body []byte) (int, errorResponse) {
	t.Helper()
	code, raw := fetch(t, method, url, body)
	var e errorResponse
	_ = json.Unmarshal(raw, &e)
	return code, e
}

// TestTenantIsolation: two named streams fed different data serve
// different clusterings; neither leaks into the other or into the
// default stream, and each tenant's full endpoint surface works under
// its prefix.
func TestTenantIsolation(t *testing.T) {
	_, _, base := startServer(t, testOptions(), tenantConfig())

	// Stream "alpha" gets the two-blob stream, "beta" a single blob at
	// a different spot, the default stream stays empty.
	alpha := twoBlobPoints(2000, 7)
	beta := make([]map[string]any, 2000)
	rng := rand.New(rand.NewSource(8))
	for i := range beta {
		beta[i] = map[string]any{
			"id":     i,
			"vector": []float64{30 + rng.NormFloat64()*0.5, -20 + rng.NormFloat64()*0.5},
			"time":   float64(i) / 1000,
		}
	}
	var ack ingestResponse
	if resp := postJSON(t, base+"/v1/alpha/ingest", alpha, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha ingest status %d", resp.StatusCode)
	}
	if ack.Accepted != len(alpha) {
		t.Fatalf("alpha accepted %d of %d", ack.Accepted, len(alpha))
	}
	if resp := postJSON(t, base+"/v1/beta/ingest", beta, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta ingest status %d", resp.StatusCode)
	}

	var alphaSnap, betaSnap snapshotResponse
	getJSON(t, base+"/v1/alpha/snapshot", &alphaSnap)
	getJSON(t, base+"/v1/beta/snapshot", &betaSnap)
	if len(alphaSnap.Clusters) < 2 {
		t.Errorf("alpha: %d clusters, want the two blobs", len(alphaSnap.Clusters))
	}
	if len(betaSnap.Clusters) == 0 {
		t.Error("beta: no clusters after ingest")
	}
	// Each stream accounted for exactly its own points.
	sum := func(snap snapshotResponse) (n int64) {
		for _, cl := range snap.Clusters {
			n += cl.Points
		}
		return n
	}
	if got := sum(alphaSnap); got > int64(len(alpha)) {
		t.Errorf("alpha clusters hold %d points, more than the %d ingested", got, len(alpha))
	}
	if got := sum(betaSnap); got > int64(len(beta)) {
		t.Errorf("beta clusters hold %d points, more than the %d ingested", got, len(beta))
	}

	// The default stream saw none of it.
	var defSnap snapshotResponse
	getJSON(t, base+"/v1/snapshot", &defSnap)
	if len(defSnap.Clusters) != 0 {
		t.Errorf("default stream has %d clusters; tenant data leaked", len(defSnap.Clusters))
	}

	// Per-tenant stats carry the stream name and that stream's counters.
	var st statsResponse
	getJSON(t, base+"/v1/alpha/stats", &st)
	if st.Server.Stream != "alpha" {
		t.Errorf("alpha stats says stream %q", st.Server.Stream)
	}
	if st.Server.Coalescer.Points != uint64(len(alpha)) {
		t.Errorf("alpha coalescer points = %d, want %d", st.Server.Coalescer.Points, len(alpha))
	}
	if st.Server.Tenancy.StreamsLive < 3 {
		t.Errorf("tenancy says %d live streams, want >= 3", st.Server.Tenancy.StreamsLive)
	}

	// Assign against alpha classifies near alpha's blobs, and beta's
	// points are outliers there.
	var asn assignResponse
	postJSON(t, base+"/v1/alpha/assign", alpha[:10], &asn)
	for i, id := range asn.Clusters {
		if id < 0 {
			t.Errorf("alpha point %d unassigned in alpha", i)
		}
	}
	postJSON(t, base+"/v1/alpha/assign", beta[:10], &asn)
	for i, id := range asn.Clusters {
		if id >= 0 {
			t.Errorf("beta point %d classified inside alpha's clustering (cluster %d)", i, id)
		}
	}
}

// TestDefaultStreamAlias pins the path rewrite: every un-prefixed
// /v1/* operation and its /v1/default/* spelling answer byte for byte
// alike. Two servers take the same request sequence, one per spelling,
// so the write ops compare too; stats drop only their wall-clock
// fields. Final reads through other spellings on the first server show
// they all address one stream, percent-escaped paths included.
func TestDefaultStreamAlias(t *testing.T) {
	_, _, plain := startServer(t, testOptions(), tenantConfig())
	_, _, prefixed := startServer(t, testOptions(), tenantConfig())
	pts := twoBlobPoints(1500, 3)
	first, _ := json.Marshal(pts[:1000])
	rest, _ := json.Marshal(pts[1000:])
	probes, _ := json.Marshal(pts[:50])

	pair := func(method, path string, body []byte) []byte {
		t.Helper()
		code, got := fetch(t, method, plain+path, body)
		aliasPath := strings.Replace(path, "/v1/", "/v1/default/", 1)
		aliasCode, want := fetch(t, method, prefixed+aliasPath, body)
		if code != http.StatusOK || aliasCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %s: status %d", method, path, code, aliasPath, aliasCode)
		}
		if strings.HasSuffix(path, "/stats") {
			got, want = stableStats(t, got), stableStats(t, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s differs from %s:\n%s\nvs\n%s", method, path, aliasPath,
				got[:min(len(got), 200)], want[:min(len(want), 200)])
		}
		return got
	}
	pair("POST", "/v1/ingest", first)
	pair("POST", "/v1/ingest", rest)
	pair("POST", "/v1/assign", probes)
	var snap snapshotResponse
	if err := json.Unmarshal(pair("GET", "/v1/snapshot", nil), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Clusters) == 0 {
		t.Fatal("no clusters published")
	}
	pair("GET", fmt.Sprintf("/v1/clusters/%d", snap.Clusters[0].ID), nil)
	if events := pair("GET", "/v1/events?cursor=0", nil); !bytes.Contains(events, []byte(`"kind"`)) {
		t.Errorf("no evolution events to compare: %s", events)
	}
	pair("GET", "/v1/stats", nil)

	_, plainSnap := fetch(t, "GET", plain+"/v1/snapshot", nil)
	for _, path := range []string{"/v1/default/snapshot", "/v1/snap%73hot"} {
		if _, got := fetch(t, "GET", plain+path, nil); !bytes.Equal(plainSnap, got) {
			t.Errorf("/v1/snapshot and %s of one server differ", path)
		}
	}
}

// stableStats re-encodes a stats body without the fields that measure
// wall-clock time, which differ between any two servers.
func stableStats(t *testing.T, raw []byte) []byte {
	t.Helper()
	var st statsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	st.Server.UptimeSeconds = 0
	c := &st.Server.Coalescer
	c.BatchWaitP50Sec, c.BatchWaitP99Sec, c.FlushP50Sec, c.FlushP99Sec = 0, 0, 0, 0
	a := &st.Server.Admission
	a.EstimatedWaitP50, a.EstimatedWaitP99 = 0, 0
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTenantErrorMapping pins the error surface the runbook documents:
// 400 invalid name, 404 unknown stream (reason unknown_stream), 429
// over the stream cap (reason overloaded), 404 unknown op, 405 wrong
// method on either spelling of an op, and 501 when the server has no
// engine factory.
func TestTenantErrorMapping(t *testing.T) {
	cfg := tenantConfig()
	cfg.MaxStreams = 3 // default + two named
	_, _, base := startServer(t, testOptions(), cfg)

	pts, _ := json.Marshal(twoBlobPoints(10, 1))

	// Invalid names never reach the registry.
	for _, name := range []string{"UPPER", "-lead", "streams", "clusters", "sp%20ace"} {
		if code, _ := doReq(t, "POST", base+"/v1/"+name+"/ingest", pts); code != http.StatusBadRequest {
			t.Errorf("ingest into invalid name %q: status %d, want 400", name, code)
		}
	}

	// Reads never create: an untouched name is 404 with the reason and
	// the creation hint.
	code, e := doReq(t, "GET", base+"/v1/ghost/snapshot", nil)
	if code != http.StatusNotFound || e.Reason != reasonUnknownStream {
		t.Errorf("unknown-stream read: status %d reason %q, want 404 %q", code, e.Reason, reasonUnknownStream)
	}
	if !strings.Contains(e.Error, "ingest") {
		t.Errorf("unknown-stream error %q should hint that ingest creates the stream", e.Error)
	}

	// Fill the cap, then the next new name sheds with 429.
	for _, name := range []string{"one", "two"} {
		if code, _ := doReq(t, "POST", base+"/v1/"+name+"/ingest", pts); code != http.StatusOK {
			t.Fatalf("ingest into %q: status %d", name, code)
		}
	}
	code, e = doReq(t, "POST", base+"/v1/three/ingest", pts)
	if code != http.StatusTooManyRequests || e.Reason != reasonOverloaded {
		t.Errorf("over-cap create: status %d reason %q, want 429 %q", code, e.Reason, reasonOverloaded)
	}
	// Existing streams keep working at the cap.
	if code, _ := doReq(t, "POST", base+"/v1/one/ingest", pts); code != http.StatusOK {
		t.Errorf("ingest into existing stream at cap: status %d, want 200", code)
	}

	// Unknown ops and path remainders 404 like unrouted paths, on both
	// spellings; an op on the reserved name "streams" is a bad name.
	for _, path := range []string{"/v1/bogus", "/v1/one/bogus", "/v1/snapshot/extra",
		"/v1/one/snapshot/extra", "/v1/one/clusters/1/extra", "/v1/default", "/v1/"} {
		if code, _ := doReq(t, "GET", base+path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
	if code, _ := doReq(t, "GET", base+"/v1/streams/snapshot", nil); code != http.StatusBadRequest {
		t.Errorf("GET /v1/streams/snapshot: status %d, want 400", code)
	}

	// A wrong method on a stream op is 405, however the stream is named.
	for _, tc := range []struct{ method, op string }{
		{"GET", "ingest"}, {"GET", "assign"}, {"POST", "snapshot"},
		{"PUT", "clusters/1"}, {"POST", "events"}, {"DELETE", "stats"},
	} {
		for _, prefix := range []string{"/v1/", "/v1/one/", "/v1/default/"} {
			if code, _ := doReq(t, tc.method, base+prefix+tc.op, nil); code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s%s: status %d, want 405", tc.method, prefix, tc.op, code)
			}
		}
	}

	// The admin routes are untouched by the rewrite.
	if code, _ := doReq(t, "GET", base+"/v1/streams", nil); code != http.StatusOK {
		t.Errorf("GET /v1/streams: status %d, want 200", code)
	}
	if code, _ := doReq(t, "DELETE", base+"/v1/streams/default", nil); code != http.StatusBadRequest {
		t.Errorf("DELETE /v1/streams/default: status %d, want 400", code)
	}
	if code, e := doReq(t, "DELETE", base+"/v1/streams/ghost", nil); code != http.StatusNotFound || e.Reason != reasonUnknownStream {
		t.Errorf("DELETE /v1/streams/ghost: status %d reason %q, want 404 %q", code, e.Reason, reasonUnknownStream)
	}
	// A stream named like an op is that named stream: at the cap it
	// cannot be created, and it was never the default stream.
	if code, e := doReq(t, "POST", base+"/v1/stats/ingest", pts); code != http.StatusTooManyRequests || e.Reason != reasonOverloaded {
		t.Errorf("POST /v1/stats/ingest at the cap: status %d reason %q, want 429 %q", code, e.Reason, reasonOverloaded)
	}
	if code, e := doReq(t, "GET", base+"/v1/stats/snapshot", nil); code != http.StatusNotFound || e.Reason != reasonUnknownStream {
		t.Errorf("GET /v1/stats/snapshot: status %d reason %q, want 404 %q", code, e.Reason, reasonUnknownStream)
	}

	// A factory-less server serves the default stream but cannot build
	// named ones: 501, not a silent new engine.
	_, _, base2 := startServer(t, testOptions(), Config{})
	if code, _ := doReq(t, "POST", base2+"/v1/named/ingest", pts); code != http.StatusNotImplemented {
		t.Errorf("named ingest without a factory: status %d, want 501", code)
	}
	if code, _ := doReq(t, "POST", base2+"/v1/ingest", pts); code != http.StatusOK {
		t.Errorf("default ingest without a factory: status %d, want 200", code)
	}

	// Below the cap, the op-named stream is created and serves itself.
	_, _, base3 := startServer(t, testOptions(), tenantConfig())
	if code, _ := doReq(t, "POST", base3+"/v1/stats/ingest", pts); code != http.StatusOK {
		t.Fatalf("POST /v1/stats/ingest: status %d, want 200", code)
	}
	var st statsResponse
	getJSON(t, base3+"/v1/stats/stats", &st)
	if st.Server.Stream != "stats" || st.Server.Coalescer.Points != 10 {
		t.Errorf("/v1/stats/stats: stream %q with %d points, want stream \"stats\" with 10", st.Server.Stream, st.Server.Coalescer.Points)
	}
	getJSON(t, base3+"/v1/stats", &st)
	if st.Server.Stream != DefaultStream || st.Server.Coalescer.Points != 0 {
		t.Errorf("/v1/stats: stream %q with %d points, want the empty default stream", st.Server.Stream, st.Server.Coalescer.Points)
	}
}

// TestStreamAdminEvictRevive drives the admin plane end to end:
// /v1/streams lists every stream with its state, DELETE evicts a named
// stream to disk, and the next touch revives it with a byte-identical
// snapshot. Also pins the evicted-streams counter and active-streams
// gauge (satellite #2).
func TestStreamAdminEvictRevive(t *testing.T) {
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	s, _, base := startServer(t, testOptions(), cfg)

	pts := twoBlobPoints(2000, 11)
	var ack ingestResponse
	if resp := postJSON(t, base+"/v1/tenant-a/ingest", pts, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	before, err := json.Marshal(mustStream(t, s, "tenant-a").c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	var list streamsResponse
	getJSON(t, base+"/v1/streams", &list)
	states := map[string]string{}
	for _, in := range list.Streams {
		states[in.Name] = in.State
	}
	if states[DefaultStream] != "live" || states["tenant-a"] != "live" {
		t.Fatalf("stream list before eviction: %v", states)
	}

	// The default stream refuses eviction outright.
	if code, _ := doReq(t, "DELETE", base+"/v1/streams/"+DefaultStream, nil); code != http.StatusBadRequest {
		t.Errorf("DELETE default: status %d, want 400", code)
	}
	// Unknown names 404 with the reason.
	code, e := doReq(t, "DELETE", base+"/v1/streams/ghost", nil)
	if code != http.StatusNotFound || e.Reason != reasonUnknownStream {
		t.Errorf("DELETE unknown: status %d reason %q", code, e.Reason)
	}

	// Evict tenant-a. The writer goes idle right after the ingest
	// response lands, but give it a moment under -race.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ = doReq(t, "DELETE", base+"/v1/streams/tenant-a", nil)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("DELETE tenant-a: status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	getJSON(t, base+"/v1/streams", &list)
	for _, in := range list.Streams {
		if in.Name == "tenant-a" && in.State != "evicted" {
			t.Errorf("tenant-a state after eviction = %q", in.State)
		}
	}
	metrics := getBody(t, base+"/metrics")
	if !strings.Contains(metrics, "edmserved_streams_evicted_total 1") {
		t.Errorf("metrics missing evicted counter:\n%.2000s", metrics)
	}
	if !strings.Contains(metrics, "edmserved_streams_active 1") {
		t.Errorf("metrics missing active gauge (only the default stream stays live):\n%.2000s", metrics)
	}
	if !strings.Contains(metrics, "edmserved_streams_registered 2") {
		t.Errorf("metrics missing registered gauge (evicted names stay registered):\n%.2000s", metrics)
	}

	// A read revives the stream transparently, and revival recovers the
	// exact evicted state: the eviction checkpoint plus WAL replay is
	// byte-identical to the engine that was released.
	resp, err := http.Get(base + "/v1/tenant-a/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revival read status %d", resp.StatusCode)
	}
	after, err := json.Marshal(mustStream(t, s, "tenant-a").c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("revived snapshot differs from the evicted one:\n%.300s\nvs\n%.300s", after, before)
	}
	var st statsResponse
	getJSON(t, base+"/v1/tenant-a/stats", &st)
	if st.Server.Tenancy.Evictions != 1 || st.Server.Tenancy.Revivals != 1 {
		t.Errorf("tenancy ledger = %d evictions / %d revivals, want 1/1",
			st.Server.Tenancy.Evictions, st.Server.Tenancy.Revivals)
	}
}

// evictStream force-evicts one named stream through the admin
// endpoint, retrying while its writer finishes the last batch.
func evictStream(t *testing.T, base, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := doReq(t, "DELETE", base+"/v1/streams/"+name, nil)
		if code == http.StatusOK {
			return
		}
		if code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("DELETE %s: status %d", name, code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEvictionReleasesStreamMemory: evicting a stream gives its memory
// back. After N durable named streams are created, fed and evicted,
// /metrics names none of them and the heap is within 8 KB per stream
// of where it started (one stream's distributions alone take ~24 KB,
// so instruments outliving their stream exceed it); reviving one
// brings its series back.
func TestEvictionReleasesStreamMemory(t *testing.T) {
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	_, _, base := startServer(t, testOptions(), cfg)
	feed := func(name string) {
		t.Helper()
		var ack ingestResponse
		if resp := postJSON(t, base+"/v1/"+name+"/ingest", twoBlobPoints(300, 3), &ack); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %s: status %d", name, resp.StatusCode)
		}
	}
	// One stream's round trip first, so one-time costs (buffer pools,
	// connections, lazily built tables) are paid before the baseline.
	feed("warm")
	evictStream(t, base, "warm")
	before := liveHeap()

	const n = 32
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		feed(name)
		if m := getBody(t, base+"/metrics"); !strings.Contains(m, `stream="`+name+`"`) {
			t.Fatalf("resident stream %s has no series", name)
		}
		evictStream(t, base, name)
	}
	metrics := getBody(t, base+"/metrics")
	for i := 0; i < n; i++ {
		if name := fmt.Sprintf(`stream="s%d"`, i); strings.Contains(metrics, name) {
			t.Fatalf("/metrics still names evicted %s", name)
		}
	}
	after := liveHeap()
	grown := int64(after) - int64(before)
	t.Logf("heap %d -> %d B over %d evicted streams", before, after, n)
	if grown > n*8<<10 {
		t.Errorf("heap grew %d B over %d evicted streams (%d B each), want at most 8 KB each", grown, n, grown/n)
	}

	// Revival registers the stream's instruments again, counters
	// restarted.
	if code, _ := fetch(t, "GET", base+"/v1/s7/snapshot", nil); code != http.StatusOK {
		t.Fatalf("revival read status %d", code)
	}
	metrics = getBody(t, base+"/metrics")
	if !strings.Contains(metrics, `edmserved_coalescer_batches_total{stream="s7"} 0`) {
		t.Errorf("revived stream's series missing or not restarted:\n%.3000s", metrics)
	}
}

// TestStreamDiscoveryAfterRestart: a named stream's on-disk state
// survives a full server restart — the new process registers it from
// the directory scan, so a plain read (which never creates) revives it
// instead of 404ing.
func TestStreamDiscoveryAfterRestart(t *testing.T) {
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	s1, _, base1 := startServer(t, testOptions(), cfg)

	pts := twoBlobPoints(1500, 21)
	var ack ingestResponse
	if resp := postJSON(t, base1+"/v1/persist/ingest", pts, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	before, _ := json.Marshal(mustStream(t, s1, "persist").c.Snapshot())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2, _, base2 := startServer(t, testOptions(), cfg)
	var snap snapshotResponse
	if resp := getJSON(t, base2+"/v1/persist/snapshot", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart read status %d (discovery failed?)", resp.StatusCode)
	}
	after, _ := json.Marshal(mustStream(t, s2, "persist").c.Snapshot())
	if !bytes.Equal(before, after) {
		t.Errorf("recovered stream differs from pre-restart state")
	}
}

// TestHealthzPerStream pins satellite #2's health surface: a degraded
// named stream keeps /healthz at 200 but flips the first line to
// "degraded" and adds its per-stream detail line; the degraded stream
// also refuses admin eviction (its WAL cannot take the checkpoint).
func TestHealthzPerStream(t *testing.T) {
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	s, _, base := startServer(t, testOptions(), cfg)

	pts := twoBlobPoints(200, 5)
	var ack ingestResponse
	if resp := postJSON(t, base+"/v1/shaky/ingest", pts, &ack); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	body := getBody(t, base+"/healthz")
	if !strings.HasPrefix(body, "ok\n") {
		t.Fatalf("healthy healthz = %q, want ok first line", body)
	}

	st := mustStream(t, s, "shaky")
	st.deg.enter(errors.New("disk on fire"))
	body = getBody(t, base+"/healthz")
	if !strings.HasPrefix(body, "degraded\n") {
		t.Errorf("degraded healthz first line wrong: %q", body)
	}
	if !strings.Contains(body, "stream shaky: degraded (disk on fire)") {
		t.Errorf("healthz missing the per-stream detail line: %q", body)
	}
	// Degraded streams cannot be evicted — the final checkpoint would
	// need the broken WAL.
	if code, _ := doReq(t, "DELETE", base+"/v1/streams/shaky", nil); code != http.StatusConflict {
		t.Errorf("DELETE degraded stream: status %d, want 409", code)
	}
	st.deg.exit()
	if body = getBody(t, base+"/healthz"); !strings.HasPrefix(body, "ok\n") {
		t.Errorf("recovered healthz = %q", body)
	}
}

// TestPerTenantDeterminism re-runs the network-path determinism pin
// through a tenant prefix: a single sequential writer on /v1/t1/*
// must land t1's engine in exactly the state direct InsertBatch calls
// produce — concurrent writers on other streams may never reorder or
// batch one stream's requests differently. Noise traffic on a second
// stream runs concurrently for the whole run.
func TestPerTenantDeterminism(t *testing.T) {
	const (
		n     = 3000
		batch = 150
	)
	opts := edmstream.Options{Radius: 1.2, InitPoints: 200}
	cfg := Config{
		NewEngine: func() (*edmstream.Clusterer, error) { return edmstream.New(opts) },
	}
	s, _, base := startServer(t, opts, cfg)

	raws := twoBlobPoints(n, 42)
	direct, err := edmstream.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var directAcks [][]int64
	for i := 0; i < n; i += batch {
		pts := make([]edmstream.Point, batch)
		for j, r := range raws[i : i+batch] {
			pts[j] = edmstream.Point{
				ID:     int64(r["id"].(int)),
				Vector: r["vector"].([]float64),
				Time:   r["time"].(float64),
				Label:  edmstream.NoLabel,
			}
		}
		acks, err := direct.InsertBatchAssigned(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		directAcks = append(directAcks, append([]int64(nil), acks...))
	}

	// Concurrent noise on a second stream, contending for the CPUs for
	// the whole run.
	stop := make(chan struct{})
	var noise sync.WaitGroup
	noise.Add(1)
	go func() {
		defer noise.Done()
		other := twoBlobPoints(n, 43)
		for i := 0; ; i = (i + 100) % n {
			select {
			case <-stop:
				return
			default:
			}
			postJSON(t, base+"/v1/noise/ingest", other[i:i+100], nil)
		}
	}()

	for i := 0; i < n; i += batch {
		var ack ingestResponse
		resp := postJSON(t, base+"/v1/t1/ingest", raws[i:i+batch], &ack)
		if resp.StatusCode != http.StatusOK || ack.Accepted != batch {
			t.Fatalf("batch %d: status %d, ack %+v", i/batch, resp.StatusCode, ack)
		}
		want := directAcks[i/batch]
		for j := range want {
			if ack.Cells[j] != want[j] {
				t.Fatalf("batch %d point %d: cell ack %d (http) vs %d (direct)", i/batch, j, ack.Cells[j], want[j])
			}
		}
	}
	close(stop)
	noise.Wait()

	servedSnap, _ := json.Marshal(mustStream(t, s, "t1").c.Snapshot())
	directSnap, _ := json.Marshal(direct.Snapshot())
	if !bytes.Equal(directSnap, servedSnap) {
		t.Errorf("t1 final snapshot differs from the direct replay:\nhttp:   %.400s\ndirect: %.400s", servedSnap, directSnap)
	}
}

// TestHotStreamDoesNotStarveQuiet: every stream has its own writer,
// so a stream flooded by concurrent writers cannot hold back another
// stream's ingests. While four writers flood "hot", twenty sequential
// ingests to "quiet" each return 200 within a second, and hot keeps
// committing batches during that window.
func TestHotStreamDoesNotStarveQuiet(t *testing.T) {
	s, _, base := startServer(t, testOptions(), tenantConfig())
	body := func(n, seed int) []byte {
		pts := make([]map[string]any, n)
		for i := range pts {
			pts[i] = map[string]any{"vector": []float64{float64((i + seed) % 7), float64(i % 5)}}
		}
		raw, _ := json.Marshal(pts)
		return raw
	}
	hot, quiet := body(256, 0), body(16, 3)
	if code, _ := doReq(t, "POST", base+"/v1/hot/ingest", hot); code != http.StatusOK {
		t.Fatalf("creating hot: status %d", code)
	}

	stop := make(chan struct{})
	var flood sync.WaitGroup
	for w := 0; w < 4; w++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/hot/ingest", "application/json", bytes.NewReader(hot))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	defer func() {
		close(stop)
		flood.Wait()
	}()

	hotBatches := mustStream(t, s, "hot").coal.batches
	before := hotBatches.Value()
	client := &http.Client{Timeout: time.Second}
	for i := 0; i < 20; i++ {
		resp, err := client.Post(base+"/v1/quiet/ingest", "application/json", bytes.NewReader(quiet))
		if err != nil {
			t.Fatalf("quiet ingest %d: no response within 1s: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("quiet ingest %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	if after := hotBatches.Value(); after <= before {
		t.Fatalf("hot committed no batch while quiet was served (%d → %d)", before, after)
	}
}

// TestEvictionInflightRace is satellite #3: writers on many streams
// race the budget/idle evictor and a mid-run shutdown, under -race.
// Every stream's recovered state after restart must equal a direct
// replay of exactly the batches its writer got acknowledged — eviction
// churn, revival and the drain may cost latency but never an
// acknowledged point, and never invent one.
func TestEvictionInflightRace(t *testing.T) {
	const (
		streams = 4
		batches = 40
		batch   = 50
	)
	cfg := tenantConfig()
	cfg.DataDir = t.TempDir()
	// A budget that cannot hold even one engine beyond the (unevictable)
	// default stream: every sweep evicts whatever named stream is idle,
	// so revival races ingest continuously. Sweeps run at 5ms.
	cfg.MemoryBudget = MinMemoryBudget
	cfg.EvictIdleAfter = 20 * time.Millisecond
	cfg.SweepInterval = 5 * time.Millisecond
	s, _, base := startServer(t, testOptions(), cfg)

	// Per-stream deterministic input, distinct across streams.
	inputs := make([][][]map[string]any, streams)
	for i := range inputs {
		all := twoBlobPoints(batches*batch, int64(100+i))
		inputs[i] = make([][]map[string]any, batches)
		for b := range inputs[i] {
			inputs[i][b] = all[b*batch : (b+1)*batch]
		}
	}

	type ledger struct {
		acked []int // batch indexes definitely acknowledged, in order
		maybe int   // trailing batch lost to a transport error, -1 if none
	}
	ledgers := make([]ledger, streams)
	var wg sync.WaitGroup
	var stopped atomic.Bool
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("race-%d", i)
			ledgers[i].maybe = -1
			for b := 0; b < batches; b++ {
				raw, _ := json.Marshal(inputs[i][b])
				for attempt := 0; ; attempt++ {
					resp, err := http.Post(base+"/v1/"+name+"/ingest", "application/json", bytes.NewReader(raw))
					if err != nil {
						// Transport error during the drain: the batch may or
						// may not have committed. Record the ambiguity and
						// stop this writer.
						ledgers[i].maybe = b
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusOK:
						ledgers[i].acked = append(ledgers[i].acked, b)
					case resp.StatusCode == http.StatusServiceUnavailable:
						// Draining: a clean refusal, the batch was not applied.
						return
					case attempt < 50:
						time.Sleep(2 * time.Millisecond)
						continue
					default:
						// Shed past patience: skip the batch (it was not
						// applied) and move on.
					}
					break
				}
			}
		}(i)
	}

	// Chaos evictor: admin evictions race the janitor's sweeps and the
	// writers' revivals.
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		rng := rand.New(rand.NewSource(1))
		for !stopped.Load() {
			name := fmt.Sprintf("race-%d", rng.Intn(streams))
			_, _ = s.streams.EvictNow(name)
			time.Sleep(time.Millisecond)
		}
	}()

	// Let the writers fight the evictor for a while, then drain the
	// server out from under the stragglers.
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	stopped.Store(true)
	chaos.Wait()

	evictions := s.streams.Stats().Evictions
	if evictions == 0 {
		t.Error("no evictions happened; the race exercised nothing")
	}
	t.Logf("evictions during the race: %d", evictions)

	// Recover into a fresh server and compare every stream against a
	// direct replay of exactly its acknowledged batches.
	s2, _, _ := startServer(t, testOptions(), cfg)
	for i := 0; i < streams; i++ {
		name := fmt.Sprintf("race-%d", i)
		led := ledgers[i]
		if len(led.acked) == 0 && led.maybe != 0 {
			continue
		}
		got, _ := json.Marshal(mustStream(t, s2, name).c.Snapshot())

		replay := func(batchIdxs []int) []byte {
			ref, err := edmstream.New(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batchIdxs {
				pts := make([]edmstream.Point, batch)
				for j, r := range inputs[i][b] {
					pts[j] = edmstream.Point{
						ID:     int64(r["id"].(int)),
						Vector: r["vector"].([]float64),
						Time:   r["time"].(float64),
						Label:  edmstream.NoLabel,
					}
				}
				if _, err := ref.InsertBatchAssigned(pts, nil); err != nil {
					t.Fatal(err)
				}
			}
			raw, _ := json.Marshal(ref.Snapshot())
			return raw
		}
		want := replay(led.acked)
		if bytes.Equal(got, want) {
			continue
		}
		if led.maybe >= 0 {
			// The ambiguous final batch may have committed before the
			// connection died; either ledger is a correct outcome.
			if bytes.Equal(got, replay(append(append([]int{}, led.acked...), led.maybe))) {
				continue
			}
		}
		t.Errorf("stream %s: recovered state matches neither the acked ledger (%d batches, maybe=%d)",
			name, len(led.acked), led.maybe)
	}
}

// mustStream pins and immediately releases a stream, returning it for
// in-process inspection. Reads never create; the stream must exist.
func mustStream(t *testing.T, s *Server, name string) *stream {
	t.Helper()
	st, release, err := s.streams.Acquire(name, false)
	if err != nil {
		t.Fatalf("acquire %q: %v", name, err)
	}
	release()
	return st
}
