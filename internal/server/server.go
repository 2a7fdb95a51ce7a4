package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/obs"
	"github.com/densitymountain/edmstream/internal/tenant"
	"github.com/densitymountain/edmstream/internal/wal"
)

// Server serves clusterers over HTTP. Create it with New, start it
// with Start (or drive its Handler directly in tests after
// StartDetached), and stop it with Shutdown, which drains accepted
// ingest work before returning.
//
// The server is multi-tenant: /v1/{stream}/... endpoints address named
// streams, lazily created on first ingest and evicted to disk under
// memory pressure. The "default" stream is built from the clusterer
// passed to New, and the un-prefixed /v1/... API is a path rewrite onto
// /v1/default/..., not a second set of handlers. The server
// takes ownership of every stream engine's write path: from New until
// Shutdown returns, no other goroutine may call a served clusterer's
// mutating methods. The lock-free read methods remain available to
// everyone.
type Server struct {
	cfg Config

	adm  *admission
	reg  *obs.Registry
	mux  *http.ServeMux
	http *http.Server

	// streams is the named-stream registry (lazy creation, pin
	// counting, checkpoint-backed LRU eviction); store is the shared
	// archive object store (nil without an archive), which each stream
	// views through its own key prefix.
	streams *tenant.Registry[*stream]
	store   archive.ObjectStore

	// def is the default stream, built at New from the caller's
	// clusterer and never evicted.
	def *stream

	streamsActive     *obs.Gauge
	streamsRegistered *obs.Gauge
	streamsMemory     *obs.Gauge
	streamsEvicted    *obs.Counter

	// start anchors the server's stream clock: points arriving
	// without an explicit timestamp are stamped with seconds since
	// start. Shared by every stream — tenants of one daemon live on
	// one clock.
	start time.Time

	draining atomic.Bool
	// drainCh is closed when Shutdown begins; long-poll sleeps select
	// on it so a poller that registered concurrently with the shutdown
	// wake cannot sleep through the HTTP drain.
	drainCh   chan struct{}
	drainOnce sync.Once

	listener net.Listener
	serveErr chan error
	started  atomic.Bool
	// runtimeStarted records that the writers and janitor were
	// actually released; Shutdown only waits for coalescer drains in
	// that case (a failed Start never releases them, and waiting would
	// hang forever). running is closed at that release: every stream's
	// writer goroutine waits on it before its first pass.
	runtimeStarted atomic.Bool
	running        chan struct{}

	janitorStop chan struct{}
	janitorDone chan struct{}
	janitorOnce sync.Once
}

// New builds a server whose default stream serves the given clusterer.
// The clusterer must already be constructed (its Options validated by
// edmstream.New); cfg is validated here.
//
// When cfg.DataDir is set, New also recovers the default stream from
// the write-ahead log in that directory — newest valid checkpoint plus
// the log tail replayed through the normal batch-ingest path — before
// any serving state (stream shape, event cursor) is derived from it.
// The clusterer should be freshly constructed in that case: recovery
// rebuilds the acknowledged state, and points fed in beforehand would
// make the recovered stream diverge from the log. Named streams keep
// their state under DataDir/streams/<name>/ and recover the same way
// on first touch.
func New(c *edmstream.Clusterer, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         obs.NewRegistry(),
		start:       time.Now(),
		drainCh:     make(chan struct{}),
		serveErr:    make(chan error, 1),
		running:     make(chan struct{}),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.DataDir != "" && cfg.archiveConfigured() {
		store := cfg.ArchiveStore
		if store == nil {
			var err error
			store, err = archive.OpenStore(cfg.ArchiveURL)
			if err != nil {
				return nil, fmt.Errorf("server: opening archive %q: %w", cfg.ArchiveURL, err)
			}
		}
		s.store = store
	}
	s.adm = newAdmission(cfg, s.reg)
	s.streamsActive = s.reg.Gauge("edmserved_streams_active", "")
	s.streamsRegistered = s.reg.Gauge("edmserved_streams_registered", "")
	s.streamsMemory = s.reg.Gauge("edmserved_streams_memory_bytes", "")
	s.streamsEvicted = s.reg.Counter("edmserved_streams_evicted_total", "")
	s.streams = tenant.NewRegistry(tenant.Config[*stream]{
		Factory:        s.buildStream,
		MaxStreams:     cfg.MaxStreams,
		MemoryBudget:   cfg.MemoryBudget,
		EvictIdleAfter: cfg.EvictIdleAfter,
		// Eviction requires a WAL: releasing an engine without durable
		// state would lose its acknowledged points.
		Evictable: cfg.DataDir != "",
		CanEvict: func(st *stream) bool {
			// The default stream is never evicted (the caller owns its
			// engine; there is no factory path that rebuilds that exact
			// object), and a degraded stream's WAL cannot take the
			// eviction checkpoint. tryRetire last: once it succeeds the
			// writer is permanently retired, so it must also be the
			// final word.
			if st.name == DefaultStream || st.deg.isDegraded() {
				return false
			}
			return st.coal.tryRetire()
		},
		OnEvict: func(string) { s.streamsEvicted.Inc() },
	})
	def, err := s.assembleStream(DefaultStream, c)
	if err != nil {
		return nil, err
	}
	if err := s.streams.Adopt(DefaultStream, def); err != nil {
		def.shutdownClose()
		return nil, err
	}
	s.def = def
	if err := s.discoverStreams(); err != nil {
		def.shutdownClose()
		return nil, err
	}

	s.mux = http.NewServeMux()
	// One route per stream operation. Data-plane reads sit behind the
	// bounded-concurrency guard; the operator endpoints (events, stats,
	// healthz, metrics) stay exempt so an overloaded or degraded server
	// remains observable. The un-prefixed /v1/* API reaches these routes
	// through defaultRewrite, never through a table of its own.
	s.route("POST /v1/{stream}/ingest", "ingest", s.onStream(s.handleIngest, true))
	s.route("POST /v1/{stream}/assign", "assign", s.readGuard(s.onStream(s.handleAssign, false)))
	s.route("GET /v1/{stream}/snapshot", "snapshot", s.readGuard(s.onStream(s.handleSnapshot, false)))
	s.route("GET /v1/{stream}/clusters/{id}", "cluster", s.readGuard(s.onStream(s.handleCluster, false)))
	s.route("GET /v1/{stream}/events", "events", s.onStream(s.handleEvents, false))
	s.route("GET /v1/{stream}/stats", "stats", s.onStream(s.handleStats, false))
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	// Stream admin. GET /v1/streams has one segment fewer than any
	// stream op, and DELETE is no stream op's method, so neither
	// overlaps the routes above; the name "streams" itself is reserved
	// by tenant.ValidateName.
	s.route("GET /v1/streams", "streams", s.handleStreams)
	s.route("DELETE /v1/streams/{stream}", "streams", s.handleStreamDelete)
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout, // validated to exceed LongPollTimeout
		IdleTimeout:       cfg.IdleTimeout,
	}
	return s, nil
}

// streamHandler is a handler bound to one pinned stream.
type streamHandler func(st *stream, w http.ResponseWriter, r *http.Request)

// onStream adapts a stream handler to its /v1/{stream}/... route:
// validate the name, pin the stream — creating it when create is set
// (ingest) and transparently reviving it when it was evicted — and run
// the handler with the pin held, so the evictor can never pull the
// engine out from under a request.
func (s *Server) onStream(h streamHandler, create bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("stream")
		if err := tenant.ValidateName(name); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		st, release, err := s.streams.Acquire(name, create)
		if err != nil {
			s.acquireError(w, name, err)
			return
		}
		defer release()
		h(st, w, r)
	}
}

// defaultRewrite serves the un-prefixed API as the default stream's:
// it maps /v1/<op> (every two-segment path but /v1/streams) and
// /v1/clusters/<id> onto /v1/default/..., then hands the request to
// next. POST keeps /v1/clusters/... as written: a POST there names the
// reserved stream "clusters" (a 400), never the GET-only cluster read.
// Like http.StripPrefix, it edits a copy of the request and keeps
// URL.RawPath in step with URL.Path.
func defaultRewrite(next http.Handler) http.Handler {
	const prefix = "/v1/" + DefaultStream + "/"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest, ok := strings.CutPrefix(r.URL.Path, "/v1/")
		rawRest, rawOK := strings.CutPrefix(r.URL.RawPath, "/v1/")
		if op, _, nested := strings.Cut(rest, "/"); nested {
			ok = ok && op == "clusters" && r.Method != http.MethodPost
		} else {
			ok = ok && op != "streams"
		}
		if ok && (rawOK || r.URL.RawPath == "") {
			u := *r.URL
			u.Path = prefix + rest
			if rawOK {
				u.RawPath = prefix + rawRest
			}
			r2 := *r
			r2.URL = &u
			r = &r2
		}
		next.ServeHTTP(w, r)
	})
}

// acquireError maps a registry acquisition failure onto the HTTP
// surface.
func (s *Server) acquireError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, tenant.ErrUnknownStream):
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error:  fmt.Sprintf("%v (POST /v1/%s/ingest creates it)", err, name),
			Reason: reasonUnknownStream,
		})
	case errors.Is(err, tenant.ErrTooManyStreams):
		// The stream cap is a capacity limit like any other: 429 with
		// the overloaded reason, retry (or evict) and try again.
		shedError(w, http.StatusTooManyRequests, err, reasonOverloaded, 1)
	case errors.Is(err, tenant.ErrClosed):
		shedError(w, http.StatusServiceUnavailable, errDraining, reasonDraining, 1)
	case errors.Is(err, errNoFactory):
		httpError(w, http.StatusNotImplemented, err)
	default:
		// The factory failed (engine construction or WAL recovery): a
		// server-side fault, and the name stays revivable for a retry.
		httpError(w, http.StatusInternalServerError, err)
	}
}

// route registers a handler on the mux with per-endpoint telemetry:
// request counts and latency quantiles under the endpoint label.
// Routes of one name share one series.
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	labels := `endpoint="` + name + `"`
	requests := s.reg.Counter("edmserved_http_requests_total", labels)
	errCount := s.reg.Counter("edmserved_http_errors_total", labels)
	latency := s.reg.Timing("edmserved_http_request_duration_seconds", labels)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		latency.Observe(time.Since(begin))
		requests.Inc()
		if sw.status >= 400 {
			errCount.Inc()
		}
	})
}

// statusWriter records the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the server's HTTP handler (every endpoint,
// telemetry and the un-prefixed rewrite included), the one Start
// serves, for in-process use: tests and the e2e benchmark
// drive it through httptest or a private listener. No stream's
// writer commits a batch until the server is started — use Start, or
// StartDetached for handler-only serving.
func (s *Server) Handler() http.Handler { return defaultRewrite(s.mux) }

// Registry exposes the server's telemetry registry (the e2e benchmark
// reads coalescer distributions from it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// startRuntime releases every stream's writer goroutine (present and
// future) and launches the janitor (eviction sweeps, degraded-mode
// probe scheduling, tenancy gauges).
func (s *Server) startRuntime() {
	s.runtimeStarted.Store(true)
	close(s.running)
	go s.janitor()
}

// Start listens on cfg.Addr and serves until Shutdown. It returns
// once the listener is bound (so callers may read Addr), with serving
// continuing on background goroutines.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.started.Store(false)
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	s.startRuntime()
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
	}()
	return nil
}

// StartDetached starts only the stream writers and janitor, for callers
// that drive Handler through their own listener (httptest servers).
func (s *Server) StartDetached() {
	if s.started.CompareAndSwap(false, true) {
		s.startRuntime()
	}
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Err reports an asynchronous serve failure, if any (nil otherwise).
func (s *Server) Err() error {
	select {
	case err := <-s.serveErr:
		return err
	default:
		return nil
	}
}

// janitor is the shared background loop: it schedules degraded-mode
// recovery probes onto each sick stream's writer (the probe must run
// under the stream's single-writer ownership, so it is flagged and the
// writer woken rather than run here), runs eviction sweeps at the
// SweepInterval cadence, and refreshes the tenancy gauges. The tick is
// the finer of the two cadences so neither starves the other.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := s.cfg.SweepInterval
	if s.cfg.DegradedProbeInterval < tick {
		tick = s.cfg.DegradedProbeInterval
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	lastSweep := time.Now()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
		}
		now := time.Now()
		for _, st := range s.streams.Live() {
			if st.deg.isDegraded() && now.UnixNano() >= st.nextProbe.Load() {
				st.nextProbe.Store(now.Add(s.cfg.DegradedProbeInterval).UnixNano())
				st.coal.probeWanted.Store(true)
				st.coal.wake()
			}
		}
		if now.Sub(lastSweep) >= s.cfg.SweepInterval {
			lastSweep = now
			s.streams.Sweep()
		}
		s.refreshTenancyGauges(s.streams.Stats())
	}
}

func (s *Server) refreshTenancyGauges(rs tenant.Stats) {
	s.streamsActive.Set(int64(rs.Live))
	s.streamsRegistered.Set(int64(rs.Registered))
	s.streamsMemory.Set(rs.MemoryBytes)
}

// Shutdown stops the server gracefully: new requests are rejected,
// long-polls return immediately, in-flight requests run to completion,
// and every ingest request accepted into any stream's coalescer queue
// is committed before its writer exits — an acknowledged (HTTP
// 200) ingest is never dropped, on any stream. The context bounds the
// wait for in-flight HTTP requests; the final coalescer drains are not
// abandoned on context expiry (bounded work: at most MaxPending queued
// requests per stream).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	for _, st := range s.streams.Live() {
		st.events.wake() // release long-pollers so the HTTP drain can finish
	}
	var httpErr error
	if s.listener != nil {
		httpErr = s.http.Shutdown(ctx)
	}
	// Stop the janitor before closing the registry so no eviction
	// races the shutdown's own stream teardown.
	if s.runtimeStarted.Load() {
		s.janitorOnce.Do(func() { close(s.janitorStop) })
		<-s.janitorDone
	}
	// In-flight requests are done (http.Shutdown returned), so the
	// registry is quiescent: close it, then drain and close every
	// stream that is still resident. Evicted streams need nothing —
	// their eviction already checkpointed and closed them.
	s.streams.Close()
	live := s.streams.Live()
	for _, st := range live {
		st.coal.beginShutdown() // wakes the writer for its drain pass
	}
	if s.runtimeStarted.Load() {
		for _, st := range live {
			// Bounded work (at most the queued requests), so it is
			// awaited even past ctx expiry — abandoning it would break
			// the "acknowledged implies applied" contract.
			<-st.coal.done
		}
	}
	for _, st := range live {
		if err := st.shutdownClose(); err != nil && httpErr == nil {
			httpErr = err
		}
	}
	return httpErr
}

// shutdownClose releases one stream's durability and archive resources
// at server shutdown: final checkpoint + WAL close, then the shipper
// drain. Also the boot-failure cleanup of a stream that never served.
func (st *stream) shutdownClose() error {
	st.coal.beginShutdown() // an unreleased writer exits without a pass
	var err error
	if st.dur != nil {
		// The writer has drained and exited (or never ran), so the
		// final checkpoint and close are race-free. Every acknowledged
		// batch is already on disk — the checkpoint only shortens the
		// next boot's replay.
		err = st.dur.close(st.c)
	}
	if st.ship != nil {
		// After dur.close so the final checkpoint's seal/save
		// notifications are already queued; the drain gives each
		// pending upload one best-effort attempt.
		if serr := st.ship.Close(5 * time.Second); serr != nil && err == nil {
			err = serr
		}
	}
	st.release()
	return err
}

// RecoveryInfo reports what the default stream's durability subsystem
// found and recovered at startup. Meaningful only when the server was
// configured with a DataDir; the zero value otherwise.
func (s *Server) RecoveryInfo() wal.RecoveryInfo {
	if s.def.dur == nil {
		return wal.RecoveryInfo{}
	}
	return s.def.dur.recovery
}

// streamNow returns the server's stream clock: seconds since start.
// Points without explicit timestamps are stamped with it.
func (s *Server) streamNow() float64 { return time.Since(s.start).Seconds() }

// ---- Handlers ----

func (s *Server) handleIngest(st *stream, w http.ResponseWriter, r *http.Request) {
	// Rejections are checked cheapest-first and before the body is read
	// — the whole point of shedding is to not spend work on requests
	// the server cannot serve.
	if s.draining.Load() {
		shedError(w, http.StatusServiceUnavailable, errDraining, reasonDraining, 1)
		return
	}
	if st.deg.isDegraded() {
		s.adm.shedDegraded.Inc()
		shedError(w, http.StatusServiceUnavailable, errDegraded, reasonDegraded,
			retryAfterSeconds(2*s.cfg.DegradedProbeInterval))
		return
	}
	// Admission rule: shed when the estimated commit wait already
	// exceeds the deadline, telling the client when the queue should
	// have drained. The estimate is observed either way so the
	// distribution shows the pressure that led to shedding.
	est := st.coal.estimateWait()
	s.adm.estWait.Observe(est.Seconds())
	if est > s.cfg.IngestDeadline {
		s.adm.shedEstimate.Inc()
		shedError(w, http.StatusTooManyRequests,
			fmt.Errorf("estimated commit wait %v exceeds the %v ingest deadline",
				est.Round(time.Millisecond), s.cfg.IngestDeadline),
			reasonOverloaded, retryAfterSeconds(est))
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	pts, err := decodePoints(body, s.streamNow(), s.cfg.MaxBatch)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := st.checkShape(pts, true); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(pts) == 0 {
		writeAck(w, ingestResponse{Accepted: 0, Cells: []int64{}})
		return
	}
	// The same deadline bounds the queue send, as a context timeout the
	// coalescer's enqueue select observes — the backstop for a full
	// queue the estimator had no history to predict.
	ctx := r.Context()
	if s.cfg.IngestDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.IngestDeadline)
		defer cancel()
	}
	cells, err := st.coal.submit(ctx, pts)
	switch {
	case errors.Is(err, errDraining):
		shedError(w, http.StatusServiceUnavailable, err, reasonDraining, 1)
		return
	case errors.Is(err, errDegraded):
		// The batch hit the WAL failure after this request was queued.
		s.adm.shedDegraded.Inc()
		shedError(w, http.StatusServiceUnavailable, err, reasonDegraded,
			retryAfterSeconds(2*s.cfg.DegradedProbeInterval))
		return
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		// The admission deadline, not the client's own: the queue stayed
		// full for the whole wait. Nothing was committed.
		s.adm.shedTimeout.Inc()
		shedError(w, http.StatusTooManyRequests,
			fmt.Errorf("ingest queue full: not admitted within the %v deadline", s.cfg.IngestDeadline),
			reasonOverloaded, retryAfterSeconds(st.coal.estimateWait()))
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Client went away while queued; nothing was committed for it.
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		// A commit error on pre-validated points is a server-side
		// failure, not the client's.
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeAck(w, ingestResponse{Accepted: len(pts), Cells: cells})
}

func (s *Server) handleAssign(st *stream, w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	pts, err := decodePoints(body, s.streamNow(), s.cfg.MaxBatch)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := st.checkShape(pts, false); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ids := st.c.AssignBatch(pts, make([]int, 0, len(pts)))
	writeAck(w, assignResponse{Clusters: ids})
}

func (s *Server) handleSnapshot(st *stream, w http.ResponseWriter, r *http.Request) {
	snap := st.c.LastSnapshot()
	resp := snapshotResponse{
		Time:         snap.Time,
		Tau:          snap.Tau,
		ActiveCells:  snap.ActiveCells,
		OutlierCells: snap.OutlierCells,
		Clusters:     make([]wireClusterSummary, 0, len(snap.Clusters)),
	}
	for i := range snap.Clusters {
		resp.Clusters = append(resp.Clusters, summarize(&snap.Clusters[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCluster(st *stream, w http.ResponseWriter, r *http.Request) {
	rawID := r.PathValue("id")
	id, err := strconv.Atoi(rawID)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cluster id %q is not an integer", rawID))
		return
	}
	snap := st.c.LastSnapshot()
	cl, ok := snap.Cluster(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no cluster %d in the published snapshot", id))
		return
	}
	resp := clusterResponse{
		wireClusterSummary: summarize(&cl),
		Members:            make([]wireSeed, 0, len(cl.CellIDs)),
	}
	for i, cid := range cl.CellIDs {
		seed := wireSeed{CellID: cid}
		p := cl.SeedPoints[i]
		if p.IsText() {
			seed.Tokens = p.Tokens.Tokens()
		} else {
			seed.Vector = p.Vector
		}
		resp.Members = append(resp.Members, seed)
	}
	writeJSON(w, http.StatusOK, resp)
}

func summarize(cl *edmstream.ClusterInfo) wireClusterSummary {
	return wireClusterSummary{
		ID:          cl.ID,
		PeakCellID:  cl.PeakCellID,
		PeakDensity: cl.PeakDensity,
		Cells:       len(cl.CellIDs),
		Weight:      cl.Weight,
		Points:      cl.Points,
	}
}

func (s *Server) handleEvents(st *stream, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var cursor uint64
	if raw := q.Get("cursor"); raw != "" {
		var err error
		cursor, err = strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("cursor %q is not a non-negative integer", raw))
			return
		}
	}
	var wait time.Duration
	if raw := q.Get("wait"); raw != "" {
		var err error
		wait, err = time.ParseDuration(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("wait %q is not a duration (try 30s)", raw))
			return
		}
	}
	if wait < 0 {
		wait = 0
	}
	if wait > s.cfg.LongPollTimeout {
		wait = s.cfg.LongPollTimeout
	}
	deadline := time.Now().Add(wait)

	for {
		evs, next := st.c.EventsSince(cursor)
		if len(evs) > 0 || wait <= 0 || s.draining.Load() {
			writeJSON(w, http.StatusOK, eventsResponse{Cursor: next, Events: toWireEvents(evs)})
			return
		}
		// Long-poll: register for a wake-up, then re-check so an event
		// recorded between the check above and the registration is not
		// missed, then sleep until events, deadline or disconnect. The
		// pin held across the sleep keeps the stream resident — a
		// watched stream is not idle.
		ch := st.events.wait()
		if evs, next = st.c.EventsSince(cursor); len(evs) > 0 {
			writeJSON(w, http.StatusOK, eventsResponse{Cursor: next, Events: toWireEvents(evs)})
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			writeJSON(w, http.StatusOK, eventsResponse{Cursor: next, Events: []wireEvent{}})
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-s.drainCh:
			timer.Stop()
			writeJSON(w, http.StatusOK, eventsResponse{Cursor: next, Events: []wireEvent{}})
			return
		case <-timer.C:
			writeJSON(w, http.StatusOK, eventsResponse{Cursor: next, Events: []wireEvent{}})
			return
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// statsResponse is the GET /v1/stats body: engine counters plus the
// server's own serving-side numbers, for the addressed stream.
type statsResponse struct {
	Engine edmstream.Stats `json:"engine"`
	Server serverStats     `json:"server"`
}

type serverStats struct {
	Stream         string           `json:"stream"`
	UptimeSeconds  float64          `json:"uptime_seconds"`
	StreamTime     float64          `json:"stream_time"`
	Tau            float64          `json:"tau"`
	Draining       bool             `json:"draining"`
	Degraded       bool             `json:"degraded"`
	DegradedReason string           `json:"degraded_reason,omitempty"`
	Coalescer      coalescerStats   `json:"coalescer"`
	Admission      admissionStats   `json:"admission"`
	Tenancy        tenancyStats     `json:"tenancy"`
	Durability     *durabilityStats `json:"durability,omitempty"`
	Archive        *archiveStats    `json:"archive,omitempty"`
}

// tenancyStats is the multi-tenant section of GET /v1/stats: the
// registry's aggregate view. Identical on every stream's stats (it is
// daemon-global).
type tenancyStats struct {
	StreamsLive       int     `json:"streams_live"`
	StreamsRegistered int     `json:"streams_registered"`
	MaxStreams        int     `json:"max_streams"`
	MemoryBudget      int64   `json:"memory_budget_bytes"`
	MemoryEstimate    int64   `json:"memory_estimate_bytes"`
	Evictions         uint64  `json:"evictions"`
	Revivals          uint64  `json:"revivals"`
	EvictIdleAfterSec float64 `json:"evict_idle_after_seconds"`
}

// admissionStats is the load-shedding section of GET /v1/stats: how
// many requests were refused, why, and the commit-wait estimate
// distribution the ingest rule sheds on.
type admissionStats struct {
	DeadlineSeconds    float64 `json:"deadline_seconds"`
	ShedEstimatedWait  uint64  `json:"shed_estimated_wait"`
	ShedQueueFull      uint64  `json:"shed_queue_full"`
	ShedDegraded       uint64  `json:"shed_degraded"`
	ShedReads          uint64  `json:"shed_reads"`
	EstimatedWaitP50   float64 `json:"estimated_wait_p50_seconds"`
	EstimatedWaitP99   float64 `json:"estimated_wait_p99_seconds"`
	DegradedEntered    uint64  `json:"degraded_entered"`
	DegradedRecovered  uint64  `json:"degraded_recovered"`
	MaxReadConcurrency int     `json:"max_read_concurrency"`
}

// durabilityStats is the WAL section of GET /v1/stats, present only
// when the server runs with a DataDir. Counters come from the obs
// instruments the writer maintains; the recovery block is frozen at
// startup.
type durabilityStats struct {
	Records          uint64  `json:"records"`
	Bytes            uint64  `json:"bytes"`
	Checkpoints      uint64  `json:"checkpoints"`
	CheckpointErrors uint64  `json:"checkpoint_errors"`
	AppendRetries    int64   `json:"append_retries"`
	Reopens          int64   `json:"reopens"`
	ProbeFailures    uint64  `json:"probe_failures"`
	Segments         int64   `json:"segments"`
	NoSync           bool    `json:"no_sync"`
	FsyncP50Sec      float64 `json:"fsync_p50_seconds"`
	FsyncP99Sec      float64 `json:"fsync_p99_seconds"`

	// Recovery-time budget: how many checkpoints the budget (rather
	// than the point-count cadence) forced, the replay rate the
	// estimate divides by, and the budget itself (0 = disabled).
	BudgetCheckpoints    uint64  `json:"budget_checkpoints"`
	ReplayPointsPerSec   int64   `json:"replay_points_per_sec"`
	RecoveryBudgetSec    float64 `json:"recovery_budget_seconds"`
	EstimatedReplayMs    int64   `json:"estimated_replay_ms"`
	CheckpointCompressed bool    `json:"checkpoint_compressed"`

	Recovery recoveryStats `json:"recovery"`
}

type recoveryStats struct {
	HasCheckpoint      bool   `json:"has_checkpoint"`
	CheckpointSeq      uint64 `json:"checkpoint_seq"`
	CheckpointsSkipped int    `json:"checkpoints_skipped"`
	RecordsReplayed    int    `json:"records_replayed"`
	DroppedBytes       int64  `json:"dropped_bytes"`
	DroppedSegments    int    `json:"dropped_segments"`
	TruncatedSegment   string `json:"truncated_segment,omitempty"`
}

type coalescerStats struct {
	Batches          uint64  `json:"batches"`
	Points           uint64  `json:"points"`
	Rejects          uint64  `json:"rejects"`
	ClientCancels    uint64  `json:"client_cancels"`
	PendingRequests  int64   `json:"pending_requests"`
	BatchPointsP50   float64 `json:"batch_points_p50"`
	BatchPointsP90   float64 `json:"batch_points_p90"`
	BatchPointsP99   float64 `json:"batch_points_p99"`
	BatchPointsMax   float64 `json:"batch_points_max"`
	BatchRequestsP50 float64 `json:"batch_requests_p50"`
	BatchRequestsP99 float64 `json:"batch_requests_p99"`
	BatchWaitP50Sec  float64 `json:"batch_wait_p50_seconds"`
	BatchWaitP99Sec  float64 `json:"batch_wait_p99_seconds"`
	FlushP50Sec      float64 `json:"flush_p50_seconds"`
	FlushP99Sec      float64 `json:"flush_p99_seconds"`
}

func (s *Server) handleStats(st *stream, w http.ResponseWriter, r *http.Request) {
	size := st.coal.batchSize.Stats()
	reqs := st.coal.batchReqs.Stats()
	wait := st.coal.batchWait.Stats()
	flush := st.coal.flushSeconds.Stats()
	estWait := s.adm.estWait.Stats()
	rs := s.streams.Stats()
	s.refreshTenancyGauges(rs)
	resp := statsResponse{
		Engine: st.c.Stats(),
		Server: serverStats{
			Stream:         st.name,
			UptimeSeconds:  time.Since(s.start).Seconds(),
			StreamTime:     st.c.LastSnapshot().Time,
			Tau:            st.c.LastSnapshot().Tau,
			Draining:       s.draining.Load(),
			Degraded:       st.deg.isDegraded(),
			DegradedReason: degradedReasonIf(st.deg),
			Coalescer: coalescerStats{
				Batches:          st.coal.batches.Value(),
				Points:           st.coal.pointsTotal.Value(),
				Rejects:          st.coal.rejectsTotal.Value(),
				ClientCancels:    st.coal.clientCancels.Value(),
				PendingRequests:  st.coal.pending.Value(),
				BatchPointsP50:   size.P50,
				BatchPointsP90:   size.P90,
				BatchPointsP99:   size.P99,
				BatchPointsMax:   size.WindowMax,
				BatchRequestsP50: reqs.P50,
				BatchRequestsP99: reqs.P99,
				BatchWaitP50Sec:  wait.P50,
				BatchWaitP99Sec:  wait.P99,
				FlushP50Sec:      flush.P50,
				FlushP99Sec:      flush.P99,
			},
			Admission: admissionStats{
				DeadlineSeconds:    s.cfg.IngestDeadline.Seconds(),
				ShedEstimatedWait:  s.adm.shedEstimate.Value(),
				ShedQueueFull:      s.adm.shedTimeout.Value(),
				ShedDegraded:       s.adm.shedDegraded.Value(),
				ShedReads:          s.adm.shedReads.Value(),
				EstimatedWaitP50:   estWait.P50,
				EstimatedWaitP99:   estWait.P99,
				DegradedEntered:    st.deg.entered.Value(),
				DegradedRecovered:  st.deg.recovered.Value(),
				MaxReadConcurrency: cap(s.adm.readSem),
			},
			Tenancy: tenancyStats{
				StreamsLive:       rs.Live,
				StreamsRegistered: rs.Registered,
				MaxStreams:        s.cfg.MaxStreams,
				MemoryBudget:      s.cfg.MemoryBudget,
				MemoryEstimate:    rs.MemoryBytes,
				Evictions:         rs.Evictions,
				Revivals:          rs.Revivals,
				EvictIdleAfterSec: s.cfg.EvictIdleAfter.Seconds(),
			},
		},
	}
	if d := st.dur; d != nil {
		fs := d.fsync.Stats()
		resp.Server.Durability = &durabilityStats{
			Records:          d.records.Value(),
			Bytes:            d.bytesTotal.Value(),
			Checkpoints:      d.checkpoints.Value(),
			CheckpointErrors: d.ckptErrors.Value(),
			// Live from the resilient log's atomics, not the gauges the
			// writer refreshes: a retry storm shows up here even between
			// appends.
			AppendRetries:        int64(d.log.Retries()),
			Reopens:              int64(d.log.Reopens()),
			ProbeFailures:        d.probeFailures.Value(),
			Segments:             d.segments.Value(),
			NoSync:               s.cfg.WALNoSync,
			FsyncP50Sec:          fs.P50,
			FsyncP99Sec:          fs.P99,
			BudgetCheckpoints:    d.budgetCkpts.Value(),
			ReplayPointsPerSec:   d.replayRateG.Value(),
			RecoveryBudgetSec:    s.cfg.RecoveryBudget.Seconds(),
			EstimatedReplayMs:    d.estReplayMs.Value(),
			CheckpointCompressed: s.cfg.CheckpointCompress,
			Recovery: recoveryStats{
				HasCheckpoint:      d.recovery.HasCheckpoint,
				CheckpointSeq:      d.recovery.CheckpointSeq,
				CheckpointsSkipped: d.recovery.CheckpointsSkipped,
				RecordsReplayed:    d.recovery.RecordsReplayable,
				DroppedBytes:       d.recovery.DroppedBytes,
				DroppedSegments:    d.recovery.DroppedSegments,
				TruncatedSegment:   d.recovery.TruncatedSegment,
			},
		}
	}
	if st.ship != nil {
		stats := st.ship.Stats()
		st.archiveM.refresh(stats)
		resp.Server.Archive = &archiveStats{
			Shipped:              stats.Shipped,
			ShippedBytes:         stats.ShippedBytes,
			ReadBytes:            stats.ReadBytes,
			Failed:               stats.Failed,
			Retried:              stats.Retried,
			Dropped:              stats.Dropped,
			Skipped:              stats.Skipped,
			Pruned:               stats.Pruned,
			LagObjects:           stats.LagObjects,
			LagRecords:           stats.LagRecords,
			LagSeconds:           stats.LagSeconds,
			Lagging:              stats.Lagging,
			LocalThroughSeq:      stats.LocalThroughSeq,
			ShippedThroughSeq:    stats.ShippedThroughSeq,
			ShippedCheckpointSeq: stats.ShippedCheckpointSeq,
			Restore:              st.restored,
			RestoreSkipped:       st.restoreSkipped,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamsResponse is the GET /v1/streams body.
type streamsResponse struct {
	Streams    []wireStreamInfo `json:"streams"`
	MaxStreams int              `json:"max_streams"`
}

type wireStreamInfo struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Pins        int     `json:"pins"`
	MemoryBytes int64   `json:"memory_bytes"`
	IdleSeconds float64 `json:"idle_seconds"`
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	infos := s.streams.Snapshot()
	resp := streamsResponse{Streams: make([]wireStreamInfo, 0, len(infos)), MaxStreams: s.cfg.MaxStreams}
	now := time.Now()
	for _, in := range infos {
		resp.Streams = append(resp.Streams, wireStreamInfo{
			Name:        in.Name,
			State:       in.State,
			Pins:        in.Pins,
			MemoryBytes: in.MemoryBytes,
			IdleSeconds: now.Sub(in.LastTouch).Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamDelete is the admin evictor: DELETE /v1/streams/{stream}
// checkpoints the named stream to disk and releases its memory; the
// name stays registered and the next touch revives it.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("stream")
	if name == DefaultStream {
		httpError(w, http.StatusBadRequest, errors.New("the default stream cannot be evicted"))
		return
	}
	evicted, err := s.streams.EvictNow(name)
	switch {
	case errors.Is(err, tenant.ErrUnknownStream):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error(), Reason: reasonUnknownStream})
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
	case !evicted:
		httpError(w, http.StatusConflict,
			fmt.Errorf("stream %q is busy (pinned, degraded, or its writer has queued work); retry", name))
	default:
		writeJSON(w, http.StatusOK, map[string]string{"stream": name, "state": "evicted"})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	live := s.streams.Live()
	sort.Slice(live, func(i, j int) bool { return live[i].name < live[j].name })
	degraded := false
	var details []string
	for _, st := range live {
		if st.deg.isDegraded() {
			// 200 on purpose: the read path is healthy and restarting
			// the process would not fix the disk. The detail line tells
			// orchestrators (and the runbook) which stream is refusing
			// writes.
			degraded = true
			details = append(details, fmt.Sprintf("stream %s: degraded (%s)", st.name, st.deg.reason()))
		}
		if st.ship != nil && st.ship.Lagging() {
			// A detail line, not a degradation: ingest acks never depend
			// on the remote, so a lagging archive stays 200 — operators
			// see the replica falling behind, orchestrators keep the pod.
			details = append(details, fmt.Sprintf("stream %s: archive-lagging", st.name))
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if degraded {
		fmt.Fprintln(w, "degraded")
	} else {
		fmt.Fprintln(w, "ok")
	}
	for _, d := range details {
		fmt.Fprintln(w, d)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	for _, st := range s.streams.Live() {
		if st.ship != nil {
			st.archiveM.refresh(st.ship.Stats())
		}
		if st.dur != nil {
			st.dur.syncRetryGauges()
		}
	}
	s.refreshTenancyGauges(s.streams.Stats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

// ---- Helpers ----

// degradedReasonIf returns the degradation cause only while degraded,
// so a recovered stream's stats stop carrying the stale error text.
func degradedReasonIf(d *degradedState) string {
	if !d.isDegraded() {
		return ""
	}
	return d.reason()
}

// writeAck sends a 200 with an ack that renders itself into a pooled
// buffer (see ingestResponse.appendJSON).
func writeAck[A interface{ appendJSON([]byte) []byte }](w http.ResponseWriter, ack A) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	buf.Write(ack.appendJSON(buf.AvailableBuffer()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is no one left to
	// report it to.
	_, _ = w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// notifier is a broadcast edge: wait returns a channel closed by the
// next wake, after which waiters re-check their condition.
type notifier struct {
	mu sync.Mutex
	ch chan struct{}
}

func (n *notifier) wait() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch == nil {
		n.ch = make(chan struct{})
	}
	return n.ch
}

func (n *notifier) wake() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ch != nil {
		close(n.ch)
		n.ch = nil
	}
}
