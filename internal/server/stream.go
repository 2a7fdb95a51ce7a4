package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/archive"
	"github.com/densitymountain/edmstream/internal/obs"
	"github.com/densitymountain/edmstream/internal/tenant"
)

// DefaultStream is the stream the un-prefixed /v1/* endpoints alias.
// It is created eagerly at New from the caller-supplied clusterer,
// keeps the DataDir root as its WAL directory (the single-stream
// on-disk layout of earlier releases, unchanged), and is never evicted
// — the caller owns its engine and there is no factory to revive it
// through.
const DefaultStream = "default"

// Memory-footprint heuristic: what one stream charges against the
// global memory budget. A resident engine costs a base (coalescer
// queue, WAL buffers, snapshot double-buffering) plus a per-cell
// increment covering the cell struct, its seed point, cluster
// bookkeeping and its share of the dependency graph. Deliberately
// coarse — the budget is an eviction trigger, not an accountant.
const (
	streamBaseBytes    = 1 << 20 // 1 MiB per resident engine
	cellFootprintBytes = 1 << 10 // 1 KiB per (active or inactive) cell
)

// MinMemoryBudget is the smallest sensible Config.MemoryBudget: one
// engine's base footprint. A budget below it could never hold even the
// resident default stream and would evict every named stream on every
// sweep.
const MinMemoryBudget = streamBaseBytes

// stream is one tenant: an engine plus its private serving machinery —
// coalescer, durability (WAL in its own directory), degraded-mode
// state, archive shipper (its own key prefix in the shared store), and
// the event-notification plumbing. Everything the old single-tenant
// Server carried per-engine lives here, the writer goroutine included;
// the Server keeps only the shared substrate (HTTP, admission,
// registry, budget).
type stream struct {
	name string
	// labels is `stream="<name>"`, on every per-stream instrument in
	// reg; the instruments live exactly as long as the stream is
	// resident (see release).
	labels string
	reg    *obs.Registry
	c      *edmstream.Clusterer
	coal   *coalescer
	dur    *durability
	deg    *degradedState

	ship           *archive.Shipper
	archiveM       *archiveMetrics
	restored       *archive.RestoreInfo
	restoreSkipped bool

	// shape is the stream's established modality/dimensionality
	// (pointShape): 0 until the first ingested point fixes it, -1 for
	// token sets, the vector dimensionality otherwise.
	shape atomic.Int64

	// events wakes this stream's /v1/events long-pollers; eventCursor
	// is the end cursor as of the last flush, owned by the writer.
	events      notifier
	eventCursor uint64

	// nextProbe paces degraded-mode recovery probes (unix nanos): the
	// janitor requests one only when now passes it.
	nextProbe atomic.Int64
}

// streamDir is the on-disk corner of DataDir a stream's WAL and
// checkpoints live in. The default stream keeps the DataDir root —
// exactly the single-stream layout of earlier releases, so existing
// data directories recover unchanged; named streams nest under
// streams/<name>/, which the WAL's directory scan ignores.
func streamDir(dataDir, name string) string {
	if dataDir == "" {
		return ""
	}
	if name == DefaultStream {
		return dataDir
	}
	return filepath.Join(dataDir, "streams", name)
}

// streamArchivePrefix is the stream's key prefix inside the shared
// object store; the default stream keeps the root (back-compat with
// archives shipped by earlier releases).
func streamArchivePrefix(name string) string {
	if name == DefaultStream {
		return ""
	}
	return "streams/" + name + "/"
}

// errNoFactory is returned when a named stream is addressed but the
// server was built without an engine factory (Config.NewEngine) —
// there is no way to construct its engine.
var errNoFactory = errors.New("server: named streams require an engine factory (Config.NewEngine)")

// buildStream is the registry's factory: construct (or revive) the
// named stream's engine and serving machinery. Revival and first
// creation are the same path — openDurability recovers whatever the
// stream's WAL directory holds, which for a revived stream is the
// eviction checkpoint plus any tail, so the revived engine is
// byte-identical to the evicted one.
func (s *Server) buildStream(name string) (*stream, error) {
	if s.cfg.NewEngine == nil {
		return nil, errNoFactory
	}
	c, err := s.cfg.NewEngine()
	if err != nil {
		return nil, fmt.Errorf("server: building engine for stream %q: %w", name, err)
	}
	return s.assembleStream(name, c)
}

// assembleStream wires one stream's serving machinery around its
// engine: archive restore + shipper (when configured), WAL recovery,
// degraded-mode state, and the coalescer with its writer goroutine.
// Used for the eagerly built default stream and every factory-built
// named stream alike. It registers the stream's instruments; a stream
// that fails assembly leaves none behind.
func (s *Server) assembleStream(name string, c *edmstream.Clusterer) (_ *stream, err error) {
	st := &stream{
		name:   name,
		labels: `stream="` + name + `"`,
		reg:    s.reg,
		c:      c,
	}
	defer func() {
		if err != nil {
			st.release()
		}
	}()
	dir := streamDir(s.cfg.DataDir, name)
	if dir != "" {
		if s.store != nil {
			store := archive.PrefixStore(s.store, streamArchivePrefix(name))
			if s.cfg.RestoreFromArchive {
				info, err := archive.Restore(store, dir)
				switch {
				case errors.Is(err, archive.ErrLocalState):
					// Local WAL state is the durability authority; the
					// restore defers to it rather than overwrite acked
					// records with an older remote view.
					st.restoreSkipped = true
				case err != nil:
					return nil, fmt.Errorf("server: restoring stream %q into %s from archive: %w", name, dir, err)
				default:
					st.restored = &info
				}
			}
			ship, err := archive.NewShipper(archive.ShipperOptions{
				Dir:         dir,
				Store:       store,
				QueueLen:    s.cfg.ArchiveQueue,
				RetryBase:   s.cfg.ArchiveRetryBase,
				RetryMax:    s.cfg.ArchiveRetryMax,
				ResyncEvery: s.cfg.ArchiveResync,
				Compress:    s.cfg.CheckpointCompress,
			})
			if err != nil {
				return nil, err
			}
			st.ship = ship
			st.archiveM = newArchiveMetrics(s.reg, st.labels)
		}
		dur, err := openDurability(c, s.cfg, dir, st.labels, s.reg, st.ship)
		if err != nil {
			if st.ship != nil {
				_ = st.ship.Close(time.Second)
			}
			return nil, err
		}
		st.dur = dur
		if st.ship != nil {
			// Started only after recovery: the first reconcile pass then
			// sees the recovered (and pruned) directory, not a moving one.
			st.ship.Start()
		}
	}
	st.deg = newDegradedState(s.reg, st.labels)
	st.coal = newCoalescer(c, s.cfg, s.reg, st.labels)
	st.coal.dur = st.dur
	st.coal.deg = st.deg
	st.coal.onFlush = st.flushHook
	_, st.eventCursor = c.EventsSince(^uint64(0))
	// A pre-fed or recovered clusterer that already published a
	// snapshot fixes the stream shape before the first ingest arrives.
	if snap := c.LastSnapshot(); len(snap.Clusters) > 0 && len(snap.Clusters[0].SeedPoints) > 0 {
		st.shape.Store(pointShape(snap.Clusters[0].SeedPoints[0]))
	}
	go st.coal.run(s.running)
	return st, nil
}

// MemoryBytes estimates the stream's resident footprint for the global
// memory budget. Safe from any goroutine (engine stats are lock-free).
func (st *stream) MemoryBytes() int64 {
	es := st.c.Stats()
	return streamBaseBytes + int64(es.ActiveCells+es.InactiveCells)*cellFootprintBytes
}

// Evict checkpoints the stream to disk and releases its resources. The
// registry calls it with exclusive ownership: zero pins (no request
// holds the stream) and a retired writer (it can never run another
// pass), so the final checkpoint and close are race-free.
//
// Evict never fails the eviction: every acknowledged batch is already
// fsynced in the stream's WAL, so even if the final checkpoint or the
// log close errors, revival recovers the full acknowledged state by
// replay — the error only costs recovery time, and refusing to evict
// over it would wedge the stream (its writer is already retired).
// Failures are surfaced through the checkpoint-error and eviction
// counters instead.
func (st *stream) Evict() error {
	st.coal.beginShutdown() // lets the retired writer goroutine exit
	if st.dur != nil {
		// Best-effort final checkpoint + close; ckptErrors counts a
		// failed checkpoint inside.
		_ = st.dur.close(st.c)
	}
	if st.ship != nil {
		_ = st.ship.Close(5 * time.Second)
	}
	st.release()
	return nil
}

// release drops the stream's instruments from the telemetry registry
// once it has left memory (evicted or closed at shutdown): /metrics
// names only resident streams, and an evicted stream's distributions
// are freed with it. Revival registers fresh instruments, so the
// stream's counters restart, which Prometheus reads as a reset.
func (st *stream) release() { st.reg.Unregister(st.labels) }

// flushHook runs under writer ownership after every committed batch:
// if the flush recorded new evolution events, wake this stream's
// long-pollers.
func (st *stream) flushHook() {
	if _, cur := st.c.EventsSince(^uint64(0)); cur != st.eventCursor {
		st.eventCursor = cur
		st.events.wake()
	}
}

// checkShape verifies every point against the stream's established
// shape. When learn is true (the ingest path) the first point of an
// unshaped stream fixes the shape; the assign path never learns —
// reads must not define the stream. Concurrent first ingests race on
// the CAS; exactly one shape wins and the loser's request is rejected
// like any other mismatch.
func (st *stream) checkShape(pts []edmstream.Point, learn bool) error {
	for i := range pts {
		ps := pointShape(pts[i])
		cur := st.shape.Load()
		if cur == 0 {
			if !learn {
				// Nothing established yet and reads cannot establish
				// it; the engine has no cells, so any probe is an
				// outlier anyway.
				continue
			}
			if st.shape.CompareAndSwap(0, ps) {
				continue
			}
			cur = st.shape.Load()
		}
		if ps != cur {
			return fmt.Errorf("point %d: stream serves %s points, got %s", i, shapeString(cur), shapeString(ps))
		}
	}
	return nil
}

// discoverStreams registers every named stream with on-disk (and,
// under RestoreFromArchive, remote) state so reads on it revive the
// engine instead of 404ing. Called once at New; unknown directory
// entries are skipped rather than failed — the scan must never stop a
// boot over a stray file.
func (s *Server) discoverStreams() error {
	if s.cfg.DataDir != "" {
		entries, err := os.ReadDir(filepath.Join(s.cfg.DataDir, "streams"))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: scanning %s for streams: %w", filepath.Join(s.cfg.DataDir, "streams"), err)
		}
		for _, e := range entries {
			if e.IsDir() && tenant.ValidateName(e.Name()) == nil {
				s.streams.RegisterEvicted(e.Name())
			}
		}
	}
	if s.store != nil && s.cfg.RestoreFromArchive {
		// Disaster restore: the remote knows which named streams existed;
		// register them so their first touch restores + revives them.
		keys, err := s.store.List("streams/")
		if err != nil {
			return fmt.Errorf("server: listing archived streams: %w", err)
		}
		for _, k := range keys {
			rest := k[len("streams/"):]
			if i := strings.IndexByte(rest, '/'); i > 0 {
				if name := rest[:i]; tenant.ValidateName(name) == nil {
					s.streams.RegisterEvicted(name)
				}
			}
		}
	}
	return nil
}
