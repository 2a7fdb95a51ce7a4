// Command edmserved serves an EDMStream clusterer over HTTP/JSON: the
// network face of this repository. It ingests batched point streams
// through a request coalescer, classifies points against the
// published clustering, streams cluster-evolution events to consumers
// through cursor-based long-polling, and exports operational
// telemetry in Prometheus format.
//
//	edmserved -radius 0.5 -addr :8080
//
// Endpoints (un-prefixed paths alias the "default" stream; prefix any
// of the /v1/ data endpoints with a stream name — /v1/{stream}/ingest,
// /v1/{stream}/snapshot, ... — to address a named tenant, lazily
// created on first ingest and evicted to disk when idle or over the
// memory budget):
//
//	POST /v1/ingest            batched ingest (JSON array or NDJSON body)
//	POST /v1/assign            classify points against the published snapshot
//	GET  /v1/snapshot          the published clustering (summaries)
//	GET  /v1/clusters/{id}     one cluster with member cells and seeds
//	GET  /v1/events            evolution events; ?cursor=N&wait=30s long-polls
//	GET  /v1/stats             engine counters + coalescer + tenancy telemetry
//	GET  /v1/streams           every registered stream with state and footprint
//	DELETE /v1/streams/{name}  checkpoint + evict one stream (revives on touch)
//	GET  /healthz              liveness (503 while draining; per-stream detail lines)
//	GET  /metrics              Prometheus text format (stream-labeled series)
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops
// accepting, in-flight requests finish, parked long-polls return, and
// every acknowledged ingest request is committed before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
)

// sizeFlag is a byte count flag accepting plain integers or binary
// suffixes: 1048576, 64KiB, 512MiB, 2GiB (also the K/M/G shorthands).
type sizeFlag int64

func (s *sizeFlag) String() string { return strconv.FormatInt(int64(*s), 10) }

func (s *sizeFlag) Set(v string) error {
	n, err := parseSize(v)
	if err != nil {
		return err
	}
	*s = sizeFlag(n)
	return nil
}

func parseSize(v string) (int64, error) {
	str := strings.TrimSpace(v)
	mult := int64(1)
	lower := strings.ToLower(str)
	for _, suf := range []struct {
		s string
		m int64
	}{
		{"gib", 1 << 30}, {"mib", 1 << 20}, {"kib", 1 << 10},
		{"g", 1 << 30}, {"m", 1 << 20}, {"k", 1 << 10}, {"b", 1},
	} {
		if strings.HasSuffix(lower, suf.s) {
			mult = suf.m
			str = strings.TrimSpace(str[:len(str)-len(suf.s)])
			break
		}
	}
	n, err := strconv.ParseInt(str, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("size %q: want an integer byte count with an optional KiB/MiB/GiB suffix", v)
	}
	if n < 0 {
		return 0, fmt.Errorf("size %q must be non-negative", v)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("size %q overflows", v)
	}
	return n * mult, nil
}

// registerFlags binds every flag straight to the engine option or
// server config field it sets, and -shutdown-grace to grace. It also
// wires cfg's engine factory to opts: named streams clone the engine
// options the default stream is built with (one daemon, one
// clustering geometry, many tenants). Validation happens in
// edmstream.New / server.New so their error messages stay the single
// source of truth.
func registerFlags(fs *flag.FlagSet, opts *edmstream.Options, cfg *server.Config, grace *time.Duration) {
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:8080", "TCP listen address")
	fs.Float64Var(&opts.Radius, "radius", 0, "cluster-cell radius r (required; see edmstream.SuggestRadius)")
	fs.Float64Var(&opts.Rate, "rate", 1000, "expected arrival rate in points per second")
	fs.Float64Var(&opts.Beta, "beta", 0, "active-cell density threshold fraction (0 = library default)")
	fs.Float64Var(&opts.Tau, "tau", 0, "static cluster-separation threshold (0 = choose from the decision graph)")
	fs.BoolVar(&opts.AdaptiveTau, "adaptive-tau", false, "re-tune tau as the stream evolves")
	fs.IntVar(&opts.InitPoints, "init-points", 0, "points buffered before the DP-Tree initializes (0 = library default)")
	fs.IntVar(&opts.MaxEvents, "max-events", 0, "evolution log cap (0 = unlimited; cursors stay stable across trimming)")
	fs.IntVar(&cfg.MaxBatch, "max-batch", 0, "max points per coalesced batch (0 = default 4096)")
	fs.IntVar(&cfg.MaxPending, "max-pending", 0, "max queued ingest requests before backpressure (0 = default 1024)")
	fs.DurationVar(&cfg.LongPollTimeout, "longpoll-timeout", 30*time.Second, "max /v1/events long-poll hold time")
	fs.Int64Var(&cfg.MaxBodyBytes, "max-body", 0, "max request body bytes (0 = default 8 MiB)")
	fs.DurationVar(grace, "shutdown-grace", 15*time.Second, "max wait for in-flight requests at shutdown")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "durability directory: WAL + checkpoints; empty serves in memory only")
	fs.Int64Var(&cfg.WALSegmentBytes, "wal-segment-bytes", 0, "WAL segment rotation threshold (0 = default 64 MiB)")
	fs.BoolVar(&cfg.WALNoSync, "wal-nosync", false, "skip the fsync-before-ack (throughput mode; acknowledged data may be lost in a crash)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "points committed between engine checkpoints into the WAL (0 = default 50000)")
	fs.DurationVar(&cfg.ReadTimeout, "read-timeout", 0, "max time to read one request (0 = default 30s)")
	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", 0, "max time to write one response; must exceed -longpoll-timeout (0 = longpoll-timeout + 30s)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0, "max keep-alive idle time per connection (0 = default 2m)")
	fs.DurationVar(&cfg.IngestDeadline, "ingest-deadline", 0, "max queue-admission wait before an ingest request is shed with 429 (0 = default 5s)")
	fs.IntVar(&cfg.MaxReadConcurrency, "read-concurrency", 0, "max concurrent data-plane reads before 429 shedding (0 = default 256)")
	fs.DurationVar(&cfg.DegradedProbeInterval, "degraded-probe-interval", 0, "how often a degraded server probes the WAL for recovery (0 = default 1s)")
	fs.IntVar(&cfg.WALRetryAttempts, "wal-retry-attempts", 0, "durable-append attempts before the server degrades to read-only (0 = default 3)")
	fs.StringVar(&cfg.ArchiveURL, "archive-url", "", "remote archive for sealed WAL segments and checkpoints: file://path or a plain directory path; empty disables shipping")
	fs.IntVar(&cfg.ArchiveQueue, "archive-queue", 0, "upload-notification queue length before the shipper falls back to a resync (0 = default 64)")
	fs.DurationVar(&cfg.ArchiveRetryBase, "archive-retry-base", 0, "initial retry backoff after a failed upload (0 = default 100ms)")
	fs.DurationVar(&cfg.ArchiveRetryMax, "archive-retry-max", 0, "retry backoff ceiling during a remote outage (0 = default 5s)")
	fs.DurationVar(&cfg.RecoveryBudget, "recovery-budget", 0, "target crash-recovery replay time; checkpoints fire early to keep the estimated replay under it (0 = count-based checkpoints only)")
	fs.BoolVar(&cfg.CheckpointCompress, "checkpoint-compress", false, "gzip checkpoint payloads on disk (CRC still covers the uncompressed snapshot)")
	fs.BoolVar(&cfg.RestoreFromArchive, "restore-from-archive", false, "rebuild an empty -data-dir from the remote archive before serving; refused if local WAL state exists")
	fs.IntVar(&cfg.MaxStreams, "max-streams", 0, "max named streams, live + evicted (0 = default 1024)")
	fs.Var((*sizeFlag)(&cfg.MemoryBudget), "memory-budget", "global resident-memory target for all live streams, e.g. 512MiB; least-recently-used idle streams are checkpointed to disk and evicted past it (0 = unlimited; requires -data-dir)")
	fs.DurationVar(&cfg.EvictIdleAfter, "evict-idle-after", 0, "checkpoint + evict streams untouched this long (0 = never; requires -data-dir)")
	fs.DurationVar(&cfg.SweepInterval, "sweep-interval", 0, "eviction sweep cadence (0 = default 1s)")
	cfg.NewEngine = func() (*edmstream.Clusterer, error) { return edmstream.New(*opts) }
}

func main() {
	var opts edmstream.Options
	var cfg server.Config
	var grace time.Duration
	registerFlags(flag.CommandLine, &opts, &cfg, &grace)
	flag.Parse()

	if opts.Radius <= 0 {
		fmt.Fprintln(os.Stderr, "edmserved: -radius is required and must be positive")
		flag.Usage()
		os.Exit(2)
	}

	c, err := edmstream.New(opts)
	if err != nil {
		log.Fatalf("edmserved: %v", err)
	}
	s, err := server.New(c, cfg)
	if err != nil {
		log.Fatalf("edmserved: %v", err)
	}
	if cfg.DataDir != "" {
		log.Printf("edmserved: %s (data dir %s)", s.RecoveryInfo(), cfg.DataDir)
	}
	if err := s.Start(); err != nil {
		log.Fatalf("edmserved: %v", err)
	}
	log.Printf("edmserved: serving on %s (radius %g, rate %g pt/s)",
		s.Addr(), opts.Radius, opts.Rate)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately

	log.Printf("edmserved: shutting down (grace %v)", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := s.Shutdown(shutdownCtx); err != nil {
		log.Printf("edmserved: shutdown: %v", err)
	}
	if err := s.Err(); err != nil {
		log.Fatalf("edmserved: serve error: %v", err)
	}
	log.Printf("edmserved: drained and stopped")
}
