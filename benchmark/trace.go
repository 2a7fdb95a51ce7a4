package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/server"
	"github.com/densitymountain/edmstream/internal/wal"
)

// spanHeader carries a client span's ID to the daemon, which records its
// handler span as that span's child.
const spanHeader = "X-Bench-Req"

// Span ID namespaces, one per recording process or leg, so IDs from the
// generator and the traced daemon never collide when merged.
const (
	idsClient = 0
	idsServer = 1 << 62
	idsDirect = 2 << 62
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it, or 0.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base  uint64
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog(base uint64) *spanLog { return &spanLog{base: base} }

func (l *spanLog) newID() uint64 { return l.base | l.next.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed records fn as a span named name with a fresh ID.
func (l *spanLog) timed(name string, fn func() error) error {
	start := time.Now().UnixNano()
	err := fn()
	l.add(span{ID: l.newID(), Name: name, Start: start, End: time.Now().UnixNano()})
	return err
}

func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

func writeSpans(file string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(file, raw, 0o644)
}

func readSpans(file string) ([]span, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("reading spans from %s: %w", file, err)
	}
	return spans, nil
}

// selfTimes returns each span name's self times in milliseconds: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string][]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered is the length of [start, end) that the union of the children's
// intervals covers.
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64 = 0, start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return total
}

// traceHandler records a server.<endpoint> span around every request,
// parented to the client span named in spanHeader.
func traceHandler(h http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64) // absent: a root span
		start := time.Now().UnixNano()
		h.ServeHTTP(w, r)
		log.add(span{ID: log.newID(), Parent: parent, Name: "server." + path.Base(r.URL.Path), Start: start, End: time.Now().UnixNano()})
	})
}

// tracingFS records wal.write, wal.sync and wal.rename spans around the
// WAL's filesystem calls.
type tracingFS struct {
	wal.FS
	log *spanLog
}

func (f tracingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracingFile{File: file, log: f.log}, nil
}

func (f tracingFS) Rename(oldpath, newpath string) error {
	return f.log.timed("wal.rename", func() error { return f.FS.Rename(oldpath, newpath) })
}

func (f tracingFS) SyncDir(name string) error {
	return f.log.timed("wal.sync", func() error { return f.FS.SyncDir(name) })
}

type tracingFile struct {
	wal.File
	log *spanLog
}

func (f tracingFile) Write(p []byte) (n int, err error) {
	err = f.log.timed("wal.write", func() error {
		n, err = f.File.Write(p)
		return err
	})
	return n, err
}

func (f tracingFile) Sync() error {
	return f.log.timed("wal.sync", f.File.Sync)
}

// serve is the traced daemon: the benchmark binary re-executed as a
// server built with server.New from the same flag-to-Config mapping
// cmd/edmserved uses for the flags the benchmark passes, with the two
// tracing wrappers plugged into public seams. SIGTERM drains it and
// writes its spans to -spans.
func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	spansPath := fs.String("spans", "", "file the daemon's spans are written to at exit")
	addr := fs.String("addr", "127.0.0.1:8080", "TCP listen address")
	radius := fs.Float64("radius", 0, "cluster-cell radius r")
	rate := fs.Float64("rate", 1000, "expected arrival rate in points per second")
	dataDir := fs.String("data-dir", "", "durability directory; empty serves in memory only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spansPath == "" {
		return errors.New("serve: -spans is required")
	}
	log := newSpanLog(idsServer)
	opts := edmstream.Options{Radius: *radius, Rate: *rate}
	c, err := edmstream.New(opts)
	if err != nil {
		return err
	}
	s, err := server.New(c, server.Config{
		Addr:           *addr,
		CoalesceWindow: 2 * time.Millisecond, // cmd/edmserved's -coalesce-window default
		DataDir:        *dataDir,
		WALFS:          tracingFS{FS: wal.OSFS{}, log: log},
		NewEngine:      func() (*edmstream.Clusterer, error) { return edmstream.New(opts) },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	s.StartDetached()
	hs := &http.Server{Handler: traceHandler(s.Handler(), log), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = errors.Join(hs.Shutdown(shutdownCtx), s.Shutdown(shutdownCtx))
	return errors.Join(err, writeSpans(*spansPath, log.all()))
}
