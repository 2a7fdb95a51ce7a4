package archive

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/densitymountain/edmstream/internal/wal"
)

// Remote key prefixes; the name under the prefix is the local WAL file
// name, with ".gz" appended when the shipper compressed it in flight.
const (
	segKeyPrefix  = "seg/"
	ckptKeyPrefix = "ckpt/"
	gzSuffix      = ".gz"
)

// ShipperOptions configures a Shipper.
type ShipperOptions struct {
	// Dir is the local WAL directory the objects are read from.
	Dir string
	// Store is the remote. Required.
	Store ObjectStore
	// QueueLen bounds the notification queue; a full queue drops the
	// notification (counted, and repaired by the next resync) rather
	// than ever blocking the WAL writer. Zero means 64.
	QueueLen int
	// RetryBase/RetryMax shape the jittered exponential backoff between
	// upload attempts of the queue head. Zero means 100ms / 5s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// ResyncEvery is how often the shipper, when notifications were
	// dropped or uploads failed, rescans the directory and ships
	// whatever the remote is missing. Zero means 30s.
	ResyncEvery time.Duration
	// Compress gzips shipped segments (checkpoints are compressed at
	// the WAL layer when its CompressCheckpoints option is on).
	Compress bool
}

// shipTask is one object to upload.
type shipTask struct {
	name string // local file name (wal-*.log or ckpt-*.ckpt)
	ckpt bool
	// through is the first sequence number NOT covered by the object
	// (0 for resync tasks, whose coverage is unknown to the scanner).
	through  uint64
	enqueued time.Time
}

// ShipperStats is a point-in-time snapshot of the shipper's counters,
// safe to take from any goroutine.
type ShipperStats struct {
	// Shipped counts successful uploads; ShippedBytes their on-wire
	// size and ReadBytes the local bytes they were read from (the
	// compression ratio is ReadBytes/ShippedBytes).
	Shipped      uint64
	ShippedBytes uint64
	ReadBytes    uint64
	// Failed counts upload attempts the remote refused; Retried the
	// backoff rounds taken re-attempting the queue head.
	Failed  uint64
	Retried uint64
	// Dropped counts notifications lost to a full queue (repaired by
	// resync); Skipped counts tasks whose local file had already been
	// pruned away by a newer checkpoint before the upload ran.
	Dropped uint64
	Skipped uint64
	// Pruned counts remote objects deleted because a shipped checkpoint
	// superseded them.
	Pruned uint64
	// LagObjects is the queued (plus in-flight) upload count;
	// LagRecords is how far the remote's proven coverage trails the
	// local log (localThrough - shippedThrough); LagSeconds is the age
	// of the oldest pending upload.
	LagObjects int64
	LagRecords int64
	LagSeconds float64
	// Lagging is the health detail: an upload is currently failing, or
	// dropped notifications await a resync.
	Lagging bool
	// LocalThroughSeq / ShippedThroughSeq are the first sequence
	// numbers not covered by, respectively, the newest local
	// seal/checkpoint notification and the newest successfully shipped
	// one. ShippedCheckpointSeq is the newest shipped checkpoint's
	// coverage — the floor a disaster restore is guaranteed to reach.
	LocalThroughSeq      uint64
	ShippedThroughSeq    uint64
	ShippedCheckpointSeq uint64
}

// Shipper uploads sealed WAL segments and finished checkpoints to an
// ObjectStore from a bounded queue, with jittered retry/backoff. It
// never blocks or fails the ingest path: notifications are non-blocking
// sends from the WAL writer goroutine, remote failures are retried and
// reported as lag, and a full queue degrades to a directory resync
// instead of backpressure.
type Shipper struct {
	dir      string
	store    ObjectStore
	compress bool

	queue       chan shipTask
	retry       wal.RetryPolicy
	resyncEvery time.Duration

	stop      chan struct{}
	stopOnce  sync.Once
	done      chan struct{}
	startOnce sync.Once

	shipped      atomic.Uint64
	shippedBytes atomic.Uint64
	readBytes    atomic.Uint64
	failed       atomic.Uint64
	retried      atomic.Uint64
	dropped      atomic.Uint64
	skipped      atomic.Uint64
	pruned       atomic.Uint64

	localThrough   atomic.Uint64
	shippedThrough atomic.Uint64
	shippedCkpt    atomic.Uint64

	inflight     atomic.Int64
	oldestNanos  atomic.Int64 // enqueue time of the oldest pending task; 0 = none
	failStreak   atomic.Int64
	resyncNeeded atomic.Bool
}

// NewShipper builds a shipper; call Start to launch its goroutine.
func NewShipper(opts ShipperOptions) (*Shipper, error) {
	if opts.Store == nil {
		return nil, errors.New("archive: ShipperOptions.Store is required")
	}
	if opts.Dir == "" {
		return nil, errors.New("archive: ShipperOptions.Dir is required")
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 64
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryMax <= 0 {
		opts.RetryMax = 5 * time.Second
	}
	if opts.ResyncEvery <= 0 {
		opts.ResyncEvery = 30 * time.Second
	}
	return &Shipper{
		dir:         opts.Dir,
		store:       opts.Store,
		compress:    opts.Compress,
		queue:       make(chan shipTask, opts.QueueLen),
		retry:       wal.RetryPolicy{BaseDelay: opts.RetryBase, MaxDelay: opts.RetryMax},
		resyncEvery: opts.ResyncEvery,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}, nil
}

// Start launches the upload goroutine. The first thing it does is a
// reconcile pass: anything in the directory the remote does not hold is
// enqueued, which covers objects sealed before the shipper existed and
// notifications lost to a crash.
func (s *Shipper) Start() {
	s.startOnce.Do(func() { go s.run() })
}

// NoteSegmentSealed is the wal.Options.OnSegmentSealed hook: called on
// the WAL writer goroutine when a segment is finished. through is the
// first sequence number not in the segment. Never blocks.
func (s *Shipper) NoteSegmentSealed(name string, through uint64) {
	s.note(shipTask{name: name, through: through, enqueued: time.Now()})
}

// NoteCheckpointSaved is the wal.Options.OnCheckpointSaved hook: called
// on the WAL writer goroutine after a checkpoint is durable. nextSeq is
// the first sequence number it does not cover.
func (s *Shipper) NoteCheckpointSaved(name string, nextSeq uint64) {
	s.note(shipTask{name: name, ckpt: true, through: nextSeq, enqueued: time.Now()})
}

func (s *Shipper) note(t shipTask) {
	if t.through > 0 {
		maxStore(&s.localThrough, t.through)
	}
	select {
	case s.queue <- t:
		s.oldestNanos.CompareAndSwap(0, t.enqueued.UnixNano())
	default:
		// The remote is behind and the queue is full: drop the
		// notification rather than slow the writer; the resync pass
		// re-discovers the file by listing the directory.
		s.dropped.Add(1)
		s.resyncNeeded.Store(true)
	}
}

// maxStore raises a to v if v is larger (monotone CAS loop).
func maxStore(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (s *Shipper) run() {
	defer close(s.done)
	s.reconcile()
	ticker := time.NewTicker(s.resyncEvery)
	defer ticker.Stop()
	for {
		select {
		case t := <-s.queue:
			// The head is the oldest pending task (in-flight counts as
			// pending); pin its age so LagSeconds tracks it, not a task
			// that already shipped. The next dequeue overwrites, the
			// empty-queue path below clears.
			s.oldestNanos.Store(t.enqueued.UnixNano())
			s.process(t, false)
			if len(s.queue) == 0 {
				s.oldestNanos.Store(0)
				// The queue just drained: if anything was dropped or
				// failed along the way, repair coverage right now
				// instead of waiting out the ticker.
				if s.resyncNeeded.CompareAndSwap(true, false) {
					s.reconcile()
				}
			}
		case <-ticker.C:
			if s.resyncNeeded.CompareAndSwap(true, false) {
				s.reconcile()
			}
		case <-s.stop:
			s.drain()
			return
		}
	}
}

// process uploads one task. The queue head is retried with jittered
// exponential backoff until it succeeds, the file disappears (pruned by
// a newer checkpoint — superseded, not lost), or the shipper stops;
// later tasks wait behind it, which is fine because a remote that
// rejects the head is not going to take them either.
func (s *Shipper) process(t shipTask, draining bool) {
	s.inflight.Store(1)
	defer s.inflight.Store(0)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if draining {
				return // best-effort on shutdown: one attempt per task
			}
			s.retried.Add(1)
			if !s.sleep(s.retry.Backoff(attempt)) {
				return // stopping; the final checkpoint drain re-covers
			}
		}
		switch err := s.ship(t); {
		case err == nil:
			s.failStreak.Store(0)
			return
		case errors.Is(err, fs.ErrNotExist):
			// Pruned under us by a newer checkpoint: the records are
			// covered by an object that is (or will be) shipped.
			s.skipped.Add(1)
			return
		default:
			s.failed.Add(1)
			s.failStreak.Add(1)
			s.resyncNeeded.Store(true)
		}
	}
}

// ship performs one upload attempt (and, for checkpoints, the remote
// prune the new coverage allows).
func (s *Shipper) ship(t shipTask) error {
	raw, err := os.ReadFile(filepath.Join(s.dir, t.name))
	if err != nil {
		return err
	}
	key, data := s.encode(t, raw)
	if err := s.store.Put(key, data); err != nil {
		return err
	}
	// Toggling Compress across restarts changes a segment's remote key
	// (.gz appended or not); drop the sibling variant so a restore never
	// has to choose between a fresh copy and a stale one. Best-effort —
	// Restore's longer-variant rule is the backstop if this Delete fails.
	if sibling := siblingKey(key); sibling != "" {
		_ = s.store.Delete(sibling)
	}
	s.shipped.Add(1)
	s.shippedBytes.Add(uint64(len(data)))
	s.readBytes.Add(uint64(len(raw)))
	if t.through > 0 {
		maxStore(&s.shippedThrough, t.through)
	}
	if t.ckpt && t.through > 0 {
		maxStore(&s.shippedCkpt, t.through)
		s.pruneRemote(t.through)
	}
	return nil
}

// encode maps a task to its remote key and payload, gzipping segments
// when compression is on. Checkpoint files go verbatim: their gzip
// variant is a WAL-level format wal.Open already understands.
func (s *Shipper) encode(t shipTask, raw []byte) (string, []byte) {
	if t.ckpt {
		return ckptKeyPrefix + t.name, raw
	}
	if !s.compress {
		return segKeyPrefix + t.name, raw
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err == nil && zw.Close() == nil {
		return segKeyPrefix + t.name + gzSuffix, buf.Bytes()
	}
	return segKeyPrefix + t.name, raw
}

// siblingKey returns the other compression variant of a segment key
// ("" for checkpoints, which ship under one key regardless of format).
func siblingKey(key string) string {
	if !strings.HasPrefix(key, segKeyPrefix) {
		return ""
	}
	if strings.HasSuffix(key, gzSuffix) {
		return strings.TrimSuffix(key, gzSuffix)
	}
	return key + gzSuffix
}

// pruneRemote mirrors wal.prune on the remote: once a checkpoint
// covering ckptNext is shipped, older checkpoints and fully covered
// segments are deleted. Failures are ignored — a leftover object costs
// remote space, and the next shipped checkpoint retries.
func (s *Shipper) pruneRemote(ckptNext uint64) {
	keys, err := s.store.List("")
	if err != nil {
		return
	}
	type obj struct {
		key string
		seq uint64
	}
	var segs, ckpts []obj
	for _, key := range keys {
		name := strings.TrimSuffix(key, gzSuffix)
		switch {
		case strings.HasPrefix(name, segKeyPrefix):
			if seq, ok := wal.ParseSegmentFileName(strings.TrimPrefix(name, segKeyPrefix)); ok {
				segs = append(segs, obj{key: key, seq: seq})
			}
		case strings.HasPrefix(name, ckptKeyPrefix):
			if seq, ok := wal.ParseCheckpointFileName(strings.TrimPrefix(name, ckptKeyPrefix)); ok {
				ckpts = append(ckpts, obj{key: key, seq: seq})
			}
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	for _, c := range ckpts {
		if c.seq < ckptNext {
			if s.store.Delete(c.key) == nil {
				s.pruned.Add(1)
			}
		}
	}
	// A segment is removable when the NEXT one starts at or below the
	// checkpoint boundary — same rule as the local prune; the newest
	// segment always stays.
	for len(segs) > 1 && segs[1].seq <= ckptNext {
		if s.store.Delete(segs[0].key) == nil {
			s.pruned.Add(1)
		}
		segs = segs[1:]
	}
}

// reconcile lists the directory and the remote and enqueues every local
// WAL file the remote does not hold. It is how the shipper catches up
// after dropped notifications, an outage, or a fresh start over an
// existing directory. The open tail segment ships too (as a prefix of
// itself): a stale remote tail only shortens what a disaster restore
// replays, never corrupts it, because restore re-runs the WAL's own
// tail-validation rules.
func (s *Shipper) reconcile() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		s.resyncNeeded.Store(true)
		return
	}
	remote, err := s.store.List("")
	if err != nil {
		s.failed.Add(1)
		s.failStreak.Add(1)
		s.resyncNeeded.Store(true)
		return
	}
	have := make(map[string]bool, len(remote))
	for _, key := range remote {
		have[strings.TrimSuffix(key, gzSuffix)] = true
	}
	now := time.Now()
	for _, ent := range entries {
		name := ent.Name()
		var t shipTask
		if _, ok := wal.ParseSegmentFileName(name); ok {
			if have[segKeyPrefix+name] {
				continue
			}
			t = shipTask{name: name, enqueued: now}
		} else if seq, ok := wal.ParseCheckpointFileName(name); ok {
			if have[ckptKeyPrefix+name] {
				continue
			}
			t = shipTask{name: name, ckpt: true, through: seq, enqueued: now}
		} else {
			continue
		}
		select {
		case s.queue <- t:
			s.oldestNanos.CompareAndSwap(0, now.UnixNano())
		default:
			s.dropped.Add(1)
			s.resyncNeeded.Store(true)
			return
		}
	}
}

// drain runs at shutdown: every queued task gets one best-effort
// attempt (no backoff — the process is leaving), so a healthy remote
// ends the session fully caught up, checkpoint included.
func (s *Shipper) drain() {
	for {
		select {
		case t := <-s.queue:
			s.oldestNanos.Store(t.enqueued.UnixNano())
			s.process(t, true)
		default:
			s.oldestNanos.Store(0)
			return
		}
	}
}

// sleep waits d or until the shipper stops, reporting whether it slept
// the full duration.
func (s *Shipper) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.stop:
		return false
	}
}

// Lagging reports the /healthz detail: an upload is failing or dropped
// notifications await a resync. Ingest is unaffected either way — this
// is an observability signal, not a 503.
func (s *Shipper) Lagging() bool {
	return s.failStreak.Load() > 0 || s.resyncNeeded.Load()
}

// Stats snapshots the shipper's counters; safe from any goroutine.
func (s *Shipper) Stats() ShipperStats {
	st := ShipperStats{
		Shipped:              s.shipped.Load(),
		ShippedBytes:         s.shippedBytes.Load(),
		ReadBytes:            s.readBytes.Load(),
		Failed:               s.failed.Load(),
		Retried:              s.retried.Load(),
		Dropped:              s.dropped.Load(),
		Skipped:              s.skipped.Load(),
		Pruned:               s.pruned.Load(),
		LagObjects:           int64(len(s.queue)) + s.inflight.Load(),
		LocalThroughSeq:      s.localThrough.Load(),
		ShippedThroughSeq:    s.shippedThrough.Load(),
		ShippedCheckpointSeq: s.shippedCkpt.Load(),
		Lagging:              s.Lagging(),
	}
	if lag := int64(st.LocalThroughSeq) - int64(st.ShippedThroughSeq); lag > 0 {
		st.LagRecords = lag
	}
	if oldest := s.oldestNanos.Load(); oldest > 0 {
		st.LagSeconds = time.Since(time.Unix(0, oldest)).Seconds()
	}
	return st
}

// Close stops the shipper after a best-effort drain of the queue (one
// attempt per task, no backoff), waiting at most timeout. Call after
// the WAL owner is done appending so the final checkpoint notification
// is already queued.
func (s *Shipper) Close(timeout time.Duration) error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	select {
	case <-s.done:
		return nil
	case <-time.After(timeout):
		return errors.New("archive: shipper drain timed out")
	}
}
