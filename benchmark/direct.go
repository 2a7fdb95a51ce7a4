package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/densitymountain/edmstream"
	"github.com/densitymountain/edmstream/internal/wal"
)

// walLegAppends is how many append+sync pairs the direct WAL leg times.
const walLegAppends = 200

// directLegs drives the engine and the WAL without HTTP, in this process,
// recording core.insert_batch, core.assign_batch, wal.append and wal.sync
// spans. The engine leg replays the stream the daemon was sent through
// its set-up and reference phases, per stream, in batches of batch
// points, then classifies every assign request body of the run. The WAL leg
// appends records of walBatchBytes to a fresh log in dir, syncing each;
// it is skipped when walBatchBytes is 0. It returns the points inserted.
func directLegs(w workload, p *plan, batch, walBatchBytes int, dir string, log *spanLog) (int, error) {
	ingestOps := len(p.prefill) + len(p.warmup)
	for _, ops := range p.ref {
		for _, o := range ops {
			if o.ep == epIngest {
				ingestOps++
			}
		}
	}
	perStream := ingestOps * batchPoints / w.streams
	engines := make([]*edmstream.Clusterer, w.streams)
	gens := make([]*gen, w.streams)
	for s := range engines {
		c, err := edmstream.New(engineOptions())
		if err != nil {
			return 0, err
		}
		engines[s], gens[s] = c, newGen(w.lattice, p.seeds[s])
	}
	acks := make([]int64, 0, batch)
	for done := 0; done < perStream; done += batch {
		n := min(batch, perStream-done)
		for s, c := range engines {
			pts := gens[s].points(n)
			var err error
			err = log.timed("core.insert_batch", func() error {
				acks, err = c.InsertBatchAssigned(pts, acks[:0])
				return err
			})
			if err != nil {
				return 0, fmt.Errorf("direct insert: %w", err)
			}
		}
	}
	ids := make([]int, 0, assignPoints)
	for _, ops := range append(p.ref[:], p.reads[:]...) {
		for _, o := range ops {
			if o.ep != epAssign {
				continue
			}
			pts, err := probePoints(o.body)
			if err != nil {
				return 0, err
			}
			c := engines[o.stream]
			_ = log.timed("core.assign_batch", func() error { // AssignBatch cannot fail
				ids = c.AssignBatch(pts, ids[:0])
				return nil
			})
		}
	}
	inserted := perStream * w.streams
	if walBatchBytes <= 0 {
		return inserted, nil
	}
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, walBatchBytes)
	rand.New(rand.NewSource(1)).Read(payload)
	for i := 0; i < walLegAppends; i++ {
		if err := log.timed("wal.append", func() error { _, err := l.Append(payload); return err }); err != nil {
			l.Close()
			return 0, err
		}
		if err := log.timed("wal.sync", l.Sync); err != nil {
			l.Close()
			return 0, err
		}
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	return inserted, os.RemoveAll(dir)
}

// probePoints decodes a rendered assign body back into its probes.
func probePoints(body []byte) ([]edmstream.Point, error) {
	var wire []struct {
		Vector []float64 `json:"vector"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, fmt.Errorf("decoding an assign body: %w", err)
	}
	pts := make([]edmstream.Point, len(wire))
	for i, w := range wire {
		pts[i] = edmstream.NewPoint(w.Vector, 0)
	}
	return pts, nil
}

// spanStats summarizes the durations of the spans named name.
func spanStats(spans []span, name string) (p50, p99 time.Duration, total time.Duration, n int) {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			d := time.Duration(s.End - s.Start)
			ds = append(ds, float64(d))
			total += d
		}
	}
	if len(ds) == 0 {
		return 0, 0, 0, 0
	}
	sorted := sortedCopy(ds)
	return time.Duration(quantile(sorted, 0.5)), time.Duration(quantile(sorted, 0.99)), total, len(ds)
}
