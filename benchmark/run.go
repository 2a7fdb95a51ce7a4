package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	setups  int
	work    string // work directory of this run, removed afterwards
	daemon  string // edmserved binary
	self    string // this binary, re-executed as the traced daemon
	trace   string // trace output file; empty runs untraced
}

// passConfig is one daemon driven through the schedule.
type passConfig struct {
	argv    []string // program and leading arguments; daemon flags follow
	setups  int
	spans   *spanLog // client spans; nil untraced
	refOnly bool     // stop after the reference phase
}

// passResult is everything one pass measured.
type passResult struct {
	setup  []float64 // seconds per daemon start
	ref    *phaseStats
	reads  *phaseStats // nil when the reference phase carries the reads
	sat    *phaseStats
	refWin window
	// readWin brackets the phase the read metrics come from; totWin the
	// whole measured part.
	readWin, totWin window
	rssMB           float64
	liveStreams     int
}

// runPass starts the daemon setups times (keeping the last), checks the
// set-up state, then runs the reference, read and saturation phases and
// the end-of-run gates.
func runPass(cfg *runConfig, p *plan, pc passConfig) (*passResult, error) {
	w := cfg.w
	res := &passResult{}
	dir, err := os.MkdirTemp(cfg.work, "pass-")
	if err != nil {
		return nil, err
	}
	prefill := ""
	if w.durable {
		prefill = filepath.Join(dir, "prefill")
		if err := prefillCrash(p, pc.argv, prefill); err != nil {
			return nil, err
		}
	}

	var ch *child
	var c0 *conn
	var dataDir string
	defer func() {
		if ch != nil {
			ch.kill()
		}
	}()
	for k := 0; k < pc.setups; k++ {
		if ch != nil {
			c0.close()
			ch.kill()
			ch = nil
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		if w.durable {
			dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", k))
			if err := copyDir(prefill, dataDir); err != nil {
				return nil, fmt.Errorf("copying the crashed data dir: %w", err)
			}
		}
		ch, err = startChild(pc.argv[0], pc.argv[1:], dataDir, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", k)))
		if err != nil {
			return nil, err
		}
		if err := ch.waitHealthy(60 * time.Second); err != nil {
			return nil, err
		}
		c0 = newConn(ch.base, p.prefixes, pc.spans)
		if err := sendInOrder(c0, p.warmup); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := checkPublished(c0); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, time.Since(ch.started).Seconds())
	}
	defer c0.close()
	if err := checkSetupState(c0, p.reference); err != nil {
		return nil, fmt.Errorf("set-up gate: %w", err)
	}
	c1 := newConn(ch.base, p.prefixes, pc.spans)
	defer c1.close()
	cs := [conns]*conn{c0, c1}

	before, err := takeScrape(c0, ch)
	if err != nil {
		return nil, err
	}
	res.ref = openPhase(cs, p.ref, len(p.prefixes))
	afterRef, err := takeScrape(c0, ch)
	if err != nil {
		return nil, err
	}
	res.refWin = window{before, afterRef}
	if pc.refOnly {
		return res, nil
	}
	res.readWin = res.refWin
	if w.readRPS == 0 {
		res.reads = openPhase(cs, p.reads, len(p.prefixes))
		afterReads, err := takeScrape(c0, ch)
		if err != nil {
			return nil, err
		}
		res.readWin = window{afterRef, afterReads}
	}
	res.sat = closedPhase(cs, p.sat, p.satDur, len(p.prefixes))
	end, err := takeScrape(c0, ch)
	if err != nil {
		return nil, err
	}
	res.totWin = window{before, end}
	if res.rssMB, err = ch.peakRSSMB(); err != nil {
		return nil, err
	}
	if res.liveStreams, err = liveStreams(c0); err != nil {
		return nil, err
	}

	if err := checkEnd(w, p, res, end); err != nil {
		return nil, err
	}
	stopErr := ch.stop(20 * time.Second)
	ch = nil
	if stopErr != nil {
		return nil, fmt.Errorf("stopping the daemon: %w", stopErr)
	}
	return res, nil
}

// prefillCrash fills a fresh data dir with the plan's prefill, every
// request acknowledged, then SIGKILLs the daemon: the crash ingest-wal's
// set-up recovers from by replaying the WAL.
//
// The prefill stays below the daemon's default 50k-point checkpoint
// cadence, so the crash image holds no checkpoint: on some seeds the
// engine cannot restore a checkpoint written between a sweep and the
// next clustering refresh ("cluster N has missing peak cell M"), and a
// run must not fail because of the seed it was given.
func prefillCrash(p *plan, argv []string, dir string) error {
	ch, err := startChild(argv[0], argv[1:], dir, dir+".log")
	if err != nil {
		return err
	}
	defer ch.kill()
	if err := ch.waitHealthy(60 * time.Second); err != nil {
		return err
	}
	c := newConn(ch.base, p.prefixes, nil)
	defer c.close()
	if err := sendInOrder(c, p.prefill); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	return nil
}

// openPhase runs each connection's open-loop schedule concurrently from
// a common start.
func openPhase(cs [conns]*conn, ops [conns][]op, streams int) *phaseStats {
	start := time.Now().Add(5 * time.Millisecond)
	per := make([]*phaseStats, conns)
	var wg sync.WaitGroup
	for i := range cs {
		per[i] = newPhaseStats(streams)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lockPreciseThread()
			openLoop(wallClock{}, start, ops[i], cs[i].do, per[i])
		}(i)
	}
	wg.Wait()
	for _, ps := range per[1:] {
		per[0].merge(ps)
	}
	return per[0]
}

// closedPhase sends the saturation bodies back to back on every
// connection for d.
func closedPhase(cs [conns]*conn, ops []op, d time.Duration, streams int) *phaseStats {
	deadline := time.Now().Add(d)
	var cursor atomic.Int64
	per := make([]*phaseStats, conns)
	var wg sync.WaitGroup
	for i := range cs {
		per[i] = newPhaseStats(streams)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			closedLoop(wallClock{}, deadline, ops, &cursor, cs[i].do, per[i])
		}(i)
	}
	wg.Wait()
	for _, ps := range per[1:] {
		per[0].merge(ps)
	}
	return per[0]
}

// liveStreams counts the run's streams the daemon holds in memory.
func liveStreams(c *conn) (int, error) {
	var body struct {
		Streams []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"streams"`
	}
	if err := getJSON(c.client, c.base+"/v1/streams", &body); err != nil {
		return 0, err
	}
	want := map[string]bool{}
	for _, prefix := range c.prefix {
		name := filepath.Base(prefix)
		if prefix == "/v1" {
			name = "default"
		}
		want[name] = true
	}
	n := 0
	for _, s := range body.Streams {
		if want[s.Name] && s.State == "live" {
			n++
		}
	}
	return n, nil
}

// runWorkload runs cfg once: one untraced pass, or for a traced run an
// untraced reference phase, a traced pass and the direct legs.
func runWorkload(cfg *runConfig) (*metrics, error) {
	p := buildPlan(cfg.w, cfg.seed, cfg.seconds)
	if cfg.trace == "" {
		res, err := runPass(cfg, p, passConfig{argv: []string{cfg.daemon}, setups: cfg.setups})
		if err != nil {
			return nil, err
		}
		return deriveMetrics(cfg.w, p, res), nil
	}

	base, err := runPass(cfg, p, passConfig{argv: []string{cfg.daemon}, setups: 1, refOnly: true})
	if err != nil {
		return nil, fmt.Errorf("untraced reference phase: %w", err)
	}
	untracedP50 := quantile(sortedCopy(base.ref.lat[epIngest]), 0.5)

	daemonSpans := filepath.Join(cfg.work, "daemon-spans.json")
	client := newSpanLog(idsClient)
	res, err := runPass(cfg, p, passConfig{
		argv:   []string{cfg.self, "serve", "-spans", daemonSpans},
		setups: 1,
		spans:  client,
	})
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	daemon, err := readSpans(daemonSpans)
	if err != nil {
		return nil, err
	}
	m := deriveMetrics(cfg.w, p, res)

	batch := int(res.refWin.after.batchP50)
	if batch < 1 {
		batch = batchPoints
	}
	walBatch := int(m.values["wal.bytes_per_pt"] * float64(batch))
	direct := newSpanLog(idsDirect)
	directPoints, err := directLegs(cfg.w, p, batch, walBatch, filepath.Join(cfg.work, "direct-wal"), direct)
	if err != nil {
		return nil, fmt.Errorf("direct legs: %w", err)
	}
	from, to := res.refWin.before.at, res.refWin.after.at
	t := &traceSets{client: within(client.all(), from, to), daemon: within(daemon, from, to), direct: direct.all()}
	addTraceMetrics(m, t, directPoints, untracedP50)
	tracedP50 := m.values["ingest_p50_ms"]
	m.report = append(m.report, traceSummary(t, tracedP50, untracedP50)...)
	if err := t.write(cfg.trace, cfg.w.name, cfg.seed, tracedP50, untracedP50); err != nil {
		return nil, err
	}
	m.report = append(m.report, "trace written to "+cfg.trace)
	return m, nil
}
