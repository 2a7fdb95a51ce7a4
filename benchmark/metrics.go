package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/densitymountain/edmstream"
)

// metricDef names one metric, its unit and which direction is better.
// The tables below are what BENCHMARK.json lists.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the bounded metrics: the ones that repeat run to run on a
// shared 2-CPU host, where whole runs speed up and slow down together by
// up to a third over minutes. Metrics dominated by CPU speed or by a few
// tail samples did not, and are listed first among the per-layer ones.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_p50_ms", "ms", "lower"},
	{"ingest_sat_pps", "pts/s", "higher"},
	{"server_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"ingest_p99_ms", "ms", "lower"},
	{"assign_p50_ms", "ms", "lower"},
	{"assign_p99_ms", "ms", "lower"},
	{"snapshot_p50_ms", "ms", "lower"},
	{"snapshot_p99_ms", "ms", "lower"},
	{"events_p50_ms", "ms", "lower"},
	{"events_p99_ms", "ms", "lower"},
	{"server_cpu_pct", "%", "lower"},
	{"client.late_p99_ms", "ms", "lower"},
	{"client.achieved_pps", "pts/s", "higher"},
	{"http.ingest_overhead_ms", "ms", "lower"},
	{"http.assign_overhead_ms", "ms", "lower"},
	{"server.ingest_handler_ms", "ms", "lower"},
	{"server.assign_handler_ms", "ms", "lower"},
	{"server.snapshot_handler_ms", "ms", "lower"},
	{"server.events_handler_ms", "ms", "lower"},
	{"server.shed_total", "count", "lower"},
	{"coalescer.wait_ms", "ms", "lower"},
	{"coalescer.flush_ms", "ms", "lower"},
	{"coalescer.batch_points", "count", "higher"},
	{"coalescer.batch_requests", "count", "higher"},
	{"coalescer.batches", "count", "lower"},
	{"wal.fsync_ms", "ms", "lower"},
	{"wal.write_ms", "ms", "lower"},
	{"wal.bytes_per_pt", "B", "lower"},
	{"wal.checkpoints", "count", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},
	{"wal.recovery_ms", "ms", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"core.insert_batch_us_p50", "us", "lower"},
	{"core.insert_batch_us_p99", "us", "lower"},
	{"core.direct_pps", "pts/s", "higher"},
	{"core.assign_batch_us_p50", "us", "lower"},
	{"core.assign_batch_us_p99", "us", "lower"},
	{"core.active_cells", "count", "lower"},
	{"core.seed_candidates_per_pt", "ratio", "lower"},
	{"core.dep_candidates_per_pt", "ratio", "lower"},
	{"core.filter_density_ratio", "ratio", "higher"},
	{"core.filter_triangle_ratio", "ratio", "higher"},
	{"core.relink_ratio", "ratio", "higher"},
	{"core.speculation_hit_ratio", "ratio", "higher"},
	{"core.events", "count", "lower"},
	{"tenant.streams_active", "count", "higher"},
	{"tenant.memory_mb", "MB", "lower"},
	{"tenant.memory_estimate_ratio", "ratio", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
}

// metrics is one run's output: every metric by name, whichever list
// it belongs to, with what the text report shows beside it.
type metrics struct {
	values    map[string]float64
	absent    map[string]bool   // nothing observed: the workload bypasses the layer
	notes     map[string]string // sample counts and the like
	attempted int
	failed    int
	report    []string // schedule and summary lines printed first
}

func newMetrics() *metrics {
	return &metrics{values: map[string]float64{}, absent: map[string]bool{}, notes: map[string]string{}}
}

// set records a metric; ok false marks it absent and records 0.
func (m *metrics) set(name string, v float64, ok bool) {
	if !ok {
		v = 0
	}
	m.absent[name] = !ok
	m.values[name] = v
}

// latency records the p50 and p99 of one endpoint's samples, noting the
// sample count and the highest percentile with ten samples beyond it.
func (m *metrics) latency(ep string, samples []float64) {
	s := sortedCopy(samples)
	m.set(ep+"_p50_ms", quantile(s, 0.5), len(s) > 0)
	m.set(ep+"_p99_ms", quantile(s, 0.99), len(s) > 0)
	if tq := tailQuantile(len(s)); tq > 0 {
		m.notes[ep+"_p99_ms"] = fmt.Sprintf("n=%d, p%.2f %.4f ms", len(s), 100*tq, quantile(s, tq))
	} else {
		m.notes[ep+"_p99_ms"] = fmt.Sprintf("n=%d: too few samples for a tail", len(s))
	}
}

// deriveMetrics turns one pass into every metric the daemon's answers and
// its own telemetry give: the end-to-end metrics and the per-layer
// metrics that need no tracing.
func deriveMetrics(w workload, p *plan, res *passResult) *metrics {
	m := newMetrics()
	reads := res.reads
	if reads == nil {
		reads = res.ref
	}
	for _, ps := range []*phaseStats{res.ref, res.reads, res.sat} {
		if ps != nil {
			m.attempted += ps.attempted
			m.failed += ps.failed
		}
	}
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	rw := res.refWin

	m.set("setup_s", median(res.setup), true)
	m.notes["setup_s"] = fmt.Sprintf("median of %d starts %v", len(res.setup), roundAll(res.setup))
	m.latency("ingest", res.ref.lat[epIngest])
	for _, e := range []endpoint{epAssign, epSnapshot, epEvents} {
		m.latency(e.String(), reads.lat[e])
	}
	m.set("ingest_sat_pps", float64(res.sat.ackedPoints())/res.sat.wall.Seconds(), true)
	m.set("server_cpu_pct", float64(rw.after.cpuTicks-rw.before.cpuTicks)/clockTicks/rw.seconds()*100, true)
	m.set("server_rss_mb", res.rssMB, true)

	m.set("client.late_p99_ms", quantile(sortedCopy(res.ref.late), 0.99), true)
	m.set("client.achieved_pps", float64(res.ref.ackedPoints())/res.ref.wall.Seconds(), true)
	handler := func(win window, e endpoint) (float64, bool) {
		return win.meanMs("edmserved_http_request_duration_seconds", `endpoint="`+e.String()+`"`)
	}
	ingestH, ok := handler(rw, epIngest)
	m.set("server.ingest_handler_ms", ingestH, ok)
	m.set("http.ingest_overhead_ms", mean(res.ref.service[epIngest])-ingestH, ok)
	for _, e := range []endpoint{epAssign, epSnapshot, epEvents} {
		v, ok := handler(res.readWin, e)
		m.set("server."+e.String()+"_handler_ms", v, ok)
		if e == epAssign {
			m.set("http.assign_overhead_ms", mean(reads.service[epAssign])-v, ok)
		}
	}
	m.set("server.shed_total", res.totWin.delta("edmserved_admission_shed_total"), true)

	flush, okFlush := rw.meanMs("edmserved_coalescer_flush_seconds")
	wait, okWait := rw.meanMs("edmserved_coalescer_batch_wait_seconds")
	// The batch wait runs from the oldest request's enqueue to the end of
	// its flush; the coalescer's own wait is what precedes the flush.
	m.set("coalescer.wait_ms", wait-flush, okWait && okFlush)
	m.set("coalescer.flush_ms", flush, okFlush)
	v, ok := rw.meanOf("edmserved_coalescer_batch_points")
	m.set("coalescer.batch_points", v, ok)
	v, ok = rw.meanOf("edmserved_coalescer_batch_requests")
	m.set("coalescer.batch_requests", v, ok)
	m.set("coalescer.batches", rw.delta("edmserved_coalescer_batches_total"), true)

	v, ok = rw.meanMs("edmserved_wal_fsync_seconds")
	m.set("wal.fsync_ms", v, ok)
	points := rw.delta("edmserved_coalescer_points_total")
	m.set("wal.bytes_per_pt", ratio(rw.delta("edmserved_wal_bytes_total"), points), w.durable)
	m.set("wal.checkpoints", rw.delta("edmserved_wal_checkpoints_total"), w.durable)
	v, ok = res.totWin.meanMs("edmserved_wal_checkpoint_seconds")
	m.set("wal.checkpoint_ms", v, ok)
	m.set("wal.recovery_ms", rw.after.prom.sum("edmserved_wal_recovery_seconds_x1000"), w.durable)

	active := 0
	for _, st := range rw.after.engine {
		active += st.ActiveCells
	}
	m.set("core.active_cells", float64(active), true)
	pts := rw.engineDelta(func(s edmstream.Stats) int64 { return s.Points })
	cands := rw.engineDelta(func(s edmstream.Stats) int64 { return s.DependencyCandidates })
	m.set("core.seed_candidates_per_pt", ratio(rw.engineDelta(func(s edmstream.Stats) int64 { return s.SeedCandidates }), pts), true)
	m.set("core.dep_candidates_per_pt", ratio(cands, pts), true)
	m.set("core.filter_density_ratio", ratio(rw.engineDelta(func(s edmstream.Stats) int64 { return s.FilteredByDensity }), cands), true)
	m.set("core.filter_triangle_ratio", ratio(rw.engineDelta(func(s edmstream.Stats) int64 { return s.FilteredByTriangle }), cands), true)
	m.set("core.relink_ratio", ratio(rw.engineDelta(func(s edmstream.Stats) int64 { return s.DependencyRelinks }), cands), true)
	routes := rw.engineDelta(func(s edmstream.Stats) int64 { return s.SpeculativeRoutes })
	misses := rw.engineDelta(func(s edmstream.Stats) int64 { return s.SpeculationMisses })
	m.set("core.speculation_hit_ratio", 1-ratio(misses, routes), routes > 0)
	m.set("core.events", rw.engineDelta(func(s edmstream.Stats) int64 { return s.EvolutionEvents }), true)

	m.set("tenant.streams_active", float64(res.liveStreams), true)
	memMB := rw.after.prom.sum("edmserved_streams_memory_bytes") / (1 << 20)
	m.set("tenant.memory_mb", memMB, true)
	m.set("tenant.memory_estimate_ratio", ratio(memMB, res.rssMB), true)
	for _, name := range traceOnly {
		m.set(name, 0, false)
	}

	m.report = describe(w, p, res, m)
	return m
}

// describe renders the run's schedule and outcome for the terminal.
func describe(w workload, p *plan, res *passResult, m *metrics) []string {
	out := []string{fmt.Sprintf("%s: gomaxprocs %d, num_cpu %d, %d connections", w.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), conns)}
	r := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	if w.readRPS > 0 {
		out = append(out, fmt.Sprintf("  reference %v: open loop, ingest %.0f pts/s on one connection, reads %.0f req/s on the other",
			r(p.refDur), w.ingestPPS, w.readRPS))
	} else {
		out = append(out, fmt.Sprintf("  reference %v: open loop, ingest %.0f pts/s over %d stream(s); reads %v: open loop %d req/s",
			r(p.refDur), w.ingestPPS, w.streams, r(p.readDur), quietReadRPS))
	}
	out = append(out, fmt.Sprintf("  saturation %v: closed loop ingest, %d points acknowledged", r(p.satDur), res.sat.ackedPoints()))
	fail := 0.0
	if m.attempted > 0 {
		fail = float64(m.failed) / float64(m.attempted)
	}
	out = append(out, fmt.Sprintf("  fail_ratio %.4f (%d of %d requests)", fail, m.failed, m.attempted))
	if w.readRPS > 0 {
		out = append(out, fmt.Sprintf("  assign hit rate %.4f over %d in-distribution probes", hitRate(res.ref), res.ref.assigned))
	}
	return out
}

func roundAll(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(int64(v*1e4+0.5)) / 1e4
	}
	return out
}

// lines renders the report, then both metric lists with their units and
// notes, marking bypassed layers absent.
func (m *metrics) lines(traced bool) []string {
	out := append([]string(nil), m.report...)
	for _, list := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end:", endToEnd}, {"per-layer:", perLayer}} {
		out = append(out, list.title)
		for _, d := range list.defs {
			switch {
			case !traced && slices.Contains(traceOnly, d.name):
				out = append(out, fmt.Sprintf("  %-30s %16s", d.name, "traced runs"))
			case m.absent[d.name]:
				out = append(out, fmt.Sprintf("  %-30s %16s", d.name, "absent"))
			default:
				out = append(out, strings.TrimRight(fmt.Sprintf("  %-30s %16.4f %-6s %s", d.name, m.values[d.name], d.unit, m.notes[d.name]), " "))
			}
		}
	}
	return out
}

// traceOnly are the per-layer metrics only a traced run measures.
var traceOnly = []string{"wal.write_ms", "wal.append_us", "wal.sync_us",
	"core.insert_batch_us_p50", "core.insert_batch_us_p99", "core.direct_pps",
	"core.assign_batch_us_p50", "core.assign_batch_us_p99", "trace.overhead_ms"}

// traceSets are the spans of a traced run: the generator's client spans
// and the daemon's handler and WAL spans over the reference phase, and
// the direct legs.
type traceSets struct {
	client, daemon, direct []span
}

// within keeps the spans that started in [from, to].
func within(spans []span, from, to time.Time) []span {
	var out []span
	for _, s := range spans {
		if s.Start >= from.UnixNano() && s.Start <= to.UnixNano() {
			out = append(out, s)
		}
	}
	return out
}

// addTraceMetrics fills the per-layer metrics only a traced run has.
func addTraceMetrics(m *metrics, t *traceSets, directPoints int, untracedP50 float64) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	_, _, total, n := spanStats(t.daemon, "wal.write")
	m.set("wal.write_ms", ms(total)/float64(n), n > 0)
	p50, p99, total, n := spanStats(t.direct, "core.insert_batch")
	m.set("core.insert_batch_us_p50", us(p50), n > 0)
	m.set("core.insert_batch_us_p99", us(p99), n > 0)
	m.set("core.direct_pps", float64(directPoints)/total.Seconds(), n > 0)
	p50, p99, _, n = spanStats(t.direct, "core.assign_batch")
	m.set("core.assign_batch_us_p50", us(p50), n > 0)
	m.set("core.assign_batch_us_p99", us(p99), n > 0)
	p50, _, _, n = spanStats(t.direct, "wal.append")
	m.set("wal.append_us", us(p50), n > 0)
	p50, _, _, n = spanStats(t.direct, "wal.sync")
	m.set("wal.sync_us", us(p50), n > 0)
	m.set("trace.overhead_ms", m.values["ingest_p50_ms"]-untracedP50, true)
}

// layerRow is one line of the trace summary.
type layerRow struct {
	Set      string  `json:"set"`
	Name     string  `json:"name"`
	Spans    int     `json:"spans"`
	SelfP50  float64 `json:"self_p50_ms"`
	SelfP99  float64 `json:"self_p99_ms"`
	ShareP50 float64 `json:"share_of_ingest_p50"`
}

func (t *traceSets) rows(ingestP50 float64) []layerRow {
	var rows []layerRow
	add := func(set string, spans []span) {
		self := selfTimes(spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := sortedCopy(self[name])
			p50 := quantile(s, 0.5)
			rows = append(rows, layerRow{Set: set, Name: name, Spans: len(s), SelfP50: p50, SelfP99: quantile(s, 0.99), ShareP50: p50 / ingestP50})
		}
	}
	// Client and daemon spans are one tree: a handler span is the child
	// of the client span that sent its request.
	add("run", append(append([]span(nil), t.client...), t.daemon...))
	add("direct", t.direct)
	return rows
}

// traceSummary renders the layer table and the tracing overhead.
func traceSummary(t *traceSets, tracedP50, untracedP50 float64) []string {
	out := []string{"trace (self time per span; share = self p50 / traced ingest_p50_ms):",
		fmt.Sprintf("  %-7s %-20s %8s %12s %12s %8s", "set", "span", "count", "self p50 ms", "self p99 ms", "share")}
	for _, r := range t.rows(tracedP50) {
		out = append(out, fmt.Sprintf("  %-7s %-20s %8d %12.4f %12.4f %8.3f", r.Set, r.Name, r.Spans, r.SelfP50, r.SelfP99, r.ShareP50))
	}
	out = append(out, fmt.Sprintf("  tracing overhead: ingest_p50_ms %.4f traced - %.4f untraced = %.4f ms",
		tracedP50, untracedP50, tracedP50-untracedP50))
	return out
}

func (t *traceSets) write(file, workload string, seed int64, tracedP50, untracedP50 float64) error {
	raw, err := json.Marshal(struct {
		Workload         string            `json:"workload"`
		Seed             int64             `json:"seed"`
		IngestP50        float64           `json:"ingest_p50_ms"`
		IngestP50Untrace float64           `json:"ingest_p50_ms_untraced"`
		OverheadMs       float64           `json:"overhead_ms"`
		Layers           []layerRow        `json:"layers"`
		Spans            map[string][]span `json:"spans"`
	}{workload, seed, tracedP50, untracedP50, tracedP50 - untracedP50, t.rows(tracedP50),
		map[string][]span{"client": t.client, "daemon": t.daemon, "direct": t.direct}})
	if err != nil {
		return err
	}
	return os.WriteFile(file, raw, 0o644)
}
