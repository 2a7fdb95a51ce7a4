package main

import (
	"strings"
	"testing"
	"time"
)

// The exposition format cmd/edmserved's /metrics writes: counters,
// gauges and summaries with quantile, _sum and _count series.
const promBefore = `# TYPE edmserved_http_request_duration_seconds summary
edmserved_http_request_duration_seconds{endpoint="ingest",quantile="0.5"} 0.004
edmserved_http_request_duration_seconds{endpoint="ingest",quantile="0.99"} 0.009
edmserved_http_request_duration_seconds_sum{endpoint="ingest"} 2.5
edmserved_http_request_duration_seconds_count{endpoint="ingest"} 1000
edmserved_http_request_duration_seconds_sum{endpoint="assign"} 0.1
edmserved_http_request_duration_seconds_count{endpoint="assign"} 100
# TYPE edmserved_admission_shed_total counter
edmserved_admission_shed_total{reason="est_wait"} 3
edmserved_admission_shed_total{reason="queue_full"} 1
edmserved_coalescer_batches_total{stream="t00"} 10
edmserved_coalescer_batches_total{stream="t01"} 20
edmserved_streams_active 17
edmserved_coalescer_flush_seconds_sum{stream="default"} 1.5e-01
`

const promAfter = `edmserved_http_request_duration_seconds_sum{endpoint="ingest"} 6.5
edmserved_http_request_duration_seconds_count{endpoint="ingest"} 2000
edmserved_http_request_duration_seconds_sum{endpoint="assign"} 0.1
edmserved_http_request_duration_seconds_count{endpoint="assign"} 100
edmserved_admission_shed_total{reason="est_wait"} 5
edmserved_admission_shed_total{reason="queue_full"} 1
edmserved_coalescer_batches_total{stream="t00"} 15
edmserved_coalescer_batches_total{stream="t01"} 30
edmserved_streams_active 17
`

func TestParsePromAndWindow(t *testing.T) {
	before, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.sum("edmserved_streams_active"); got != 17 {
		t.Errorf("unlabelled gauge = %v, want 17", got)
	}
	if got := before.sum("edmserved_coalescer_flush_seconds_sum"); got != 0.15 {
		t.Errorf("exponent value = %v, want 0.15", got)
	}
	if got := before.sum("edmserved_http_request_duration_seconds", `endpoint="ingest"`, `quantile="0.99"`); got != 0.009 {
		t.Errorf("quantile series = %v, want 0.009", got)
	}
	w := window{before: &scrape{prom: before}, after: &scrape{prom: after}}
	// 1000 more ingest requests took 4s more: a 4ms mean over the window.
	if got, ok := w.meanMs("edmserved_http_request_duration_seconds", `endpoint="ingest"`); !ok || got != 4 {
		t.Errorf("ingest mean = %v (%v), want 4ms", got, ok)
	}
	if _, ok := w.meanMs("edmserved_http_request_duration_seconds", `endpoint="assign"`); ok {
		t.Error("assign saw no request in the window, want no mean")
	}
	if got := w.delta("edmserved_admission_shed_total"); got != 2 {
		t.Errorf("shed delta over every reason = %v, want 2", got)
	}
	if got := w.delta("edmserved_coalescer_batches_total"); got != 15 {
		t.Errorf("batches delta summed over streams = %v, want 15", got)
	}
}

func TestParsePromRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{"edmserved_x\n", "edmserved_x{a=\"b\" 1\n", "edmserved_x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseCPUTicks(t *testing.T) {
	// Fields after the command name: state(3) ... utime(14) stime(15).
	stat := "4242 (edm served) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 37 0 0 20 0 9 0 100 0 0"
	got, err := parseCPUTicks([]byte(stat))
	if err != nil || got != 187 {
		t.Errorf("parseCPUTicks = %v, %v; want 187", got, err)
	}
	if _, err := parseCPUTicks([]byte("4242 (x) S 1")); err == nil {
		t.Error("short stat line accepted")
	}
}

func TestWithinKeepsSpansStartedInWindow(t *testing.T) {
	from := time.Unix(10, 0)
	to := time.Unix(20, 0)
	spans := []span{
		{ID: 1, Start: time.Unix(9, 0).UnixNano(), End: time.Unix(11, 0).UnixNano()},
		{ID: 2, Start: time.Unix(10, 0).UnixNano(), End: time.Unix(21, 0).UnixNano()},
		{ID: 3, Start: time.Unix(21, 0).UnixNano(), End: time.Unix(22, 0).UnixNano()},
	}
	got := within(spans, from, to)
	if len(got) != 1 || got[0].ID != 2 {
		t.Errorf("within = %+v, want only span 2", got)
	}
}
