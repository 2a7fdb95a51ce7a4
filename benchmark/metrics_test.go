package main

import (
	"strings"
	"testing"
)

// A traced run fills the trace-only metrics after the untraced ones were
// derived, which marked them absent: the later value must win.
func TestMetricSetLaterValueClearsAbsence(t *testing.T) {
	m := newMetrics()
	m.set("core.direct_pps", 0, false)
	m.set("wal.fsync_ms", 0, false)
	m.set("core.direct_pps", 480000, true)
	report := strings.Join(m.lines(true), "\n")
	if !strings.Contains(report, "480000.0000 pts/s") {
		t.Errorf("core.direct_pps not reported after being set:\n%s", report)
	}
	if !strings.Contains(report, "wal.fsync_ms                             absent") {
		t.Errorf("wal.fsync_ms should stay absent:\n%s", report)
	}
	untraced := strings.Join(m.lines(false), "\n")
	if !strings.Contains(untraced, "core.direct_pps                     traced runs") {
		t.Errorf("untraced report should defer core.direct_pps to traced runs:\n%s", untraced)
	}
}
