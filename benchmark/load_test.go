package main

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// scriptClock is a clock that only moves when the script moves it.
type scriptClock struct{ t time.Time }

func (c *scriptClock) now() time.Time { return c.t }

func (c *scriptClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// A stall on one request must be charged, from their due times, to the
// requests that queued behind it, and the sender's lateness recorded.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	clk := &scriptClock{t: time.Unix(1000, 0)}
	start := clk.t
	const tick = 10 * time.Millisecond
	var ops []op
	for k := 0; k < 6; k++ {
		ops = append(ops, op{due: time.Duration(k) * tick, ep: epIngest, points: batchPoints})
	}
	// Every request takes 1ms except the second, which stalls for 35ms.
	service := []time.Duration{1, 35, 1, 1, 1, 1}
	calls := 0
	do := func(o *op) outcome {
		clk.t = clk.t.Add(service[calls] * time.Millisecond)
		calls++
		return outcome{ok: true, acked: o.points}
	}
	st := newPhaseStats(1)
	openLoop(clk, start, ops, do, st)

	// Due at 0,10,...,50ms. The stall ends at 45ms; requests 2-4 go out
	// late, back to back, and the last one is on time again.
	wantLat := []float64{1, 35, 26, 17, 8, 1}
	wantService := []float64{1, 35, 1, 1, 1, 1}
	wantLate := []float64{0, 0, 25, 16, 7, 0}
	if !reflect.DeepEqual(st.lat[epIngest], wantLat) {
		t.Errorf("latency from due = %v, want %v", st.lat[epIngest], wantLat)
	}
	if !reflect.DeepEqual(st.service[epIngest], wantService) {
		t.Errorf("service time = %v, want %v", st.service[epIngest], wantService)
	}
	if !reflect.DeepEqual(st.late, wantLate) {
		t.Errorf("lateness = %v, want %v", st.late, wantLate)
	}
	if st.attempted != 6 || st.failed != 0 || st.acked[0] != 6*batchPoints || st.sent[0] != 6*batchPoints {
		t.Errorf("counts: attempted %d failed %d acked %d sent %d", st.attempted, st.failed, st.acked[0], st.sent[0])
	}
	if st.wall != 51*time.Millisecond {
		t.Errorf("wall = %v, want 51ms", st.wall)
	}
}

// A failed request counts as attempted and sent, never as acknowledged,
// and contributes no latency sample.
func TestPhaseStatsCountsFailures(t *testing.T) {
	st := newPhaseStats(2)
	o := op{ep: epIngest, stream: 1, points: batchPoints}
	st.record(&o, outcome{}, time.Millisecond, time.Millisecond, 0)
	st.record(&o, outcome{ok: true, acked: batchPoints}, 2*time.Millisecond, time.Millisecond, 0)
	if st.attempted != 2 || st.failed != 1 || st.sent[1] != 2*batchPoints || st.acked[1] != batchPoints {
		t.Errorf("attempted %d failed %d sent %v acked %v", st.attempted, st.failed, st.sent, st.acked)
	}
	if len(st.lat[epIngest]) != 1 || st.lat[epIngest][0] != 2 {
		t.Errorf("latencies %v, want [2]", st.lat[epIngest])
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	clk := &scriptClock{t: time.Unix(1000, 0)}
	ops := make([]op, 100)
	for i := range ops {
		ops[i] = op{ep: epIngest, points: batchPoints}
	}
	do := func(o *op) outcome {
		clk.t = clk.t.Add(3 * time.Millisecond)
		return outcome{ok: true, acked: o.points}
	}
	var cursor atomic.Int64
	st := newPhaseStats(1)
	closedLoop(clk, clk.t.Add(10*time.Millisecond), ops, &cursor, do, st)
	// Sends at 0, 3, 6 and 9ms; the fifth would start at 12ms.
	if st.attempted != 4 || st.wall != 12*time.Millisecond {
		t.Errorf("attempted %d in %v, want 4 in 12ms", st.attempted, st.wall)
	}
}
