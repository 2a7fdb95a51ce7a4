package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// endpoint is one data-plane request type the generator sends.
type endpoint int

const (
	epIngest endpoint = iota
	epAssign
	epSnapshot
	epEvents
	numEndpoints
)

var endpointNames = [numEndpoints]string{"ingest", "assign", "snapshot", "events"}

func (e endpoint) String() string { return endpointNames[e] }

// op is one pre-rendered request. due is its offset from the start of an
// open-loop phase; closed-loop phases ignore it.
type op struct {
	due    time.Duration
	ep     endpoint
	stream int
	body   []byte // ingest and assign only
	points int    // ingest points in body
}

// outcome is what one request returned.
type outcome struct {
	ok       bool
	acked    int // ingest points acknowledged
	assigned int // assign probes answered
	hits     int // assign probes placed in a cluster
}

// conn drives one keep-alive HTTP connection to the daemon. Requests on a
// conn are strictly sequential, so the generator holds at most as many
// connections as it has conns.
type conn struct {
	client  *http.Client
	base    string
	prefix  []string // URL prefix per stream: /v1 or /v1/<name>
	cursors []uint64 // events cursor per stream
	spans   *spanLog // nil when untraced
}

func newConn(base string, prefix []string, spans *spanLog) *conn {
	return &conn{
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base:    base,
		prefix:  prefix,
		cursors: make([]uint64, len(prefix)),
		spans:   spans,
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and checks its answer. A transport error, a
// non-200 status or an ack that does not cover the request's points is a
// failure.
func (c *conn) do(o *op) outcome {
	url := c.base + c.prefix[o.stream]
	method := http.MethodGet
	var body io.Reader
	switch o.ep {
	case epIngest:
		method, url, body = http.MethodPost, url+"/ingest", bytes.NewReader(o.body)
	case epAssign:
		method, url, body = http.MethodPost, url+"/assign", bytes.NewReader(o.body)
	case epSnapshot:
		url += "/snapshot"
	case epEvents:
		url += "/events?cursor=" + strconv.FormatUint(c.cursors[o.stream], 10)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return outcome{}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	var start int64
	if c.spans != nil {
		id = c.spans.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		start = time.Now().UnixNano()
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return outcome{}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.spans != nil {
		c.spans.add(span{ID: id, Name: "client." + o.ep.String(), Start: start, End: time.Now().UnixNano()})
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return outcome{}
	}
	switch o.ep {
	case epIngest:
		var ack struct {
			Accepted int     `json:"accepted"`
			Cells    []int64 `json:"cells"`
		}
		if json.Unmarshal(raw, &ack) != nil || ack.Accepted != o.points || len(ack.Cells) != o.points {
			return outcome{}
		}
		return outcome{ok: true, acked: ack.Accepted}
	case epAssign:
		var res struct {
			Clusters []int `json:"clusters"`
		}
		if json.Unmarshal(raw, &res) != nil {
			return outcome{}
		}
		out := outcome{ok: true, assigned: len(res.Clusters)}
		for _, id := range res.Clusters {
			if id >= 0 {
				out.hits++
			}
		}
		return out
	case epEvents:
		var page struct {
			Cursor uint64 `json:"cursor"`
		}
		if json.Unmarshal(raw, &page) != nil {
			return outcome{}
		}
		c.cursors[o.stream] = page.Cursor
	}
	return outcome{ok: true}
}

// phaseStats is what one phase recorded on one or more connections.
type phaseStats struct {
	lat       [numEndpoints][]float64 // ms: from due (open loop) or from send (closed loop)
	service   [numEndpoints][]float64 // ms: from send
	late      []float64               // ms the sender ran behind schedule, per request
	attempted int
	failed    int
	sent      []int // ingest points attempted, per stream
	acked     []int // ingest points acknowledged, per stream
	assigned  int
	hits      int
	wall      time.Duration
}

func newPhaseStats(streams int) *phaseStats {
	return &phaseStats{sent: make([]int, streams), acked: make([]int, streams)}
}

func (s *phaseStats) record(o *op, out outcome, lat, service, late time.Duration) {
	s.attempted++
	if o.ep == epIngest {
		s.sent[o.stream] += o.points
	}
	if !out.ok {
		s.failed++
		return
	}
	s.lat[o.ep] = append(s.lat[o.ep], ms(lat))
	s.service[o.ep] = append(s.service[o.ep], ms(service))
	s.late = append(s.late, ms(late))
	s.acked[o.stream] += out.acked
	s.assigned += out.assigned
	s.hits += out.hits
}

// merge folds other into s. Wall time is the longest of the two.
func (s *phaseStats) merge(other *phaseStats) {
	for e := range s.lat {
		s.lat[e] = append(s.lat[e], other.lat[e]...)
		s.service[e] = append(s.service[e], other.service[e]...)
	}
	s.late = append(s.late, other.late...)
	s.attempted += other.attempted
	s.failed += other.failed
	for i := range s.sent {
		s.sent[i] += other.sent[i]
		s.acked[i] += other.acked[i]
	}
	s.assigned += other.assigned
	s.hits += other.hits
	s.wall = max(s.wall, other.wall)
}

func (s *phaseStats) ackedPoints() int {
	n := 0
	for _, a := range s.acked {
		n += a
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the time source of a sender loop; tests script it.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

// wallClock sleeps with nanosleep on a thread whose timer slack is 1ns:
// it wakes within tens of microseconds, where Go's own timers round a
// sub-millisecond sleep up to about a millisecond, which would show up
// as lateness in every read latency. Call lockPreciseThread first.
type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// lockPreciseThread pins the calling goroutine to its OS thread and sets
// that thread's timer slack to 1ns. The thread ends with the goroutine,
// so the setting never leaks to other goroutines.
func lockPreciseThread() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: only precision suffers
}

// openLoop sends ops on their schedule from start, whatever the daemon
// does. Each request's latency runs from when it was due, not from when
// it was sent, so a stall is also charged to every request that queued
// behind it; the sender's lateness is recorded separately.
func openLoop(clk clock, start time.Time, ops []op, do func(*op) outcome, st *phaseStats) {
	for i := range ops {
		o := &ops[i]
		due := start.Add(o.due)
		clk.sleepUntil(due)
		sent := clk.now()
		out := do(o)
		end := clk.now()
		st.record(o, out, end.Sub(due), end.Sub(sent), max(0, sent.Sub(due)))
	}
	st.wall = clk.now().Sub(start)
}

// closedLoop sends ops back to back, taking the next op from the shared
// cursor, until the deadline passes or the ops run out.
func closedLoop(clk clock, deadline time.Time, ops []op, cursor *atomic.Int64, do func(*op) outcome, st *phaseStats) {
	start := clk.now()
	for clk.now().Before(deadline) {
		i := cursor.Add(1) - 1
		if i >= int64(len(ops)) {
			break
		}
		o := &ops[i]
		sent := clk.now()
		out := do(o)
		end := clk.now()
		st.record(o, out, end.Sub(sent), end.Sub(sent), 0)
	}
	st.wall = clk.now().Sub(start)
}

// sendInOrder sends ops one after another on c and fails on the first
// request that does not succeed: set-up traffic must all land.
func sendInOrder(c *conn, ops []op) error {
	for i := range ops {
		if out := c.do(&ops[i]); !out.ok {
			return fmt.Errorf("set-up %s request %d of %d failed", ops[i].ep, i+1, len(ops))
		}
	}
	return nil
}
