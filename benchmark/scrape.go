package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/densitymountain/edmstream"
)

// promSeries is a parsed Prometheus text exposition: metric name to its
// series, each with its raw label list.
type promSeries map[string][]promPoint

type promPoint struct {
	labels string // without braces, as printed
	value  float64
}

// parseProm reads the Prometheus text format: comment lines are skipped,
// every other line is `name{labels} value` or `name value`.
func parseProm(r io.Reader) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		key := strings.TrimSpace(line[:sp])
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				return nil, fmt.Errorf("metrics line %d: unterminated labels: %q", n, line)
			}
			name, labels = key[:i], key[i+1:len(key)-1]
		}
		out[name] = append(out[name], promPoint{labels: labels, value: v})
	}
	return out, sc.Err()
}

// sum adds the values of every series of name whose labels contain each
// of the given label pairs (such as `endpoint="ingest"`).
func (p promSeries) sum(name string, match ...string) float64 {
	total := 0.0
	for _, pt := range p[name] {
		ok := true
		for _, m := range match {
			if !strings.Contains(pt.labels, m) {
				ok = false
				break
			}
		}
		if ok {
			total += pt.value
		}
	}
	return total
}

// scrape is the daemon's telemetry at one instant: what the per-layer
// metrics are differences of.
type scrape struct {
	at       time.Time
	prom     promSeries
	engine   []edmstream.Stats // per stream
	batchP50 float64           // coalesced batch size median, first stream
	cpuTicks int64
}

type statsBody struct {
	Engine edmstream.Stats `json:"engine"`
	Server struct {
		Coalescer struct {
			BatchPointsP50 float64 `json:"batch_points_p50"`
		} `json:"coalescer"`
	} `json:"server"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// takeScrape reads /metrics, every stream's /stats and the daemon's CPU
// time.
func takeScrape(c *conn, ch *child) (*scrape, error) {
	ticks, err := ch.cpuTicks()
	if err != nil {
		return nil, err
	}
	s := &scrape{at: time.Now(), cpuTicks: ticks}
	resp, err := c.client.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	s.prom, err = parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for i, prefix := range c.prefix {
		var st statsBody
		if err := getJSON(c.client, c.base+prefix+"/stats", &st); err != nil {
			return nil, err
		}
		s.engine = append(s.engine, st.Engine)
		if i == 0 {
			s.batchP50 = st.Server.Coalescer.BatchPointsP50
		}
	}
	return s, nil
}

// window is the change between two scrapes.
type window struct{ before, after *scrape }

// delta is the change of a counter (or of a summary's _sum/_count).
func (w window) delta(name string, match ...string) float64 {
	return w.after.prom.sum(name, match...) - w.before.prom.sum(name, match...)
}

// meanMs is the exact mean of a seconds-valued summary over the window,
// in milliseconds; ok is false when nothing was observed.
func (w window) meanMs(name string, match ...string) (float64, bool) {
	n := w.delta(name+"_count", match...)
	if n <= 0 {
		return 0, false
	}
	return w.delta(name+"_sum", match...) / n * 1000, true
}

// meanOf is the exact mean of a plain summary over the window.
func (w window) meanOf(name string, match ...string) (float64, bool) {
	n := w.delta(name+"_count", match...)
	if n <= 0 {
		return 0, false
	}
	return w.delta(name+"_sum", match...) / n, true
}

// engineDelta sums a counter of every stream's engine stats over the
// window.
func (w window) engineDelta(field func(edmstream.Stats) int64) float64 {
	total := int64(0)
	for i := range w.after.engine {
		total += field(w.after.engine[i]) - field(w.before.engine[i])
	}
	return float64(total)
}

func (w window) seconds() float64 { return w.after.at.Sub(w.before.at).Seconds() }
