package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// series, Samples as summaries with window quantiles and cumulative
// _count/_sum. Series of one metric family are emitted consecutively
// under a single # TYPE header, families in lexical order, series
// within a family in label order — the output is deterministic for a
// fixed set of registered metrics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	samples := make([]*Sample, 0, len(r.samples))
	for _, s := range r.samples {
		samples = append(samples, s)
	}
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool {
		if counters[i].name != counters[j].name {
			return counters[i].name < counters[j].name
		}
		return counters[i].labels < counters[j].labels
	})
	sort.Slice(gauges, func(i, j int) bool {
		if gauges[i].name != gauges[j].name {
			return gauges[i].name < gauges[j].name
		}
		return gauges[i].labels < gauges[j].labels
	})
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].name != samples[j].name {
			return samples[i].name < samples[j].name
		}
		return samples[i].labels < samples[j].labels
	})

	var b strings.Builder
	prevName := ""
	for _, c := range counters {
		if c.name != prevName {
			fmt.Fprintf(&b, "# TYPE %s counter\n", c.name)
			prevName = c.name
		}
		fmt.Fprintf(&b, "%s %d\n", series(c.name, c.labels, ""), c.Value())
	}
	prevName = ""
	for _, g := range gauges {
		if g.name != prevName {
			fmt.Fprintf(&b, "# TYPE %s gauge\n", g.name)
			prevName = g.name
		}
		fmt.Fprintf(&b, "%s %d\n", series(g.name, g.labels, ""), g.Value())
	}
	prevName = ""
	for _, s := range samples {
		if s.name != prevName {
			fmt.Fprintf(&b, "# TYPE %s summary\n", s.name)
			prevName = s.name
		}
		st := s.Stats()
		fmt.Fprintf(&b, "%s %g\n", series(s.name, s.labels, `quantile="0.5"`), st.P50)
		fmt.Fprintf(&b, "%s %g\n", series(s.name, s.labels, `quantile="0.9"`), st.P90)
		fmt.Fprintf(&b, "%s %g\n", series(s.name, s.labels, `quantile="0.99"`), st.P99)
		fmt.Fprintf(&b, "%s %g\n", series(s.name+"_sum", s.labels, ""), st.Sum)
		fmt.Fprintf(&b, "%s %d\n", series(s.name+"_count", s.labels, ""), st.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// series renders one sample line's name{labels} prefix, merging the
// metric's own labels with an extra label (the quantile).
func series(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}
