// Package obs provides the operational telemetry primitives behind
// the serving daemon's GET /metrics endpoint: lock-free counters,
// gauges and sliding-window latency/size distributions with quantile
// summaries, exported in Prometheus text exposition format.
//
// It is deliberately distinct from internal/metrics, which implements
// the paper-evaluation quality metrics (CMM, purity); obs measures the
// server, not the clustering.
//
// The distribution tracker follows the slot-rotation design of
// lock-free aggregative metrics libraries (see the hasansino/metrics
// reference in /root/related): observations land in one of a fixed
// ring of time slots through atomic operations only, stale slots are
// reclaimed in place by the first writer of a new period, and a read
// merges the live slots. Quantiles are computed exactly over the
// retained samples of the window (each slot keeps a bounded sample
// ring), so a freshly started server reports exact percentiles rather
// than estimator warm-up noise; under load the per-slot rings cap
// memory while still reflecting the most recent traffic. Writers
// never take a lock and never allocate.
package obs

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; Registry.Counter hands out named instances.
type Counter struct {
	name, labels string
	v            atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, pool
// sizes). The zero value is ready to use.
type Gauge struct {
	name, labels string
	v            atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Window geometry: the sliding window is slotCount slots of
// slotNanos each (60 s total with the defaults), and each slot
// retains up to slotSamples observations for exact quantile reads.
// With more than slotSamples observations per slot the ring keeps the
// most recent ones — the window then reflects the freshest traffic,
// which is what an operational latency quantile is for.
const (
	slotCount   = 6
	slotNanos   = int64(10 * time.Second)
	slotSamples = 512
)

// sampleSlot is one time slot of a Sample's sliding window. All
// fields are accessed atomically; epoch identifies the wall-clock
// period the slot currently holds, and the first writer of a new
// period reclaims the slot in place (observations racing that
// rotation may land in a slot that is being reset and be dropped —
// an accepted telemetry-grade tradeoff, never a data race).
type sampleSlot struct {
	epoch atomic.Int64
	count atomic.Uint64
	sum   atomicFloat
	max   atomicFloat
	ring  [slotSamples]atomic.Uint64
}

// Sample tracks a sliding-window distribution of float64 observations
// (latencies in seconds, batch sizes, ...). Observe is lock-free and
// allocation-free; Stats merges the live slots. Create instances
// through Registry.Sample or Registry.Timing.
type Sample struct {
	name, labels string

	// totalCount and totalSum are cumulative (never reset), matching
	// the Prometheus summary convention where _count/_sum are
	// counters while quantiles describe the recent window.
	totalCount atomic.Uint64
	totalSum   atomicFloat

	slots [slotCount]sampleSlot

	// now returns the current wall clock in nanoseconds; tests inject
	// a fake to drive rotation deterministically.
	now func() int64
}

// Observe records one value.
func (s *Sample) Observe(v float64) {
	epoch := s.now() / slotNanos
	slot := &s.slots[int(epoch%slotCount)]
	for {
		e := slot.epoch.Load()
		if e == epoch {
			break
		}
		if e > epoch {
			// The slot already belongs to a newer period (clock skew
			// between goroutines); dropping the observation is safer
			// than polluting the newer slot.
			return
		}
		if slot.epoch.CompareAndSwap(e, epoch) {
			// Winner of the rotation reclaims the slot in place.
			slot.count.Store(0)
			slot.sum.store(0)
			slot.max.store(0)
			break
		}
	}
	n := slot.count.Add(1)
	slot.ring[(n-1)%slotSamples].Store(math.Float64bits(v))
	slot.sum.add(v)
	slot.max.storeMax(v)
	s.totalCount.Add(1)
	s.totalSum.add(v)
}

// Stats is a point-in-time summary of a Sample.
type Stats struct {
	// Count and Sum are cumulative over the Sample's lifetime.
	Count uint64
	Sum   float64
	// WindowCount, WindowMax and the quantiles describe the sliding
	// window (the last ~60 s of observations).
	WindowCount   uint64
	WindowMax     float64
	P50, P90, P99 float64
}

// Stats merges the live slots of the window into a summary. The
// quantiles are exact over the window's retained samples
// (nearest-rank); with zero observations in the window they are 0.
func (s *Sample) Stats() Stats {
	buf := make([]float64, 0, slotCount*slotSamples)
	return s.statsInto(buf)
}

// statsInto is Stats with a caller-provided scratch buffer (the
// Prometheus writer reuses one across metrics).
func (s *Sample) statsInto(buf []float64) Stats {
	st := Stats{Count: s.totalCount.Load(), Sum: s.totalSum.load()}
	nowEpoch := s.now() / slotNanos
	oldest := nowEpoch - slotCount + 1
	for i := range s.slots {
		slot := &s.slots[i]
		e := slot.epoch.Load()
		if e < oldest || e > nowEpoch {
			continue
		}
		n := slot.count.Load()
		if n == 0 {
			continue
		}
		st.WindowCount += n
		if m := slot.max.load(); m > st.WindowMax {
			st.WindowMax = m
		}
		retained := n
		if retained > slotSamples {
			retained = slotSamples
		}
		for j := uint64(0); j < retained; j++ {
			buf = append(buf, math.Float64frombits(slot.ring[j].Load()))
		}
	}
	if len(buf) == 0 {
		return st
	}
	slices.Sort(buf)
	st.P50 = quantile(buf, 0.50)
	st.P90 = quantile(buf, 0.90)
	st.P99 = quantile(buf, 0.99)
	return st
}

// quantile returns the nearest-rank q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Timing is a Sample observing durations, stored as float seconds
// (the Prometheus base unit for time).
type Timing struct {
	*Sample
}

// Observe records one duration.
func (t Timing) Observe(d time.Duration) { t.Sample.Observe(d.Seconds()) }

// atomicFloat is a float64 with atomic load/store/add/max built on
// its IEEE-754 bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(delta float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Registry owns a set of named metrics and renders them in Prometheus
// text exposition format. Metric registration takes a lock;
// observation paths never do. Metric identity is (name, labels) —
// asking again for a registered pair returns the same instance.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	samples  map[string]*Sample

	// now is the clock injected into new Samples; tests replace it.
	now func() int64
}

// NewRegistry returns an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		samples:  map[string]*Sample{},
		now:      func() int64 { return time.Now().UnixNano() },
	}
}

// metricKey builds the identity key of a (name, labels) pair.
func metricKey(name, labels string) string { return name + "{" + labels + "}" }

// Counter returns the counter registered under (name, labels),
// creating it on first use. labels is the raw Prometheus label list
// without braces, e.g. `endpoint="ingest"`; empty for none.
func (r *Registry) Counter(name, labels string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey(name, labels)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{name: name, labels: labels}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge registered under (name, labels), creating
// it on first use.
func (r *Registry) Gauge(name, labels string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey(name, labels)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{name: name, labels: labels}
		r.gauges[k] = g
	}
	return g
}

// Sample returns the distribution tracker registered under (name,
// labels), creating it on first use.
func (r *Registry) Sample(name, labels string) *Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey(name, labels)
	s, ok := r.samples[k]
	if !ok {
		s = &Sample{name: name, labels: labels, now: r.now}
		r.samples[k] = s
	}
	return s
}

// Timing returns a duration-valued Sample registered under (name,
// labels). Durations are exported as float seconds.
func (r *Registry) Timing(name, labels string) Timing {
	return Timing{r.Sample(name, labels)}
}
