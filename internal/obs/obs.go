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
// lock-free aggregative metrics libraries: observations land in one of
// a fixed ring of time slots through atomic operations only, stale
// slots are reclaimed in place by the first writer of a new period,
// and a read merges the live slots. Each slot is a fixed log-linear
// histogram (four linear sub-buckets per power of two), so a
// distribution costs the same few kilobytes whatever its traffic,
// every observation is counted, and a quantile read walks ~160
// counters instead of sorting retained samples. Writers never take a
// lock and never allocate.
package obs

import (
	"math"
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

// Window geometry: the sliding window is slotCount slots of slotNanos
// each (60 s total).
const (
	slotCount = 6
	slotNanos = int64(10 * time.Second)
)

// Histogram geometry. Bucket 0 holds everything below 2^minExp (zero
// and negatives included), the last bucket everything from 2^maxExp
// up; in between, each octave [2^e, 2^(e+1)) splits into subBuckets
// equal-width buckets. The range spans ~60 ns to ~9 h for durations
// in seconds and 1 to 32767 for sizes and counts.
const (
	subBits     = 2
	subBuckets  = 1 << subBits
	minExp      = -24
	maxExp      = 15
	bucketCount = 2 + (maxExp-minExp)*subBuckets
)

// bucketOf returns the histogram bucket of v.
func bucketOf(v float64) int {
	if !(v >= 1.0/(1<<-minExp)) { // also NaN
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023 // v is normal: at least 2^minExp
	if exp >= maxExp {
		return bucketCount - 1
	}
	sub := int(bits>>(52-subBits)) & (subBuckets - 1)
	return 1 + (exp-minExp)<<subBits + sub
}

// bucketValue is the value a quantile falling in bucket i reports:
// for a bucket [a, b) the point 2ab/(a+b), whose relative distance to
// either end is (b−a)/(a+b) — at most 1/9 with four sub-buckets per
// octave, so any value in the bucket is within 11.1% of it. The two
// open-ended buckets report the window's min and max.
func bucketValue(i int, lo, hi float64) float64 {
	switch i {
	case 0:
		return lo
	case bucketCount - 1:
		return hi
	}
	i--
	base := math.Ldexp(1, minExp+i>>subBits)
	a := base * (1 + float64(i&(subBuckets-1))/subBuckets)
	b := a + base/subBuckets
	return 2 * a * b / (a + b)
}

// sampleSlot is one time slot of a Sample's sliding window. All
// fields are accessed atomically; epoch identifies the wall-clock
// period the slot currently holds, and the first writer of a new
// period reclaims the slot in place (observations racing that
// rotation may land in a slot that is being reset and be dropped from
// the window — an accepted telemetry-grade tradeoff, never a data
// race; the cumulative count and sum always keep them).
type sampleSlot struct {
	epoch    atomic.Int64
	min, max atomicFloat
	counts   [bucketCount]atomic.Uint32
}

// reset reclaims the slot for a new period.
func (sl *sampleSlot) reset() {
	sl.min.store(math.Inf(1))
	sl.max.store(math.Inf(-1))
	for i := range sl.counts {
		sl.counts[i].Store(0)
	}
}

// Sample tracks a sliding-window distribution of float64 observations
// (latencies in seconds, batch sizes, ...). Observe is lock-free and
// allocation-free; Stats merges the live slots. Its footprint is fixed
// (under 4 KiB) from creation on. Create instances through
// Registry.Sample or Registry.Timing.
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

// newSample returns a Sample whose slots all predate every period, so
// the first observation of each slot reclaims it.
func newSample(name, labels string, now func() int64) *Sample {
	s := &Sample{name: name, labels: labels, now: now}
	for i := range s.slots {
		s.slots[i].epoch.Store(math.MinInt64)
	}
	return s
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
			// between goroutines); dropping the observation from the
			// window is safer than polluting the newer slot.
			s.totalCount.Add(1)
			s.totalSum.add(v)
			return
		}
		if slot.epoch.CompareAndSwap(e, epoch) {
			slot.reset()
			break
		}
	}
	slot.counts[bucketOf(v)].Add(1)
	slot.min.storeMin(v)
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
// quantiles estimate the nearest-rank quantiles of the window's
// observations: within 12.5% of the exact value for values between
// 2^-24 and 2^15, never outside the window's min and max, and exact
// for the lowest and highest rank (so a constant series reports its
// value). With zero observations in the window they are 0.
func (s *Sample) Stats() Stats {
	st := Stats{Count: s.totalCount.Load(), Sum: s.totalSum.load()}
	var merged [bucketCount]uint64
	lo, hi := math.Inf(1), math.Inf(-1)
	nowEpoch := s.now() / slotNanos
	oldest := nowEpoch - slotCount + 1
	for i := range s.slots {
		slot := &s.slots[i]
		if e := slot.epoch.Load(); e < oldest || e > nowEpoch {
			continue
		}
		for j := range slot.counts {
			merged[j] += uint64(slot.counts[j].Load())
		}
		lo = min(lo, slot.min.load())
		hi = max(hi, slot.max.load())
	}
	for _, n := range merged {
		st.WindowCount += n
	}
	if st.WindowCount == 0 || lo > hi {
		// Empty, or every live slot was caught mid-rotation.
		return st
	}
	st.WindowMax = hi
	qs := [...]float64{0.50, 0.90, 0.99}
	out := [...]*float64{&st.P50, &st.P90, &st.P99}
	var cum uint64
	b := 0
	for k, q := range qs {
		rank := uint64(math.Ceil(q * float64(st.WindowCount)))
		rank = max(rank, 1)
		for cum+merged[b] < rank {
			cum += merged[b]
			b++
		}
		switch rank {
		case 1:
			*out[k] = lo
		case st.WindowCount:
			*out[k] = hi
		default:
			*out[k] = min(max(bucketValue(b, lo, hi), lo), hi)
		}
	}
	return st
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

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
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
		s = newSample(name, labels, r.now)
		r.samples[k] = s
	}
	return s
}

// Unregister removes every counter, gauge and distribution registered
// under exactly the given labels (a stream's `stream="<name>"` set
// when the stream leaves memory), so neither their series nor their
// storage outlive it. Instruments handed out earlier keep working but
// are no longer exported; asking for the same (name, labels) again
// registers fresh ones, which Prometheus reads as a counter reset.
func (r *Registry) Unregister(labels string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.counters {
		if c.labels == labels {
			delete(r.counters, k)
		}
	}
	for k, g := range r.gauges {
		if g.labels == labels {
			delete(r.gauges, k)
		}
	}
	for k, s := range r.samples {
		if s.labels == labels {
			delete(r.samples, k)
		}
	}
}

// Timing returns a duration-valued Sample registered under (name,
// labels). Durations are exported as float seconds.
func (r *Registry) Timing(name, labels string) Timing {
	return Timing{r.Sample(name, labels)}
}
