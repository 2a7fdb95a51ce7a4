package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// fakeClock drives Sample rotation deterministically.
type fakeClock struct {
	mu  sync.Mutex
	nan int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nan
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.nan += int64(d)
	c.mu.Unlock()
}

func newTestRegistry() (*Registry, *fakeClock) {
	r := NewRegistry()
	clk := &fakeClock{nan: slotNanos * 100} // away from epoch 0
	r.now = clk.now
	return r, clk
}

func TestCounterAndGauge(t *testing.T) {
	r, _ := newTestRegistry()
	c := r.Counter("requests_total", `endpoint="ingest"`)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("requests_total", `endpoint="ingest"`); again != c {
		t.Error("same (name, labels) should return the same counter")
	}
	if other := r.Counter("requests_total", `endpoint="assign"`); other == c {
		t.Error("different labels should return a different counter")
	}
	g := r.Gauge("pending", "")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

// withinBound reports whether est is within the histogram's relative
// error bound of the exact value.
func withinBound(est, exact float64) bool {
	return math.Abs(est-exact) <= 0.125*math.Abs(exact)
}

func TestSampleQuantilesSmall(t *testing.T) {
	r, _ := newTestRegistry()
	s := r.Sample("batch_size", "")
	for v := 1; v <= 100; v++ {
		s.Observe(float64(v))
	}
	st := s.Stats()
	if st.Count != 100 || st.WindowCount != 100 {
		t.Fatalf("count = %d/%d, want 100/100", st.Count, st.WindowCount)
	}
	if st.Sum != 5050 {
		t.Errorf("sum = %g, want 5050", st.Sum)
	}
	if st.WindowMax != 100 {
		t.Errorf("max = %g, want 100", st.WindowMax)
	}
	// Nearest-rank over 1..100 is 50/90/99.
	if !withinBound(st.P50, 50) || !withinBound(st.P90, 90) || !withinBound(st.P99, 99) {
		t.Errorf("quantiles = %g/%g/%g, want within 12.5%% of 50/90/99", st.P50, st.P90, st.P99)
	}
}

func TestSampleWindowSlides(t *testing.T) {
	r, clk := newTestRegistry()
	s := r.Sample("latency", "")
	s.Observe(1000) // old outlier
	st := s.Stats()
	if st.P99 != 1000 {
		t.Fatalf("fresh observation not visible: %+v", st)
	}
	// Advance past the whole window: the outlier must age out of the
	// quantiles but stay in the cumulative count/sum.
	clk.advance(time.Duration(slotNanos * (slotCount + 1)))
	for i := 0; i < 50; i++ {
		s.Observe(1)
	}
	st = s.Stats()
	if st.P99 != 1 || st.WindowMax != 1 {
		t.Errorf("aged-out outlier still in window: %+v", st)
	}
	if st.Count != 51 || st.Sum != 1050 {
		t.Errorf("cumulative count/sum wrong: %+v", st)
	}
	if st.WindowCount != 50 {
		t.Errorf("window count = %d, want 50", st.WindowCount)
	}
}

// TestSampleCountsEveryObservation: a slot keeps no bounded sample, so
// every observation of a busy slot counts toward the window quantiles,
// not only the most recent ones.
func TestSampleCountsEveryObservation(t *testing.T) {
	r, _ := newTestRegistry()
	s := r.Sample("latency", "")
	const n = 5000
	for i := 0; i < n; i++ {
		s.Observe(1)
	}
	for i := 0; i < n/4; i++ {
		s.Observe(2)
	}
	st := s.Stats()
	if st.WindowCount != n+n/4 {
		t.Errorf("window count = %d, want %d", st.WindowCount, n+n/4)
	}
	if !withinBound(st.P50, 1) || !withinBound(st.P90, 2) || st.P99 != 2 {
		t.Errorf("quantiles = %g/%g/%g, want ≈1/≈2/2", st.P50, st.P90, st.P99)
	}
}

func TestTimingSeconds(t *testing.T) {
	r, _ := newTestRegistry()
	tm := r.Timing("request_seconds", "")
	tm.Observe(250 * time.Millisecond)
	if st := tm.Stats(); math.Abs(st.P50-0.25) > 1e-12 {
		t.Errorf("duration not stored as seconds: %+v", st)
	}
}

func TestEmptySampleStats(t *testing.T) {
	r, _ := newTestRegistry()
	s := r.Sample("empty", "")
	st := s.Stats()
	if st.Count != 0 || st.P50 != 0 || st.P99 != 0 || st.WindowMax != 0 {
		t.Errorf("empty sample should report zeros: %+v", st)
	}
}

func TestWritePrometheus(t *testing.T) {
	r, _ := newTestRegistry()
	r.Counter("edmserved_http_requests_total", `endpoint="ingest"`).Add(3)
	r.Counter("edmserved_http_requests_total", `endpoint="assign"`).Add(2)
	r.Gauge("edmserved_coalescer_pending", "").Set(1)
	s := r.Timing("edmserved_http_request_duration_seconds", `endpoint="ingest"`)
	s.Observe(10 * time.Millisecond)
	s.Observe(20 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE edmserved_http_requests_total counter\n",
		`edmserved_http_requests_total{endpoint="assign"} 2` + "\n",
		`edmserved_http_requests_total{endpoint="ingest"} 3` + "\n",
		"# TYPE edmserved_coalescer_pending gauge\n",
		"edmserved_coalescer_pending 1\n",
		"# TYPE edmserved_http_request_duration_seconds summary\n",
		`edmserved_http_request_duration_seconds{endpoint="ingest",quantile="0.5"} 0.01` + "\n",
		`edmserved_http_request_duration_seconds{endpoint="ingest",quantile="0.99"} 0.02` + "\n",
		`edmserved_http_request_duration_seconds_count{endpoint="ingest"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// The assign-labeled series sorts before ingest within the family,
	// and the family's TYPE header appears exactly once.
	if strings.Count(out, "# TYPE edmserved_http_requests_total counter") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
	// Deterministic output for a fixed registry.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("WritePrometheus output not deterministic")
	}
}

// TestConcurrentObserve exercises the lock-free paths under the race
// detector: concurrent writers on a shared Sample and Counter with a
// concurrent reader rendering the registry.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry() // real clock: exercises rotation under race
	s := r.Sample("lat", "")
	c := r.Counter("n", "")
	var writers sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				s.Observe(float64(i%100) / 1000)
				c.Inc()
			}
		}()
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				_ = r.WritePrometheus(&b)
				_ = s.Stats()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if c.Value() != 4*5000 {
		t.Errorf("counter lost increments: %d", c.Value())
	}
	if st := s.Stats(); st.Count != 4*5000 {
		t.Errorf("sample lost observations: %d", st.Count)
	}
}

// fillWindow spreads n values drawn by next over every slot of a
// Sample's window, one slot per period, and returns all of them.
func fillWindow(s *Sample, clk *fakeClock, n int, next func() float64) []float64 {
	all := make([]float64, 0, n)
	for slot := 0; slot < slotCount; slot++ {
		if slot > 0 {
			clk.advance(time.Duration(slotNanos))
		}
		for i := 0; i < n/slotCount; i++ {
			v := next()
			s.Observe(v)
			all = append(all, v)
		}
	}
	return all
}

// TestSampleQuantilesWithinBound checks the window quantiles of full
// windows against nearest-rank quantiles computed independently over
// sort.Float64s of the same values: each within 12.5% and inside the
// window's [min, max].
func TestSampleQuantilesWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		next func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 0.01 }},
		{"exponential", rng.ExpFloat64},
		{"pareto", func() float64 { return 1e-4 / math.Pow(1-rng.Float64(), 1/1.2) }},
		{"lognormal", func() float64 { return math.Exp(rng.NormFloat64()*3 - 6) }},
		{"constant", func() float64 { return 128 }},
		{"small-integers", func() float64 { return float64(1 + rng.Intn(6)) }},
		{"batch-sizes", func() float64 { return float64(1 + rng.Intn(4096)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{6, 60, 3000, 60000} {
				r, clk := newTestRegistry()
				s := r.Sample("lat", "")
				all := fillWindow(s, clk, n, tc.next)
				sort.Float64s(all)
				st := s.Stats()
				if st.WindowCount != uint64(len(all)) {
					t.Fatalf("n=%d: window count = %d, want %d", n, st.WindowCount, len(all))
				}
				if st.WindowMax != all[len(all)-1] {
					t.Errorf("n=%d: max = %g, want %g", n, st.WindowMax, all[len(all)-1])
				}
				for _, q := range []struct {
					q   float64
					got float64
				}{{0.50, st.P50}, {0.90, st.P90}, {0.99, st.P99}} {
					exact := all[int(math.Ceil(q.q*float64(len(all))))-1]
					if !withinBound(q.got, exact) || q.got < all[0] || q.got > all[len(all)-1] {
						t.Errorf("n=%d: q%g = %g, exact %g, range [%g, %g]", n, q.q, q.got, exact, all[0], all[len(all)-1])
					}
				}
				if tc.name == "constant" && (st.P50 != 128 || st.P90 != 128 || st.P99 != 128) {
					t.Errorf("n=%d: constant series reports %g/%g/%g, want 128", n, st.P50, st.P90, st.P99)
				}
			}
		})
	}
}

// TestBucketValueBound pins the per-bucket error: every value of every
// bounded bucket lies within 12.5% of the value the bucket reports.
func TestBucketValueBound(t *testing.T) {
	for e := minExp; e < maxExp; e++ {
		for k := 0; k <= 64; k++ {
			v := math.Ldexp(1+float64(k)/64, e)
			if k == 64 {
				v = math.Nextafter(v, 0) // the top of the octave
			}
			b := bucketOf(v)
			if b == 0 || b == bucketCount-1 {
				t.Fatalf("%g lands in an open-ended bucket", v)
			}
			if rep := bucketValue(b, 0, math.Inf(1)); !withinBound(rep, v) {
				t.Fatalf("%g reports as %g", v, rep)
			}
		}
	}
	if bucketOf(0) != 0 || bucketOf(-1) != 0 || bucketOf(math.NaN()) != 0 {
		t.Error("zero, negatives and NaN must land in the underflow bucket")
	}
	if bucketOf(math.Ldexp(1, maxExp)) != bucketCount-1 || bucketOf(math.Inf(1)) != bucketCount-1 {
		t.Error("values from 2^maxExp up must land in the overflow bucket")
	}
}

// TestSampleFootprint: a distribution costs at most 4 KiB, allocated
// once, and observing allocates nothing whatever the traffic.
func TestSampleFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Sample{}); sz > 4096 {
		t.Errorf("Sample is %d bytes, want at most 4096", sz)
	}
	r, _ := newTestRegistry()
	s := r.Sample("lat", "")
	v := 0.0
	if allocs := testing.AllocsPerRun(1000, func() { v += 1e-3; s.Observe(v) }); allocs != 0 {
		t.Errorf("Observe allocates %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Stats() }); allocs != 0 {
		t.Errorf("Stats allocates %v times per call", allocs)
	}
}

// TestUnregister: removing a label set drops exactly its instruments
// from the registry and the exposition, and asking again starts fresh.
func TestUnregister(t *testing.T) {
	r, _ := newTestRegistry()
	keep := r.Counter("batches_total", `stream="a"`)
	gone := r.Counter("batches_total", `stream="b"`)
	keep.Add(2)
	gone.Add(3)
	r.Gauge("pending", `stream="b"`).Set(1)
	r.Sample("batch_points", `stream="b"`).Observe(4)
	r.Unregister(`stream="b"`)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); strings.Contains(out, `stream="b"`) || !strings.Contains(out, `batches_total{stream="a"} 2`) {
		t.Errorf("unexpected exposition after Unregister:\n%s", out)
	}
	if again := r.Counter("batches_total", `stream="b"`); again == gone || again.Value() != 0 {
		t.Error("re-registering after Unregister must return a fresh counter")
	}
}

// BenchmarkSampleStats measures one Stats read over a full window: the
// cost every /metrics and /v1/stats scrape pays per distribution.
func BenchmarkSampleStats(b *testing.B) {
	r, clk := newTestRegistry()
	s := r.Sample("lat", "")
	rng := rand.New(rand.NewSource(7))
	fillWindow(s, clk, 3072, rng.ExpFloat64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Stats()
	}
}
