package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
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

func TestSampleExactQuantilesSmall(t *testing.T) {
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
	// Nearest-rank over 1..100: exact.
	if st.P50 != 50 || st.P90 != 90 || st.P99 != 99 {
		t.Errorf("quantiles = %g/%g/%g, want 50/90/99", st.P50, st.P90, st.P99)
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

func TestSampleRingKeepsRecent(t *testing.T) {
	r, _ := newTestRegistry()
	s := r.Sample("latency", "")
	// Overflow one slot's ring: early small values must be displaced
	// by the most recent ones.
	for i := 0; i < slotSamples; i++ {
		s.Observe(1)
	}
	for i := 0; i < slotSamples; i++ {
		s.Observe(2)
	}
	st := s.Stats()
	if st.P50 != 2 {
		t.Errorf("ring did not keep the most recent samples: p50 = %g", st.P50)
	}
	if st.WindowCount != 2*slotSamples {
		t.Errorf("window count = %d, want %d", st.WindowCount, 2*slotSamples)
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

// fillWindow fills every slot of a Sample's window with slotSamples
// random values, one slot per period, and returns all of them: with
// exactly slotSamples observations per slot, every value is retained.
func fillWindow(s *Sample, clk *fakeClock, rng *rand.Rand) []float64 {
	var all []float64
	for slot := 0; slot < slotCount; slot++ {
		if slot > 0 {
			clk.advance(time.Duration(slotNanos))
		}
		for i := 0; i < slotSamples; i++ {
			v := rng.ExpFloat64()
			s.Observe(v)
			all = append(all, v)
		}
	}
	return all
}

// TestSampleQuantilesMatchSortedNearestRank pins the quantiles of a
// full window of random data to nearest-rank quantiles computed
// independently over sort.Float64s of the same values.
func TestSampleQuantilesMatchSortedNearestRank(t *testing.T) {
	r, clk := newTestRegistry()
	s := r.Sample("lat", "")
	all := fillWindow(s, clk, rand.New(rand.NewSource(7)))
	sort.Float64s(all)
	rank := func(q float64) float64 {
		return all[int(math.Ceil(q*float64(len(all))))-1]
	}
	st := s.Stats()
	if st.WindowCount != uint64(len(all)) {
		t.Fatalf("window count = %d, want %d", st.WindowCount, len(all))
	}
	if st.P50 != rank(0.50) || st.P90 != rank(0.90) || st.P99 != rank(0.99) {
		t.Errorf("quantiles = %g/%g/%g, want %g/%g/%g",
			st.P50, st.P90, st.P99, rank(0.50), rank(0.90), rank(0.99))
	}
	if st.WindowMax != all[len(all)-1] {
		t.Errorf("max = %g, want %g", st.WindowMax, all[len(all)-1])
	}
}

// BenchmarkSampleStats measures one Stats read over a full window
// (slotCount × slotSamples retained samples): the cost every /metrics
// and /v1/stats scrape pays per distribution.
func BenchmarkSampleStats(b *testing.B) {
	r, clk := newTestRegistry()
	s := r.Sample("lat", "")
	fillWindow(s, clk, rand.New(rand.NewSource(7)))
	buf := make([]float64, 0, slotCount*slotSamples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.statsInto(buf[:0])
	}
}
