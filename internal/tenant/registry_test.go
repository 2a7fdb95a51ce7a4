package tenant

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeStream is a Stream with a controllable footprint and an
// eviction ledger.
type fakeStream struct {
	name     string
	bytes    atomic.Int64
	evicted  atomic.Int64
	evictErr error
	mu       sync.Mutex
	writes   int // guarded by mu; simulates the single-writer state
}

func (f *fakeStream) MemoryBytes() int64 { return f.bytes.Load() }
func (f *fakeStream) Evict() error {
	if f.evictErr != nil {
		return f.evictErr
	}
	f.evicted.Add(1)
	return nil
}

// fakeClock is an injectable, manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestRegistry(cfg Config[*fakeStream]) (*Registry[*fakeStream], *atomic.Int64) {
	var built atomic.Int64
	if cfg.Factory == nil {
		cfg.Factory = func(name string) (*fakeStream, error) {
			built.Add(1)
			s := &fakeStream{name: name}
			s.bytes.Store(1 << 20)
			return s, nil
		}
	}
	return NewRegistry(cfg), &built
}

func TestValidateName(t *testing.T) {
	valid := []string{"default", "a", "tenant-1", "snake_case", "0numeric", "x-_-x"}
	for _, name := range valid {
		if err := ValidateName(name); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", name, err)
		}
	}
	invalid := []string{"", "streams", "clusters", "UPPER", "has space", "café", "-leading", "_leading", "dot.dot", "a/b",
		"this-name-is-way-way-way-way-way-way-way-way-way-too-long-to-be-a-stream"}
	for _, name := range invalid {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", name)
		}
	}
}

func TestRegistryLazyCreateAndReuse(t *testing.T) {
	r, built := newTestRegistry(Config[*fakeStream]{})
	s1, rel1, err := r.Acquire("alpha", true)
	if err != nil {
		t.Fatal(err)
	}
	s2, rel2, err := r.Acquire("alpha", true)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("second Acquire built a different stream")
	}
	if built.Load() != 1 {
		t.Fatalf("factory ran %d times, want 1", built.Load())
	}
	rel1()
	rel2()
	st := r.Stats()
	if st.Live != 1 || st.Registered != 1 {
		t.Fatalf("stats = %+v, want 1 live / 1 registered", st)
	}
}

func TestRegistryUnknownStream(t *testing.T) {
	r, _ := newTestRegistry(Config[*fakeStream]{})
	_, _, err := r.Acquire("ghost", false)
	if !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("err = %v, want ErrUnknownStream", err)
	}
}

func TestRegistryMaxStreams(t *testing.T) {
	r, _ := newTestRegistry(Config[*fakeStream]{MaxStreams: 2})
	for _, name := range []string{"a", "b"} {
		_, rel, err := r.Acquire(name, true)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	_, _, err := r.Acquire("c", true)
	if !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("err = %v, want ErrTooManyStreams", err)
	}
	// Existing names still acquire fine at the cap.
	_, rel, err := r.Acquire("a", true)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestRegistryFactoryFailureUnregistersNewName(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	r := NewRegistry(Config[*fakeStream]{Factory: func(name string) (*fakeStream, error) {
		if fail {
			return nil, boom
		}
		return &fakeStream{name: name}, nil
	}})
	if _, _, err := r.Acquire("a", true); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := r.Stats(); st.Registered != 0 {
		t.Fatalf("failed first build left the name registered: %+v", st)
	}
	fail = false
	_, rel, err := r.Acquire("a", true)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestRegistryBudgetEvictsLRU(t *testing.T) {
	clock := newFakeClock()
	var evictedNames []string
	var mu sync.Mutex
	r, _ := newTestRegistry(Config[*fakeStream]{
		MemoryBudget: 2 << 20, // room for two 1 MiB streams
		Evictable:    true,
		Clock:        clock.Now,
		OnEvict: func(name string) {
			mu.Lock()
			evictedNames = append(evictedNames, name)
			mu.Unlock()
		},
	})
	for _, name := range []string{"old", "mid", "new"} {
		_, rel, err := r.Acquire(name, true)
		if err != nil {
			t.Fatal(err)
		}
		rel()
		clock.Advance(time.Minute)
	}
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d streams, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evictedNames) != 1 || evictedNames[0] != "old" {
		t.Fatalf("evicted %v, want [old] (LRU)", evictedNames)
	}
	st := r.Stats()
	if st.Live != 2 || st.Registered != 3 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 live / 3 registered / 1 eviction", st)
	}
}

func TestRegistryPinnedStreamNotEvicted(t *testing.T) {
	clock := newFakeClock()
	r, _ := newTestRegistry(Config[*fakeStream]{
		MemoryBudget: 1, // everything is over budget
		Evictable:    true,
		Clock:        clock.Now,
	})
	_, rel, err := r.Acquire("pinned", true)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep evicted a pinned stream (%d evictions)", n)
	}
	rel()
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep after release evicted %d, want 1", n)
	}
}

func TestRegistryCanEvictGate(t *testing.T) {
	clock := newFakeClock()
	allow := atomic.Bool{}
	r, _ := newTestRegistry(Config[*fakeStream]{
		MemoryBudget: 1,
		Evictable:    true,
		Clock:        clock.Now,
		CanEvict:     func(*fakeStream) bool { return allow.Load() },
	})
	_, rel, _ := r.Acquire("busy", true)
	rel()
	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep bypassed the CanEvict gate (%d evictions)", n)
	}
	allow.Store(true)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep with open gate evicted %d, want 1", n)
	}
}

func TestRegistryIdleEviction(t *testing.T) {
	clock := newFakeClock()
	r, _ := newTestRegistry(Config[*fakeStream]{
		EvictIdleAfter: time.Hour,
		Evictable:      true,
		Clock:          clock.Now,
	})
	_, rel, _ := r.Acquire("sleepy", true)
	rel()
	clock.Advance(30 * time.Minute)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("evicted a stream idle for only 30m (%d)", n)
	}
	clock.Advance(31 * time.Minute)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("did not evict a stream idle past the threshold (%d)", n)
	}
}

func TestRegistryReviveAfterEviction(t *testing.T) {
	clock := newFakeClock()
	r, built := newTestRegistry(Config[*fakeStream]{
		EvictIdleAfter: time.Minute,
		Evictable:      true,
		Clock:          clock.Now,
	})
	s1, rel, _ := r.Acquire("phoenix", true)
	rel()
	clock.Advance(2 * time.Minute)
	if n := r.Sweep(); n != 1 {
		t.Fatal("eviction did not happen")
	}
	if s1.evicted.Load() != 1 {
		t.Fatal("Evict was not called on the stream")
	}
	// Revival: Acquire with create=false must work — the name is known.
	s2, rel2, err := r.Acquire("phoenix", false)
	if err != nil {
		t.Fatalf("revival failed: %v", err)
	}
	rel2()
	if s2 == s1 {
		t.Fatal("revival returned the evicted instance")
	}
	if built.Load() != 2 {
		t.Fatalf("factory ran %d times, want 2 (create + revive)", built.Load())
	}
	st := r.Stats()
	if st.Revivals != 1 {
		t.Fatalf("stats = %+v, want 1 revival", st)
	}
}

func TestRegistryEvictFailureKeepsStreamLive(t *testing.T) {
	clock := newFakeClock()
	r := NewRegistry(Config[*fakeStream]{
		Factory: func(name string) (*fakeStream, error) {
			return &fakeStream{name: name, evictErr: errors.New("disk full")}, nil
		},
		EvictIdleAfter: time.Minute,
		Evictable:      true,
		Clock:          clock.Now,
	})
	s, rel, _ := r.Acquire("stuck", true)
	rel()
	clock.Advance(2 * time.Minute)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("failed eviction counted as success (%d)", n)
	}
	s2, rel2, err := r.Acquire("stuck", false)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if s2 != s {
		t.Fatal("failed eviction dropped the live stream")
	}
}

func TestRegistryRegisterEvicted(t *testing.T) {
	r, built := newTestRegistry(Config[*fakeStream]{})
	r.RegisterEvicted("resident")
	// create=false must revive, not 404: the name is known from disk.
	_, rel, err := r.Acquire("resident", false)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if built.Load() != 1 {
		t.Fatalf("factory ran %d times, want 1", built.Load())
	}
}

func TestRegistryEvictNow(t *testing.T) {
	r, _ := newTestRegistry(Config[*fakeStream]{Evictable: true})
	_, rel, _ := r.Acquire("admin", true)

	if _, err := r.EvictNow("ghost"); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("EvictNow(ghost) err = %v, want ErrUnknownStream", err)
	}
	if ok, err := r.EvictNow("admin"); ok || err != nil {
		t.Fatalf("EvictNow on pinned stream = (%v, %v), want (false, nil)", ok, err)
	}
	rel()
	if ok, err := r.EvictNow("admin"); !ok || err != nil {
		t.Fatalf("EvictNow = (%v, %v), want (true, nil)", ok, err)
	}
	// Idempotent on an already-evicted stream.
	if ok, err := r.EvictNow("admin"); !ok || err != nil {
		t.Fatalf("repeat EvictNow = (%v, %v), want (true, nil)", ok, err)
	}
}

func TestRegistryCloseRejectsAcquire(t *testing.T) {
	r, _ := newTestRegistry(Config[*fakeStream]{})
	_, rel, _ := r.Acquire("a", true)
	rel()
	r.Close()
	if _, _, err := r.Acquire("a", false); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if live := r.Live(); len(live) != 1 {
		t.Fatalf("Close released live streams: %d left, want 1", len(live))
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r, _ := newTestRegistry(Config[*fakeStream]{})
	for _, name := range []string{"zeta", "alpha", "mid"} {
		_, rel, _ := r.Acquire(name, true)
		rel()
	}
	infos := r.Snapshot()
	if len(infos) != 3 || infos[0].Name != "alpha" || infos[1].Name != "mid" || infos[2].Name != "zeta" {
		t.Fatalf("snapshot = %+v, want sorted by name", infos)
	}
	for _, in := range infos {
		if in.State != "live" || in.MemoryBytes != 1<<20 {
			t.Fatalf("unexpected info %+v", in)
		}
	}
}

// TestRegistryAcquireDuringEviction races acquirers against the
// evictor: every Acquire must land on a usable stream (either the one
// about to be evicted, pinned in time, or a revived instance), never
// an error and never a half-evicted object.
func TestRegistryAcquireDuringEviction(t *testing.T) {
	clock := newFakeClock()
	r, _ := newTestRegistry(Config[*fakeStream]{
		MemoryBudget: 1, // permanent pressure: every unpinned stream evicts
		Evictable:    true,
		Clock:        clock.Now,
	})
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Sweep()
			}
		}
	}()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				name := fmt.Sprintf("s%d", rng.Intn(3))
				s, rel, err := r.Acquire(name, true)
				if err != nil {
					failures.Add(1)
					continue
				}
				// Simulate using the stream while pinned.
				s.mu.Lock()
				s.writes++
				s.mu.Unlock()
				rel()
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d Acquires failed during eviction churn", failures.Load())
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatal("test exercised no evictions — not a meaningful race")
	}
	if st.Revivals == 0 {
		t.Fatal("test exercised no revivals — not a meaningful race")
	}
}

// TestRegistrySweepSkipsUnevictableLRU pins the sweep's skip-and-
// continue behavior: one permanently unevictable stream sitting at the
// LRU position (the server's default stream is exactly this) must not
// block the budget pass — the sweep skips it and evicts the next
// candidates instead of giving up.
func TestRegistrySweepSkipsUnevictableLRU(t *testing.T) {
	clock := newFakeClock()
	r, _ := newTestRegistry(Config[*fakeStream]{
		MemoryBudget: 2 << 20, // room for two 1 MiB streams
		Evictable:    true,
		Clock:        clock.Now,
		CanEvict:     func(s *fakeStream) bool { return s.name != "anchor" },
	})
	// "anchor" is the oldest (LRU) and can never be evicted.
	for _, name := range []string{"anchor", "mid", "new", "newer"} {
		_, rel, err := r.Acquire(name, true)
		if err != nil {
			t.Fatal(err)
		}
		rel()
		clock.Advance(time.Minute)
	}
	if n := r.Sweep(); n != 2 {
		t.Fatalf("Sweep evicted %d streams, want 2 (mid and new, skipping the unevictable LRU)", n)
	}
	st := r.Stats()
	if st.Live != 2 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 live / 2 evictions", st)
	}
	// The anchor itself is still live.
	if _, _, err := r.Acquire("anchor", false); err != nil {
		t.Fatalf("anchor gone after the sweep: %v", err)
	}
}
