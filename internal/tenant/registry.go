// Package tenant implements the multi-tenant serving substrate of
// edmserved: a registry of named streams with lazy creation and a
// global memory budget enforced by checkpoint-backed LRU eviction of
// idle streams.
//
// The package is deliberately mechanism-only: it knows nothing about
// engines, WALs or HTTP. The server plugs in a factory that builds a
// stream, an evictor that checkpoints and releases one, and an
// exclusivity gate that retires the stream's writer. That keeps the
// lifecycle state machine (create → live → evicting → evicted →
// revive) testable in isolation from everything it orchestrates.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrUnknownStream: the name was never created (and has no on-disk
	// state to revive). Maps to 404.
	ErrUnknownStream = errors.New("unknown stream")
	// ErrTooManyStreams: creating the stream would exceed MaxStreams.
	// Maps to 429 with reason "overloaded".
	ErrTooManyStreams = errors.New("stream cap reached")
	// ErrClosed: the registry is shutting down. Maps to 503.
	ErrClosed = errors.New("stream registry is closed")
)

// maxNameLen bounds stream names; they become directory names and
// metric label values.
const maxNameLen = 64

// ValidateName checks a stream name: 1-64 characters of lowercase
// letters, digits, '-' and '_', starting with a letter or digit.
// "streams" and "clusters" are reserved: they are the path segments
// of the admin endpoint and of the default stream's cluster reads.
// Names are embedded in URLs, on-disk directory names and Prometheus
// label values, so the alphabet is deliberately tight.
func ValidateName(name string) error {
	if name == "" {
		return errors.New("stream name is empty")
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("stream name %q exceeds %d characters", name, maxNameLen)
	}
	if name == "streams" || name == "clusters" {
		return fmt.Errorf("stream name %q is reserved", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return fmt.Errorf("stream name %q: character %q at position %d (want [a-z0-9][a-z0-9_-]*)", name, c, i)
		}
	}
	return nil
}

// entryState is one registry entry's lifecycle state, guarded by the
// registry mutex:
//
//	         Acquire(create)            evictor: pins==0 ∧ retired
//	(absent) ───────────► creating ─► live ───────────► evicting
//	                          ▲                             │
//	                          │ Acquire (revive)            │ Evict() done
//	                          └───────── evicted ◄──────────┘
//
// creating/evicting are transient: concurrent Acquires wait on the
// registry condition variable until the transition lands in live or
// evicted, then re-evaluate. An evicted entry keeps its name
// registered (its state lives on disk), so a later touch revives it
// through the factory instead of returning ErrUnknownStream.
type entryState int

const (
	stateCreating entryState = iota
	stateLive
	stateEvicting
	stateEvicted
)

func (s entryState) String() string {
	switch s {
	case stateCreating:
		return "creating"
	case stateLive:
		return "live"
	case stateEvicting:
		return "evicting"
	case stateEvicted:
		return "evicted"
	}
	return "unknown"
}

// Stream is the registry's view of one tenant: enough to charge it
// against the memory budget and to checkpoint-and-release it.
type Stream interface {
	// MemoryBytes estimates the stream's resident footprint. Called
	// with the stream pinned or under eviction ownership; must be safe
	// concurrently with serving.
	MemoryBytes() int64
	// Evict checkpoints the stream to disk and releases its resources.
	// Called exactly once, only after the registry owns the stream
	// outright (zero pins, writer retired). After a nil return the
	// stream object is dropped; an error cancels the eviction and the
	// stream stays live.
	Evict() error
}

// entry is one named stream's registry slot.
type entry[S Stream] struct {
	name      string
	state     entryState
	stream    S
	pins      int
	lastTouch time.Time
	// everLive distinguishes a revivable evicted entry from a slot
	// whose very first creation failed (the latter is deleted).
	everLive bool
}

// Config configures a Registry.
type Config[S Stream] struct {
	// Factory builds (or revives) the named stream. Revival and first
	// creation are the same call: the stream's own recovery decides
	// what on-disk state means.
	Factory func(name string) (S, error)
	// MaxStreams caps the number of registered names (live + evicted);
	// 0 means unlimited.
	MaxStreams int
	// MemoryBudget is the global resident-footprint target in bytes;
	// when the sum of live streams' MemoryBytes exceeds it, Sweep
	// evicts least-recently-used unpinned streams until back under.
	// 0 disables budget-driven eviction.
	MemoryBudget int64
	// EvictIdleAfter evicts any stream untouched for this long even
	// under budget. 0 disables idle-driven eviction.
	EvictIdleAfter time.Duration
	// Evictable gates eviction entirely (the server requires a WAL:
	// evicting a stream without durable state would lose data).
	Evictable bool
	// CanEvict, when non-nil, is the exclusivity gate consulted with
	// the registry lock held after pins==0: the server retires the
	// stream's idle writer here, so it must not block. Returning
	// false skips the stream this sweep.
	CanEvict func(s S) bool
	// OnEvict, when non-nil, is called after each successful eviction
	// (telemetry hook). Called without the registry lock.
	OnEvict func(name string)
	// Clock substitutes the time source for tests; nil means
	// time.Now.
	Clock func() time.Time
}

// Registry is the named-stream table: lazy creation on first
// Acquire(create=true), pin-counted references, and checkpoint-backed
// LRU eviction driven by Sweep.
type Registry[S Stream] struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config[S]

	entries map[string]*entry[S]
	closed  bool

	evictions uint64
	revivals  uint64
}

// NewRegistry builds an empty registry.
func NewRegistry[S Stream](cfg Config[S]) *Registry[S] {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Registry[S]{cfg: cfg, entries: map[string]*entry[S]{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// RegisterEvicted pre-registers a name whose state exists on disk but
// is not loaded (boot-time scan of the streams directory): reads and
// writes on it revive through the factory instead of 404ing. No-op if
// the name is already registered.
func (r *Registry[S]) RegisterEvicted(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return
	}
	r.entries[name] = &entry[S]{
		name:      name,
		state:     stateEvicted,
		everLive:  true,
		lastTouch: r.cfg.Clock(),
	}
}

// Adopt inserts an externally built stream as a live, unpinned entry —
// how an eagerly constructed stream (e.g. a default tenant built at
// boot) joins the registry without going through the factory. It must
// not collide with an existing name.
func (r *Registry[S]) Adopt(name string, s S) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("tenant: adopt %q: name already registered", name)
	}
	r.entries[name] = &entry[S]{
		name:      name,
		state:     stateLive,
		stream:    s,
		everLive:  true,
		lastTouch: r.cfg.Clock(),
	}
	return nil
}

// Acquire pins the named stream, creating it through the factory when
// create is true and the name is new, and transparently reviving it
// when it was evicted. The returned release function MUST be called
// exactly once when the caller is done; pins block eviction, so a
// pinned stream's write path and engine stay valid.
func (r *Registry[S]) Acquire(name string, create bool) (S, func(), error) {
	var zero S
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return zero, nil, ErrClosed
		}
		e, ok := r.entries[name]
		if !ok {
			if !create {
				r.mu.Unlock()
				return zero, nil, fmt.Errorf("%w: %q", ErrUnknownStream, name)
			}
			if r.cfg.MaxStreams > 0 && len(r.entries) >= r.cfg.MaxStreams {
				r.mu.Unlock()
				return zero, nil, fmt.Errorf("%w (max %d)", ErrTooManyStreams, r.cfg.MaxStreams)
			}
			e = &entry[S]{name: name, state: stateCreating}
			r.entries[name] = e
			return r.build(e, false)
		}
		switch e.state {
		case stateLive:
			e.pins++
			e.lastTouch = r.cfg.Clock()
			s := e.stream
			r.mu.Unlock()
			return s, r.releaseFunc(e), nil
		case stateEvicted:
			// Transparent revival: any touch (read or write) brings the
			// stream back through the factory, whose recovery loads the
			// eviction checkpoint plus whatever WAL tail preceded it.
			e.state = stateCreating
			return r.build(e, true)
		default: // creating or evicting: wait for the transition to land
			r.cond.Wait()
		}
	}
}

// build runs the factory for an entry in stateCreating. Called with
// the lock held; returns with it released.
func (r *Registry[S]) build(e *entry[S], revive bool) (S, func(), error) {
	var zero S
	r.mu.Unlock()
	s, err := r.cfg.Factory(e.name)
	r.mu.Lock()
	if err != nil {
		if e.everLive {
			// The on-disk state is still there; a later touch retries.
			e.state = stateEvicted
		} else {
			delete(r.entries, e.name)
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		return zero, nil, err
	}
	e.stream = s
	e.state = stateLive
	e.everLive = true
	e.pins = 1
	e.lastTouch = r.cfg.Clock()
	if revive {
		r.revivals++
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	return s, r.releaseFunc(e), nil
}

// releaseFunc builds the unpin closure for one successful Acquire.
func (r *Registry[S]) releaseFunc(e *entry[S]) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			e.pins--
			e.lastTouch = r.cfg.Clock()
			r.mu.Unlock()
		})
	}
}

// Sweep runs one eviction pass: while the live footprint exceeds the
// memory budget, evict the least-recently-used unpinned stream; then
// evict every stream idle longer than EvictIdleAfter. Returns how many
// streams were evicted. Call it from a single janitor goroutine —
// sweeps do not race each other.
func (r *Registry[S]) Sweep() int {
	if !r.cfg.Evictable {
		return 0
	}
	evicted := 0
	// A candidate that refuses eviction (pinned between the pick and
	// the claim, busy writer, or the CanEvict gate — e.g. an
	// unevictable default stream that happens to be the LRU) is skipped
	// for the rest of this sweep, NOT treated as the end of the pass:
	// otherwise one permanently unevictable stream at the LRU position
	// would block every budget eviction forever. The next sweep retries
	// everything fresh.
	skip := make(map[string]bool)
	// Budget pass: one eviction per iteration, re-measuring in
	// between, so a sweep never over-evicts on a stale total.
	if r.cfg.MemoryBudget > 0 {
		for {
			e := r.pickOverBudget(skip)
			if e == nil {
				break
			}
			if r.evict(e) {
				evicted++
			} else {
				skip[e.name] = true
			}
		}
	}
	if r.cfg.EvictIdleAfter > 0 {
		cutoff := r.cfg.Clock().Add(-r.cfg.EvictIdleAfter)
		for {
			e := r.pickIdle(cutoff, skip)
			if e == nil {
				break
			}
			if r.evict(e) {
				evicted++
			} else {
				skip[e.name] = true
			}
		}
	}
	return evicted
}

// pickOverBudget returns the LRU unpinned live stream (excluding the
// sweep's skip set) if the live total exceeds the budget, nil
// otherwise.
func (r *Registry[S]) pickOverBudget(skip map[string]bool) *entry[S] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	var total int64
	var lru *entry[S]
	for _, e := range r.entries {
		if e.state != stateLive {
			continue
		}
		total += e.stream.MemoryBytes()
		if e.pins > 0 || skip[e.name] {
			continue
		}
		if lru == nil || e.lastTouch.Before(lru.lastTouch) {
			lru = e
		}
	}
	if total <= r.cfg.MemoryBudget {
		return nil
	}
	return lru
}

// pickIdle returns one unpinned live stream untouched since cutoff,
// excluding the sweep's skip set.
func (r *Registry[S]) pickIdle(cutoff time.Time, skip map[string]bool) *entry[S] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	for _, e := range r.entries {
		if e.state == stateLive && e.pins == 0 && !skip[e.name] && e.lastTouch.Before(cutoff) {
			return e
		}
	}
	return nil
}

// evict transitions one entry live → evicting → evicted, running the
// stream's Evict between the two. Returns false when the entry could
// not be claimed (a pin or the CanEvict gate said no) or Evict failed.
func (r *Registry[S]) evict(e *entry[S]) bool {
	r.mu.Lock()
	if r.closed || e.state != stateLive || e.pins > 0 {
		r.mu.Unlock()
		return false
	}
	// Exclusivity gate (the server retires the stream's idle writer
	// here): after it returns true, the stream's write path never runs
	// again, and pins==0 means no request holds the engine.
	if r.cfg.CanEvict != nil && !r.cfg.CanEvict(e.stream) {
		r.mu.Unlock()
		return false
	}
	e.state = stateEvicting
	s := e.stream
	r.mu.Unlock()

	err := s.Evict()

	r.mu.Lock()
	if err != nil {
		// Eviction failed (checkpoint could not be written): the stream
		// keeps serving; a later sweep retries. The CanEvict gate
		// already retired the writer, so the server's Evict
		// implementation must re-arm it on failure.
		e.state = stateLive
		r.cond.Broadcast()
		r.mu.Unlock()
		return false
	}
	var zero S
	e.stream = zero
	e.state = stateEvicted
	e.lastTouch = r.cfg.Clock()
	r.evictions++
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.cfg.OnEvict != nil {
		r.cfg.OnEvict(e.name)
	}
	return true
}

// EvictNow force-evicts one named stream (the admin endpoint). It
// fails with ErrUnknownStream for unregistered names and returns
// (false, nil) when the stream is busy (pinned, mid-transition, or
// its writer has queued work).
func (r *Registry[S]) EvictNow(name string) (bool, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrUnknownStream, name)
	}
	if e.state == stateEvicted {
		r.mu.Unlock()
		return true, nil
	}
	if !r.cfg.Evictable {
		r.mu.Unlock()
		return false, errors.New("eviction requires durability (a data directory)")
	}
	r.mu.Unlock()
	return r.evict(e), nil
}

// Info is one entry's public state snapshot.
type Info struct {
	Name      string
	State     string
	Pins      int
	LastTouch time.Time
	// MemoryBytes is the live footprint estimate; 0 when evicted.
	MemoryBytes int64
}

// Snapshot lists every registered stream, sorted by name.
func (r *Registry[S]) Snapshot() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		info := Info{Name: e.name, State: e.state.String(), Pins: e.pins, LastTouch: e.lastTouch}
		if e.state == stateLive {
			info.MemoryBytes = e.stream.MemoryBytes()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats is the registry's aggregate telemetry.
type Stats struct {
	// Live and Registered count streams resident in memory and names
	// known (live + evicted revivable).
	Live, Registered int
	// MemoryBytes is the summed live footprint estimate.
	MemoryBytes int64
	// Evictions and Revivals count lifecycle transitions since boot.
	Evictions, Revivals uint64
}

// Stats returns the aggregate counters.
func (r *Registry[S]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Registered: len(r.entries), Evictions: r.evictions, Revivals: r.revivals}
	for _, e := range r.entries {
		if e.state == stateLive {
			st.Live++
			st.MemoryBytes += e.stream.MemoryBytes()
		}
	}
	return st
}

// Live returns the currently live streams (for shutdown: the server
// drains and closes each one). New acquires fail once Close ran.
func (r *Registry[S]) Live() []S {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]S, 0, len(r.entries))
	for _, e := range r.entries {
		if e.state == stateLive {
			out = append(out, e.stream)
		}
	}
	return out
}

// Close marks the registry closed: subsequent Acquires fail with
// ErrClosed and sweeps stop evicting. It does NOT release the live
// streams — the server owns their orderly shutdown (drain, final
// checkpoint, close) and needs them alive to do it.
func (r *Registry[S]) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}
