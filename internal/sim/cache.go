package sim

import (
	"container/list"
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"
)

// Cache memoizes completed runs across a whole campaign stack. Runs are
// perfectly independent blocks keyed by their physical scenario and seed
// (the Name label is excluded: two families asking for the same physics
// under different labels share one simulation), so identical blocks are
// computed exactly once and every later request is answered from memory.
//
// Lookups are singleflight: concurrent requests for the same key block on
// the one in-flight simulation instead of duplicating it. Hits return a
// shallow copy of the memoized RunResult with the caller's scenario label
// restored — bit-identical to what an uncached Run would have produced —
// sharing the underlying traces, which are treated as immutable by every
// consumer. The cache is bounded (least-recently-used eviction) and
// clearable so long benchmark sessions do not grow without limit.
//
// A Cache optionally fronts a persistent CacheStore (NewCacheWithStore):
// the memory tier stays the fast path and the singleflight authority,
// and the store adds a second, cross-process tier consulted only by the
// in-flight leader of each key — a disk hit fills the memory entry
// without running the kernel, a disk miss runs the kernel and publishes
// the artefact for every later process. Decoded artefacts are verified
// end to end (checksum, version, key identity), and any decode failure
// degrades to a miss that quarantines the bad file and re-runs the
// kernel — never an error, never a wrong result.
//
// The zero value is not usable; construct with NewCache. A nil *Cache is
// valid everywhere and degrades to uncached execution.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[Scenario]*cacheEntry
	lru     *list.List // of Scenario keys, front = most recent
	hits    uint64
	misses  uint64

	// store is the optional persistent tier; nil means memory-only.
	store CacheStore
	// Persistent-tier counters, updated outside mu on the leader path.
	diskHits    atomic.Uint64
	diskMisses  atomic.Uint64
	kernelRuns  atomic.Uint64
	quarantined atomic.Uint64
	storeErrors atomic.Uint64
}

// CacheStats is a point-in-time snapshot of a cache's counters across
// both tiers. Hits/Misses count memory-tier lookups (every RunCtx does
// exactly one); DiskHits/DiskMisses count persistent-tier probes by
// leaders of memory misses; KernelRuns counts simulations actually
// executed — the number a warm, intact cache drives to zero; Quarantined
// counts corrupt artefacts moved aside; StoreErrors counts store I/O
// failures survived by degrading to uncached behaviour.
//
// When the store is wrapped in a ResilientStore the policy counters are
// merged in: Retries/Timeouts count re-attempted and bound-exceeded
// store ops, BreakerOpens counts circuit-breaker trips, PublishDrops
// counts async publishes shed past the budget, and BreakerState is the
// breaker's current state ("closed" when no breaker is configured).
type CacheStats struct {
	Hits, Misses         uint64
	DiskHits, DiskMisses uint64
	KernelRuns           uint64
	Quarantined          uint64
	StoreErrors          uint64
	Retries              uint64
	Timeouts             uint64
	BreakerOpens         uint64
	PublishDrops         uint64
	BreakerState         string
	Entries              int
}

// Delta returns the counter movement from prev to s (Entries and
// BreakerState are carried from s unchanged) — the per-artefact
// attribution wavm3scen records.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		DiskHits:     s.DiskHits - prev.DiskHits,
		DiskMisses:   s.DiskMisses - prev.DiskMisses,
		KernelRuns:   s.KernelRuns - prev.KernelRuns,
		Quarantined:  s.Quarantined - prev.Quarantined,
		StoreErrors:  s.StoreErrors - prev.StoreErrors,
		Retries:      s.Retries - prev.Retries,
		Timeouts:     s.Timeouts - prev.Timeouts,
		BreakerOpens: s.BreakerOpens - prev.BreakerOpens,
		PublishDrops: s.PublishDrops - prev.PublishDrops,
		BreakerState: s.BreakerState,
		Entries:      s.Entries,
	}
}

type cacheEntry struct {
	done chan struct{} // closed when res/err are set
	res  *RunResult
	err  error
	elem *list.Element
}

// DefaultCacheSize bounds a cache built with NewCache(0): generous enough
// for the full two-pair evaluation suite (hundreds of distinct points ×
// repeats) while keeping worst-case retention in the low gigabytes.
const DefaultCacheSize = 1024

// NewCache builds a run cache holding at most maxEntries completed runs
// (<= 0 selects DefaultCacheSize).
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Cache{
		max:     maxEntries,
		entries: make(map[Scenario]*cacheEntry),
		lru:     list.New(),
	}
}

// NewCacheWithStore builds a run cache backed by a persistent store.
// Memory eviction never touches the store, and Clear drops only the
// memory tier, so artefacts outlive both the entry bound and the
// process.
func NewCacheWithStore(maxEntries int, store CacheStore) *Cache {
	c := NewCache(maxEntries)
	c.store = store
	return c
}

// Persistent reports whether the cache has a persistent tier.
func (c *Cache) Persistent() bool { return c != nil && c.store != nil }

// key canonicalises a scenario into its cache identity: defaults applied,
// label stripped. Everything that influences the physics — pair, kind,
// profiles, load counts, timing, migration config, seed — remains.
func cacheKey(sc Scenario) Scenario {
	k := sc.withDefaults()
	k.Name = ""
	return k
}

// RunCtx answers a scenario from the cache, simulating it at most once
// per key. A nil receiver runs uncached. Its cancellation semantics are
// engineered for shared, long-lived caches (a daemon serving many
// clients):
//
//   - A waiter whose own ctx expires stops waiting and returns its ctx
//     error; the in-flight leader is unaffected.
//   - A leader that fails — including failing because its *own* ctx was
//     cancelled — never poisons the key: the entry is dropped before the
//     waiters wake, and every waiter re-dispatches (one becomes the new
//     leader, the rest wait on it). Simulations are deterministic, so a
//     re-dispatched waiter receives the bit-identical result it would
//     have received from the original leader; a caller only ever sees
//     its own error, never an innocent propagation of someone else's
//     context.Canceled.
//
// Failures are not memoized, so a deterministic error (an invalid
// scenario) terminates: the retrying waiter becomes the leader, computes
// the same error itself and returns it as its own.
func (c *Cache) RunCtx(ctx context.Context, sc Scenario) (*RunResult, error) {
	if c == nil {
		return RunCtx(ctx, sc)
	}
	key := cacheKey(sc)

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err != nil {
				// The leader failed or was cancelled; its entry is already
				// gone. Re-dispatch instead of propagating its error.
				continue
			}
			return e.result(sc), nil
		}
		c.misses++
		e := &cacheEntry{done: make(chan struct{})}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		c.evictLocked()
		c.mu.Unlock()

		res, err := c.compute(ctx, sc, key)
		e.res, e.err = res, err
		if err != nil {
			// Failures are not memoized: drop the entry *before* releasing
			// the waiters, so their retry finds a clean slot.
			c.mu.Lock()
			c.removeLocked(key, e)
			c.mu.Unlock()
		}
		close(e.done)
		if err != nil {
			return nil, err
		}
		return e.result(sc), nil
	}
}

// compute answers a memory-tier miss as the key's in-flight leader:
// probe the persistent tier, elect a cross-process owner, and only then
// run the kernel and publish the artefact. Store failures of every kind
// (I/O errors, lock trouble, corrupt artefacts) degrade to uncached
// behaviour; corruption additionally quarantines the file so the rerun's
// Put republishes a good artefact under the same name.
func (c *Cache) compute(ctx context.Context, sc, key Scenario) (*RunResult, error) {
	if c.store == nil {
		c.kernelRuns.Add(1)
		return RunCtx(ctx, sc)
	}
	keyBytes := encodeCacheKey(key)
	hash := sha256.Sum256(keyBytes)
	name := artefactName(hash)

	// Fast path: a complete, verified artefact answers without locking.
	if res := c.loadArtefact(name, keyBytes, hash); res != nil {
		c.diskHits.Add(1)
		return res, nil
	}
	// Cross-process singleflight: elect one kernel-run owner per key.
	// Losers block here and re-read the owner's artefact on wake-up.
	unlock, err := c.store.Lock(ctx, name)
	switch {
	case err == nil:
		defer unlock()
		if res := c.loadArtefact(name, keyBytes, hash); res != nil {
			c.diskHits.Add(1)
			return res, nil
		}
	case ctx.Err() != nil:
		return nil, ctx.Err()
	default:
		// Lock machinery failed (a wedged lock file, a sick store):
		// degrade to owner-wins Put, which may duplicate work across
		// processes but stays correct.
		c.storeErrors.Add(1)
	}
	c.diskMisses.Add(1)
	c.kernelRuns.Add(1)
	res, err := RunCtx(ctx, sc)
	if err != nil {
		return nil, err
	}
	if perr := c.store.Put(name, encodeArtefact(keyBytes, hash, res)); perr != nil {
		// A failed publish costs later processes a re-run, nothing else.
		c.storeErrors.Add(1)
	}
	return res, nil
}

// loadArtefact reads and fully verifies one artefact, returning nil on
// any miss. A decode failure is re-probed once — a hostile or non-atomic
// store can tear a single read, and re-reading distinguishes a transient
// tear from a genuinely rotten file. Persistent decode failures —
// truncation, bit-rot, stale version, wrong key — quarantine the file so
// the subsequent kernel rerun can publish a good artefact under the same
// name.
func (c *Cache) loadArtefact(name string, keyBytes []byte, hash [sha256.Size]byte) *RunResult {
	data, err := c.store.Get(name)
	if err != nil {
		if !errors.Is(err, ErrArtefactNotFound) {
			c.storeErrors.Add(1)
		}
		return nil
	}
	res, err := decodeArtefact(data, keyBytes, hash)
	if err != nil {
		if data2, gerr := c.store.Get(name); gerr == nil {
			if res2, derr := decodeArtefact(data2, keyBytes, hash); derr == nil {
				return res2
			}
		}
		c.quarantined.Add(1)
		reason := reasonMalformed
		var aerr *artefactError
		if errors.As(err, &aerr) {
			reason = aerr.reason
		}
		if qerr := c.store.Quarantine(name, reason); qerr != nil {
			c.storeErrors.Add(1)
		}
		return nil
	}
	return res
}

// result adapts the memoized run to the requesting scenario: a shallow
// copy sharing the immutable traces, with the caller's labelling restored
// so cached and uncached call sites see bit-identical values.
func (e *cacheEntry) result(sc Scenario) *RunResult {
	out := *e.res
	out.Scenario = sc.withDefaults()
	return &out
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its bound. In-flight entries are skipped: their waiters hold the
// entry regardless, so evicting them would only duplicate work.
func (c *Cache) evictLocked() {
	for back := c.lru.Back(); len(c.entries) > c.max && back != nil; {
		key := back.Value.(Scenario)
		prev := back.Prev()
		e := c.entries[key]
		select {
		case <-e.done:
			c.removeLocked(key, e)
		default: // still simulating
		}
		back = prev
	}
}

func (c *Cache) removeLocked(key Scenario, e *cacheEntry) {
	if cur, ok := c.entries[key]; ok && cur == e {
		delete(c.entries, key)
		c.lru.Remove(e.elem)
	}
}

// Snapshot returns the cache's counters across both tiers. A nil cache
// snapshots as all zeros.
func (c *Cache) Snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	s := CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
	c.mu.Unlock()
	s.DiskHits = c.diskHits.Load()
	s.DiskMisses = c.diskMisses.Load()
	s.KernelRuns = c.kernelRuns.Load()
	s.Quarantined = c.quarantined.Load()
	s.StoreErrors = c.storeErrors.Load()
	if rep, ok := c.store.(interface{ ResilienceStats() ResilienceStats }); ok {
		r := rep.ResilienceStats()
		s.Retries = r.Retries
		s.Timeouts = r.Timeouts
		s.BreakerOpens = r.BreakerOpens
		s.PublishDrops = r.PublishDrops
		s.BreakerState = r.BreakerState
	}
	return s
}

// Close flushes and closes the persistent tier when it supports closing
// (a ResilientStore drains its async publishes here). Nil-safe and
// idempotent; memory-only caches close as a no-op. Callers that publish
// asynchronously must Close before trusting the store's contents.
func (c *Cache) Close() error {
	if c == nil || c.store == nil {
		return nil
	}
	if cl, ok := c.store.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

// Clear empties the memory tier, keeping the bound, the statistics and
// every persisted artefact (a cleared store-backed cache re-warms from
// disk instead of re-running kernels).
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Scenario]*cacheEntry)
	c.lru.Init()
}
