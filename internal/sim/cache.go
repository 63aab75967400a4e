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
// sharing the underlying traces, if the entry holds them, which are
// treated as immutable by every consumer. The cache is bounded
// (least-recently-used eviction) and clearable so long benchmark sessions
// do not grow without limit.
//
// A Cache optionally fronts a persistent CacheStore (NewCacheWithStore):
// the memory tier stays the fast path and the singleflight authority,
// and the store adds a second, cross-process tier consulted only by the
// in-flight leader of each key — a disk hit fills the memory entry
// without running the kernel, a disk miss runs the kernel and publishes
// the artefact for every later process. Decoded artefacts are verified
// end to end (checksum, version, key identity, canonical form), and any
// decode failure degrades to a miss that quarantines the bad file and
// re-runs the kernel — never an error, never a wrong result.
//
// There are two lookups. RunCtx answers with the run's traces;
// SummaryCtx serves callers that read only the summary (bounds,
// energies, bytes sent, rounds, downtime), and its disk hits decode no
// trace sample. A summary disk hit fills the memory tier with a
// summary-only entry; a RunCtx that finds one drops it and reads the
// artefact again in full, a disk hit rather than a kernel run. Kernel
// runs always memoise full results, which answer both lookups.
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
// both tiers, and the one declaration of them: -benchjson and wavm3d's
// /healthz render it under its JSON keys. Hits/Misses count memory-tier
// lookups: every RunCtx or SummaryCtx counts one, a RunCtx that
// replaces a completed summary-only entry counting a miss, and a waiter
// that re-dispatches (its leader failed, or left a summary it cannot
// use) counts once more; DiskHits/DiskMisses count persistent-tier
// probes by leaders of memory misses; KernelRuns counts simulations
// actually executed — the number a warm, intact cache drives to zero;
// Quarantined counts corrupt artefacts moved aside; StoreErrors counts
// store I/O failures survived by degrading to uncached behaviour.
//
// When the store is a ResilientStore the policy counters are merged
// in: Retries/Timeouts count re-attempted and bound-exceeded store ops,
// BreakerOpens counts circuit-breaker trips, PublishDrops counts async
// publishes shed past the budget, and BreakerState is the breaker's
// current state ("closed" when no breaker is configured).
type CacheStats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Entries      int    `json:"entries"`
	KernelRuns   uint64 `json:"kernel_runs"`
	DiskHits     uint64 `json:"disk_hits,omitempty"`
	DiskMisses   uint64 `json:"disk_misses,omitempty"`
	Quarantined  uint64 `json:"quarantined,omitempty"`
	StoreErrors  uint64 `json:"store_errors,omitempty"`
	Retries      uint64 `json:"store_retries,omitempty"`
	Timeouts     uint64 `json:"store_timeouts,omitempty"`
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	BreakerState string `json:"breaker_state,omitempty"`
	PublishDrops uint64 `json:"publish_drops,omitempty"`
}

// Delta returns the counter movement from prev to s (Entries and
// BreakerState are carried from s unchanged) — the per-artefact
// attribution wavm3scen records.
func (s CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:         s.Hits - prev.Hits,
		Misses:       s.Misses - prev.Misses,
		Entries:      s.Entries,
		KernelRuns:   s.KernelRuns - prev.KernelRuns,
		DiskHits:     s.DiskHits - prev.DiskHits,
		DiskMisses:   s.DiskMisses - prev.DiskMisses,
		Quarantined:  s.Quarantined - prev.Quarantined,
		StoreErrors:  s.StoreErrors - prev.StoreErrors,
		Retries:      s.Retries - prev.Retries,
		Timeouts:     s.Timeouts - prev.Timeouts,
		BreakerOpens: s.BreakerOpens - prev.BreakerOpens,
		BreakerState: s.BreakerState,
		PublishDrops: s.PublishDrops - prev.PublishDrops,
	}
}

type cacheEntry struct {
	done chan struct{} // closed when res/err are set
	res  *RunResult    // its traces are nil when a summary-only disk hit filled it
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

// RunCtx answers a scenario, traces included, from the cache,
// simulating it at most once per key. A nil receiver runs uncached. Its
// cancellation semantics are engineered for shared, long-lived caches (a
// daemon serving many clients):
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
//   - A leader whose compute panics is failed the same way before the
//     panic reaches its own caller, so its waiters re-dispatch too.
//
// Failures are not memoized, so a deterministic error (an invalid
// scenario) terminates: the retrying waiter becomes the leader, computes
// the same error itself and returns it as its own.
//
// An entry that a SummaryCtx disk hit filled holds no traces. RunCtx
// replaces it, reading the artefact again in full, and a RunCtx waiting
// on such an entry's leader re-dispatches as it does after a failure.
func (c *Cache) RunCtx(ctx context.Context, sc Scenario) (*RunResult, error) {
	return c.lookup(ctx, sc, true)
}

// SummaryCtx is RunCtx for callers that read only a run's summary: its
// bounds, energies, bytes sent, rounds and downtime. A persistent-tier
// hit runs every check RunCtx's does but decodes no trace sample, and
// fills the memory tier with a summary-only entry. The result's traces
// are nil after such a hit and present otherwise, so callers must not
// read them.
func (c *Cache) SummaryCtx(ctx context.Context, sc Scenario) (*RunResult, error) {
	return c.lookup(ctx, sc, false)
}

// lookup is RunCtx when traces is set and SummaryCtx when not.
func (c *Cache) lookup(ctx context.Context, sc Scenario, traces bool) (*RunResult, error) {
	if c == nil {
		return RunCtx(ctx, sc)
	}
	key := cacheKey(sc)

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok && !(traces && e.summaryOnly()) {
			c.hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if e.err != nil || (traces && e.res.Source == nil) {
				// The leader failed or was cancelled, and its entry is
				// already gone; or it left a summary this lookup cannot
				// use, which the next pass replaces. Re-dispatch instead
				// of propagating its error.
				continue
			}
			return e.result(sc), nil
		}
		if ok {
			// A completed summary-only entry: this lookup replaces it
			// with a full read of the same artefact.
			c.removeLocked(&key, e)
		}
		c.misses++
		e = &cacheEntry{done: make(chan struct{})}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		c.evictLocked()
		c.mu.Unlock()

		if err := c.lead(ctx, sc, key, e, traces); err != nil {
			return nil, err
		}
		return e.result(sc), nil
	}
}

// errLeaderPanicked marks the entry of a leader whose compute panicked.
// Its waiters re-dispatch on it like on any failure, so no caller ever
// receives it.
var errLeaderPanicked = errors.New("sim: cache leader panicked")

// lead answers key's in-flight entry e as its leader and releases e's
// waiters. Failures are not memoized: a failed entry leaves the map
// *before* its waiters wake, so their retry finds a clean slot. A
// compute that panics fails the entry the same way before the panic
// continues, so no waiter blocks on an entry nobody completes.
func (c *Cache) lead(ctx context.Context, sc, key Scenario, e *cacheEntry, traces bool) error {
	e.err = errLeaderPanicked
	defer func() {
		if e.err != nil {
			c.mu.Lock()
			c.removeLocked(&key, e)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.res, e.err = c.compute(ctx, sc, key, traces)
	return e.err
}

// compute answers a memory-tier miss as the key's in-flight leader:
// probe the persistent tier, elect a cross-process owner, and only then
// run the kernel and publish the artefact. Store failures of every kind
// (I/O errors, lock trouble, corrupt artefacts) degrade to uncached
// behaviour; corruption additionally quarantines the file so the rerun's
// Put republishes a good artefact under the same name. A disk hit decodes
// the traces only when traces is set; a kernel run always returns them.
func (c *Cache) compute(ctx context.Context, sc, key Scenario, traces bool) (*RunResult, error) {
	if c.store == nil {
		c.kernelRuns.Add(1)
		return RunCtx(ctx, sc)
	}
	keyBytes := encodeCacheKey(key)
	hash := sha256.Sum256(keyBytes)
	name := artefactName(hash)

	// Fast path: a complete, verified artefact answers without locking.
	if res := c.loadArtefact(name, keyBytes, hash, traces); res != nil {
		c.diskHits.Add(1)
		return res, nil
	}
	// Cross-process singleflight: elect one kernel-run owner per key.
	// Losers block here and re-read the owner's artefact on wake-up.
	unlock, err := c.store.Lock(ctx, name)
	switch {
	case err == nil:
		defer unlock()
		if res := c.loadArtefact(name, keyBytes, hash, traces); res != nil {
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

// loadArtefact reads and fully verifies one artefact, decoding its traces
// only when traces is set, and returns nil on any miss. A decode failure
// is re-probed once — a hostile or non-atomic
// store can tear a single read, and re-reading distinguishes a transient
// tear from a genuinely rotten file. Persistent decode failures —
// truncation, bit-rot, stale version, wrong key — quarantine the file so
// the subsequent kernel rerun can publish a good artefact under the same
// name.
func (c *Cache) loadArtefact(name string, keyBytes []byte, hash [sha256.Size]byte, traces bool) *RunResult {
	data, err := c.store.Get(name)
	if err != nil {
		if !errors.Is(err, ErrArtefactNotFound) {
			c.storeErrors.Add(1)
		}
		return nil
	}
	res, err := decodeArtefact(data, keyBytes, hash, traces)
	if err != nil {
		if data2, gerr := c.store.Get(name); gerr == nil {
			if res2, derr := decodeArtefact(data2, keyBytes, hash, traces); derr == nil {
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
// copy sharing the immutable traces, if the entry holds them, with the
// caller's labelling restored so cached and uncached call sites see
// bit-identical values.
func (e *cacheEntry) result(sc Scenario) *RunResult {
	out := *e.res
	out.Scenario = sc.withDefaults()
	return &out
}

// summaryOnly reports whether the entry is complete and holds no traces.
// The caller holds the cache's lock, so a complete entry it finds
// succeeded: a failed one leaves the map before its waiters wake.
func (e *cacheEntry) summaryOnly() bool {
	select {
	case <-e.done:
		return e.res.Source == nil
	default:
		return false
	}
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
			c.removeLocked(&key, e)
		default: // still simulating
		}
		back = prev
	}
}

func (c *Cache) removeLocked(key *Scenario, e *cacheEntry) {
	if cur, ok := c.entries[*key]; ok && cur == e {
		delete(c.entries, *key)
		c.lru.Remove(e.elem)
	}
}

// Snapshot returns the cache's counters across both tiers. A nil cache
// snapshots as all zeros.
func (c *Cache) Snapshot() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	var s CacheStats
	if rs, ok := c.store.(*ResilientStore); ok {
		s = rs.ResilienceStats()
	}
	c.mu.Lock()
	s.Hits, s.Misses, s.Entries = c.hits, c.misses, len(c.entries)
	c.mu.Unlock()
	s.DiskHits = c.diskHits.Load()
	s.DiskMisses = c.diskMisses.Load()
	s.KernelRuns = c.kernelRuns.Load()
	s.Quarantined = c.quarantined.Load()
	s.StoreErrors = c.storeErrors.Load()
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
