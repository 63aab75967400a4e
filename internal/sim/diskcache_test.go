package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/migration"
	"repro/internal/workload"
)

// diskScenario is a fast, fully cacheable scenario for the persistent
// cache tests; seed varies the cache key.
func diskScenario(seed int64) Scenario {
	return Scenario{
		Name:             "disk-cache-test",
		Kind:             migration.NonLive,
		MigratingProfile: workload.IdleProfile(),
		Seed:             seed,
	}
}

// newDiskCache builds a store-backed cache over dir, failing the test on
// store trouble.
func newDiskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewCacheWithStore(0, store)
}

// artefactFiles lists the artefact files (not locks, not quarantine) in
// a cache dir.
func artefactFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.run"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestDiskCacheColdWarmBitIdentical(t *testing.T) {
	dir := t.TempDir()
	sc := diskScenario(41)

	want, err := Run(sc) // the uncached reference: what a cold run must equal
	if err != nil {
		t.Fatal(err)
	}

	cold := newDiskCache(t, dir)
	got, err := cold.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("cold store-backed run differs from the uncached reference")
	}
	if st := cold.Snapshot(); st.DiskHits != 0 || st.DiskMisses != 1 || st.KernelRuns != 1 {
		t.Errorf("cold stats = %+v, want 1 disk miss, 1 kernel run", st)
	}
	if files := artefactFiles(t, dir); len(files) != 1 {
		t.Fatalf("cold run left %d artefacts, want 1", len(files))
	}

	// A fresh cache in a fresh process position: disk answers, the
	// kernel never runs, and the result is bit-identical.
	warm := newDiskCache(t, dir)
	got2, err := warm.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Error("warm run differs from the uncached reference")
	}
	if st := warm.Snapshot(); st.DiskHits != 1 || st.DiskMisses != 0 || st.KernelRuns != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit, 0 kernel runs", st)
	}

	// Clearing the memory tier re-warms from disk, not from the kernel.
	warm.Clear()
	if _, err := warm.RunCtx(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if st := warm.Snapshot(); st.KernelRuns != 0 || st.DiskHits != 2 {
		t.Errorf("post-Clear stats = %+v, want 2 disk hits, 0 kernel runs", st)
	}
}

func TestDiskCacheDistinctKeysDistinctArtefacts(t *testing.T) {
	dir := t.TempDir()
	c := newDiskCache(t, dir)
	a, err := c.RunCtx(context.Background(), diskScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RunCtx(context.Background(), diskScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Source.Samples, b.Source.Samples) {
		t.Error("distinct seeds produced identical traces; keys degenerate")
	}
	if files := artefactFiles(t, dir); len(files) != 2 {
		t.Errorf("%d artefacts for 2 keys", len(files))
	}
	// The label is excluded from the key: a renamed scenario shares the
	// artefact.
	renamed := diskScenario(1)
	renamed.Name = "other-label"
	if _, err := newDiskCache(t, dir).RunCtx(context.Background(), renamed); err != nil {
		t.Fatal(err)
	}
	if files := artefactFiles(t, dir); len(files) != 2 {
		t.Errorf("relabelled scenario minted a new artefact (%d files)", len(files))
	}
}

func TestArtefactRoundTrip(t *testing.T) {
	sc := diskScenario(7)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey(sc)
	keyBytes := encodeCacheKey(key)
	hash := sha256.Sum256(keyBytes)
	data := encodeArtefact(keyBytes, hash, res)

	back, err := decodeArtefact(data, keyBytes, hash)
	if err != nil {
		t.Fatal(err)
	}
	// The artefact carries everything but the label; restore it the way
	// the cache does and demand bit-identity.
	back.Scenario = res.Scenario
	if !reflect.DeepEqual(back, res) {
		t.Error("decode(encode(res)) is not bit-identical")
	}
	// Determinism: encoding is canonical.
	if !bytes.Equal(data, encodeArtefact(keyBytes, hash, back)) {
		t.Error("re-encoding a decoded artefact changed bytes")
	}
}

func TestDirStoreBasics(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("absent.v1.run"); !errors.Is(err, ErrArtefactNotFound) {
		t.Errorf("absent Get = %v, want ErrArtefactNotFound", err)
	}
	if err := store.Put("a.v1.run", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("a.v1.run")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// No temp litter after a completed Put.
	if tmp, _ := filepath.Glob(filepath.Join(store.Dir(), ".*.tmp-*")); len(tmp) != 0 {
		t.Errorf("temp files left behind: %v", tmp)
	}
	if err := store.Quarantine("a.v1.run", "checksum"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("a.v1.run"); !errors.Is(err, ErrArtefactNotFound) {
		t.Errorf("quarantined artefact still readable: %v", err)
	}
	if _, err := os.Stat(filepath.Join(store.Dir(), quarantineDir, "a.v1.run.checksum")); err != nil {
		t.Errorf("quarantined file not preserved: %v", err)
	}
	// Quarantining an already-moved file is success (another process won).
	if err := store.Quarantine("a.v1.run", "checksum"); err != nil {
		t.Errorf("double quarantine: %v", err)
	}
	for _, bad := range []string{"", "../escape", "a/b", ".hidden", quarantineDir} {
		if err := store.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed name", bad)
		}
		if _, err := store.Get(bad); err == nil || errors.Is(err, ErrArtefactNotFound) {
			t.Errorf("Get(%q) did not refuse the name", bad)
		}
	}
}

// TestDiskCachePutFailureDegrades: a store that cannot persist must not
// fail runs — the session degrades to memory-only caching with the
// failed publish counted.
func TestDiskCachePutFailureDegrades(t *testing.T) {
	c := NewCacheWithStore(0, failingStore{})
	sc := diskScenario(3)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatalf("run failed on a broken store: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("broken-store result differs from uncached reference")
	}
	st := c.Snapshot()
	if st.KernelRuns != 1 || st.StoreErrors != 1 {
		t.Errorf("stats = %+v, want 1 kernel run and the failed Put as the 1 store error", st)
	}
}

// failingStore cannot write: Get is a clean miss and Lock succeeds, so
// the only store error a run meets is its failed Put.
type failingStore struct{}

func (failingStore) Get(string) ([]byte, error)                   { return nil, ErrArtefactNotFound }
func (failingStore) Put(string, []byte) error                     { return errors.New("disk full") }
func (failingStore) Quarantine(string, string) error              { return errors.New("disk full") }
func (failingStore) Lock(context.Context, string) (func(), error) { return func() {}, nil }

// TestDirStoreQuarantineRecreatesDir asserts quarantine/ removed at
// runtime (an operator cleanup, a tmp reaper) is recreated on demand —
// without that, every future corruption would fail its quarantine and
// re-read the same bad file forever.
func TestDirStoreQuarantineRecreatesDir(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("a.v1.run", []byte("rotten")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(store.Dir(), quarantineDir)); err != nil {
		t.Fatal(err)
	}
	if err := store.Quarantine("a.v1.run", "checksum"); err != nil {
		t.Fatalf("quarantine with a missing quarantine/ dir: %v", err)
	}
	if _, err := store.Get("a.v1.run"); !errors.Is(err, ErrArtefactNotFound) {
		t.Errorf("quarantined artefact still readable: %v", err)
	}
	q, err := os.ReadFile(filepath.Join(store.Dir(), quarantineDir, "a.v1.run.checksum"))
	if err != nil || string(q) != "rotten" {
		t.Errorf("quarantined file = %q, %v; want the original preserved", q, err)
	}
}

// TestWedgedLockTimesOutToOwnerWins wedges an artefact's lock file from
// a second file descriptor (modelling a leaked flock / dead NFS handle)
// and asserts (a) the resilience policy's lock timeout gives up on the
// DirStore lock with an error distinct from the caller's context, and
// (b) a cache over that store still completes the run — owner-wins, with
// the lock trouble counted as a store error.
func TestWedgedLockTimesOutToOwnerWins(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const lockTimeout = 40 * time.Millisecond
	rs := NewResilientStore(store, ResilienceConfig{lockTimeout: lockTimeout})

	sc := diskScenario(9)
	keyBytes := encodeCacheKey(cacheKey(sc))
	hash := sha256.Sum256(keyBytes)
	name := artefactName(hash)

	// Wedge: hold the flock on this artefact's lock file via a separate
	// descriptor for the whole test (flock is per open file description,
	// so the same process can contend with itself).
	wedge, err := os.OpenFile(filepath.Join(dir, name+".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer wedge.Close()
	if held, err := flockTry(wedge); err != nil || !held {
		t.Fatalf("wedging flock = %v, %v; want held", held, err)
	}

	start := time.Now()
	_, lerr := rs.Lock(context.Background(), name)
	elapsed := time.Since(start)
	if !errors.Is(lerr, ErrStoreTimeout) {
		t.Fatalf("wedged Lock error = %v, want ErrStoreTimeout", lerr)
	}
	if elapsed < lockTimeout || elapsed > 100*lockTimeout {
		t.Errorf("wedged Lock took %v, want about the %v lock timeout", elapsed, lockTimeout)
	}

	// The cache-level story: the wedged lock degrades to owner-wins and
	// the run completes bit-identically.
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheWithStore(0, rs)
	got, err := c.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatalf("run with a wedged lock: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("wedged-lock result differs from the uncached reference")
	}
	if st := c.Snapshot(); st.KernelRuns != 1 || st.StoreErrors == 0 {
		t.Errorf("stats = %+v, want 1 kernel run with the lock failure counted", st)
	}
	// The artefact still published despite the wedged lock.
	if files := artefactFiles(t, dir); len(files) != 1 {
		t.Errorf("%d artefacts after owner-wins publish, want 1", len(files))
	}
}

// TestLockFailureOwnerWinsSingleflight is the end-to-end proof of the
// degraded singleflight: two caches (two "processes") over one
// directory whose every Lock fails, racing the same key from many
// goroutines. Without cross-process locking the kernel may run once per
// cache — but never more, results are bit-identical everywhere, and
// exactly one artefact exists after the dust settles.
func TestLockFailureOwnerWinsSingleflight(t *testing.T) {
	dir := t.TempDir()
	sc := diskScenario(21)
	want, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	newLocklessCache := func() *Cache {
		store, err := NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewCacheWithStore(0, NewFaultStore(store, FaultConfig{LockFailRate: 1}))
	}
	c1, c2 := newLocklessCache(), newLocklessCache()
	var wg sync.WaitGroup
	for _, c := range []*Cache{c1, c2} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				got, err := c.RunCtx(context.Background(), sc)
				if err != nil {
					t.Errorf("racing run: %v", err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("racing run differs from the uncached reference")
				}
			}(c)
		}
	}
	wg.Wait()

	runs := c1.Snapshot().KernelRuns + c2.Snapshot().KernelRuns
	if runs < 1 || runs > 2 {
		t.Errorf("kernel runs = %d, want 1..2 (once per cache at worst, never per request)", runs)
	}
	if files := artefactFiles(t, dir); len(files) != 1 {
		t.Errorf("store holds %d artefacts, want exactly 1 (owner-wins collapsed the race)", len(files))
	}

	// A third, cold cache warms entirely from the artefact.
	c3 := newLocklessCache()
	got, err := c3.RunCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("warm read differs from the uncached reference")
	}
	if st := c3.Snapshot(); st.DiskHits != 1 || st.KernelRuns != 0 {
		t.Errorf("warm stats = %+v, want 1 disk hit, 0 kernel runs", st)
	}
}
