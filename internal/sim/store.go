package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// ErrArtefactNotFound is a CacheStore's "no such artefact" answer; the
// cache treats it as a clean miss (anything else a Get returns is an I/O
// failure, counted but equally survived).
var ErrArtefactNotFound = errors.New("sim: artefact not found")

// CacheStore is the persistence tier behind a Cache: a content-addressed
// blob store keyed by artefact name (hash + encoding version, see
// artefactName). DirStore is the backend and ResilientStore wraps it;
// the tests also wrap it in a fault injector. Stores hold opaque bytes
// — all encoding, verification and corruption handling lives in the
// cache layer above, so a store never has to distinguish a good
// artefact from a rotten one.
//
// Contract: Get returns ErrArtefactNotFound for absent names; Put is
// atomic and owner-wins (concurrent writers of the same name are
// bit-identical by construction, so any complete write is correct);
// Quarantine moves a name out of the lookup path so the next Get misses;
// Lock is the cross-process singleflight — it blocks (honouring ctx)
// until the caller exclusively owns the name's compute slot, and the
// returned func releases it. A Lock that fails degrades the cache to
// owner-wins Put, which may duplicate work across processes but never
// corrupts results. All methods must be safe for concurrent use by
// multiple goroutines and multiple processes.
type CacheStore interface {
	Get(name string) ([]byte, error)
	Put(name string, data []byte) error
	Quarantine(name, reason string) error
	Lock(ctx context.Context, name string) (unlock func(), err error)
}

// quarantineDir is DirStore's subdirectory for artefacts that failed to
// decode; moving them aside (rather than deleting) keeps the evidence
// for diagnosis while guaranteeing the next lookup misses.
const quarantineDir = "quarantine"

// DirStore is the directory-tree CacheStore: one file per artefact in a
// single flat directory, shareable between concurrent processes (CLI
// invocations, CI jobs, wavm3d replicas) on one filesystem.
//
//   - Put writes a temp file in the same directory, fsyncs, renames over
//     the final name, then fsyncs the directory — readers only ever
//     observe absent or complete files, and a published artefact survives
//     power loss immediately after Put returns.
//   - Lock takes an advisory flock on a sidecar <name>.lock file, so
//     concurrent processes sharing the directory elect one kernel-run
//     owner per key and the losers re-read the owner's artefact. Locks
//     die with their process, so a crashed owner never wedges the
//     directory; a wedged lock *file* (a stale NFS handle, a leaked
//     flock) is bounded by ResilientStore's lock timeout, after which
//     the caller degrades to owner-wins.
//   - Quarantine renames a corrupt artefact into quarantine/ with the
//     failure reason in the file name, recreating quarantine/ if it was
//     removed at runtime.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if necessary) a cache directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("sim: opening cache dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// checkArtefactName refuses names that could escape the store directory
// or collide with its internals. Cache-layer names are hex hashes plus a
// version suffix, so anything else indicates a bug.
func checkArtefactName(name string) error {
	if name == "" || name == quarantineDir || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("sim: invalid artefact name %q", name)
	}
	return nil
}

// syncDir flushes a directory's entry table so a just-renamed file
// survives power loss. Best-effort: a filesystem that cannot fsync a
// directory still gave us the rename's atomicity, which is the
// correctness half of the contract.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Get reads an artefact's bytes.
func (s *DirStore) Get(name string) ([]byte, error) {
	if err := checkArtefactName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrArtefactNotFound
	}
	return data, err
}

// Put atomically publishes an artefact: temp file in the same directory,
// fsync, rename. A concurrent Put of the same name is owner-wins — both
// writers produced bit-identical bytes, so whichever rename lands last
// changes nothing observable.
func (s *DirStore) Put(name string, data []byte) error {
	if err := checkArtefactName(name); err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("sim: staging artefact: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("sim: writing artefact: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("sim: syncing artefact: %w", err))
	}
	// Readable by other users sharing the cache dir (CreateTemp defaults
	// to 0600).
	if err := f.Chmod(0o644); err != nil {
		return cleanup(fmt.Errorf("sim: publishing artefact: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sim: closing artefact: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sim: publishing artefact: %w", err)
	}
	// The rename made the artefact visible; the directory fsync makes it
	// durable (without it, a power cut can roll the publish back).
	syncDir(s.dir)
	return nil
}

// Quarantine moves a corrupt artefact into quarantine/<name>.<reason>.
// A missing source is success — a concurrent process already moved it.
// A missing quarantine/ directory (removed at runtime by an operator or
// a cleanup job) is recreated on demand; without that, every future
// corruption would fail its quarantine and re-read the same bad file
// forever.
func (s *DirStore) Quarantine(name, reason string) error {
	if err := checkArtefactName(name); err != nil {
		return err
	}
	src := filepath.Join(s.dir, name)
	dst := filepath.Join(s.dir, quarantineDir, name+"."+reason)
	err := os.Rename(src, dst)
	if errors.Is(err, os.ErrNotExist) {
		// ENOENT is ambiguous: source already moved (success), or the
		// quarantine directory is gone (recreate and retry once).
		if _, serr := os.Stat(src); errors.Is(serr, os.ErrNotExist) {
			return nil
		}
		if merr := os.MkdirAll(filepath.Join(s.dir, quarantineDir), 0o755); merr != nil {
			return fmt.Errorf("sim: recreating quarantine dir: %w", merr)
		}
		err = os.Rename(src, dst)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
	}
	return err
}

// lockPollInterval paces the non-blocking flock retry loop: short enough
// that a loser resumes promptly after the owner's sub-second kernel run,
// long enough not to spin.
const lockPollInterval = 5 * time.Millisecond

// Lock takes an advisory flock on <name>.lock, acquired non-blocking in
// a poll loop so ctx cancellation is honoured while waiting. The poll
// timer is allocated once and reused across iterations (the loop runs at
// 200 Hz while waiting). The wait is bounded only by ctx; ResilientStore
// supplies the lock timeout. The lock file itself is left in place —
// removing it would race a third process onto a different inode and
// break the exclusion.
func (s *DirStore) Lock(ctx context.Context, name string) (func(), error) {
	if err := checkArtefactName(name); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name+".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sim: opening artefact lock: %w", err)
	}
	poll := time.NewTimer(lockPollInterval)
	defer poll.Stop()
	for {
		held, err := flockTry(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("sim: locking artefact: %w", err)
		}
		if held {
			return func() {
				flockDrop(f)
				f.Close()
			}, nil
		}
		select {
		case <-ctx.Done():
			f.Close()
			return nil, ctx.Err()
		case <-poll.C:
			poll.Reset(lockPollInterval)
		}
	}
}

var _ CacheStore = (*DirStore)(nil)
