package sim

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig scripts a FaultStore's hostility. All probabilities are
// in [0, 1] and evaluated deterministically per operation from Seed and
// the operation's global index, so a given (config, op sequence) always
// injects the same faults. FaultyOps and FaultFor form the scripted
// schedule: when either is set, the store is hostile only while inside
// the window and behaves as a clean passthrough afterwards — the E2E
// shape for "store breaks, breaker opens, store heals, breaker
// re-closes".
type FaultConfig struct {
	// Seed keys the per-op fault decisions.
	Seed int64
	// ErrRate is the probability a Get/Put/Quarantine fails with an
	// injected I/O error before reaching the inner store.
	ErrRate float64
	// TornRate is the probability a successful Get returns a strict
	// prefix of the artefact — the torn read a non-atomic store can
	// produce. The cache survives it by re-probing once and, failing
	// that, quarantining and re-running the kernel.
	TornRate float64
	// HangRate is the probability an operation blocks for HangFor (or
	// until the store is closed, or — for Lock — the caller's ctx ends)
	// before proceeding: the "store stopped answering" failure the per-op
	// timeout exists for.
	HangRate float64
	// LockFailRate is the probability a Lock acquisition fails with an
	// injected error, forcing the cache onto its owner-wins path.
	LockFailRate float64
	// Latency is added to every operation while the store is hostile.
	Latency time.Duration
	// HangFor bounds one injected hang (default 30s — far beyond any
	// sane op timeout, close enough that tests unwind).
	HangFor time.Duration
	// FaultyOps, when positive, limits hostility to the first N
	// operations.
	FaultyOps int64
	// FaultFor, when positive, limits hostility to this span after
	// construction.
	FaultFor time.Duration
}

// ParseFaultSpec parses the CLI's compact fault syntax into a
// FaultConfig: comma-separated key=value pairs, e.g.
// "seed=7,err=0.3,torn=0.1,hang=0.05,hangfor=50ms,lockfail=0.2,latency=1ms,ops=400,for=2s".
func ParseFaultSpec(spec string) (FaultConfig, error) {
	var cfg FaultConfig
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("sim: fault spec %q: %q is not key=value", spec, kv)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "ops":
			cfg.FaultyOps, err = strconv.ParseInt(v, 10, 64)
		case "err":
			cfg.ErrRate, err = parseRate(v)
		case "torn":
			cfg.TornRate, err = parseRate(v)
		case "hang":
			cfg.HangRate, err = parseRate(v)
		case "lockfail":
			cfg.LockFailRate, err = parseRate(v)
		case "latency":
			cfg.Latency, err = time.ParseDuration(v)
		case "hangfor":
			cfg.HangFor, err = time.ParseDuration(v)
		case "for":
			cfg.FaultFor, err = time.ParseDuration(v)
		default:
			return cfg, fmt.Errorf("sim: fault spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return cfg, fmt.Errorf("sim: fault spec %q: %s: %w", spec, k, err)
		}
	}
	return cfg, nil
}

func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("rate %v outside [0, 1]", f)
	}
	return f, nil
}

// FaultStore wraps any CacheStore with deterministic, seeded chaos:
// injected errors, latency, hangs, torn reads and lock-acquisition
// failures, optionally confined to a scripted window (FaultConfig).
// It exists to prove the resilience stack's invariant — any store
// misbehaviour degrades to a miss or a skip, never an error, never a
// wrong byte — under test and in CI, against the real store layout.
//
// Construct with NewFaultStore. Close releases any injected hangs still
// in flight and closes the inner store if it is closeable.
type FaultStore struct {
	inner CacheStore
	cfg   FaultConfig
	start time.Time
	ops   atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
}

// NewFaultStore wraps inner with the scripted chaos of cfg.
func NewFaultStore(inner CacheStore, cfg FaultConfig) *FaultStore {
	if cfg.HangFor <= 0 {
		cfg.HangFor = 30 * time.Second
	}
	return &FaultStore{inner: inner, cfg: cfg, start: time.Now(), closed: make(chan struct{})}
}

// Close releases every injected hang and closes the inner store when it
// supports closing. Safe to call more than once.
func (s *FaultStore) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	if cl, ok := s.inner.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

// Per-decision salts: one stream per fault class so the rates are
// independent draws.
const (
	saltHang = 1 + iota
	saltErr
	saltTorn
	saltCut
	saltLock
)

// op claims the next global operation index and reports whether the
// scripted schedule makes it hostile.
func (s *FaultStore) op() (int64, bool) {
	n := s.ops.Add(1) - 1
	if s.cfg.FaultyOps > 0 && n >= s.cfg.FaultyOps {
		return n, false
	}
	if s.cfg.FaultFor > 0 && time.Since(s.start) >= s.cfg.FaultFor {
		return n, false
	}
	return n, true
}

// u01 draws the op's decision value for one fault class in [0, 1):
// splitmix64 finalisation over (seed, op, salt), so the whole fault
// pattern replays from the seed.
func (s *FaultStore) u01(op int64, salt uint64) float64 {
	x := mix64(mix64(uint64(s.cfg.Seed)^uint64(op)*0x9e3779b97f4a7c15) + salt)
	return float64(x>>11) / (1 << 53)
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// misbehave applies the common hostile prelude — latency, maybe a hang,
// maybe an injected error — returning a non-nil error when the op fails.
// done, when non-nil, additionally releases a hang (Lock passes its
// ctx.Done so a cancelled waiter unblocks).
func (s *FaultStore) misbehave(op int64, kind string, done <-chan struct{}) error {
	if s.cfg.Latency > 0 {
		time.Sleep(s.cfg.Latency)
	}
	if s.cfg.HangRate > 0 && s.u01(op, saltHang) < s.cfg.HangRate {
		t := time.NewTimer(s.cfg.HangFor)
		select {
		case <-t.C:
		case <-s.closed:
			t.Stop()
		case <-done:
			t.Stop()
		}
	}
	if s.cfg.ErrRate > 0 && s.u01(op, saltErr) < s.cfg.ErrRate {
		return fmt.Errorf("sim: injected store fault (%s op %d)", kind, op)
	}
	return nil
}

// Get reads through the chaos: injected latency/hang/error first, then
// the inner read, then — maybe — a torn prefix of the real bytes.
func (s *FaultStore) Get(name string) ([]byte, error) {
	n, hostile := s.op()
	if !hostile {
		return s.inner.Get(name)
	}
	if err := s.misbehave(n, "get", nil); err != nil {
		return nil, err
	}
	data, err := s.inner.Get(name)
	if err != nil {
		return nil, err
	}
	if s.cfg.TornRate > 0 && len(data) > 1 && s.u01(n, saltTorn) < s.cfg.TornRate {
		cut := 1 + int(s.u01(n, saltCut)*float64(len(data)-1))
		return data[:cut:cut], nil
	}
	return data, nil
}

// Put publishes through the chaos; an injected fault withholds the
// artefact (a later process re-runs the kernel — degraded, correct).
func (s *FaultStore) Put(name string, data []byte) error {
	n, hostile := s.op()
	if !hostile {
		return s.inner.Put(name, data)
	}
	if err := s.misbehave(n, "put", nil); err != nil {
		return err
	}
	return s.inner.Put(name, data)
}

// Quarantine moves a bad artefact aside through the chaos.
func (s *FaultStore) Quarantine(name, reason string) error {
	n, hostile := s.op()
	if !hostile {
		return s.inner.Quarantine(name, reason)
	}
	if err := s.misbehave(n, "quarantine", nil); err != nil {
		return err
	}
	return s.inner.Quarantine(name, reason)
}

// Lock acquires through the chaos: latency and hangs apply (released by
// ctx as well as Close), then an injected acquisition failure, then the
// inner lock.
func (s *FaultStore) Lock(ctx context.Context, name string) (func(), error) {
	n, hostile := s.op()
	if !hostile {
		return s.inner.Lock(ctx, name)
	}
	if err := s.misbehave(n, "lock", ctx.Done()); err != nil {
		return nil, err
	}
	if s.cfg.LockFailRate > 0 && s.u01(n, saltLock) < s.cfg.LockFailRate {
		return nil, fmt.Errorf("sim: injected lock fault (op %d)", n)
	}
	return s.inner.Lock(ctx, name)
}

var _ CacheStore = (*FaultStore)(nil)
