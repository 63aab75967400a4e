// Package service is the wavm3d daemon's core: an HTTP front end over
// the same compile→campaign→cluster pipeline the CLIs drive, hardened
// for long-lived operation. Three mechanisms carry the robustness
// story:
//
//   - Bounded admission: at most MaxConcurrent runs execute at once and
//     at most QueueDepth requests wait; anything beyond is rejected with
//     429 + Retry-After instead of queueing without bound.
//   - Cancellation: every run executes under a context merged from the
//     request (client disconnect), the per-request deadline and the
//     daemon's drain state, and the compute core observes it at every
//     event-loop iteration and worker dispatch. A cancelled run never
//     poisons the shared run cache for concurrent bystanders.
//   - Graceful drain: Shutdown stops admitting, lets in-flight runs
//     finish up to the drain deadline, then cancels the stragglers —
//     so SIGTERM always yields a clean exit.
//
// Responses for successful runs are byte-identical to wavm3scen's
// stdout for the same scenario (the rendering code is shared), which CI
// verifies against the golden outputs.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// errDraining is the cancellation cause attached to in-flight runs when
// the drain deadline expires; handlers translate it into a 503 so a
// straggler's client can tell "daemon went away" from its own mistakes.
var errDraining = errors.New("service: daemon draining")

// Config configures a Server. The zero value is usable for tests;
// withDefaults fills production defaults.
type Config struct {
	// Addr is the listen address (ListenAndServe only).
	Addr string
	// ScenarioDir, when non-empty, is the scenario library served by
	// GET /v1/scenarios and runnable by name via POST /v1/runs?name=.
	ScenarioDir string
	// MaxConcurrent bounds simultaneously executing runs (default 4).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot
	// (default 8). Beyond MaxConcurrent+QueueDepth in flight, POST
	// /v1/runs answers 429.
	QueueDepth int
	// MaxBody caps the request body in bytes (default 1 MiB).
	MaxBody int64
	// RequestTimeout bounds one run's wall clock, queue wait included
	// (default 2m; expiry answers 504).
	RequestTimeout time.Duration
	// Workers bounds each run's internal concurrency (0 = all CPUs;
	// results identical for every value).
	Workers int
	// Cache is the shared run cache (nil = uncached execution). A cache
	// built over a persistent store (sim.NewCacheWithStore) lets a fleet
	// of replicas share one warm artefact directory: each replica's
	// memory tier stays private, the disk tier answers across processes.
	Cache *sim.Cache
	// Logger receives operational chatter (default: log.Default).
	Logger *log.Logger

	// execOverride replaces the scenario executor — test-only, for
	// blocking or panicking runs without real simulation work.
	execOverride func(ctx context.Context, w io.Writer, c *scenario.Compiled, workers int, cache *sim.Cache) (*ExecResult, error)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// Server is the wavm3d daemon: library, admission bounds, drain state
// and the embedded http.Server.
type Server struct {
	cfg     Config
	library []scenario.Info           // catalog in name order (empty without ScenarioDir)
	byName  map[string]*scenario.Spec // library lookup for ?name= runs
	adm     *admission
	httpSrv *http.Server

	// runsCtx parents every run's context; cancelRuns(errDraining) is
	// the drain deadline's hammer for stragglers.
	runsCtx    context.Context
	cancelRuns context.CancelCauseFunc

	// draining flips once, before the listener closes: readyz answers
	// 503 and new runs are refused while in-flight ones finish.
	draining chan struct{}
}

// New builds a Server, loading the scenario library when ScenarioDir is
// set (a broken library is a startup error, not a per-request surprise).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		byName:   map[string]*scenario.Spec{},
		adm:      newAdmission(cfg.MaxConcurrent, cfg.QueueDepth),
		draining: make(chan struct{}),
	}
	s.runsCtx, s.cancelRuns = context.WithCancelCause(context.Background())
	if cfg.ScenarioDir != "" {
		specs, err := scenario.LoadDir(cfg.ScenarioDir)
		if err != nil {
			return nil, fmt.Errorf("service: loading scenario library: %w", err)
		}
		s.library = scenario.List(specs)
		for _, sp := range specs {
			s.byName[sp.Name] = sp
		}
	}
	s.httpSrv = &http.Server{
		Addr:    cfg.Addr,
		Handler: s.Handler(),
	}
	return s, nil
}

// ListenAndServe serves on cfg.Addr until Shutdown. Like
// http.Server.ListenAndServe it returns http.ErrServerClosed after a
// graceful shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	// The resolved address matters when Addr ends in :0 (tests, CI
	// smoke): this line is the contract they parse the port from.
	s.cfg.Logger.Printf("service: listening on %s", ln.Addr())
	return s.Serve(ln)
}

// Serve serves on an existing listener (tests bind :0 and read the
// real address back from the listener).
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Shutdown drains the daemon: stop admitting (readyz flips to 503 and
// new runs answer 503 immediately), let in-flight runs finish for up to
// drain, then cancel the stragglers and wait for them to unwind — a
// bounded wait, because the compute core observes cancellation at every
// event-loop iteration. The cache's persistent tier is closed last
// (after the HTTP wind-down), flushing any asynchronously queued
// artefact publishes so a SIGTERM never strands completed work in
// memory. The return is nil for both the clean and the
// cancelled-stragglers outcome; SIGTERM always exits 0.
func (s *Server) Shutdown(drain time.Duration) error {
	defer func() {
		if err := s.cfg.Cache.Close(); err != nil {
			s.cfg.Logger.Printf("service: cache store close: %v", err)
		}
	}()
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := s.httpSrv.Shutdown(drainCtx)
	if err == nil {
		s.cancelRuns(errDraining) // nothing left to cancel; releases the context
		return nil
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Drain deadline expired with runs still in flight: cancel them and
	// wait again. This wait is bounded by the core's cancellation
	// boundaries (one context poll per simulated step / cluster event).
	s.cfg.Logger.Printf("service: drain deadline (%v) expired, cancelling in-flight runs", drain)
	s.cancelRuns(errDraining)
	return s.httpSrv.Shutdown(context.Background())
}

// exec runs one compiled scenario through the shared executor (or the
// test override).
func (s *Server) exec(ctx context.Context, w io.Writer, c *scenario.Compiled) (*ExecResult, error) {
	if s.cfg.execOverride != nil {
		return s.cfg.execOverride(ctx, w, c, s.cfg.Workers, s.cfg.Cache)
	}
	return Exec(ctx, w, c, s.cfg.Workers, s.cfg.Cache)
}
