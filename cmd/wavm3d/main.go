// Command wavm3d serves the simulated testbed as a long-lived HTTP
// daemon: POST a scenario spec (or name a library entry) and get back
// exactly the bytes wavm3scen would print for it — the rendering code
// is shared, so golden outputs hold over HTTP too.
//
// Endpoints:
//
//	POST /v1/runs           execute the scenario spec in the body
//	POST /v1/runs?name=X    execute library scenario X (needs -dir)
//	GET  /v1/scenarios      list the loaded library
//	GET  /healthz           liveness (200 while the process is up)
//	GET  /readyz            readiness (503 once draining begins)
//
// Robustness: admission is bounded (-max-concurrent running plus
// -queue waiting; beyond that, 429 with Retry-After), each run is
// bounded by -run-timeout and cancelled the moment its client
// disconnects, and SIGTERM/SIGINT drain gracefully — stop admitting,
// let in-flight runs finish up to -drain, cancel the stragglers, exit 0.
//
// With -cache-dir the run cache gains a persistent tier: completed
// simulations are published as checksummed artefacts in that directory
// and answered from disk on later runs — by this daemon, other
// replicas sharing the directory, or the CLIs. The tier sits behind a
// resilience policy (per-op timeouts, retries, a circuit breaker that
// degrades the daemon to memory-only while the store is sick — see the
// -cache-op-timeout/-cache-retries/-cache-breaker flags), publishes
// asynchronously, and flushes queued publishes during the SIGTERM
// drain. /healthz reports the cache counters (kernel_runs, disk_hits,
// quarantined, breaker_state, …), so a warm replica can be observed
// serving without executing a single kernel, and a replica riding out
// a store outage can be observed doing so without a failed request.
//
// Usage:
//
//	wavm3d -addr :8080 -dir scenarios/ -cache-dir /var/cache/wavm3
//	curl -s --data-binary @scenarios/c1-cpuload-live.json localhost:8080/v1/runs
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/service"
)

func main() {
	logger := log.New(os.Stderr, "wavm3d: ", log.LstdFlags)
	if err := run(logger); err != nil {
		logger.Fatal(err)
	}
}

// run is the daemon's lifetime. Every return after StartProfiles stops
// the profilers and closes the cache, on failure as on success.
func run(logger *log.Logger) (err error) {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		dir     = flag.String("dir", "", "scenario library to serve (enables /v1/scenarios and ?name= runs)")
		maxConc = flag.Int("max-concurrent", 4, "runs executing at once")
		queue   = flag.Int("queue", 8, "runs waiting for a slot; beyond max-concurrent+queue, 429")
		runTO   = flag.Duration("run-timeout", 2*time.Minute, "per-run wall-clock bound (queue wait included)")
		drain   = flag.Duration("drain", 30*time.Second, "SIGTERM grace: how long in-flight runs may finish before being cancelled")
	)
	common := cliflags.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "wavm3d: unexpected argument %q (the daemon takes only flags)\n", flag.Arg(0))
		os.Exit(2)
	}
	// -timeout and -benchjson bound and report a batch session, which a
	// daemon does not have: refuse them instead of silently ignoring them.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" || f.Name == "benchjson" {
			fmt.Fprintf(os.Stderr, "wavm3d: -%s applies to batch commands only; the daemon bounds each run with -run-timeout and reports its counters on /healthz\n", f.Name)
			os.Exit(2)
		}
	})

	cache, err := common.Cache()
	if err != nil {
		return err
	}
	defer cache.Close() // a no-op once the drain has closed it
	stopProf, err := common.StartProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()
	srv, err := service.New(service.Config{
		Addr:           *addr,
		ScenarioDir:    *dir,
		MaxConcurrent:  *maxConc,
		QueueDepth:     *queue,
		RequestTimeout: *runTO,
		Workers:        common.Workers,
		Cache:          cache,
		Logger:         logger,
	})
	if err != nil {
		return err
	}

	// SIGTERM/SIGINT start the drain; a second signal during the drain
	// is not special-cased — the drain deadline already bounds exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() {
		sig := <-sigs
		logger.Printf("received %v, draining (grace %v)", sig, *drain)
		done <- srv.Shutdown(*drain)
	}()

	logger.Printf("serving on %s (library: %q, %d slots + %d queued)", *addr, *dir, *maxConc, *queue)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return err
	}
	logger.Printf("drained, exiting")
	return nil
}
