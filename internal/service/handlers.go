package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// statusClientClosedRequest is nginx's 499: the client went away before
// the response. Nobody receives it, but access logs should not claim a
// disconnect was a server error.
const statusClientClosedRequest = 499

// Handler builds the daemon's route table wrapped in the panic-recovery
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/runs", s.handleRuns)
	return recoverPanics(s.cfg.Logger, mux)
}

// handleHealthz reports liveness: the process is up, even while
// draining (a draining daemon is healthy, just not ready). The payload
// doubles as the daemon's metrics surface for the run cache — its
// sim.CacheStats, beside whether it has a persistent tier — so
// operators and CI can read hit rates and kernel-run counts without a
// separate metrics stack. KernelRuns is the operational headline: a
// warm daemon over a shared cache dir serves with it stuck at the
// simulations only it has seen first.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type cacheBlock struct {
		sim.CacheStats
		Persistent bool `json:"persistent"`
	}
	out := struct {
		Status string      `json:"status"`
		Cache  *cacheBlock `json:"cache,omitempty"`
	}{Status: "ok"}
	if c := s.cfg.Cache; c != nil {
		out.Cache = &cacheBlock{c.Snapshot(), c.Persistent()}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReadyz reports readiness: 200 while admitting, 503 once drain
// begins — the signal load balancers use to stop routing before the
// listener actually closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// scenarioEntry is one GET /v1/scenarios listing row.
type scenarioEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Form        string `json:"form"`
	Hosts       int    `json:"hosts,omitempty"`
	Phases      int    `json:"phases,omitempty"`
}

// handleScenarios lists the loaded library in name order.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	out := make([]scenarioEntry, 0, len(s.library))
	for _, in := range s.library {
		e := scenarioEntry{Name: in.Name, Description: in.Description, Form: "migration",
			Hosts: in.Cluster, Phases: in.Phases}
		switch {
		case in.Datacenter:
			e.Form = "datacenter"
		case in.Cluster > 0:
			e.Form = "cluster"
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, struct {
		Scenarios []scenarioEntry `json:"scenarios"`
	}{out})
}

// handleRuns executes one scenario — the request body as a strict spec,
// or a library entry via ?name= with an empty body — and answers with
// the exact bytes wavm3scen would print for it. The run is admitted
// through the bounded queue and executes under a context that ends on
// client disconnect, per-request deadline or daemon drain, whichever
// comes first. Only the body's JSON is checked before admission; the
// spec is checked and lowered once, inside the slot, so a saturated
// daemon rejects a request without compiling it. A library entry was
// compiled at start-up, so a ?name= run compiles nothing.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, apiError{
			Code: codeDraining, Message: "daemon is draining; not admitting new runs",
		})
		return
	}
	compiled, spec, ok := s.decodeRunRequest(w, r)
	if !ok {
		return
	}

	// The run context: request (disconnect) + deadline + drain. The
	// deadline covers queue wait too — time spent waiting for a slot is
	// latency the client experiences.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.runsCtx, func() { cancel(errDraining) })
	defer stop()
	runCtx, cancelT := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancelT()

	release, err := s.adm.acquire(runCtx)
	if err != nil {
		if errors.Is(err, errSaturated) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RequestTimeout)))
			writeError(w, http.StatusTooManyRequests, apiError{
				Code: codeOverloaded,
				Message: fmt.Sprintf("admission queue full (%d running + %d queued); retry later",
					s.cfg.MaxConcurrent, s.cfg.QueueDepth),
			})
			return
		}
		s.writeRunFailure(w, runCtx, spec.Name, err)
		return
	}
	defer release()

	// Check and lower a posted spec inside the slot, under the request
	// deadline. Compile is the spec's only check, so a body whose values
	// are wrong fails here with its field path.
	if compiled == nil {
		if compiled, err = spec.Compile(); err != nil {
			writeError(w, http.StatusUnprocessableEntity, scenarioAPIError(err))
			return
		}
	}

	// Buffer the rendering so failures yield a clean JSON error, never
	// a half-written report.
	var buf bytes.Buffer
	if _, err := s.exec(runCtx, &buf, compiled); err != nil {
		s.writeRunFailure(w, runCtx, spec.Name, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// decodeRunRequest resolves the request to its spec: a strictly decoded
// JSON body, not yet validated (handleRuns compiles it once admitted),
// or, when ?name= is given with no body, a library entry with its
// compiled form, which is nil for a body. On failure it writes the
// error response and returns ok=false.
func (s *Server) decodeRunRequest(w http.ResponseWriter, r *http.Request) (*scenario.Compiled, *scenario.Spec, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, apiError{Code: code, Message: fmt.Sprintf("reading request body: %v", err)})
		return nil, nil, false
	}
	if name := r.URL.Query().Get("name"); name != "" {
		if len(body) > 0 {
			writeError(w, http.StatusBadRequest, apiError{
				Code: codeInvalidRequest, Message: "pass either ?name= or a spec body, not both",
			})
			return nil, nil, false
		}
		c, ok := s.byName[name]
		if !ok {
			writeError(w, http.StatusNotFound, apiError{
				Code: codeNotFound, Message: fmt.Sprintf("no library scenario named %q", name), Scenario: name,
			})
			return nil, nil, false
		}
		return c, c.Spec, true
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, apiError{
			Code: codeInvalidRequest, Message: "empty body; POST a scenario spec or pass ?name=",
		})
		return nil, nil, false
	}
	spec, err := scenario.Decode("(request)", body)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, scenarioAPIError(err))
		return nil, nil, false
	}
	return nil, spec, true
}

// scenarioAPIError maps a scenario load/validate failure onto the JSON
// envelope, carrying the field path when the error is a *scenario.Error.
func scenarioAPIError(err error) apiError {
	e := apiError{Code: codeInvalidScenario, Message: err.Error()}
	var serr *scenario.Error
	if errors.As(err, &serr) {
		e.Scenario, e.Path = serr.Scenario, serr.Path
	}
	return e
}

// writeRunFailure classifies a run error into the status the client can
// act on: its own deadline (504), its own disconnect (499, unseen),
// the daemon draining mid-run (503), its own spec, which asked for a
// move the run could not make (422 with the move's path), or a genuine
// failure (500).
func (s *Server) writeRunFailure(w http.ResponseWriter, runCtx context.Context, name string, err error) {
	var serr *scenario.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, apiError{
			Code: codeDeadline, Message: fmt.Sprintf("run exceeded the request timeout (%v)", s.cfg.RequestTimeout), Scenario: name,
		})
	case errors.Is(context.Cause(runCtx), errDraining):
		writeError(w, http.StatusServiceUnavailable, apiError{
			Code: codeDraining, Message: "run cancelled: daemon drain deadline expired", Scenario: name,
		})
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, apiError{
			Code: codeInvalidRequest, Message: "client closed the request", Scenario: name,
		})
	case errors.As(err, &serr):
		writeError(w, http.StatusUnprocessableEntity, scenarioAPIError(err))
	default:
		s.cfg.Logger.Printf("service: run %s failed: %v", name, err)
		writeError(w, http.StatusInternalServerError, apiError{
			Code: codeInternal, Message: fmt.Sprintf("run failed: %v", err), Scenario: name,
		})
	}
}

// retryAfterSeconds estimates a polite retry interval from the request
// timeout: a quarter of it, at least one second — long enough for a
// slot to plausibly free, short enough to keep clients responsive.
func retryAfterSeconds(timeout time.Duration) int {
	sec := int(timeout.Seconds() / 4)
	if sec < 1 {
		sec = 1
	}
	return sec
}
