package service

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
)

// apiError is the JSON error envelope every non-2xx wavm3d response
// carries: a stable machine-readable code, a human message, and — for
// scenario validation failures — the scenario name and field path from
// the *scenario.Error, so clients can point at the offending field
// without parsing prose.
type apiError struct {
	Code     string `json:"code"`
	Message  string `json:"message"`
	Scenario string `json:"scenario,omitempty"`
	Path     string `json:"path,omitempty"`
}

// Stable error codes (the JSON contract; messages may change, codes
// must not).
const (
	codeInvalidRequest  = "invalid_request"  // 400: unreadable body, bad route parameter
	codeInvalidScenario = "invalid_scenario" // 422: body decoded but failed scenario validation
	codeNotFound        = "not_found"        // 404: unknown route or library scenario
	codeOverloaded      = "overloaded"       // 429: admission queue full
	codeDeadline        = "deadline_exceeded"
	codeDraining        = "draining" // 503: daemon is shutting down
	codeInternal        = "internal" // 500: handler panic or unexpected failure
)

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// writeError writes the structured error envelope.
func writeError(w http.ResponseWriter, status int, e apiError) {
	writeJSON(w, status, struct {
		Error apiError `json:"error"`
	}{e})
}

// recoverPanics is the outermost middleware: a panicking handler
// becomes a structured 500 plus a logged stack trace instead of a torn
// connection taking the daemon down. Recovery is per-request — other
// in-flight requests are untouched.
func recoverPanics(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			// http.ErrAbortHandler is the stdlib's own "drop this
			// connection" signal; re-raising keeps that contract.
			if v == http.ErrAbortHandler {
				panic(v)
			}
			logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			// Run output is buffered until success, so the header is
			// still writable unless the panic hit mid-copy; in that
			// case WriteHeader is a logged no-op and the client sees a
			// truncated body — the honest outcome.
			writeError(w, http.StatusInternalServerError, apiError{
				Code:    codeInternal,
				Message: fmt.Sprintf("internal error: %v", v),
			})
		}()
		next.ServeHTTP(w, r)
	})
}
