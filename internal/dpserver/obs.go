package dpserver

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"dptrace/internal/core"
	"dptrace/internal/dpserver/api"
	"dptrace/internal/obs"
	"dptrace/internal/obs/qlog"
)

// This file is the server's observability surface: per-endpoint
// request metrics, the Prometheus scrape endpoint, and the health and
// readiness probes — all owner-facing routes. None of it exposes
// record data — only operational metadata and the budget ledger the
// data owner already governs by.

// Metrics returns the server's metrics registry, for embedding
// servers that want to add their own series or scrape in-process.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// HandlerOption configures Handler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	pprof bool
}

// WithPprof mounts net/http/pprof under /debug/pprof/. Profiles can
// reveal operational detail (goroutine stacks, allocation sites), so
// it is opt-in; enable it behind the same owner-only ingress as
// /audit.
func WithPprof() HandlerOption {
	return func(c *handlerConfig) { c.pprof = true }
}

// statusWriter captures the response code for request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one endpoint with a request counter and a latency
// histogram, labeled by endpoint and response code:
//
//	dpserver_requests_total{endpoint="/v1/query",code="200"}
//	dpserver_request_seconds{endpoint="/v1/query"}
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.Counter("dpserver_requests_total",
			"endpoint", endpoint, "code", strconv.Itoa(sw.code)).Inc()
		s.metrics.Histogram("dpserver_request_seconds", obs.DurationBuckets(),
			"endpoint", endpoint).Observe(time.Since(start).Seconds())
	}
}

// recoverPanics is the outermost middleware on every endpoint: a
// handler panic becomes a 500 {code:"internal"} envelope and a
// dp_panics_total{site} increment instead of a dead process. The
// engine's own guards (runWorkers, recoverAgg) normally convert panics
// to core.ErrInternal before they reach here; this is the backstop for
// handler-level bugs. http.ErrAbortHandler is re-raised — it is the
// stdlib's sanctioned way to abort a response and net/http handles it
// quietly.
func (s *Server) recoverPanics(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			site := strings.TrimPrefix(r.URL.Path, "/v1")
			s.metrics.Counter("dp_panics_total", "site", site).Inc()
			msg := "internal error (recovered panic)"
			if wp, ok := rec.(*core.WorkerPanic); ok {
				msg = wp.Error()
			}
			s.events.Log(qlog.Error, "panic_recovered",
				qlog.F("site", site),
				qlog.F("method", r.Method),
				qlog.F("path", r.URL.Path),
				qlog.F("panic", fmt.Sprint(rec)),
				qlog.F("stack", string(debug.Stack())))
			// The handler may have already written a header; if so this
			// write fails harmlessly and the client sees a torn body.
			writeError(w, http.StatusInternalServerError, apiError{
				Code: codeInternal, Message: msg,
			})
		}()
		h(w, r)
	}
}

// handleReadyz serves GET /v1/readyz (api.ReadyStatus): readiness,
// distinct from /healthz liveness. A degraded server (frozen or
// degraded ledger, or a drain in progress) is alive — read-only
// endpoints serve — but not ready for spending traffic, so load
// balancers should stop routing new analyst queries to it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	repl := s.replReadyStatus()
	var role string
	if repl != nil {
		role = repl.Role
	}
	switch cause := s.spendRefusal(); {
	case s.isDraining():
		writeJSON(w, http.StatusServiceUnavailable, api.ReadyStatus{
			Status: "draining", Role: role, Repl: repl,
		})
	case repl != nil && repl.Role == "follower":
		// A warm standby: alive and replicating, but not ready for
		// spending traffic until promoted. The lag field is the
		// operator's promote-safety signal (0 = fully caught up).
		writeJSON(w, http.StatusServiceUnavailable, api.ReadyStatus{
			Status: "follower", Role: role, Repl: repl,
			Reason: "read-only standby; POST /v1/admin/promote to take over",
		})
	case cause != nil:
		writeJSON(w, http.StatusServiceUnavailable, api.ReadyStatus{
			Status: "ledger_refused", Reason: cause.Error(),
			Role: role, Repl: repl,
		})
	default:
		writeJSON(w, http.StatusOK, api.ReadyStatus{
			Ready: true, Status: "ready", Role: role, Repl: repl,
		})
	}
}

// handleMetrics serves the registry in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handleHealthz serves GET /v1/healthz (api.HealthStatus). It always
// answers 200 while the process lives — liveness, not readiness (see
// /readyz): a degraded server still serves its read-only surface, and
// restarting it would not help.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.datasets)
	s.mu.RUnlock()
	h := api.HealthStatus{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Datasets:      n,
		Goroutines:    runtime.NumGoroutine(),
		AuditEntries:  len(s.ledger.Audit()),
	}
	// Role-based shedding (follower, quorum) is /readyz's concern;
	// liveness only flags actual ledger damage.
	if cause := s.ledger.Refusing(); cause != nil {
		h.Status = "degraded"
		h.Degraded = true
		h.LedgerError = cause.Error()
	}
	writeJSON(w, http.StatusOK, h)
}

// attachPprof mounts the standard profiling handlers.
func attachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
