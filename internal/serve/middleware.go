package serve

import (
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Request tracing: every HTTP request gets an ID (caller-supplied
// X-Request-ID honored, otherwise generated), echoed back in the
// response header and attached to the structured access-log line. The
// middleware also feeds the HTTP-level metric families; it observes the
// request from outside the handler, so it can never perturb a decision.

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Canonical header keys (textproto.CanonicalMIMEHeaderKey forms), used
// to index header maps directly: Header.Get and Header.Set canonicalize
// "X-Request-ID" into a fresh string on every call.
const (
	requestIDKey = "X-Request-Id"
	clientIDKey  = "X-Client-Id"
)

// reqSeq numbers generated request IDs. Process-wide so IDs stay unique
// across multiple servers in one binary (tests run several).
var reqSeq atomic.Int64

// requestID returns the caller's X-Request-ID as a one-value header
// slice, or mints a sequential one ("req-000042"). Sequential — not
// random — so deterministic-mode runs produce identical logs too, not
// just identical decisions.
func requestID(r *http.Request) []string {
	if ids := r.Header[requestIDKey]; len(ids) > 0 && ids[0] != "" {
		return ids[:1:1]
	}
	var b [24]byte
	id := append(b[:0], "req-"...)
	var d [20]byte
	digits := strconv.AppendInt(d[:0], reqSeq.Add(1), 10)
	for k := len(digits); k < 6; k++ {
		id = append(id, '0')
	}
	return []string{string(append(id, digits...))}
}

// clientKey identifies the client for rate limiting and logging: the
// X-Client-ID header when present, else the remote IP without the port
// (one host, many ephemeral ports, one bucket).
func clientKey(r *http.Request) string {
	if ids := r.Header[clientIDKey]; len(ids) > 0 && ids[0] != "" {
		return ids[0]
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// middleware wraps the API mux with request IDs, HTTP metrics, and the
// optional access log.
func (s *Server) middleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		ids := requestID(r)
		w.Header()[requestIDKey] = ids
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		// The mux records the matched pattern on r; per-pattern labels
		// keep the metric cardinality at the route count, not the URL
		// count. The routes use method and wildcard patterns, which only
		// the Go 1.22 mux matches, and it sets r.Pattern on every match
		// (under GODEBUG=httpmuxgo121=1 no route matches at all).
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(t0)
		s.met.httpReqs.With(route, strconv.Itoa(sw.status)).Inc()
		s.met.httpDur.With(route).Observe(dur.Seconds())
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", ids[0]),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", dur),
				slog.String("client", clientKey(r)),
			)
		}
	})
}
