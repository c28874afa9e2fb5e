package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/olive-vne/olive/internal/graph"
	"github.com/olive-vne/olive/internal/workload"
)

// EmbedRequest is the body of POST /v1/embed.
type EmbedRequest struct {
	// App indexes the server's application set.
	App int `json:"app"`
	// Ingress is the substrate node the user resides at.
	Ingress int `json:"ingress"`
	// Demand is the request's demand size d(r) (> 0).
	Demand float64 `json:"demand"`
	// Duration is the embedding lifetime T(r) in slots (≥ 1).
	Duration int `json:"duration"`
	// Arrive is the request's arrival slot. Deterministic mode advances
	// the virtual clock with it; real-time mode ignores it and stamps the
	// wall-clock slot.
	Arrive int `json:"arrive,omitempty"`
}

// EmbedResponse is the decision for one embedding request.
type EmbedResponse struct {
	// ID is the server-assigned request handle; DELETE
	// /v1/embeddings/{id} releases it early.
	ID int `json:"id"`
	// Shard is the engine shard that decided the request.
	Shard int `json:"shard"`
	// Slot is the slot the decision was made at.
	Slot int `json:"slot"`
	// Accepted reports admission; Planned whether the allocation came
	// fully out of the residual plan.
	Accepted bool `json:"accepted"`
	Planned  bool `json:"planned"`
	// Cost is the embedding's resource cost per slot (0 when rejected).
	Cost float64 `json:"cost"`
	// Nodes maps each VNF (by index, root first) to its substrate node.
	// It is the decided embedding's own node map: read-only.
	Nodes []graph.NodeID `json:"nodes,omitempty"`
	// Preempted lists request IDs evicted to make room.
	Preempted []int `json:"preempted,omitempty"`
	// LatencyUS is the server-side decision latency in microseconds
	// (submission to the shard to decision, queue wait included).
	LatencyUS int64 `json:"latency_us"`
}

// ReleaseResponse is the body of DELETE /v1/embeddings/{id}.
type ReleaseResponse struct {
	ID       int  `json:"id"`
	Released bool `json:"released"`
}

// Machine-readable error codes of the v1 error envelope. Every non-2xx
// response of a /v1/* route carries exactly one of these.
const (
	ErrCodeBadRequest          = "bad_request"          // 400: malformed body or argument
	ErrCodeNotFound            = "not_found"            // 404: no such embedding
	ErrCodeRateLimited         = "rate_limited"         // 429: admission control refused
	ErrCodeQueueFull           = "queue_full"           // 429: shard queue backpressure
	ErrCodeReplanInProgress    = "replan_in_progress"   // 409: a rebuild is running
	ErrCodeReplanDisabled      = "replan_disabled"      // 409: server built without Replan
	ErrCodeInsufficientHistory = "insufficient_history" // 409: history below MinHistory
	ErrCodeReplanFailed        = "replan_failed"        // 500: rebuild errored
	ErrCodeResizeInProgress    = "resize_in_progress"   // 409: another resize is running
	ErrCodeDraining            = "draining"             // 503: server shutting down
	ErrCodeEngine              = "engine_error"         // 500: engine rejected the op
)

// ErrorBody is the payload of the v1 error envelope: a stable
// machine-readable code, a human-readable message, and — on 429s — the
// Retry-After hint at millisecond resolution.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// errorResponse is the JSON error envelope every non-2xx /v1/* response
// (and /healthz while draining) is normalized onto:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": ...}}
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/embed            submit an embedding request
//	DELETE /v1/embeddings/{id}  release an embedding before it expires
//	GET    /v1/stats            service statistics
//	GET    /v1/plan             plan generation and provenance
//	POST   /v1/admin/replan     trigger a plan rebuild (409 when busy)
//	POST   /v1/admin/resize     grow/shrink the routable shard set
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness (503 while draining)
//
// Every route is wrapped with the request-ID/metrics/access-log
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/embed", s.handleEmbed)
	mux.HandleFunc("DELETE /v1/embeddings/{id}", s.handleRelease)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/admin/replan", s.handleReplan)
	mux.HandleFunc("POST /v1/admin/resize", s.handleResize)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.met.reg.Handler())
	return s.middleware(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the v1 error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeErrorRetry is writeError plus the Retry-After header (seconds,
// rounded up) and the retry_after_ms body field.
func writeErrorRetry(w http.ResponseWriter, status int, code string, retry time.Duration, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)+1))
	writeJSON(w, status, errorResponse{Error: ErrorBody{
		Code:         code,
		Message:      fmt.Sprintf(format, args...),
		RetryAfterMS: retry.Milliseconds(),
	}})
}

// admit registers an in-flight request unless the server is draining.
// The Add-before-check order pairs with Drain's Swap-before-Wait: once
// Drain observes the in-flight count, no handler that passed the check
// can still be unregistered.
func (s *Server) admit() bool {
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		return false
	}
	return true
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		s.shedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	}
	defer s.inflight.Done()

	// Admission control runs before any per-request work (decode,
	// validation, routing): a shed request costs the server almost
	// nothing, which is the point of shedding at the door rather than
	// letting the queues fill.
	if s.limiter != nil {
		if ok, reason, retry := s.limiter.allow(clientKey(r)); !ok {
			switch reason {
			case limitClient:
				s.shedClient.Add(1)
			default:
				s.shedGlobal.Add(1)
			}
			writeErrorRetry(w, http.StatusTooManyRequests, ErrCodeRateLimited, retry,
				"rate limited (%s)", reason)
			return
		}
	}

	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyPool.Put(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
		return
	}
	er, err := decodeEmbedRequest(buf.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
		return
	}
	if er.App < 0 || er.App >= len(s.apps) {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "app %d outside [0,%d)", er.App, len(s.apps))
		return
	}
	if er.Ingress < 0 || er.Ingress >= s.g.NumNodes() {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "ingress %d outside [0,%d)", er.Ingress, s.g.NumNodes())
		return
	}
	if er.Demand <= 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "demand %g must be positive", er.Demand)
		return
	}
	if er.Duration < 1 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "duration %d must be ≥ 1", er.Duration)
		return
	}
	arrive := er.Arrive
	if !s.opts.Deterministic {
		arrive = s.clockSlot()
	} else if arrive < 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "arrive %d must be ≥ 0", arrive)
		return
	}
	if er.Duration > math.MaxInt-arrive {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "duration %d from slot %d overflows the departure slot", er.Duration, arrive)
		return
	}

	id := int(s.nextID.Add(1) - 1)
	req := workload.Request{
		ID:       id,
		App:      er.App,
		Ingress:  graph.NodeID(er.Ingress),
		Demand:   er.Demand,
		Arrive:   arrive,
		Duration: er.Duration,
	}
	sh := s.shardOf(req.Ingress)
	t0 := time.Now()
	res, ok := sh.submit(op{kind: opEmbed, req: req, submitted: t0}, false)
	if !ok {
		writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "shard %d queue full (%d)", sh.idx, sh.depth)
		return
	}
	lat := time.Since(t0)
	if res.err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeEngine, "engine: %v", res.err)
		return
	}
	s.met.reqDur.Observe(lat.Seconds())
	writeEmbedResponse(w, buf, &EmbedResponse{
		ID:        id,
		Shard:     sh.idx,
		Slot:      res.slot,
		Accepted:  res.accepted,
		Planned:   res.planned,
		Cost:      res.cost,
		Nodes:     res.nodes,
		Preempted: res.preempted,
		LatencyUS: lat.Microseconds(),
	})
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		s.shedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	}
	defer s.inflight.Done()

	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad id: %v", err)
		return
	}
	// The ID does not encode its shard; releases probe the shards in
	// order — retired shards included, since they keep serving the
	// embeddings they own — stopping at the owner (IDs are globally
	// unique, so at most one shard holds the embedding). Releases honor
	// the same backpressure as embeds — a full queue answers 429 instead
	// of blocking the handler behind a busy shard; the release ops
	// already executed were no-ops on non-owning shards, so retrying is
	// safe.
	released := false
	for _, sh := range s.allShards() {
		res, ok := sh.submit(op{kind: opRelease, id: id}, false)
		if !ok {
			writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "shard %d queue full (%d)", sh.idx, sh.depth)
			return
		}
		if res.released {
			released = true
			break
		}
	}
	if !released {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "no active embedding %d", id)
		return
	}
	writeJSON(w, http.StatusOK, ReleaseResponse{ID: id, Released: true})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.PlanStatus())
}

// ReplanResponse is the body of a successful POST /v1/admin/replan.
type ReplanResponse struct {
	// Generation is the newly published plan generation.
	Generation int64 `json:"generation"`
	// Classes and HistoryRequests describe the rebuild's input/output.
	Classes         int64 `json:"classes"`
	HistoryRequests int64 `json:"history_requests"`
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	if !s.admit() {
		s.shedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	}
	defer s.inflight.Done()

	gen, err := s.TriggerReplan()
	switch {
	case err == nil:
	case errors.Is(err, ErrReplanDisabled):
		writeError(w, http.StatusConflict, ErrCodeReplanDisabled, "%v", err)
		return
	case errors.Is(err, ErrReplanBusy):
		writeError(w, http.StatusConflict, ErrCodeReplanInProgress, "%v", err)
		return
	case errors.Is(err, ErrInsufficientHistory):
		writeError(w, http.StatusConflict, ErrCodeInsufficientHistory, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeReplanFailed, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReplanResponse{
		Generation:      gen,
		Classes:         s.replan.lastClasses.Load(),
		HistoryRequests: s.replan.lastHistory.Load(),
	})
}

// resizeRequest is the body of POST /v1/admin/resize.
type resizeRequest struct {
	Shards int `json:"shards"`
}

func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	// No admit() here: Resize itself registers with the drain protocol.
	var rr resizeRequest
	if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
		return
	}
	if rr.Shards <= 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "shards %d must be ≥ 1", rr.Shards)
		return
	}
	res, err := s.Resize(rr.Shards)
	switch {
	case err == nil:
	case errors.Is(err, ErrDraining):
		s.shedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	case errors.Is(err, ErrResizeBusy):
		writeError(w, http.StatusConflict, ErrCodeResizeInProgress, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, ErrCodeEngine, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
