package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/dtrace"
)

// decodeSimRequest parses a POST /v1/sims body. Factored out of the handler
// so the fuzz harness exercises the exact decode path the daemon runs on
// arbitrary network input.
func decodeSimRequest(r io.Reader) (SimRequest, error) {
	var req SimRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return SimRequest{}, err
	}
	return req, nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sims", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	if s.cluster != nil {
		// Peer-facing endpoints: membership gossip, state, and owner-routed
		// simulation, which answers a cached key without simulating.
		ch := s.cluster.Handler()
		mux.Handle("POST "+cluster.PathHeartbeat, ch)
		mux.Handle("GET "+cluster.PathState, ch)
		mux.HandleFunc("POST /v1/cluster/sim", s.handleClusterSim)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.httpRequests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSimRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad request body: " + err.Error()})
		return
	}
	// A traceparent header parents every server-side span of this batch
	// under the caller's trace; Extract degrades malformed values to
	// untraced rather than corrupting the trace identity.
	tsc, _ := dtrace.Extract(r.Header)
	j, err := s.submit(req, tsc)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back rather than
		// buffering unbounded work.
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.cancelJob(id) {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	j, _ := s.lookup(id)
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleEvents streams a job's lifecycle as Server-Sent Events. The stream
// replays the job's full history (every stream starts at seq 1), follows
// live updates, and ends after the terminal event — so a subscriber that
// connects at any point observes the same ordered sequence:
// queued, running, progress×N, then done/failed/canceled.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{"streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	idx := 0
	for {
		j.mu.Lock()
		for idx < len(j.events) {
			e := j.events[idx]
			idx++
			j.mu.Unlock()
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
			fl.Flush()
			if e.Terminal() {
				return
			}
			j.mu.Lock()
		}
		ch := j.changed
		j.mu.Unlock()
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// handleFlight serves the node's span flight recorder as JSONL, one SpanData
// per line, oldest-first. Query parameters filter the dump:
//
//	?trace=<32 hex>  only spans of that trace
//	?errors=1        only failed spans
//	?limit=N         the newest N spans after the other filters
//
// 404 when the daemon runs without a recorder (Config.Flight nil).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Flight == nil {
		writeJSON(w, http.StatusNotFound, apiError{"flight recorder disabled"})
		return
	}
	f := dtrace.Filter{Trace: r.URL.Query().Get("trace")}
	if v := r.URL.Query().Get("errors"); v == "1" || v == "true" {
		f.ErrorsOnly = true
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{"bad limit"})
			return
		}
		f.Limit = n
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	_ = s.cfg.Flight.WriteJSONL(w, f)
}
