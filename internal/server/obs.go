package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"dkindex/internal/obs"
)

// maxEventsListed bounds how many lifecycle events one /events response
// returns regardless of what the request asks for.
const maxEventsListed = 1000

// Observer returns the observer serving /metrics and /events. The server
// always has one: New adopts the index's observer or attaches a fresh one.
func (s *Server) Observer() *obs.Observer { return s.obs }

// EnablePprof mounts net/http/pprof's profiling handlers under /debug/pprof/.
// Off by default — profiles expose internals, so dkserve gates this behind an
// explicit flag.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// handleMetrics serves the registry in the Prometheus text exposition format.
// Counters and gauges are atomics and the histogram render takes point-in-time
// snapshots, so scraping never contends with the index locks.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.Registry.WritePrometheus(w)
}

// handleEvents serves the retained lifecycle events as JSON, oldest first.
// n= caps the count (default 100); since= returns only events with a larger
// sequence number, so pollers resume where they left off.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 100
	if ns := q.Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("n= must be a non-negative integer"))
			return
		}
		n = v
	}
	n = min(n, maxEventsListed)
	var events []obs.Event
	if ss := q.Get("since"); ss != "" {
		seq, err := strconv.ParseUint(ss, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("since= must be a non-negative integer"))
			return
		}
		events = s.obs.Events.Since(seq, n)
	} else {
		events = s.obs.Events.Recent(n)
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  events,
		"lastSeq": s.obs.Events.LastSeq(),
	})
}

// handleTraces serves the tracer's retained query traces, oldest first. n=
// pages the response down to the newest n traces (default: all retained).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("n= must be a non-negative integer"))
			return
		}
		n = v
	}
	traces := s.obs.Tracer.Recent(n)
	if traces == nil {
		traces = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sampled": s.obs.Counter(obs.TracesSampled).Value(),
		"traces":  traces,
	})
}

// handleSlow serves the slow-query log, slowest first. n= caps the count;
// floorNS is the latency a request must exceed to enter the (full) log, and
// offered counts every request the log has seen.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	n := 0
	if ns := r.URL.Query().Get("n"); ns != "" {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, codeBadQuery, fmt.Errorf("n= must be a non-negative integer"))
			return
		}
		n = v
	}
	entries := s.obs.Slow.Snapshot()
	if n > 0 && n < len(entries) {
		entries = entries[:n]
	}
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slow":    entries,
		"offered": s.obs.Slow.Offered(),
		"floorNS": s.obs.Slow.Floor(),
	})
}
