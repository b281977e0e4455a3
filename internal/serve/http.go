package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"tends/internal/chaos"
	"tends/internal/graph"
	"tends/internal/obs"
)

// The HTTP surface:
//
//	POST /ingest    {"id":"<uint64>","rows":[[ids...],...]} → ack after fsync
//	GET  /topology  current topology (?format=text for the graph text form)
//	GET  /parents   one node's parents + degradation (?node=i)
//	GET  /rows      every acked row, statuses text format
//	GET  /stats     service gauges + telemetry snapshot
//	GET  /healthz   process liveness
//	GET  /readyz    200 once the topology covers the replayed history
//
// Backpressure contract: a full commit queue is 429 + Retry-After; too many
// in-flight requests, heap pressure, or draining is 503. Acked means
// durable: a 200 from /ingest survives kill -9.

const maxIngestBody = 8 << 20

type ingestRequest struct {
	ID   string    `json:"id"`
	Rows [][]int32 `json:"rows"`
}

type ingestResponse struct {
	Acked     int    `json:"acked"`
	Duplicate bool   `json:"duplicate"`
	Rows      uint64 `json:"rows"`
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /topology", s.handleTopology)
	mux.HandleFunc("GET /parents", s.handleParents)
	mux.HandleFunc("GET /rows", s.handleRows)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.draining.Load()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() || !s.ready.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": s.draining.Load()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// reject emits a backpressure/admission response and counts it.
func (s *Server) reject(w http.ResponseWriter, status int, reason string) {
	rec := obs.From(s.values)
	rec.Counter("serve/ingest/rejected").Inc()
	rec.Counter("serve/ingest/rejected_" + reason).Inc()
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, "rejected: %s", reason)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Admission control runs before any work: concurrency cap, then the
	// sampled heap gate. The queue-row bound is checked at enqueue.
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.reject(w, http.StatusServiceUnavailable, "inflight")
		return
	}
	defer s.inflight.Add(-1)
	if s.heapPressure() {
		s.reject(w, http.StatusServiceUnavailable, "memory")
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	if err := chaos.Maybe(s.values, chaos.SiteIngestDecode); err != nil {
		obs.From(s.values).Counter("serve/ingest/decode_errors").Inc()
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxIngestBody))
	if err := dec.Decode(&req); err != nil {
		obs.From(s.values).Counter("serve/ingest/decode_errors").Inc()
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	id, err := strconv.ParseUint(req.ID, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "batch id %q: %v", req.ID, err)
		return
	}
	rows, err := validateRows(req.Rows, s.cfg.N)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if rows == 0 {
		writeJSON(w, http.StatusOK, ingestResponse{Rows: s.Rows()})
		return
	}

	pb, draining, ok := s.enqueue(batch{id: id, rows: req.Rows}, rows)
	if !ok {
		if draining {
			s.reject(w, http.StatusServiceUnavailable, "draining")
		} else {
			s.reject(w, http.StatusTooManyRequests, "queue")
		}
		return
	}
	select {
	case <-pb.done:
	case <-ctx.Done():
		// The batch stays queued and may still commit; the client retries
		// with the same id and the dedup set makes that exact-once.
		writeError(w, http.StatusServiceUnavailable, "commit wait: %v", ctx.Err())
		return
	}
	if pb.err != nil {
		writeError(w, http.StatusServiceUnavailable, "commit: %v", pb.err)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Acked:     rows,
		Duplicate: pb.dup,
		Rows:      s.Rows(),
	})
}

// topoView captures one epoch's response fields under mu.
type topoView struct {
	Epoch     uint64          `json:"epoch"`
	Rows      uint64          `json:"rows"`
	AckedRows uint64          `json:"acked_rows"`
	Threshold float64         `json:"threshold"`
	Parents   [][]int         `json:"parents"`
	Degraded  []degradedEntry `json:"degraded,omitempty"`
}

type degradedEntry struct {
	Node   int    `json:"node"`
	Reason string `json:"reason"`
}

func (s *Server) topoSnapshot() topoView {
	s.mu.Lock()
	t := s.topo
	acked := uint64(s.buf.Beta())
	s.mu.Unlock()
	view := topoView{
		Epoch:     t.epoch,
		Rows:      t.rows,
		AckedRows: acked,
		Threshold: t.threshold,
		Parents:   t.parents,
	}
	for _, d := range t.degraded {
		view.Degraded = append(view.Degraded, degradedEntry{Node: d.Node, Reason: d.Reason.String()})
	}
	return view
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	view := s.topoSnapshot()
	if r.URL.Query().Get("format") == "text" {
		g := graph.FromParents(s.cfg.N, view.Parents)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := graph.Write(w, g); err != nil {
			s.cfg.Logf("serve: write topology: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleParents(w http.ResponseWriter, r *http.Request) {
	node, err := strconv.Atoi(r.URL.Query().Get("node"))
	if err != nil || node < 0 || node >= s.cfg.N {
		writeError(w, http.StatusBadRequest, "node must be in [0,%d)", s.cfg.N)
		return
	}
	view := s.topoSnapshot()
	parents := []int{}
	if node < len(view.Parents) && view.Parents[node] != nil {
		parents = view.Parents[node]
	}
	reason := ""
	for _, d := range view.Degraded {
		if d.Node == node {
			reason = d.Reason
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node":       node,
		"parents":    parents,
		"epoch":      view.Epoch,
		"rows":       view.Rows,
		"acked_rows": view.AckedRows,
		"degraded":   reason,
	})
}

// handleRows dumps every acked row in the statuses text format — the exact
// bytes a batch `tends` run would consume, which is what the CI smoke test
// diffs against the original workload after a kill -9 restart.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.reject(w, http.StatusServiceUnavailable, "inflight")
		return
	}
	defer s.inflight.Add(-1)
	s.mu.Lock()
	sm := s.buf.Matrix()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := sm.WriteStatus(w); err != nil {
		s.cfg.Logf("serve: write rows: %v", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	acked := uint64(s.buf.Beta())
	epoch := s.topo.epoch
	topoRows := s.topo.rows
	coPairs := s.counts.CoPairs()
	s.mu.Unlock()
	out := map[string]any{
		"acked_rows": acked,
		"epoch":      epoch,
		"topo_rows":  topoRows,
		"stale_rows": acked - topoRows,
		"co_pairs":   coPairs,
		"queue_rows": s.queueRows.Load(),
		"inflight":   s.inflight.Load(),
		"uptime_ok":  true,
	}
	if rec := s.cfg.Recorder; rec != nil {
		out["telemetry"] = rec.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}

// Serve runs the HTTP server until ctx fires, then drains gracefully:
// stop accepting, commit the queue, finish recompute, persist a snapshot.
func (s *Server) Serve(ctx context.Context, addr string) error {
	s.Start()
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logf("serve: draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.Drain(shutCtx)
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil && shutCtx.Err() != nil {
		return fmt.Errorf("%w (budget %v): %v", ErrDrainDeadline, s.cfg.DrainTimeout, drainErr)
	}
	s.cfg.Logf("serve: drained (%d rows acked)", s.Rows())
	return drainErr
}
