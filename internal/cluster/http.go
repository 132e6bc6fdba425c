package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// SolveResponseJSON is a solve response plus the cell that served it.
type SolveResponseJSON struct {
	serve.SolveResponseJSON
	Cell int `json:"cell"`
}

// HandoffRequestJSON is the body of POST /v1/handoff.
type HandoffRequestJSON struct {
	DeviceID string `json:"device_id"`
	FromCell int    `json:"from_cell"`
	ToCell   int    `json:"to_cell"`
}

// BatchItemJSON is one item of a routed batch response: the single-server
// item plus the serving cell (meaningful when OK; cell 0 is a real index,
// so no omitempty).
type BatchItemJSON struct {
	serve.BatchItemJSON
	Cell int `json:"cell"`
}

// SolveBatchResponseJSON is the body of a successful POST /v1/solve-batch.
type SolveBatchResponseJSON struct {
	Results []BatchItemJSON `json:"results"`
}

// Handler returns the cluster's HTTP API:
//
//	POST /v1/cells/{id}/solve  solve in an explicit cell (pins the device)
//	POST /v1/solve             solve routed by device_id (pin, else hash)
//	POST /v1/solve-batch       many device-routed solves in one body
//	POST /v1/handoff           migrate a device's cached state across cells
//	GET  /v1/stats             aggregate + per-cell counters (JSON)
//	GET  /metrics              Prometheus text exposition
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, req *http.Request) {
		r.handleSolve(w, req, CellAuto)
	})
	mux.HandleFunc("POST /v1/solve-batch", r.handleSolveBatch)
	mux.HandleFunc("POST /v1/cells/{id}/solve", func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.Atoi(req.PathValue("id"))
		if err != nil {
			httpError(w, req, http.StatusBadRequest, fmt.Errorf("malformed cell id %q", req.PathValue("id")))
			return
		}
		if id < 0 {
			// id < 0 must not fall through: -1 is CellAuto internally, and
			// an explicit URL aliasing to hash routing would mask typos. A
			// well-formed-but-negative id is an unknown cell like any other.
			WriteError(w, UnknownCellError{Cell: id})
			return
		}
		r.handleSolve(w, req, id)
	})
	mux.HandleFunc("POST /v1/handoff", r.handleHandoff)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
}

func (r *Router) handleSolve(w http.ResponseWriter, req *http.Request, cell int) {
	var in serve.SolveRequestJSON
	if status, err := serve.ReadJSON(w, req, serve.MaxSolveBody, &in); err != nil {
		httpError(w, req, status, err)
		return
	}
	sreq, err := serve.RequestFromJSON(in)
	if err != nil {
		httpError(w, req, http.StatusBadRequest, err)
		return
	}
	resp, servedBy, err := r.Solve(req.Context(), cell, in.DeviceID, sreq)
	if err != nil {
		httpError(w, req, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, SolveResponseJSON{
		SolveResponseJSON: serve.ResponseToJSON(resp),
		Cell:              servedBy,
	})
}

func (r *Router) handleSolveBatch(w http.ResponseWriter, req *http.Request) {
	dec, ok := serve.ReadBatchRequest(w, req)
	if !ok {
		return
	}
	valid := dec.Valid()
	sub := make([]serve.Request, len(valid))
	ids := make([]string, len(valid))
	for k, i := range valid {
		sub[k] = dec.Requests[i]
		ids[k] = dec.DeviceIDs[i]
	}
	items, cells := r.SolveBatch(req.Context(), sub, ids, dec.Priority)
	out := SolveBatchResponseJSON{Results: make([]BatchItemJSON, len(dec.Requests))}
	for i, err := range dec.Errs {
		if err != nil {
			out.Results[i] = BatchItemJSON{BatchItemJSON: serve.BatchItemJSON{Error: err.Error()}}
		}
	}
	for k, i := range valid {
		out.Results[i] = BatchItemJSON{BatchItemJSON: serve.BatchItemToJSON(items[k]), Cell: cells[k]}
	}
	writeJSON(w, http.StatusOK, out)
}

func (r *Router) handleHandoff(w http.ResponseWriter, req *http.Request) {
	var in HandoffRequestJSON
	if status, err := serve.ReadJSON(w, req, serve.MaxSolveBody, &in); err != nil {
		httpError(w, req, status, err)
		return
	}
	rep, err := r.Handoff(req.Context(), in.DeviceID, in.FromCell, in.ToCell)
	if err != nil {
		httpError(w, req, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.Stats())
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", serve.PromContentType)
	_ = r.Stats().WritePrometheus(w)
}

// statusFor extends the single-server error mapping with the router's own
// errors. Unknown cells are 404s — the resource genuinely does not exist,
// and every endpoint answers them with the same typed body (see
// WriteError) so clients can branch on one shape.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownCell):
		return http.StatusNotFound
	case errors.Is(err, ErrNoDevice), errors.Is(err, ErrLastCell):
		return http.StatusBadRequest
	default:
		return serve.StatusFor(err)
	}
}

// ErrorJSON is the error body of every cluster (and control-plane)
// endpoint. Unknown-cell errors carry the machine-readable form: Error is
// the fixed code "unknown_cell" and Cell names the offending ID; other
// errors carry their message.
type ErrorJSON struct {
	Error string `json:"error"`
	Cell  *int   `json:"cell,omitempty"`
}

// WriteError writes the uniform JSON error body for err, picking the
// status from the cluster error mapping. Shared by the cluster front end
// and the control plane so an unknown cell looks identical on every
// endpoint: 404 {"error":"unknown_cell","cell":N}.
func WriteError(w http.ResponseWriter, err error) {
	var uc UnknownCellError
	if errors.As(err, &uc) {
		writeJSON(w, http.StatusNotFound, ErrorJSON{Error: "unknown_cell", Cell: &uc.Cell})
		return
	}
	writeJSON(w, statusFor(err), ErrorJSON{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes the error body and stamps a zero-duration PhaseError
// mark on the request's trace, so errored requests surface in the flight
// recorder with their error string attached.
func httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	obs.FromContext(r.Context()).RecordAttr(obs.PhaseError, time.Now(),
		obs.Attr{Cell: obs.CellNone, Detail: err.Error(), Value: int64(status)})
	var uc UnknownCellError
	if errors.As(err, &uc) {
		WriteError(w, err)
		return
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
