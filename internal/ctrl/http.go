package ctrl

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// Handler mounts the control-plane API over next, the data-plane handler
// (typically the stream-wrapped cluster handler; any handler exposing
// GET /v1/stats as a JSON object and GET /metrics as a Prometheus text
// exposition composes):
//
//	POST   /v1/cells           add a cell (splice + backfill), report JSON
//	DELETE /v1/cells/{id}      drain + remove a cell, report JSON
//	POST   /v1/cells/{id}/crash  remove WITHOUT draining (failure
//	                           injection)
//	GET    /v1/rebalance/plan  per-cell moved-key counts (dry run)
//	POST   /v1/rebalance       execute the rebalance
//	GET    /v1/stats           next's stats + "ctrl" section
//	GET    /metrics            next's exposition + ctrl_* series
//
// Every other route is delegated to next, so the wrapped handler is a
// drop-in replacement for it. Unknown cell IDs answer the cluster's
// uniform 404 {"error":"unknown_cell","cell":N} body.
func (p *Plane) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		rep, err := p.AddCell(r.Context())
		if err != nil {
			cluster.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("DELETE /v1/cells/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, cluster.ErrorJSON{Error: "malformed cell id " + strconv.Quote(r.PathValue("id"))})
			return
		}
		rep, err := p.DrainCell(r.Context(), id)
		if err != nil {
			cluster.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("POST /v1/cells/{id}/crash", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, cluster.ErrorJSON{Error: "malformed cell id " + strconv.Quote(r.PathValue("id"))})
			return
		}
		rep, err := p.CrashCell(r.Context(), id)
		if err != nil {
			cluster.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /v1/rebalance/plan", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, p.RebalancePlan())
	})
	mux.HandleFunc("POST /v1/rebalance", func(w http.ResponseWriter, r *http.Request) {
		rep, err := p.Rebalance(r.Context())
		if err != nil {
			cluster.WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		p.handleStats(w, r, next)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		p.handleMetrics(w, r, next)
	})
	mux.Handle("/", next)
	return mux
}

// handleStats merges the data plane's stats object with the control
// plane's counters under a "ctrl" key, so /v1/stats stays one endpoint
// however many layers are mounted. The downstream handler is invoked
// in-process through a response recorder (generic over any next handler —
// unlike the stream layer, which can ask its backend for a stats payload
// directly, the control plane only knows next's HTTP face).
func (p *Plane) handleStats(w http.ResponseWriter, r *http.Request, next http.Handler) {
	rec := httptest.NewRecorder()
	next.ServeHTTP(rec, r)
	var obj map[string]json.RawMessage
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &obj) != nil {
		replay(w, rec) // pass an unexpected downstream answer through untouched
		return
	}
	cj, err := json.Marshal(p.Stats())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, cluster.ErrorJSON{Error: err.Error()})
		return
	}
	obj["ctrl"] = cj
	if p.snapshotter != nil {
		if sj, err := json.Marshal(p.snapshotter.Stats()); err == nil {
			obj["snapshot"] = sj
		}
	}
	writeJSON(w, http.StatusOK, obj)
}

// handleMetrics appends the ctrl_* series after the data plane's
// exposition.
func (p *Plane) handleMetrics(w http.ResponseWriter, r *http.Request, next http.Handler) {
	rec := httptest.NewRecorder()
	next.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		replay(w, rec)
		return
	}
	w.Header().Set("Content-Type", serve.PromContentType)
	_, _ = w.Write(rec.Body.Bytes())
	pw := serve.NewPromWriter(w)
	p.Stats().WritePrometheus(pw)
	if p.snapshotter != nil {
		p.snapshotter.Stats().WritePrometheus(pw)
	}
}

// replay copies a recorded downstream answer onto the real writer.
func replay(w http.ResponseWriter, rec *httptest.ResponseRecorder) {
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
