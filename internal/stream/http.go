package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/fl"
	"repro/internal/serve"
)

// NDJSONContentType is the media type of the delta and update streams.
const NDJSONContentType = "application/x-ndjson"

// maxOpenBody bounds the session-opening body (one full system, same limit
// as POST /v1/solve).
const maxOpenBody = 8 << 20

// maxDeltaStream bounds one delta-stream request body. Deltas are tiny, so
// this fits hundreds of thousands of updates per connection; a client
// simply reopens the stream (same session) when it runs out.
const maxDeltaStream = 256 << 20

// OpenResponseJSON is the body of a successful POST /v1/stream.
type OpenResponseJSON struct {
	SessionID string `json:"session_id"`
	// Seq is the session's last applied sequence number (0 at open); the
	// first delta must carry a larger one.
	Seq  uint64 `json:"seq"`
	Cell int    `json:"cell"`
	// Result is the opening solve's outcome.
	Result serve.SolveResponseJSON `json:"result"`
}

// WeightsJSON is the wire form of an objective-weight update.
type WeightsJSON struct {
	W1 float64 `json:"w1"`
	W2 float64 `json:"w2"`
}

// DeltaJSON is one line of the NDJSON delta stream posted to
// POST /v1/stream/{id}/deltas. Gains maps device index to the new absolute
// channel gain.
type DeltaJSON struct {
	Seq            uint64          `json:"seq"`
	Gains          map[int]float64 `json:"gains,omitempty"`
	Weights        *WeightsJSON    `json:"weights,omitempty"`
	TotalDeadlineS *float64        `json:"total_deadline_s,omitempty"`
}

// ToDelta converts the wire form to the native delta.
func (d DeltaJSON) ToDelta() Delta {
	out := Delta{Seq: d.Seq, Gains: d.Gains, TotalDeadline: d.TotalDeadlineS}
	if d.Weights != nil {
		out.Weights = &fl.Weights{W1: d.Weights.W1, W2: d.Weights.W2}
	}
	return out
}

// UpdateJSON is one line of the NDJSON update stream answering a delta. A
// rejected or failed delta carries ok=false and the error; the session (and
// the stream) stays usable unless the error line says otherwise.
type UpdateJSON struct {
	Seq   uint64 `json:"seq"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Cell  int    `json:"cell"`
	// Result carries the allocation plus solve metadata (source,
	// solve_seconds, fingerprint).
	Result *serve.SolveResponseJSON `json:"result,omitempty"`
}

// StatusFor maps streaming errors to HTTP statuses, falling back to the
// serving layer's mapping. Within an NDJSON delta stream, per-delta
// rejections (stale seq, bad delta) are reported as ok=false update lines
// on the already-committed 200 response, not as HTTP statuses; those arms
// exist for callers embedding Apply behind their own one-shot endpoints.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrStaleSeq):
		return http.StatusConflict
	case errors.Is(err, ErrBadDelta):
		return http.StatusBadRequest
	case errors.Is(err, ErrNoSession):
		return http.StatusNotFound
	case errors.Is(err, ErrSessionLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return serve.StatusFor(err)
	}
}

// Handler mounts the streaming API over the backend's base HTTP API:
//
//	POST   /v1/stream              open a session (full SolveRequestJSON)
//	POST   /v1/stream/{id}/deltas  NDJSON deltas in, NDJSON updates out
//	DELETE /v1/stream/{id}         close a session
//	GET    /v1/stats               backend stats + "stream" section
//	GET    /metrics                backend exposition + flstream series
//
// Every other route is delegated to the backend handler, so the wrapped
// handler is a drop-in replacement for it.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", m.handleOpen)
	mux.HandleFunc("POST /v1/stream/{id}/deltas", m.handleDeltas)
	mux.HandleFunc("DELETE /v1/stream/{id}", m.handleClose)
	mux.HandleFunc("GET /v1/stats", m.handleStats)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.Handle("/", m.be.Handler())
	return mux
}

func (m *Manager) handleOpen(w http.ResponseWriter, r *http.Request) {
	var in serve.SolveRequestJSON
	r.Body = http.MaxBytesReader(w, r.Body, maxOpenBody)
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	req, err := serve.RequestFromJSON(in)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sess, upd, err := m.Open(r.Context(), in.DeviceID, req)
	if err != nil {
		httpError(w, StatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, OpenResponseJSON{
		SessionID: sess.ID(),
		Seq:       0,
		Cell:      upd.Cell,
		Result:    serve.ResponseToJSON(upd.Response),
	})
}

// handleDeltas drives one session from an NDJSON request body, answering
// each delta with an NDJSON update line flushed immediately (so a client
// reading with `curl --no-buffer` sees every re-solve as it lands). Rejected
// deltas (stale seq, bad delta) and solver failures produce an ok=false
// line and the stream continues; a vanished session or an undecodable line
// ends it.
func (m *Manager) handleDeltas(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := m.lookup(id); err != nil {
		httpError(w, StatusFor(err), err)
		return
	}
	// A live client interleaves delta writes with update reads on one
	// connection; without full duplex the HTTP/1 server consumes the rest
	// of the request body at the first response write, eating every delta
	// the client has yet to send. Best-effort: a transport that cannot
	// grant it still works for fully-buffered bodies.
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out immediately so a streaming client's Do()
		// returns before the first delta is sent.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	emit := func(u UpdateJSON) {
		_ = enc.Encode(u)
		if flusher != nil {
			flusher.Flush()
		}
	}

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDeltaStream))
	for {
		var dj DeltaJSON
		if err := dec.Decode(&dj); err != nil {
			if !errors.Is(err, io.EOF) {
				emit(UpdateJSON{OK: false, Error: "decoding delta: " + err.Error()})
			}
			return
		}
		// One trace per delta, not per connection: the obs middleware skips
		// this long-lived endpoint, so the lifecycle trace starts here.
		ctx, tr := m.cfg.Trace.StartTrace(r.Context())
		upd, err := m.Apply(ctx, id, dj.ToDelta())
		tr.Finish()
		if err != nil {
			emit(UpdateJSON{Seq: dj.Seq, OK: false, Error: err.Error()})
			if errors.Is(err, ErrNoSession) || errors.Is(err, ErrClosed) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
				r.Context().Err() != nil {
				return
			}
			continue
		}
		rj := serve.ResponseToJSON(upd.Response)
		emit(UpdateJSON{Seq: upd.Seq, OK: true, Cell: upd.Cell, Result: &rj})
	}
}

func (m *Manager) handleClose(w http.ResponseWriter, r *http.Request) {
	sum, err := m.CloseSession(r.PathValue("id"))
	if err != nil {
		httpError(w, StatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// handleStats merges the backend's stats object with the streaming
// counters under a "stream" key, so /v1/stats stays one endpoint whether
// or not the streaming layer is mounted.
func (m *Manager) handleStats(w http.ResponseWriter, _ *http.Request) {
	raw, err := json.Marshal(m.be.StatsPayload())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	sj, err := json.Marshal(m.Stats())
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	obj["stream"] = sj
	writeJSON(w, http.StatusOK, obj)
}

func (m *Manager) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", serve.PromContentType)
	m.be.WriteMetrics(w)
	pw := serve.NewPromWriter(w)
	m.Stats().WritePrometheus(pw, "flstream", "")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
