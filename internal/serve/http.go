package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
)

// DeviceJSON is the wire form of fl.Device.
type DeviceJSON struct {
	Samples         float64 `json:"samples"`
	CyclesPerSample float64 `json:"cycles_per_sample"`
	UploadBits      float64 `json:"upload_bits"`
	Gain            float64 `json:"gain"`
	FMinHz          float64 `json:"f_min_hz"`
	FMaxHz          float64 `json:"f_max_hz"`
	PMinW           float64 `json:"p_min_w"`
	PMaxW           float64 `json:"p_max_w"`
}

// SystemJSON is the wire form of fl.System.
type SystemJSON struct {
	Devices      []DeviceJSON `json:"devices"`
	BandwidthHz  float64      `json:"bandwidth_hz"`
	N0WPerHz     float64      `json:"n0_w_per_hz"`
	Kappa        float64      `json:"kappa"`
	LocalIters   float64      `json:"local_iters"`
	GlobalRounds float64      `json:"global_rounds"`
}

// SolveRequestJSON is the body of POST /v1/solve.
type SolveRequestJSON struct {
	System  SystemJSON `json:"system"`
	Weights struct {
		W1 float64 `json:"w1"`
		W2 float64 `json:"w2"`
	} `json:"weights"`
	// Mode is "weighted" (default) or "deadline".
	Mode string `json:"mode,omitempty"`
	// TotalDeadlineS is the fixed completion time for mode "deadline".
	TotalDeadlineS float64 `json:"total_deadline_s,omitempty"`
	// JointWeighted selects the joint 1-D-over-deadline weighted solver.
	JointWeighted bool `json:"joint_weighted,omitempty"`
	// Solver selects the answering algorithm: "algorithm2" (default),
	// "scheme1" (deadline mode only) or "simplified" (weighted mode only).
	// All run through the same cache/fingerprint pipeline.
	Solver string `json:"solver,omitempty"`
	// DeviceID names the requesting device for cluster routing and
	// cross-cell handoff; a single server ignores it.
	DeviceID string `json:"device_id,omitempty"`
}

// SolveBatchRequestJSON is the body of POST /v1/solve-batch: many solve
// requests decoded, fingerprinted and dispatched in one round trip.
type SolveBatchRequestJSON struct {
	Requests []SolveRequestJSON `json:"requests"`
	// Priority is "bulk" (default: replays queue behind live interactive
	// traffic) or "interactive".
	Priority string `json:"priority,omitempty"`
}

// BatchItemJSON is one item of a batch response, aligned by index with the
// request's items. A failed item carries its error; the others carry a
// normal solve response.
type BatchItemJSON struct {
	OK     bool               `json:"ok"`
	Error  string             `json:"error,omitempty"`
	Result *SolveResponseJSON `json:"result,omitempty"`
}

// SolveBatchResponseJSON is the body of a successful POST /v1/solve-batch.
type SolveBatchResponseJSON struct {
	Results []BatchItemJSON `json:"results"`
}

// SolveResponseJSON is the body of a successful POST /v1/solve.
type SolveResponseJSON struct {
	PowerW        []float64 `json:"power_w"`
	BandwidthHz   []float64 `json:"bandwidth_hz"`
	FreqHz        []float64 `json:"freq_hz"`
	RoundTimeS    float64   `json:"round_time_s"`
	TotalTimeS    float64   `json:"total_time_s"`
	TotalEnergyJ  float64   `json:"total_energy_j"`
	TransEnergyJ  float64   `json:"trans_energy_j"`
	CompEnergyJ   float64   `json:"comp_energy_j"`
	Objective     float64   `json:"objective"`
	Converged     bool      `json:"converged"`
	Iterations    int       `json:"iterations"`
	Source        string    `json:"source"`
	Solver        string    `json:"solver"`
	SolveSeconds  float64   `json:"solve_seconds"`
	FingerprintHx string    `json:"fingerprint"`
	// TraceID names the lifecycle trace this solve was recorded under
	// (also echoed in the X-Trace-Id header; "" when untraced).
	TraceID string `json:"trace_id,omitempty"`
}

// SystemToJSON converts a system to its wire form (used by the load
// generator and tests).
func SystemToJSON(s *fl.System) SystemJSON {
	out := SystemJSON{
		Devices:      make([]DeviceJSON, s.N()),
		BandwidthHz:  s.Bandwidth,
		N0WPerHz:     s.N0,
		Kappa:        s.Kappa,
		LocalIters:   s.LocalIters,
		GlobalRounds: s.GlobalRounds,
	}
	for i, d := range s.Devices {
		out.Devices[i] = DeviceJSON{
			Samples:         d.Samples,
			CyclesPerSample: d.CyclesPerSample,
			UploadBits:      d.UploadBits,
			Gain:            d.Gain,
			FMinHz:          d.FMin,
			FMaxHz:          d.FMax,
			PMinW:           d.PMin,
			PMaxW:           d.PMax,
		}
	}
	return out
}

// SystemFromJSON converts the wire form back to a checked fl.System.
func SystemFromJSON(in SystemJSON) (*fl.System, error) {
	s := &fl.System{
		Devices:      make([]fl.Device, len(in.Devices)),
		Bandwidth:    in.BandwidthHz,
		N0:           in.N0WPerHz,
		Kappa:        in.Kappa,
		LocalIters:   in.LocalIters,
		GlobalRounds: in.GlobalRounds,
	}
	for i, d := range in.Devices {
		s.Devices[i] = fl.Device{
			Samples:         d.Samples,
			CyclesPerSample: d.CyclesPerSample,
			UploadBits:      d.UploadBits,
			Gain:            d.Gain,
			FMin:            d.FMinHz,
			FMax:            d.FMaxHz,
			PMin:            d.PMinW,
			PMax:            d.PMaxW,
		}
	}
	if err := s.Check(); err != nil {
		return nil, err
	}
	return s, nil
}

// RequestFromJSON builds the native request, validating the mode string.
// (Solver validation happens in Solve, where the mode/solver combination
// is checked as a whole.) The cluster router decodes the same wire form
// and routes it through here.
func RequestFromJSON(in SolveRequestJSON) (Request, error) {
	sys, err := SystemFromJSON(in.System)
	if err != nil {
		return Request{}, err
	}
	opts := core.Options{JointWeighted: in.JointWeighted}
	switch in.Mode {
	case "", "weighted":
		opts.Mode = core.ModeWeighted
	case "deadline":
		opts.Mode = core.ModeDeadline
		opts.TotalDeadline = in.TotalDeadlineS
	default:
		return Request{}, fmt.Errorf("unknown mode %q: %w", in.Mode, ErrBadRequest)
	}
	return Request{
		System:  sys,
		Weights: fl.Weights{W1: in.Weights.W1, W2: in.Weights.W2},
		Options: opts,
		Solver:  SolverName(in.Solver),
	}, nil
}

// ResponseToJSON flattens a response into the HTTP wire form (shared with
// the cluster front end, which adds the serving cell).
func ResponseToJSON(resp Response) SolveResponseJSON {
	m := resp.Result.Metrics
	return SolveResponseJSON{
		PowerW:        resp.Result.Allocation.Power,
		BandwidthHz:   resp.Result.Allocation.Bandwidth,
		FreqHz:        resp.Result.Allocation.Freq,
		RoundTimeS:    m.RoundTime,
		TotalTimeS:    m.TotalTime,
		TotalEnergyJ:  m.TotalEnergy,
		TransEnergyJ:  m.TransEnergy,
		CompEnergyJ:   m.CompEnergy,
		Objective:     resp.Result.Objective,
		Converged:     resp.Result.Converged,
		Iterations:    len(resp.Result.Iterations),
		Source:        string(resp.Source),
		Solver:        string(resp.Solver),
		SolveSeconds:  resp.SolveTime.Seconds(),
		FingerprintHx: fmt.Sprintf("%016x", resp.Fingerprint.Exact),
		TraceID:       resp.TraceID,
	}
}

// Handler returns the HTTP API of the server:
//
//	POST /v1/solve        JSON instance in, allocation + metrics out
//	POST /v1/solve-batch  many instances in one body, bulk priority
//	GET  /v1/stats        counter snapshot (JSON)
//	GET  /metrics         the same counters in Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve-batch", s.handleSolveBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// maxSolveBody bounds the /v1/solve request body (8 MiB fits tens of
// thousands of devices) so one oversized POST cannot exhaust memory.
const maxSolveBody = 8 << 20

// maxBatchBody bounds the /v1/solve-batch request body: batches amortize
// a round trip over many instances, so they get a proportionally larger
// ceiling.
const maxBatchBody = 64 << 20

// ParseBatchPriority maps the wire priority to the dispatch priority
// (shared with the cluster front end). Empty means bulk: the batch
// endpoint exists for replays, and replays must not starve live traffic.
func ParseBatchPriority(p string) (Priority, error) {
	switch p {
	case "", "bulk":
		return PriorityBulk, nil
	case "interactive":
		return PriorityInteractive, nil
	default:
		return 0, fmt.Errorf("unknown priority %q: %w", p, ErrBadRequest)
	}
}

// BatchItemToJSON flattens one batch outcome into the wire form (shared
// with the cluster front end).
func BatchItemToJSON(it BatchItem) BatchItemJSON {
	if it.Err != nil {
		return BatchItemJSON{Error: it.Err.Error()}
	}
	rj := ResponseToJSON(it.Response)
	return BatchItemJSON{OK: true, Result: &rj}
}

// DecodedBatch is the decoded ingress of one solve-batch call, shared with
// the cluster front end. Requests and DeviceIDs are aligned with the wire
// items and zero-valued where Errs[i] is non-nil; only the Valid indexes
// are dispatched, so a malformed item fails alone without polluting the
// request/error counters or routing state.
type DecodedBatch struct {
	Requests  []Request
	DeviceIDs []string
	Errs      []error
	Priority  Priority
}

// Valid returns the indexes of the items that decoded.
func (b DecodedBatch) Valid() []int {
	idx := make([]int, 0, len(b.Requests))
	for i, err := range b.Errs {
		if err == nil {
			idx = append(idx, i)
		}
	}
	return idx
}

// ReadBatchRequest decodes a POST /v1/solve-batch body. On an envelope
// error (oversized body, malformed JSON, unknown priority) it writes the
// HTTP error response itself and reports ok = false; per-item decode
// failures land in the result's Errs instead.
func ReadBatchRequest(w http.ResponseWriter, r *http.Request) (DecodedBatch, bool) {
	var in SolveBatchRequestJSON
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, r, http.StatusRequestEntityTooLarge, err)
			return DecodedBatch{}, false
		}
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return DecodedBatch{}, false
	}
	pri, err := ParseBatchPriority(in.Priority)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return DecodedBatch{}, false
	}
	dec := DecodedBatch{
		Requests:  make([]Request, len(in.Requests)),
		DeviceIDs: make([]string, len(in.Requests)),
		Errs:      make([]error, len(in.Requests)),
		Priority:  pri,
	}
	for i, rj := range in.Requests {
		req, err := RequestFromJSON(rj)
		if err != nil {
			dec.Errs[i] = err
			continue
		}
		dec.Requests[i] = req
		dec.DeviceIDs[i] = rj.DeviceID
	}
	return dec, true
}

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	dec, ok := ReadBatchRequest(w, r)
	if !ok {
		return
	}
	valid := dec.Valid()
	sub := make([]Request, len(valid))
	for k, i := range valid {
		sub[k] = dec.Requests[i]
	}
	items := s.SolveBatch(r.Context(), sub, dec.Priority)
	out := SolveBatchResponseJSON{Results: make([]BatchItemJSON, len(dec.Requests))}
	for i, err := range dec.Errs {
		if err != nil {
			out.Results[i] = BatchItemJSON{Error: err.Error()}
		}
	}
	for k, i := range valid {
		out.Results[i] = BatchItemToJSON(items[k])
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var in SolveRequestJSON
	r.Body = http.MaxBytesReader(w, r.Body, maxSolveBody)
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, r, http.StatusRequestEntityTooLarge, err)
			return
		}
		httpError(w, r, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	req, err := RequestFromJSON(in)
	if err != nil {
		httpError(w, r, http.StatusBadRequest, err)
		return
	}
	resp, err := s.Solve(r.Context(), req)
	if err != nil {
		httpError(w, r, StatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, ResponseToJSON(resp))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	pw := NewPromWriter(w)
	s.Stats().WritePrometheus(pw, "flserve", "")
}

// StatusFor maps service errors to HTTP statuses (shared with the cluster
// front end, which layers its own routing errors on top).
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest), errors.Is(err, fl.ErrInvalidSystem),
		errors.Is(err, core.ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInfeasible), errors.Is(err, baselines.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		// A capacity timeout is retryable, unlike a server bug.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away mid-solve; 499 (nginx convention) keeps
		// routine disconnects out of 5xx monitoring.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes the error body and stamps a zero-duration PhaseError
// mark on the request's trace, so error responses are visible in the
// flight recorder and trace dumps even when the solve pipeline never ran.
func httpError(w http.ResponseWriter, r *http.Request, status int, err error) {
	obs.FromContext(r.Context()).RecordAttr(obs.PhaseError, time.Now(),
		obs.Attr{Cell: obs.CellNone, Detail: err.Error(), Value: int64(status)})
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
