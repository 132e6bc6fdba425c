package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
)

// readmeDevice is one device with the README's realistic magnitudes.
const readmeDevice = `{"samples":500,"cycles_per_sample":2e4,"upload_bits":2.81e4,"gain":1e-10,` +
	`"f_min_hz":1e7,"f_max_hz":2e9,"p_min_w":1e-3,"p_max_w":1.585e-2}`

// readmeSystem is the README's system body with its "devices: [ ... ]"
// placeholder filled in.
var readmeSystem = `{"devices":[` + readmeDevice + `,` + readmeDevice + `],` +
	`"bandwidth_hz":2e7,"n0_w_per_hz":4e-21,"kappa":1e-28,"local_iters":10,"global_rounds":400}`

// fuzzSolver stands in for Algorithm 2: it applies core.Optimize's input
// checks and answers with the max-resource allocation, so the fuzz target
// exercises decoding, validation and the serving pipeline without paying
// for solves.
func fuzzSolver(s *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
	if err := s.Check(); err != nil {
		return core.Result{}, err
	}
	if err := w.Check(); err != nil {
		return core.Result{}, err
	}
	if o.Mode == core.ModeDeadline && !(o.TotalDeadline > 0) {
		return core.Result{}, fmt.Errorf("deadline mode needs a positive total deadline: %w", core.ErrBadInput)
	}
	return core.Result{Allocation: s.MaxResourceAllocation(), Converged: true}, nil
}

// FuzzRequestFromJSON drives raw request bodies through the /v1/solve
// path: json.Unmarshal into SolveRequestJSON, RequestFromJSON, then Solve.
// Nothing may panic, and every rejection must map to 400 through
// StatusFor. The baseline solvers run for real, so their infeasibility
// verdict (422) is an answer, not a rejection.
func FuzzRequestFromJSON(f *testing.F) {
	for _, seed := range []string{
		// The README's request bodies, verbatim (placeholders included)...
		`{
  "system": { "devices": [ ... ], "bandwidth_hz": 2e7, "n0_w_per_hz": 4e-21,
              "kappa": 1e-28, "local_iters": 10, "global_rounds": 400 },
  "weights": {"w1": 0.5, "w2": 0.5}
}`,
		`{"device_id": "ue-7", "system": {...}, "weights": {"w1": 0.5, "w2": 0.5}}`,
		// ...and with the placeholders filled in.
		`{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5}}`,
		`{"device_id":"ue-7","system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5}}`,
		`{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5},"mode":"deadline","total_deadline_s":60}`,
		`{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5},"mode":"deadline","total_deadline_s":60,"solver":"scheme1"}`,
		`{"system":` + readmeSystem + `,"weights":{"w1":0.9,"w2":0.1},"solver":"simplified"}`,
		`{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5},"joint_weighted":true}`,
		`{"system":` + readmeSystem + `,"weights":{"w1":0.6,"w2":0.6}}`,
		`{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5},"mode":"sideways"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{Workers: 1, Solver: fuzzSolver, DefaultTimeout: 10 * time.Second})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in SolveRequestJSON
		if json.Unmarshal(data, &in) != nil {
			return // the handler answers undecodable bodies 400 itself
		}
		req, err := RequestFromJSON(in)
		if err == nil {
			_, err = srv.Solve(context.Background(), req)
		}
		if err == nil {
			return
		}
		status := StatusFor(err)
		if status == http.StatusUnprocessableEntity && req.Solver.normalize() != SolverAlgorithm2 {
			return
		}
		if status != http.StatusBadRequest {
			t.Fatalf("rejection %v maps to %d, want 400 (body %s)", err, status, strings.TrimSpace(string(data)))
		}
	})
}

// FuzzReadBatchRequest drives raw bodies through the /v1/solve-batch
// decoder, then dispatches the items that decoded. Nothing may panic; an
// envelope rejection answers 4xx; a per-item rejection or solve failure
// maps to 400 (422 for a baseline solver's infeasibility verdict), as the
// same item alone on /v1/solve would.
func FuzzReadBatchRequest(f *testing.F) {
	item := `{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5}}`
	for _, seed := range []string{
		`{"requests":[` + item + `]}`,
		`{"requests":[` + item + `,` + item + `],"priority":"interactive"}`,
		`{"requests":[{"device_id":"ue-7","system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5},"mode":"deadline","total_deadline_s":60}],"priority":"bulk"}`,
		`{"requests":[` + item + `,{"system":` + readmeSystem + `,"weights":{"w1":0.6,"w2":0.6}}]}`,
		`{"requests":[{"system":` + readmeSystem + `,"weights":{"w1":0.9,"w2":0.1},"solver":"scheme1"}]}`,
		`{"requests":[` + item + `],"priority":"sideways"}`,
		`{"requests":[{}]}`,
		`{"requests":null}`,
		`{}`,
		`[]`,
		`{"requests":[`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{Workers: 1, Solver: fuzzSolver, DefaultTimeout: 10 * time.Second})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		dec, ok := ReadBatchRequest(rec, httptest.NewRequest(http.MethodPost, "/v1/solve-batch", bytes.NewReader(data)))
		if !ok {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("envelope rejection answered %d, want 4xx (body %s)", rec.Code, strings.TrimSpace(string(data)))
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted batch wrote a response: %s", rec.Body.String())
		}
		n := len(dec.Requests)
		if len(dec.DeviceIDs) != n || len(dec.Errs) != n {
			t.Fatalf("misaligned decode: %d requests, %d device IDs, %d errors", n, len(dec.DeviceIDs), len(dec.Errs))
		}
		for i, err := range dec.Errs {
			if err != nil && StatusFor(err) != http.StatusBadRequest {
				t.Fatalf("item %d rejection %v maps to %d, want 400", i, err, StatusFor(err))
			}
			if err == nil && dec.Requests[i].System == nil {
				t.Fatalf("item %d decoded without a system", i)
			}
		}
		valid := dec.Valid()
		sub := make([]Request, len(valid))
		for k, i := range valid {
			sub[k] = dec.Requests[i]
		}
		for k, it := range srv.SolveBatch(context.Background(), sub, dec.Priority) {
			if it.Err == nil {
				continue
			}
			status := StatusFor(it.Err)
			if status == http.StatusUnprocessableEntity && sub[k].Solver.normalize() != SolverAlgorithm2 {
				continue
			}
			if status != http.StatusBadRequest {
				t.Fatalf("item %d failure %v maps to %d, want 400", valid[k], it.Err, status)
			}
		}
	})
}
