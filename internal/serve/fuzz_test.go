package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// requestSeeds are raw /v1/solve bodies: the README's, verbatim and
// filled in, and the mode, solver and weight variants.
var requestSeeds = []string{
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
}

// batchItem is one well-formed batch item.
var batchItem = `{"system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5}}`

// batchSeeds are raw /v1/solve-batch bodies, well-formed and not.
var batchSeeds = []string{
	`{"requests":[` + batchItem + `]}`,
	`{"requests":[` + batchItem + `,` + batchItem + `],"priority":"interactive"}`,
	`{"requests":[{"device_id":"ue-7","system":` + readmeSystem + `,"weights":{"w1":0.5,"w2":0.5},"mode":"deadline","total_deadline_s":60}],"priority":"bulk"}`,
	`{"requests":[` + batchItem + `,{"system":` + readmeSystem + `,"weights":{"w1":0.6,"w2":0.6}}]}`,
	`{"requests":[{"system":` + readmeSystem + `,"weights":{"w1":0.9,"w2":0.1},"solver":"scheme1"}]}`,
	`{"requests":[` + batchItem + `],"priority":"sideways"}`,
	`{"requests":[{}]}`,
	`{"requests":null}`,
	`{}`,
	`[]`,
	`{"requests":[`,
}

// readServed decodes data the way POST /v1/solve does: through ReadJSON
// under the single-request limit.
func readServed(data []byte, v any) error {
	_, err := ReadJSON(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(data)), MaxSolveBody, v)
	return err
}

// FuzzRequestFromJSON drives raw request bodies through the /v1/solve
// path: ReadJSON into SolveRequestJSON, RequestFromJSON, then Solve.
// Nothing may panic, and every rejection must map to 400 through
// StatusFor. The baseline solvers run for real, so their infeasibility
// verdict (422) is an answer, not a rejection.
func FuzzRequestFromJSON(f *testing.F) {
	for _, seed := range requestSeeds {
		f.Add([]byte(seed))
	}
	srv := New(Config{Workers: 1, Solver: fuzzSolver, DefaultTimeout: 10 * time.Second})
	f.Cleanup(srv.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var in SolveRequestJSON
		if readServed(data, &in) != nil {
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
	for _, seed := range batchSeeds {
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

// FuzzReadJSON checks the served body reader against encoding/json: every
// body, read through ReadJSON as a single request, as a batch, and
// wrapped as a batch's only item, must decode to the value
// json.Decoder.Decode gives on the same bytes, with the same error text.
// The canonical fast path may only ever agree with the standard library.
func FuzzReadJSON(f *testing.F) {
	for _, seed := range append(append([]string{}, requestSeeds...), batchSeeds...) {
		f.Add([]byte(seed))
	}
	dev := `{"samples":500,"cycles_per_sample":2e4,"upload_bits":2.81e4,"gain":%s,` +
		`"f_min_hz":1e7,"f_max_hz":2e9,"p_min_w":1e-3,"p_max_w":1.585e-2}`
	for _, gain := range []string{"-0", "1e308", "1e309", "5e-324", "01", "+1", ".5", "1.", "1e", "-", "1E+2", "null", `"1"`} {
		f.Add([]byte(`{"system":{"devices":[` + fmt.Sprintf(dev, gain) + `]},"weights":{"w1":0.5,"w2":0.5}}`))
	}
	for _, seed := range []string{
		`{"system":{"Devices":[]}}`,
		`{"mode":"deadline"}`,
		`{"deadline":120,"mode":"deadline"}`,
		`{"Mode":"deadline","total_deadline_s":60}`,
		`{"mode":"dead\u006cine"}`,
		`{"mode":"dead` + "\t" + `line"}`,
		`{"mode":"dead` + "\x01" + `line"}`,
		`{"device_id":"ue-` + "\u00e9" + `"}`,
		`{"device_id":"ue-` + "\xff" + `"}`,
		`{"system":null,"weights":null,"mode":null}`,
		`{"weights":{"w1":null,"w2":0.5}}`,
		`{"mode":"deadline","mode":"weighted"}`,
		`{"system":{"kappa":1e-28,"kappa":2e-28}}`,
		`{"system":{"devices":[{"gain":1}]},"system":{"kappa":1}}`,
		`{"priority":"bulk","priority":"interactive"}`,
		`{"unknown":1,"mode":"deadline"}`,
		`{"system":{"devices":[{"gain":1,"extra":[1,{"a":null}]}]}}`,
		`{"joint_weighted":true}`,
		`{"joint_weighted":false}`,
		`{"joint_weighted":tru}`,
		`{"joint_weighted":1}`,
		`{"requests":[],"priority":"bulk"}`,
		`{"requests":[{"mode":"deadline"},{}]}`,
		`{"requests":[{},]}`,
		`{"system":{"devices":[]}}`,
		" \t\r\n{ \"mode\" : \"deadline\" , \"total_deadline_s\" :\n60 }\n",
		`{"mode":"deadline"} trailing`,
		`{"mode":"deadline"}{"mode":"weighted"}`,
		`{"system":{"devices":[{"gain":1e-10}`,
		`{"mode":"dead`,
		`{"mode"`,
		`{`,
		``,
		`   `,
		`null`,
		`"x"`,
		`{,}`,
		`{"mode":"deadline",}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadJSON[SolveRequestJSON](t, data)
		checkReadJSON[SolveBatchRequestJSON](t, data)
		checkReadJSON[SolveBatchRequestJSON](t, []byte(`{"requests":[`+string(data)+`]}`))
	})
}

// checkReadJSON fails t unless ReadJSON and json.Decoder agree on data as
// a T.
func checkReadJSON[T any](t *testing.T, data []byte) {
	t.Helper()
	var got, want T
	gotErr := readServed(data, &got)
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if wantErr != nil {
		wantErr = fmt.Errorf("decoding body: %w", wantErr)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%T: error %v, encoding/json %v (body %q)", got, gotErr, wantErr, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decoded %+v, encoding/json %+v (body %q)", got, got, want, data)
	}
}
