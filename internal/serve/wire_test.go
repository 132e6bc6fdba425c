package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// wireBatch is a batch of N=50 instances in both modes, with every
// optional field set on some item and extreme gains on one.
func wireBatch(t testing.TB) SolveBatchRequestJSON {
	sc := experiments.Default()
	sc.N = 50
	rng := rand.New(rand.NewSource(1))
	in := SolveBatchRequestJSON{Priority: "bulk"}
	for k := 0; k < 4; k++ {
		s, err := sc.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		req := SolveRequestJSON{System: SystemToJSON(s), DeviceID: fmt.Sprintf("ue-%d", k)}
		req.Weights.W1, req.Weights.W2 = 0.3, 0.7
		switch k {
		case 1:
			req.Mode, req.TotalDeadlineS, req.Solver = "deadline", 120, "scheme1"
		case 2:
			req.JointWeighted = true
		case 3:
			req.System.Devices[0].Gain = -0.0
			req.System.Devices[1].Gain = 5e-324
			req.System.Devices[2].Gain = 1.7976931348623157e308
		}
		in.Requests = append(in.Requests, req)
	}
	return in
}

// TestCanonicalDecodeTakesFastPath pins that what encoding/json emits,
// compact or indented, decodes on the one-pass path to the standard
// library's value, so the differential fuzz target is not passing on the
// fallback alone.
func TestCanonicalDecodeTakesFastPath(t *testing.T) {
	batch := wireBatch(t)
	compact, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "\t", "  "); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"compact": compact, "indented": indented.Bytes(), "trailing": append(compact, " junk"...)} {
		var got, want SolveBatchRequestJSON
		if !decodeCanonical(body, &got) {
			t.Fatalf("%s batch fell back to encoding/json", name)
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s batch decoded differently from encoding/json", name)
		}
	}
	for i, req := range batch.Requests {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got SolveRequestJSON
		if !decodeCanonical(body, &got) || !reflect.DeepEqual(got, req) {
			t.Fatalf("request %d: fast path %v, round trip equal %v", i, decodeCanonical(body, &got), reflect.DeepEqual(got, req))
		}
	}
}

// TestCanonicalDecodeFallsBack pins the bodies the one-pass path must hand
// to encoding/json.
func TestCanonicalDecodeFallsBack(t *testing.T) {
	for _, body := range []string{
		`{"Mode":"deadline"}`,
		`{"unknown":1}`,
		`{"mode":"deadline","mode":"deadline"}`,
		`{"deadline":120}`,
		"{\"mode\":\"dead\x01line\"}",
		"{\"device_id\":\"ue-é\"}",
		`{"mode":null}`,
		`{"total_deadline_s":01}`,
		`{"total_deadline_s":+1}`,
		`{"total_deadline_s":.5}`,
		`{"total_deadline_s":1.}`,
		`{"total_deadline_s":1e309}`,
		`{"total_deadline_s":"60"}`,
		`{"joint_weighted":1}`,
		`{"mode":"deadline",}`,
		`{"mode":"deadline"`,
		`[]`,
		``,
	} {
		var v SolveRequestJSON
		if decodeCanonical([]byte(body), &v) {
			t.Errorf("%q decoded on the fast path", body)
		}
		if !reflect.DeepEqual(v, SolveRequestJSON{}) {
			t.Errorf("%q: fallback left %+v behind", body, v)
		}
	}
	var h struct{ DeviceID string }
	if decodeCanonical([]byte(`{"DeviceID":"x"}`), &h) {
		t.Error("a type outside the solve wire types decoded on the fast path")
	}
}

// TestReadJSONStatus pins ReadJSON's answers: 413 for a body over the
// limit, even after a complete first value, and 400 with the decoder's
// error otherwise.
func TestReadJSONStatus(t *testing.T) {
	for _, tc := range []struct {
		body   string
		limit  int64
		status int
		err    string
	}{
		{`{"mode":"deadline"}`, 64, 0, ""},
		{`{"mode":"deadline"}` + strings.Repeat(" ", 64), 64, http.StatusRequestEntityTooLarge, "http: request body too large"},
		{`{"mode":`, 64, http.StatusBadRequest, "decoding body: unexpected EOF"},
		{``, 64, http.StatusBadRequest, "decoding body: EOF"},
		{`{"mode":7}`, 64, http.StatusBadRequest, "decoding body: json: cannot unmarshal number into Go struct field SolveRequestJSON.mode of type string"},
	} {
		var v SolveRequestJSON
		status, err := ReadJSON(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(tc.body)), tc.limit, &v)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if status != tc.status || got != tc.err {
			t.Errorf("%q: status %d err %q, want %d %q", tc.body, status, got, tc.status, tc.err)
		}
	}
}
