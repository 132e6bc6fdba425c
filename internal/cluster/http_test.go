package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fl"
	"repro/internal/serve"
)

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func solveBody(s *fl.System, deviceID string) serve.SolveRequestJSON {
	req := serve.SolveRequestJSON{System: serve.SystemToJSON(s), DeviceID: deviceID}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	return req
}

func TestHTTPExplicitCellAndHandoff(t *testing.T) {
	r := testRouter(t, 3)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	s := testSystem(t, 6, 11)
	req := solveBody(s, "ue-7")

	// Solve explicitly in cell 1.
	resp, body := postJSON(t, ts.URL+"/v1/cells/1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit solve: status %d: %s", resp.StatusCode, body)
	}
	var out SolveResponseJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cell != 1 || out.Source != "cold" {
		t.Fatalf("explicit solve: cell %d source %q, want 1/cold", out.Cell, out.Source)
	}

	// Handoff 1 -> 2 over HTTP.
	resp, body = postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{DeviceID: "ue-7", FromCell: 1, ToCell: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: status %d: %s", resp.StatusCode, body)
	}
	var rep HandoffReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.MigratedResults != 1 {
		t.Fatalf("handoff migrated %d results, want 1: %+v", rep.MigratedResults, rep)
	}

	// Routed replay: destination cell 2 serves from its (migrated) cache.
	resp, body = postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed replay: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cell != 2 || out.Source != "cache" {
		t.Fatalf("post-handoff replay: cell %d source %q, want 2/cache", out.Cell, out.Source)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	r := testRouter(t, 2)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	for name, do := range map[string]func() (*http.Response, []byte){
		"bad cell id": func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/cells/nope/solve", solveBody(testSystem(t, 4, 1), ""))
		},
		"handoff no device": func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{FromCell: 0, ToCell: 1})
		},
	} {
		resp, body := do()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed json: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPOversizeBodies413 pins that every body-limited route answers a
// body over the limit with 413, the handoff route included, and also when
// the body opens with a complete value.
func TestHTTPOversizeBodies413(t *testing.T) {
	r := testRouter(t, 2)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	pad := strings.Repeat(" ", serve.MaxSolveBody)
	handoff := `{"device_id":"d","from_cell":0,"to_cell":1}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/solve", `{"device_id":"` + strings.Repeat("x", serve.MaxSolveBody) + `"}`},
		{"/v1/cells/0/solve", `{"mode":"deadline"}` + pad},
		{"/v1/handoff", `{"device_id":"` + strings.Repeat("x", serve.MaxSolveBody) + `"}`},
		{"/v1/handoff", handoff + pad},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, %d-byte body: status %d, want 413 (%s)", tc.path, len(tc.body), resp.StatusCode, body)
		}
	}
}

// TestHTTPUnknownCellTyped404 pins the uniform unknown-cell contract:
// every endpoint that takes a cell ID answers a well-formed ID that is not
// a member with 404 and the machine-readable {"error":"unknown_cell",
// "cell":N} body — the same shape everywhere, so clients branch on one
// code instead of parsing per-endpoint prose.
func TestHTTPUnknownCellTyped404(t *testing.T) {
	r := testRouter(t, 2)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		do   func() (*http.Response, []byte)
		cell int
	}{
		"explicit solve, out of range": {func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/cells/9/solve", solveBody(testSystem(t, 4, 1), ""))
		}, 9},
		"explicit solve, negative must not alias CellAuto": {func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/cells/-1/solve", solveBody(testSystem(t, 4, 1), ""))
		}, -1},
		"handoff, unknown destination": {func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{DeviceID: "d", FromCell: 0, ToCell: 7})
		}, 7},
		"handoff, unknown source": {func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{DeviceID: "d", FromCell: -3, ToCell: 1})
		}, -3},
	} {
		resp, body := tc.do()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404 (%s)", name, resp.StatusCode, body)
			continue
		}
		var e ErrorJSON
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: undecodable error body %q: %v", name, body, err)
			continue
		}
		if e.Error != "unknown_cell" || e.Cell == nil || *e.Cell != tc.cell {
			t.Errorf("%s: body %s, want {\"error\":\"unknown_cell\",\"cell\":%d}", name, body, tc.cell)
		}
	}
}

// TestHTTPIntegrationLoadWithMigration is the acceptance scenario: an
// N-cell router under a migrating replay load. Every handoff is
// immediately followed by a replay and a drifted solve in the destination
// cell; the replay must be a cache hit and the drifted solve a cold solve
// pinned there, and /v1/stats must report per-cell counters consistent
// with the aggregate rollup.
func TestHTTPIntegrationLoadWithMigration(t *testing.T) {
	const cells = 3
	r := testRouter(t, cells)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(13))
	type ue struct {
		base *fl.System
		body serve.SolveRequestJSON
		cell int
	}
	ues := make([]*ue, 4)
	for i := range ues {
		base := testSystem(t, 5, int64(20+i))
		u := &ue{base: base, body: solveBody(base, fmt.Sprintf("ue-%d", i))}
		// First contact: routed solve, remember the serving cell.
		resp, body := postJSON(t, ts.URL+"/v1/solve", u.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ue %d first solve: status %d: %s", i, resp.StatusCode, body)
		}
		var out SolveResponseJSON
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		u.cell = out.Cell
		ues[i] = u
	}

	var handoffs, replays, drifts int
	for round := 0; round < 6; round++ {
		u := ues[round%len(ues)]
		to := (u.cell + 1 + rng.Intn(cells-1)) % cells
		if to == u.cell {
			to = (to + 1) % cells
		}
		resp, body := postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{DeviceID: u.body.DeviceID, FromCell: u.cell, ToCell: to})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("handoff round %d: status %d: %s", round, resp.StatusCode, body)
		}
		u.cell = to
		handoffs++

		// Immediately after the handoff, the destination must serve the
		// exact replay from cache...
		var out SolveResponseJSON
		resp, body = postJSON(t, ts.URL+"/v1/solve", u.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay round %d: status %d: %s", round, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cell != to || out.Source != "cache" {
			t.Fatalf("round %d replay: cell %d source %q, want %d/cache", round, out.Cell, out.Source, to)
		}
		replays++

		// ...and solve the drifted follow-up (fresh gains, same topology)
		// on the pinned destination.
		drifted := *u.base
		drifted.Devices = append([]fl.Device(nil), u.base.Devices...)
		for j := range drifted.Devices {
			drifted.Devices[j].Gain *= math.Exp(0.25 * rng.NormFloat64())
		}
		driftReq := solveBody(&drifted, u.body.DeviceID)
		resp, body = postJSON(t, ts.URL+"/v1/solve", driftReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drift round %d: status %d: %s", round, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cell != to {
			t.Fatalf("round %d drift: served by cell %d, want pinned %d", round, out.Cell, to)
		}
		if out.Source != "cold" {
			t.Fatalf("round %d drift: source %q in destination, want cold", round, out.Source)
		}
		// The next replay should reproduce this instance.
		u.body = driftReq
		u.base = &drifted
		drifts++
	}

	// Stats consistency: per-cell counters sum to the aggregate, and the
	// router counted every handoff.
	resp, body := postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{DeviceID: "ue-0", FromCell: ues[0].cell, ToCell: ues[0].cell})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op handoff: status %d: %s", resp.StatusCode, body)
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != cells {
		t.Fatalf("%d cell snapshots, want %d", len(st.Cells), cells)
	}
	var req64, hits, cold int64
	for _, c := range st.Cells {
		req64 += c.Requests
		hits += c.Hits
		cold += c.ColdSolves
	}
	a := st.Aggregate
	if a.Requests != req64 || a.Hits != hits || a.ColdSolves != cold {
		t.Fatalf("aggregate/per-cell mismatch: agg %+v, sums req %d hits %d cold %d", a, req64, hits, cold)
	}
	wantRequests := int64(len(ues) + replays + drifts)
	if a.Requests != wantRequests {
		t.Fatalf("aggregate requests %d, want %d", a.Requests, wantRequests)
	}
	if a.Handoffs != int64(handoffs+1) {
		t.Fatalf("aggregate handoffs %d, want %d", a.Handoffs, handoffs+1)
	}
	if a.Hits < int64(replays) {
		t.Fatalf("aggregate hits %d < %d replays that must all have hit", a.Hits, replays)
	}
}

func TestHTTPMetricsExposition(t *testing.T) {
	r := testRouter(t, 2)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	s := testSystem(t, 5, 30)
	if resp, body := postJSON(t, ts.URL+"/v1/cells/0/solve", solveBody(s, "m-dev")); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/handoff", HandoffRequestJSON{DeviceID: "m-dev", FromCell: 0, ToCell: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: status %d: %s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(text)
	for _, want := range []string{
		`flserve_requests_total{cell="0"} 1`,
		`flserve_requests_total{cell="1"} 0`,
		`flserve_cache_entries{cell="1"} 1`, // migrated by the handoff
		`flserve_cache_entries{cell="0"} 0`, // and gone from the source
		"flcluster_handoffs_total 1",
		"flcluster_migrated_results_total 1",
		`flcluster_routed_total{via="explicit"} 1`,
		`flcluster_solve_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Exactly one TYPE header per metric name, however many cells emit it.
	if n := strings.Count(body, "# TYPE flserve_requests_total "); n != 1 {
		t.Errorf("%d TYPE headers for flserve_requests_total, want 1", n)
	}
}
