package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
	"repro/internal/cluster"
)

// TestClusterEndToEnd drives the acceptance path over the HTTP stack: an
// explicit-cell solve, a handoff, and a routed replay that the destination
// cell must answer from its migrated cache, with consistent stats.
func TestClusterEndToEnd(t *testing.T) {
	cl := repro.NewCluster(repro.ClusterConfig{Cells: 3})
	defer cl.Close()
	ts := httptest.NewServer(cl.Handler())
	defer ts.Close()

	sc := repro.DefaultScenario()
	sc.N = 6
	system, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequestJSON{System: repro.SystemToJSON(system), DeviceID: "ue-1"}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	status, out := post("/v1/cells/0/solve", body)
	if status != http.StatusOK {
		t.Fatalf("explicit solve: status %d: %s", status, out)
	}
	var solved repro.ClusterSolveResponseJSON
	if err := json.Unmarshal(out, &solved); err != nil {
		t.Fatal(err)
	}
	if solved.Cell != 0 || solved.Source != "cold" {
		t.Fatalf("explicit solve: cell %d source %q, want 0/cold", solved.Cell, solved.Source)
	}

	hbody, _ := json.Marshal(repro.HandoffRequestJSON{DeviceID: "ue-1", FromCell: 0, ToCell: 2})
	status, out = post("/v1/handoff", hbody)
	if status != http.StatusOK {
		t.Fatalf("handoff: status %d: %s", status, out)
	}
	var rep repro.HandoffReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.MigratedResults != 1 {
		t.Fatalf("handoff report %+v, want 1 migrated result", rep)
	}

	status, out = post("/v1/solve", body)
	if status != http.StatusOK {
		t.Fatalf("routed replay: status %d: %s", status, out)
	}
	if err := json.Unmarshal(out, &solved); err != nil {
		t.Fatal(err)
	}
	if solved.Cell != 2 || solved.Source != "cache" {
		t.Fatalf("post-handoff replay: cell %d source %q, want 2/cache", solved.Cell, solved.Source)
	}

	stats, err := fetchStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Aggregate.Handoffs != 1 || stats.Aggregate.Requests != 2 {
		t.Fatalf("aggregate stats: %+v", stats.Aggregate)
	}
	if len(stats.Cells) != 3 || stats.Cells[2].Hits != 1 || stats.Cells[0].CacheEntries != 0 {
		t.Fatalf("per-cell stats after migration: %+v", stats.Cells)
	}
}

func fetchStats(baseURL string) (cluster.Stats, error) {
	var stats cluster.Stats
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&stats)
	return stats, err
}
