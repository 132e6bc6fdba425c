package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro"
)

// TestServedDefaultScenario exercises the acceptance path: the server
// answers POST /v1/solve with a valid allocation for the default scenario,
// and GET /v1/stats reports nonzero hit counts after repeated identical
// requests.
func TestServedDefaultScenario(t *testing.T) {
	srv := repro.NewServer(repro.ServeConfig{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := repro.DefaultScenario()
	system, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequestJSON{System: repro.SystemToJSON(system)}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	var out struct {
		PowerW      []float64 `json:"power_w"`
		BandwidthHz []float64 `json:"bandwidth_hz"`
		FreqHz      []float64 `json:"freq_hz"`
		Objective   float64   `json:"objective"`
		Source      string    `json:"source"`
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	alloc := repro.Allocation{Power: out.PowerW, Bandwidth: out.BandwidthHz, Freq: out.FreqHz}
	if err := system.Validate(alloc, 1e-6); err != nil {
		t.Fatalf("served allocation infeasible: %v", err)
	}
	if out.Source != "cache" {
		t.Fatalf("third identical request source = %q, want cache", out.Source)
	}

	stats, err := fetchStats(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits < 2 {
		t.Fatalf("stats after repeated identical requests: hits = %d, want >= 2", stats.Hits)
	}
	if stats.ColdSolves != 1 {
		t.Fatalf("cold solves = %d, want 1", stats.ColdSolves)
	}
}

func fetchStats(baseURL string) (repro.ServeStats, error) {
	var stats repro.ServeStats
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		return stats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&stats)
	return stats, err
}
