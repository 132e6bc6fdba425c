package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSolverFieldSelectsBaselines(t *testing.T) {
	s := testSystem(t, 8, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()

	// Algorithm 2 and the simplified baseline on the same instance: both
	// serve, and the simplified answer is never better than the paper's.
	alg2, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	simp, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced(), Solver: SolverSimplified})
	if err != nil {
		t.Fatal(err)
	}
	if simp.Source != SourceCold {
		t.Fatalf("first simplified solve source %q, want cold (distinct fingerprint from algorithm2)", simp.Source)
	}
	if simp.Solver != SolverSimplified {
		t.Fatalf("response solver %q, want %q", simp.Solver, SolverSimplified)
	}
	if err := s.Validate(simp.Result.Allocation, 1e-6); err != nil {
		t.Fatalf("simplified allocation infeasible: %v", err)
	}
	if simp.Result.Objective < alg2.Result.Objective*(1-1e-9) {
		t.Fatalf("simplified objective %g beats Algorithm 2's %g", simp.Result.Objective, alg2.Result.Objective)
	}

	// Scheme 1 under a loose deadline.
	dl := core.Options{Mode: core.ModeDeadline, TotalDeadline: 500}
	sch, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced(), Options: dl, Solver: SolverScheme1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateDeadline(sch.Result.Allocation, 500/s.GlobalRounds, 1e-6); err != nil {
		t.Fatalf("scheme1 allocation violates its deadline: %v", err)
	}
}

func TestSolverFieldKeysTheCache(t *testing.T) {
	s := testSystem(t, 6, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()

	first, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	// The same instance under another solver must MISS: a shared entry
	// would hand out the wrong algorithm's answer.
	other, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced(), Solver: SolverSimplified})
	if err != nil {
		t.Fatal(err)
	}
	if other.Source == SourceCache {
		t.Fatal("simplified request hit algorithm2's cache entry")
	}
	if other.Fingerprint.Exact == first.Fingerprint.Exact {
		t.Fatal("solver choice did not change the exact fingerprint")
	}
	if other.Fingerprint.Topo == first.Fingerprint.Topo {
		t.Fatal("solver choice did not change the topology bucket")
	}

	// Each solver hits its own entry on replay; the explicit default name
	// aliases the empty one.
	for _, req := range []Request{
		{System: s, Weights: balanced(), Solver: SolverAlgorithm2},
		{System: s, Weights: balanced(), Solver: SolverSimplified},
	} {
		resp, err := srv.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceCache {
			t.Fatalf("solver %q replay source %q, want cache", req.Solver, resp.Source)
		}
	}
}

func TestSolverValidation(t *testing.T) {
	s := testSystem(t, 4, 1)
	srv := New(Config{Workers: 1})
	defer srv.Close()

	cases := map[string]Request{
		"unknown solver":           {System: s, Weights: balanced(), Solver: "newton"},
		"scheme1 without deadline": {System: s, Weights: balanced(), Solver: SolverScheme1},
		"simplified with deadline": {System: s, Weights: balanced(), Solver: SolverSimplified,
			Options: core.Options{Mode: core.ModeDeadline, TotalDeadline: 100}},
	}
	for name, req := range cases {
		if _, err := srv.Solve(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err %v, want ErrBadRequest", name, err)
		}
	}
}

func TestHTTPSolverField(t *testing.T) {
	s := testSystem(t, 6, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := SolveRequestJSON{System: SystemToJSON(s), Mode: "deadline", TotalDeadlineS: 500, Solver: "scheme1"}
	req.Weights.W1, req.Weights.W2 = 1, 0
	body, _ := json.Marshal(req)
	resp, out := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scheme1 over HTTP: status %d", resp.StatusCode)
	}
	if out.Solver != "scheme1" {
		t.Fatalf("response solver %q, want scheme1", out.Solver)
	}
	if out.TotalTimeS > 500*(1+1e-6) {
		t.Fatalf("scheme1 exceeded its deadline: %g s", out.TotalTimeS)
	}

	// Unknown solver maps to 400.
	req.Solver = "nope"
	body, _ = json.Marshal(req)
	resp, _ = postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown solver: status %d, want 400", resp.StatusCode)
	}
}

func TestStatsExposeCacheOccupancy(t *testing.T) {
	s := testSystem(t, 6, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()

	if st := srv.Stats(); st.CacheEntries != 0 {
		t.Fatalf("fresh server occupancy %d, want 0", st.CacheEntries)
	}
	if _, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.CacheEntries != 1 {
		t.Fatalf("after one solve occupancy %d, want 1", st.CacheEntries)
	}

	// And over the wire.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheEntries != 1 {
		t.Fatalf("wire cache_entries %d, want 1", snap.CacheEntries)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	s := testSystem(t, 6, 1)
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := SolveRequestJSON{System: SystemToJSON(s)}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, _ := json.Marshal(req)
	for i := 0; i < 2; i++ {
		if resp, _ := postSolve(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d failed", i)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := string(text)
	for _, want := range []string{
		"# TYPE flserve_requests_total counter",
		"flserve_requests_total 2",
		"flserve_cache_hits_total 1",
		"flserve_cold_solves_total 1",
		"flserve_cache_entries 1",
		`flserve_solve_latency_seconds{quantile="0.5"}`,
		`flserve_solve_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q\n%s", want, got)
		}
	}
}

// TestSolveRejectsSolverBeforeQueueing pins the error accounting: a bad
// solver bumps the error counter without touching hit/miss counters.
func TestSolveRejectsSolverBeforeQueueing(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	s := testSystem(t, 4, 1)
	if _, err := srv.Solve(context.Background(), Request{System: s, Weights: balanced(), Solver: "bogus"}); err == nil {
		t.Fatal("bogus solver accepted")
	}
	st := srv.Stats()
	if st.Errors != 1 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("stats after rejected solver: %+v", st)
	}
}
