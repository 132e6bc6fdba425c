package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

func traceCollector() *obs.Collector {
	return obs.NewCollector(obs.Config{SampleEvery: 1, SlowThreshold: -1})
}

func spansByPhase(spans []obs.Span, phase string) []obs.Span {
	var out []obs.Span
	for _, s := range spans {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// TestSolveTraceSpansRoute checks that a routed solve records its serving
// cell on the request's trace and that the serving layers below stamped
// the same trace (one ID end to end).
func TestSolveTraceSpansRoute(t *testing.T) {
	r := testRouter(t, 3)
	s := testSystem(t, 6, 11)
	col := traceCollector()
	ctx, tr := col.StartTrace(context.Background())
	resp, cell, err := r.Solve(ctx, CellAuto, "ue-route-trace", serve.Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if resp.TraceID != tr.ID() {
		t.Fatalf("response trace ID %q, want %q", resp.TraceID, tr.ID())
	}
	routes := spansByPhase(tr.Spans(), obs.PhaseRoute)
	if len(routes) != 1 || routes[0].Cell != cell {
		t.Fatalf("route spans %+v, want one on cell %d", routes, cell)
	}
	for _, phase := range []string{obs.PhaseFingerprint, obs.PhaseCacheLookup, obs.PhaseQueueWait, obs.PhaseSolve} {
		if len(spansByPhase(tr.Spans(), phase)) == 0 {
			t.Fatalf("phase %q missing from routed solve trace: %+v", phase, tr.Spans())
		}
	}
}

// TestHandoffTraceContinuity moves a device's cached state across cells
// under one trace and checks both sides landed as spans of that single
// trace: extract scoped to the source cell, inject to the destination.
func TestHandoffTraceContinuity(t *testing.T) {
	r := testRouter(t, 3)
	s := testSystem(t, 6, 12)
	const dev = "ue-handoff-trace"
	if _, _, err := r.Solve(context.Background(), 0, dev, serve.Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}

	col := traceCollector()
	ctx, tr := col.StartTrace(context.Background())
	rep, err := r.Handoff(ctx, dev, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	spans := tr.Spans()
	extracts := spansByPhase(spans, obs.PhaseHandoffExtract)
	injects := spansByPhase(spans, obs.PhaseHandoffInject)
	if len(extracts) != 1 || len(injects) != 1 {
		t.Fatalf("want one extract and one inject span, got %+v", spans)
	}
	if extracts[0].Cell != 0 || injects[0].Cell != 2 {
		t.Fatalf("extract cell %d / inject cell %d, want 0 / 2", extracts[0].Cell, injects[0].Cell)
	}
	if extracts[0].Value != int64(rep.Instances) {
		t.Fatalf("extract span value %d, report instances %d", extracts[0].Value, rep.Instances)
	}
	recent := col.Recent()
	if len(recent) != 1 || recent[0].TraceID != tr.ID() {
		t.Fatalf("handoff trace not retained: %+v", recent)
	}
}

// TestMassHandoffTraceContinuity batches moves out of two source cells and
// checks one trace carries the plan plus per-cell extract/inject spans from
// every cell involved — nothing drops when the migration spans cells.
func TestMassHandoffTraceContinuity(t *testing.T) {
	r := testRouter(t, 3)
	var moves []Move
	for d := 0; d < 6; d++ {
		dev := "ue-mass-" + strconv.Itoa(d)
		src := d % 2 // pin half on cell 0, half on cell 1
		if _, _, err := r.Solve(context.Background(), src, dev, serve.Request{System: testSystem(t, 5, int64(300+d)), Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
		moves = append(moves, Move{DeviceID: dev, To: 2})
	}

	col := traceCollector()
	ctx, tr := col.StartTrace(context.Background())
	rep, err := r.MassHandoff(ctx, moves, true)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	spans := tr.Spans()
	if plans := spansByPhase(spans, obs.PhaseMassPlan); len(plans) != 1 || plans[0].Value != int64(rep.Instances) {
		t.Fatalf("mass_plan spans %+v, want one with value %d", plans, rep.Instances)
	}
	srcCells := map[int]bool{}
	for _, sp := range spansByPhase(spans, obs.PhaseMassExtract) {
		srcCells[sp.Cell] = true
	}
	if !srcCells[0] || !srcCells[1] {
		t.Fatalf("mass_extract spans missing a source cell: %+v", spans)
	}
	injects := spansByPhase(spans, obs.PhaseMassInject)
	if len(injects) != 1 || injects[0].Cell != 2 {
		t.Fatalf("mass_inject spans %+v, want one on cell 2", injects)
	}
}

// TestHTTPTraceAdoptionAcrossHop stacks two obs-wrapped HTTP services —
// an edge that forwards to a cluster — and checks one trace ID flows from
// the client's X-Trace-Id header through both hops: the edge adopts the
// wire ID instead of minting its own, forwards it, and the cluster side
// adopts it again, so both collectors retain the SAME trace.
func TestHTTPTraceAdoptionAcrossHop(t *testing.T) {
	r := testRouter(t, 2)
	colCell := traceCollector()
	cellSrv := httptest.NewServer(obs.Middleware(colCell, r.Handler()))
	defer cellSrv.Close()

	colEdge := traceCollector()
	edgeSrv := httptest.NewServer(obs.Middleware(colEdge, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Forward router-style, carrying this hop's trace on the wire.
		tr := obs.FromContext(req.Context())
		fwd, err := http.NewRequest(req.Method, cellSrv.URL+req.URL.Path, req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fwd.Header.Set("Content-Type", req.Header.Get("Content-Type"))
		fwd.Header.Set(obs.TraceHeader, tr.ID())
		resp, err := http.DefaultClient.Do(fwd)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	})))
	defer edgeSrv.Close()

	body, err := json.Marshal(solveBody(testSystem(t, 5, 21), "ue-wire-trace"))
	if err != nil {
		t.Fatal(err)
	}
	const wireID = "wire-trace-0123456789abcdef"
	req, err := http.NewRequest(http.MethodPost, edgeSrv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, wireID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("solve through both hops: status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != wireID {
		t.Fatalf("edge response trace header %q, want the client's %q", got, wireID)
	}
	// The edge finishes its trace after its handler returns, and a body
	// past the sniff length streams out before that; only the end of the
	// body orders the finished trace before the collector reads below.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	for name, col := range map[string]*obs.Collector{"edge": colEdge, "cell": colCell} {
		recent := col.Recent()
		if len(recent) != 1 || recent[0].TraceID != wireID {
			t.Fatalf("%s collector retained %+v, want one trace with ID %q", name, recent, wireID)
		}
	}

	// A malformed wire ID must not be adopted: the middleware mints a
	// fresh one instead of letting arbitrary bytes into logs and dumps.
	req2, err := http.NewRequest(http.MethodPost, edgeSrv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(obs.TraceHeader, "not a valid id!")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	minted := resp2.Header.Get(obs.TraceHeader)
	if minted == "" || minted == "not a valid id!" {
		t.Fatalf("malformed wire ID handling: response header %q, want a freshly minted ID", minted)
	}
}
