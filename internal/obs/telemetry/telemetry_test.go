package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/serve"
)

func testSystem(t testing.TB, n int, seed int64) *fl.System {
	t.Helper()
	sc := experiments.Default()
	sc.N = n
	s, err := sc.Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func traceCollector() *obs.Collector {
	return obs.NewCollector(obs.Config{SampleEvery: 1, SlowThreshold: -1})
}

// TestTwoHopAssembledTrace runs a real two-process telemetry plane: a cell
// (serve.Server behind obs middleware) whose exporter POSTs span batches to
// the edge's /debug/spans, and an edge that forwards /v1/solve to the cell
// while exporting its own route span into the same aggregator in-process.
// One routed solve must come back from GET /debug/traces as ONE assembled
// trace containing both hops' spans — the route span from the edge and the
// queue/cache/solve/sp1/sp2 spans from the cell.
func TestTwoHopAssembledTrace(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()

	colCell := traceCollector()
	cellSrv := httptest.NewServer(obs.Middleware(colCell, srv.Handler()))
	defer cellSrv.Close()

	agg := NewAggregator(AggregatorConfig{})
	colEdge := traceCollector()
	edgeInner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := obs.FromContext(req.Context())
		began := time.Now()
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
		tr.RecordAttr(obs.PhaseRoute, began, obs.Attr{Cell: 0})
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	})
	edgeSrv := httptest.NewServer(obs.MiddlewareWith(colEdge, obs.MiddlewareConfig{
		Traces: TracesHandler(colEdge, agg),
		Spans:  agg.IngestHandler(),
	}, edgeInner))
	defer edgeSrv.Close()

	// The cell ships its spans across the wire to the edge's aggregator;
	// the edge feeds the same aggregator in-process.
	expCell := NewExporter(ExporterConfig{Origin: "cell-0", Target: edgeSrv.URL})
	defer expCell.Close()
	colCell.SetSink(expCell.Enqueue)
	expEdge := NewExporter(ExporterConfig{Origin: "router", Local: agg})
	defer expEdge.Close()
	colEdge.SetSink(expEdge.Enqueue)

	body := serve.SolveRequestJSON{System: serve.SystemToJSON(testSystem(t, 6, 41))}
	body.Weights.W1, body.Weights.W2 = 0.5, 0.5
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	const wireID = "assembled-trace-0123456789ab"
	req, err := http.NewRequest(http.MethodPost, edgeSrv.URL+"/v1/solve", bytes.NewReader(buf))
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
	// The edge finishes its trace (and hands it to its exporter) after its
	// handler returns, and a body past the sniff length streams out before
	// that; only the end of the body orders it before the flushes below.
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}

	expCell.Flush()
	expEdge.Flush()

	tresp, err := http.Get(edgeSrv.URL + obs.DebugPath + "?trace_id=" + wireID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", obs.DebugPath, tresp.StatusCode)
	}
	var out TracesJSON
	if err := json.NewDecoder(tresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Assembled) != 1 {
		t.Fatalf("assembled traces %d, want exactly 1: %+v", len(out.Assembled), out.Assembled)
	}
	at := out.Assembled[0]
	if at.TraceID != wireID {
		t.Fatalf("assembled trace ID %q, want %q", at.TraceID, wireID)
	}
	hops := map[string]bool{}
	for _, h := range at.Hops {
		hops[h.Origin] = true
	}
	if !hops["router"] || !hops["cell-0"] {
		t.Fatalf("assembled hops %+v, want both router and cell-0", at.Hops)
	}
	byPhase := map[string]string{} // phase -> origin
	for _, s := range at.Spans {
		byPhase[s.Phase] = s.Origin
	}
	if byPhase[obs.PhaseRoute] != "router" {
		t.Fatalf("route span origin %q, want router (spans %+v)", byPhase[obs.PhaseRoute], at.Spans)
	}
	for _, phase := range []string{obs.PhaseQueueWait, obs.PhaseCacheLookup, obs.PhaseSolve, obs.PhaseSP1, obs.PhaseSP2} {
		if byPhase[phase] != "cell-0" {
			t.Fatalf("phase %q origin %q, want cell-0 (spans %+v)", phase, byPhase[phase], at.Spans)
		}
	}
	if at.EndToEndUS <= 0 {
		t.Fatalf("assembled end-to-end %d µs, want > 0", at.EndToEndUS)
	}
	// Span ordering: the assembled timeline is sorted by start.
	for i := 1; i < len(at.Spans); i++ {
		if at.Spans[i].StartUS < at.Spans[i-1].StartUS {
			t.Fatalf("assembled spans out of order at %d: %+v", i, at.Spans)
		}
	}
}

// TestExporterOverflowCountsDrops fills a tiny export buffer faster than it
// flushes and checks overflow is dropped (never blocking the caller) and
// counted, while everything that fit still assembles. The flush threshold
// is clamped to the 4-trace buffer, so the flush loop may drain it while
// the loop below still enqueues: how many spans drop depends on that
// interleaving, but every enqueued span is either exported or counted as
// dropped, and the exposition reports the counter.
func TestExporterOverflowCountsDrops(t *testing.T) {
	agg := NewAggregator(AggregatorConfig{})
	exp := NewExporter(ExporterConfig{
		Origin:        "cell-0",
		Local:         agg,
		BufferTraces:  4,
		FlushTraces:   1 << 20, // clamped to BufferTraces
		FlushInterval: time.Hour,
	})
	const traces, spansPer = 32, 2
	for i := 0; i < traces; i++ {
		exp.Enqueue(obs.TraceJSON{
			TraceID: "overflow-" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Spans:   []obs.Span{{Phase: obs.PhaseSolve, DurUS: 5}, {Phase: obs.PhaseTotal, DurUS: 7}},
		})
	}
	exp.Close() // flushes the surviving tail
	es := exp.StatsJSON()
	if es.SpansDropped <= 0 || es.SpansDropped+es.SpansExported != traces*spansPer {
		t.Fatalf("exporter stats %+v: want dropped > 0 and dropped + exported = %d enqueued", es, traces*spansPer)
	}
	if got := exp.SpansDropped(); got != es.SpansDropped {
		t.Fatalf("SpansDropped %d, stats %d", got, es.SpansDropped)
	}
	st := agg.StatsJSON()
	if st.SpansIngested != es.SpansExported || int64(st.Traces)*spansPer != es.SpansExported {
		t.Fatalf("aggregator got %d traces / %d spans, exporter exported %d spans", st.Traces, st.SpansIngested, es.SpansExported)
	}
	// The drop counter must surface on /metrics.
	var buf bytes.Buffer
	if err := exp.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "obs_spans_dropped_total " + strconv.FormatInt(es.SpansDropped, 10) + "\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
	}
}

// TestAggregatorClockSkew feeds two hops whose batches claim send times in
// the past and checks the skew annotation and the re-anchored end-to-end
// latency: a hop whose clock runs 1s ahead must not inflate the assembled
// duration by that second.
func TestAggregatorClockSkew(t *testing.T) {
	agg := NewAggregator(AggregatorConfig{SlowThreshold: -1})
	recv := time.Now()
	hopStart := recv.Add(-10 * time.Millisecond)

	// Router hop: clock agrees with the aggregator (skew 0), 10ms total.
	agg.Ingest(Batch{
		Origin:     "router",
		SentUnixNS: recv.UnixNano(),
		Traces: []obs.TraceJSON{{
			TraceID: "skewed-trace-1",
			Start:   hopStart,
			TotalUS: 10_000,
			Spans:   []obs.Span{{Phase: obs.PhaseRoute, DurUS: 10_000}},
		}},
	}, recv)
	// Cell hop: its clock runs 1s ahead, so its timestamps land 1s in the
	// future and its batch claims a send time 1s after our receive clock.
	skew := time.Second
	agg.Ingest(Batch{
		Origin:     "cell-0",
		SentUnixNS: recv.Add(skew).UnixNano(),
		Traces: []obs.TraceJSON{{
			TraceID: "skewed-trace-1",
			Start:   hopStart.Add(skew + 2*time.Millisecond),
			TotalUS: 6_000,
			Spans:   []obs.Span{{Phase: obs.PhaseSolve, StartUS: 1_000, DurUS: 5_000}},
		}},
	}, recv)

	got := agg.Assembled(obs.TraceQuery{TraceID: "skewed-trace-1"})
	if len(got) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(got))
	}
	at := got[0]
	var cellHop *HopJSON
	for i := range at.Hops {
		if at.Hops[i].Origin == "cell-0" {
			cellHop = &at.Hops[i]
		}
	}
	if cellHop == nil {
		t.Fatalf("cell hop missing: %+v", at.Hops)
	}
	if cellHop.ClockSkewUS != -skew.Microseconds() {
		t.Fatalf("cell clock skew %d µs, want %d", cellHop.ClockSkewUS, -skew.Microseconds())
	}
	// Re-anchored: the cell hop starts 2ms after the router hop, runs 6ms,
	// so end-to-end is the router's 10ms — not 1s+.
	if at.EndToEndUS != 10_000 {
		t.Fatalf("end-to-end %d µs, want 10000 (skew not re-anchored)", at.EndToEndUS)
	}
}

// TestAggregatorEvictionPrefersFast fills retention and checks the slow
// trace survives eviction while fast ones rotate out.
func TestAggregatorEvictionPrefersFast(t *testing.T) {
	agg := NewAggregator(AggregatorConfig{MaxTraces: 3, SlowThreshold: 50 * time.Millisecond})
	now := time.Now()
	add := func(id string, totalUS int64) {
		agg.Ingest(Batch{Origin: "router", SentUnixNS: now.UnixNano(), Traces: []obs.TraceJSON{{
			TraceID: id, Start: now, TotalUS: totalUS,
			Spans: []obs.Span{{Phase: obs.PhaseTotal, DurUS: totalUS}},
		}}}, now)
	}
	add("slow-one", 80_000) // over the threshold: protected
	add("fast-a", 1_000)
	add("fast-b", 1_000)
	add("fast-c", 1_000) // evicts fast-a, not slow-one
	ids := map[string]bool{}
	for _, tr := range agg.Assembled(obs.TraceQuery{}) {
		ids[tr.TraceID] = true
	}
	if !ids["slow-one"] || ids["fast-a"] || !ids["fast-b"] || !ids["fast-c"] {
		t.Fatalf("retained %v, want slow-one protected and fast-a evicted", ids)
	}
	if st := agg.StatsJSON(); st.TracesEvicted != 1 {
		t.Fatalf("evicted %d, want 1", st.TracesEvicted)
	}
	if !agg.Slowest(obs.TraceQuery{})[0].Slow {
		t.Fatal("slowest assembled trace not marked slow")
	}
}

// TestTracesHandlerQueryValidation checks malformed /debug/traces queries
// come back as typed 400s naming the offending parameter, and that valid
// trace_id filtering narrows every section.
func TestTracesHandlerQueryValidation(t *testing.T) {
	col := traceCollector()
	agg := NewAggregator(AggregatorConfig{SlowThreshold: -1})
	_, tr := col.StartTrace(context.Background())
	tr.Mark(obs.PhaseSolve, obs.Attr{})
	tr.Finish()
	keep := tr.ID()
	_, tr2 := col.StartTrace(context.Background())
	tr2.Finish()
	ts := httptest.NewServer(TracesHandler(col, agg))
	defer ts.Close()

	for _, tc := range []struct{ query, param string }{
		{"?limit=0", "limit"},
		{"?limit=-3", "limit"},
		{"?limit=nope", "limit"},
		{"?limit=99999", "limit"},
		{"?min_duration=fast", "min_duration"},
		{"?min_duration=-5ms", "min_duration"},
		{"?trace_id=bad%20id!", "trace_id"},
	} {
		resp, err := http.Get(ts.URL + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
			Param string `json:"param"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		if resp.StatusCode != http.StatusBadRequest || body.Error != "bad_query" || body.Param != tc.param {
			t.Fatalf("%s: status %d body %+v, want 400 bad_query on %q", tc.query, resp.StatusCode, body, tc.param)
		}
	}

	resp, err := http.Get(ts.URL + "?trace_id=" + keep + "&limit=5&min_duration=0s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid query: status %d", resp.StatusCode)
	}
	var out TracesJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Recent) != 1 || out.Recent[0].TraceID != keep {
		t.Fatalf("trace_id filter returned %+v, want only %q", out.Recent, keep)
	}
}

// TestIngestHandlerRejectsBadInput checks the span-ingest endpoint refuses
// non-POSTs and undecodable bodies without disturbing the aggregator.
func TestIngestHandlerRejectsBadInput(t *testing.T) {
	agg := NewAggregator(AggregatorConfig{})
	ts := httptest.NewServer(agg.IngestHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Error != "bad_batch" {
		t.Fatalf("garbage body: status %d error %q, want 400 bad_batch", resp.StatusCode, body.Error)
	}
	if st := agg.StatsJSON(); st.Batches != 0 || st.SpansIngested != 0 {
		t.Fatalf("aggregator mutated by rejected input: %+v", st)
	}
}

// TestDashboardSSE opens the dashboard feed at a fast interval and checks
// the SSE framing plus a live section in the first frame.
func TestDashboardSSE(t *testing.T) {
	ts := httptest.NewServer(DashboardHandler(DashboardConfig{
		Interval: MinDashboardInterval,
		Sources: []Source{
			{Name: "cluster", Fetch: func() any { return map[string]int{"cells": 3} }},
		},
	}))
	defer ts.Close()

	// Bad interval: typed 400.
	resp, err := http.Get(ts.URL + "?interval=warp")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad interval: status %d, want 400", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawEvent bool
	var data string
	for sc.Scan() {
		line := sc.Text()
		if line == "event: tick" {
			sawEvent = true
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if !sawEvent || data == "" {
		t.Fatalf("SSE framing missing (event seen: %t, data %q)", sawEvent, data)
	}
	var fr struct {
		Seq      int64                      `json:"seq"`
		Sections map[string]json.RawMessage `json:"sections"`
	}
	if err := json.Unmarshal([]byte(data), &fr); err != nil {
		t.Fatalf("dashboard frame not JSON: %v\n%s", err, data)
	}
	if string(fr.Sections["cluster"]) != `{"cells":3}` {
		t.Fatalf("cluster section %s, want {\"cells\":3}", fr.Sections["cluster"])
	}
	cancel() // the handler must stop on client disconnect
}
