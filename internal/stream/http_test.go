package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/fl"
	"repro/internal/serve"
)

// streamServer spins up the wrapped HTTP stack over a single server.
func streamServer(t testing.TB) *httptest.Server {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2})
	m := NewManager(NewServeBackend(srv), Config{})
	ts := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
		srv.Close()
	})
	return ts
}

func openHTTP(t testing.TB, ts *httptest.Server, s *fl.System, deviceID string) OpenResponseJSON {
	t.Helper()
	req := serve.SolveRequestJSON{System: serve.SystemToJSON(s), DeviceID: deviceID}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("open status %d: %s", resp.StatusCode, b)
	}
	var out OpenResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPStreamLifecycle(t *testing.T) {
	ts := streamServer(t)
	base := testSystem(t, 8, 21)
	open := openHTTP(t, ts, base, "dev-http")
	if open.SessionID == "" {
		t.Fatal("empty session id")
	}
	if open.Result.Source != string(serve.SourceCold) {
		t.Fatalf("opening solve source = %q, want cold", open.Result.Source)
	}

	// Stream three sparse deltas plus one stale and one bad over a single
	// NDJSON request; the response must carry one update line per delta,
	// ok lines cold solves of the state they answer,
	// error lines typed but non-fatal.
	rng := rand.New(rand.NewSource(22))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	cur := cloneSystem(base)
	var states []*fl.System // the system after each applied delta
	gains := func(seq uint64) DeltaJSON {
		d := DeltaJSON{Seq: seq, Gains: map[int]float64{}}
		for len(d.Gains) < 2 {
			i := rng.Intn(base.N())
			d.Gains[i] = base.Devices[i].Gain * math.Exp(0.3*rng.NormFloat64())
		}
		for i, g := range d.Gains {
			cur.Devices[i].Gain = g
		}
		states = append(states, cloneSystem(cur))
		return d
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := enc.Encode(gains(seq)); err != nil {
			t.Fatal(err)
		}
	}
	_ = enc.Encode(DeltaJSON{Seq: 2, Gains: map[int]float64{0: 1e-8}})  // stale
	_ = enc.Encode(DeltaJSON{Seq: 9, Gains: map[int]float64{99: 1e-8}}) // bad index
	_ = enc.Encode(gains(10))

	resp, err := http.Post(ts.URL+"/v1/stream/"+open.SessionID+"/deltas", NDJSONContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != NDJSONContentType {
		t.Fatalf("content type %q", ct)
	}
	var updates []UpdateJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var u UpdateJSON
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad update line %q: %v", sc.Text(), err)
		}
		updates = append(updates, u)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 6 {
		t.Fatalf("got %d update lines, want 6", len(updates))
	}
	for i, wantOK := range []bool{true, true, true, false, false, true} {
		if updates[i].OK != wantOK {
			t.Fatalf("update %d ok = %v (%+v)", i, updates[i].OK, updates[i])
		}
	}
	for k, i := range []int{0, 1, 2, 5} {
		u := updates[i]
		if u.Result == nil || u.Result.Source != string(serve.SourceCold) {
			t.Fatalf("update %d not cold: %+v", i, u)
		}
		coretest.RequireCold(t, states[k], balanced(), u.Result.Objective)
	}
	if !strings.Contains(updates[3].Error, "stale") {
		t.Fatalf("stale update error = %q", updates[3].Error)
	}
	if !strings.Contains(updates[4].Error, "out of range") {
		t.Fatalf("bad-index update error = %q", updates[4].Error)
	}
	if updates[5].Seq != 10 {
		t.Fatalf("last update seq = %d, want 10", updates[5].Seq)
	}

	// Combined stats carry the stream section next to the server counters.
	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		serve.Snapshot
		Stream Snapshot `json:"stream"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Requests == 0 {
		t.Fatal("backend counters missing from combined stats")
	}
	if stats.Stream.ActiveSessions != 1 || stats.Stream.Deltas != 4 || stats.Stream.DeltaErrors != 2 {
		t.Fatalf("stream stats = %+v", stats.Stream)
	}

	// Metrics expose both the backend and the flstream series.
	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Body.Close()
	mb, _ := io.ReadAll(mt.Body)
	for _, series := range []string{"flserve_requests_total", "flstream_active_sessions 1", "flstream_deltas_total 4", `flstream_solves_total{source="cold"} 5`} {
		if !strings.Contains(string(mb), series) {
			t.Fatalf("metrics missing %q:\n%s", series, mb)
		}
	}

	// Close the session; a second close 404s.
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/stream/"+open.SessionID, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var sum CloseSummary
	if err := json.NewDecoder(cresp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.LastSeq != 10 || sum.Deltas != 4 {
		t.Fatalf("close summary = %+v", sum)
	}
	cresp2, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp2.Body.Close()
	if cresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second close status %d, want 404", cresp2.StatusCode)
	}
}

func TestHTTPDeltasLiveInterleaved(t *testing.T) {
	// The wire contract a live client depends on: one delta written, one
	// update read back, repeatedly, over a single connection — the server
	// must answer each delta before the client sends the next (full-duplex
	// HTTP/1.1, flushed per line).
	ts := streamServer(t)
	base := testSystem(t, 8, 26)
	open := openHTTP(t, ts, base, "dev-live")

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream/"+open.SessionID+"/deltas", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	enc := json.NewEncoder(pw)
	dec := json.NewDecoder(resp.Body)
	rng := rand.New(rand.NewSource(27))
	for seq := uint64(1); seq <= 5; seq++ {
		i := rng.Intn(base.N())
		d := DeltaJSON{Seq: seq, Gains: map[int]float64{i: base.Devices[i].Gain * math.Exp(0.2*rng.NormFloat64())}}
		if err := enc.Encode(d); err != nil {
			t.Fatalf("delta %d write: %v", seq, err)
		}
		var u UpdateJSON
		if err := dec.Decode(&u); err != nil {
			t.Fatalf("delta %d read-back: %v", seq, err)
		}
		if !u.OK || u.Seq != seq {
			t.Fatalf("delta %d update = %+v", seq, u)
		}
		if u.Result.Source != string(serve.SourceCold) {
			t.Fatalf("delta %d not cold: %+v", seq, u.Result)
		}
	}
	pw.Close()
	if err := dec.Decode(new(UpdateJSON)); err != io.EOF {
		t.Fatalf("stream did not end cleanly after body close: %v", err)
	}
}

func TestHTTPDeltasUnknownSessionAndMalformedLine(t *testing.T) {
	ts := streamServer(t)
	resp, err := http.Post(ts.URL+"/v1/stream/deadbeef/deltas", NDJSONContentType, strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status %d, want 404", resp.StatusCode)
	}

	base := testSystem(t, 6, 23)
	open := openHTTP(t, ts, base, "")
	// A malformed line terminates the stream with one error line.
	resp, err = http.Post(ts.URL+"/v1/stream/"+open.SessionID+"/deltas", NDJSONContentType,
		strings.NewReader("{\"seq\": not-json\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1: %q", len(lines), body)
	}
	var u UpdateJSON
	if err := json.Unmarshal([]byte(lines[0]), &u); err != nil {
		t.Fatal(err)
	}
	if u.OK || !strings.Contains(u.Error, "decoding delta") {
		t.Fatalf("malformed-line update = %+v", u)
	}
}

func TestHTTPOpenValidation(t *testing.T) {
	ts := streamServer(t)
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed open status %d, want 400", resp.StatusCode)
	}
	// A system that fails validation opens no session.
	req := serve.SolveRequestJSON{}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, _ := json.Marshal(req)
	resp, err = http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty system open status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPBaseRoutesStillServed(t *testing.T) {
	// The wrapped handler must remain a drop-in for the plain API.
	ts := streamServer(t)
	base := testSystem(t, 6, 24)
	req := serve.SolveRequestJSON{System: serve.SystemToJSON(base)}
	req.Weights.W1, req.Weights.W2 = 0.5, 0.5
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("plain solve status %d: %s", resp.StatusCode, b)
	}
	var out serve.SolveResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Source != string(serve.SourceCold) {
		t.Fatalf("plain solve source %q", out.Source)
	}
}

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrStaleSeq, http.StatusConflict},
		{ErrBadDelta, http.StatusBadRequest},
		{ErrNoSession, http.StatusNotFound},
		{ErrSessionLimit, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{serve.ErrOverloaded, http.StatusServiceUnavailable},
		{core.ErrInfeasible, http.StatusUnprocessableEntity},
		{fmt.Errorf("wrapped: %w", ErrStaleSeq), http.StatusConflict},
		{errors.New("other"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestHTTPClusterStreamStats(t *testing.T) {
	// The same streaming layer mounts over the cluster front end, with the
	// cluster's aggregate stats shape preserved under the stream section.
	r := cluster.New(cluster.Config{Cells: 2, Cell: serve.Config{Workers: 2}})
	m := NewManager(NewClusterBackend(r), Config{})
	ts := httptest.NewServer(Handler(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
		r.Close()
	})

	base := testSystem(t, 6, 25)
	open := openHTTP(t, ts, base, "dev-cl")
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(DeltaJSON{Seq: 1, Gains: map[int]float64{0: base.Devices[0].Gain * 1.5}})
	resp, err := http.Post(ts.URL+"/v1/stream/"+open.SessionID+"/deltas", NDJSONContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var u UpdateJSON
	if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
		t.Fatal(err)
	}
	if !u.OK || u.Cell != open.Cell {
		t.Fatalf("cluster delta update = %+v, want ok in cell %d", u, open.Cell)
	}

	st, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats struct {
		Aggregate serve.Snapshot `json:"aggregate"`
		Stream    Snapshot       `json:"stream"`
	}
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Aggregate.Requests < 2 {
		t.Fatalf("aggregate requests = %d, want >= 2", stats.Aggregate.Requests)
	}
	if stats.Stream.ActiveSessions != 1 || stats.Stream.Deltas != 1 {
		t.Fatalf("stream stats = %+v", stats.Stream)
	}
}
