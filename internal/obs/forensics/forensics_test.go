package forensics

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func mkTrace(id string, totalUS int64) obs.TraceJSON {
	return obs.TraceJSON{TraceID: id, Start: time.Unix(1000, 0), TotalUS: totalUS}
}

func TestEventFromTraceDerivation(t *testing.T) {
	tr := obs.TraceJSON{TraceID: "t1", TotalUS: 5000, Slow: true, Spans: []obs.Span{
		{Phase: obs.PhaseQueueWait, DurUS: 120, Detail: "interactive", Cell: obs.CellNone},
		{Phase: obs.PhaseCacheLookup, Detail: "miss", Cell: obs.CellNone},
		{Phase: obs.PhaseSolve, DurUS: 4000, Detail: "cold", Value: 7, Cell: 3},
	}}
	e := EventFromTrace(tr)
	if e.Path != "cold" || e.Cache != "miss" || e.Queue != "interactive" ||
		e.QueueWaitUS != 120 || e.NewtonIters != 7 || e.Cell != 3 || !e.Slow {
		t.Fatalf("derived event %+v", e)
	}

	errTr := obs.TraceJSON{TraceID: "t2", Spans: []obs.Span{
		{Phase: obs.PhaseSolve, Detail: "error: queue full", Cell: obs.CellNone},
	}}
	if e := EventFromTrace(errTr); e.Error != "queue full" || e.Path != "" {
		t.Fatalf("error event %+v", e)
	}
}

// TestFlightOverflow: the bounded ring drops oldest, counts the drops, and
// keeps serving while writers keep appending.
func TestFlightOverflow(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Observe(mkTrace(fmt.Sprintf("t%02d", i), int64(i)*1000))
	}
	s := f.StatsJSON()
	if s.Observed != 20 || s.Dropped != 12 || s.Retained != 8 {
		t.Fatalf("stats %+v, want observed 20 dropped 12 retained 8", s)
	}
	ev := f.Events(obs.TraceQuery{})
	if len(ev) != 8 || ev[0].TraceID != "t19" || ev[7].TraceID != "t12" {
		t.Fatalf("events: got %d newest %q oldest %q", len(ev), ev[0].TraceID, ev[len(ev)-1].TraceID)
	}

	// Query parity with /debug/traces: limit, trace_id, min_duration.
	if got := f.Events(obs.TraceQuery{Limit: 3}); len(got) != 3 {
		t.Fatalf("limit: got %d", len(got))
	}
	if got := f.Events(obs.TraceQuery{TraceID: "t15"}); len(got) != 1 || got[0].TraceID != "t15" {
		t.Fatalf("trace_id filter: %+v", got)
	}
	if got := f.Events(obs.TraceQuery{MinDuration: 18 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("min_duration filter: got %d, want 2", len(got))
	}

	// Serving is unaffected by concurrent appends (run under -race in CI).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			f.Observe(mkTrace("hot", 1))
		}
	}()
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", obs.FlightPath+"?limit=4", nil))
	wg.Wait()
	if rec.Code != 200 {
		t.Fatalf("flight handler: status %d", rec.Code)
	}
	var body FlightJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("flight body: %v", err)
	}
	if len(body.Events) != 4 {
		t.Fatalf("flight body: %d events, want 4", len(body.Events))
	}

	// The validated query rejects garbage exactly like /debug/traces.
	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", obs.FlightPath+"?limit=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad query: status %d, want 400", rec.Code)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Observe(mkTrace("x", 1))
	if got := f.Events(obs.TraceQuery{}); got != nil {
		t.Fatalf("nil Events: %v", got)
	}
	if s := f.StatsJSON(); s != (FlightStatsJSON{}) {
		t.Fatalf("nil stats: %+v", s)
	}
	if err := f.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

// TestProfileTriggerRateLimitAndPrune: captures inside MinInterval are
// suppressed (and counted); retention on disk stays bounded with prunes
// counted.
func TestProfileTriggerRateLimitAndPrune(t *testing.T) {
	dir := t.TempDir()
	trig, err := NewProfileTrigger(ProfileConfig{
		Dir: dir, CPUSeconds: 0.05, MaxCaptures: 2, MinInterval: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer trig.Close()
	clock := time.Unix(10000, 0)
	trig.now = func() time.Time { return clock }

	rec, ok := trig.Capture("queue-wait-p99-breached")
	if !ok {
		t.Fatal("first capture suppressed")
	}
	for _, want := range []string{"cpu.pprof", "goroutine.pprof", "heap.pprof"} {
		found := false
		for _, f := range rec.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("capture files %v missing %s (errors: %v)", rec.Files, want, rec.Errors)
		}
	}
	if !strings.Contains(filepath.Base(rec.Dir), "queue-wait-p99-breached") {
		t.Fatalf("capture dir %q does not carry the reason", rec.Dir)
	}

	// Within MinInterval: suppressed, counted, nothing written.
	clock = clock.Add(10 * time.Second)
	if _, ok := trig.Capture("again"); ok {
		t.Fatal("capture inside MinInterval admitted")
	}
	if s := trig.StatsJSON(); s.Captures != 1 || s.Suppressed != 1 {
		t.Fatalf("stats %+v, want 1 capture / 1 suppressed", s)
	}

	// Past MinInterval: admitted. Two more captures overflow MaxCaptures=2.
	for i := 0; i < 2; i++ {
		clock = clock.Add(2 * time.Minute)
		if _, ok := trig.Capture("later"); !ok {
			t.Fatalf("capture %d past MinInterval suppressed", i)
		}
	}
	trig.Close() // wait out background CPU profiles before counting dirs

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var caps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "cap-") {
			caps = append(caps, e.Name())
		}
	}
	if len(caps) != 2 {
		t.Fatalf("retained dirs %v, want 2", caps)
	}
	s := trig.StatsJSON()
	if s.Captures != 3 || s.Pruned < 1 {
		t.Fatalf("stats %+v, want 3 captures and >=1 pruned", s)
	}
	if got := trig.Recent(); len(got) != 3 || got[0].Seq != 3 {
		t.Fatalf("recent: %d records, newest seq %d", len(got), got[0].Seq)
	}
}

func TestProfileTriggerNilSafe(t *testing.T) {
	var trig *ProfileTrigger
	if _, ok := trig.Capture("x"); ok {
		t.Fatal("nil trigger admitted a capture")
	}
	trig.Close()
	if s := trig.StatsJSON(); s != (ProfileStatsJSON{}) {
		t.Fatalf("nil stats: %+v", s)
	}
	if err := trig.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

// TestIncidentBundle: the tar.gz round-trips with the flight window, the
// wired sections, runtime vitals, and at least one on-disk profile file.
func TestIncidentBundle(t *testing.T) {
	flight := NewFlightRecorder(16)
	for i := 0; i < 5; i++ {
		flight.Observe(mkTrace(fmt.Sprintf("t%d", i), 1000))
	}
	trig, err := NewProfileTrigger(ProfileConfig{Dir: t.TempDir(), CPUSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trig.Capture("test"); !ok {
		t.Fatal("capture suppressed")
	}
	trig.Close()

	h := IncidentHandler(BundleConfig{
		Origin:   "test",
		Flight:   flight,
		Profiles: trig,
		Sections: []Section{
			{Name: "alerts", Fetch: func() any { return []string{"a1"} }},
			{Name: "skipped", Fetch: func() any { return nil }},
		},
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", obs.IncidentPath+"?limit=3", nil))
	if rec.Code != 200 {
		t.Fatalf("incident: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("content type %q", ct)
	}

	gz, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tr := tar.NewReader(gz)
	got := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		got[hdr.Name] = data
	}

	for _, want := range []string{"meta.json", "flight.json", "runtime.json", "alerts.json", "profiles.json"} {
		if _, ok := got[want]; !ok {
			t.Fatalf("bundle missing %s (have %v)", want, keys(got))
		}
	}
	if _, ok := got["skipped.json"]; ok {
		t.Fatal("nil-fetch section must be dropped")
	}
	var fl FlightJSON
	if err := json.Unmarshal(got["flight.json"], &fl); err != nil {
		t.Fatal(err)
	}
	if len(fl.Events) != 3 { // ?limit=3 flows through to the flight window
		t.Fatalf("flight.json: %d events, want 3", len(fl.Events))
	}
	profileFiles := 0
	for name := range got {
		if strings.HasPrefix(name, "profiles/") && strings.HasSuffix(name, ".pprof") {
			profileFiles++
		}
	}
	if profileFiles == 0 {
		t.Fatalf("bundle has no profile files (have %v)", keys(got))
	}
	var meta bundleMeta
	if err := json.Unmarshal(got["meta.json"], &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Origin != "test" || len(meta.Contents) == 0 {
		t.Fatalf("meta %+v", meta)
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestReadVitals(t *testing.T) {
	v := ReadVitals()
	if v.Goroutines <= 0 {
		t.Fatalf("goroutines %d", v.Goroutines)
	}
	if v.HeapBytes == 0 {
		t.Fatalf("heap bytes 0")
	}
	var buf bytes.Buffer
	if err := WriteRuntimePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"obs_runtime_goroutines", "obs_runtime_heap_bytes",
		"obs_runtime_gc_pause_seconds", "obs_runtime_gc_cycles_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}
