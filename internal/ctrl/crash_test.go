package ctrl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core/coretest"
	"repro/internal/fl"
	"repro/internal/health"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/stream"
)

// TestCrashCellReroutesToSurvivors is the crash acceptance: a cell dies
// WITHOUT draining, its state dies with it, and every one of its devices
// re-solves cold on its post-crash ring owner — the cold solve's objective,
// then a cache hit on the repeat.
func TestCrashCellReroutesToSurvivors(t *testing.T) {
	r, _, p := testStack(t, 3)
	ev := health.New(health.Config{})
	p.SetEvents(ev)

	systems := map[string]*fl.System{}
	var victims []string
	const victim = 0
	for d := 0; d < 24; d++ {
		dev := devName(d)
		sys := testSystem(t, 8, int64(500+d))
		_, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys, Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		systems[dev] = sys
		if cell == victim {
			victims = append(victims, dev)
		}
	}
	if len(victims) == 0 {
		t.Fatal("no device landed on the victim cell")
	}

	crash, err := p.CrashCell(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if crash.Cell != victim || len(crash.Cells) != 2 {
		t.Fatalf("crash report %+v, want cell %d removed leaving 2", crash, victim)
	}

	for _, dev := range victims {
		req := serve.Request{System: systems[dev], Weights: balanced()}
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, req)
		if err != nil {
			t.Fatal(err)
		}
		if cell == victim {
			t.Fatalf("device %s still routed to crashed cell", dev)
		}
		if resp.Source != serve.SourceCold {
			t.Fatalf("device %s post-crash source %q, want cold (its cache died with the cell)", dev, resp.Source)
		}
		coretest.RequireCold(t, systems[dev], balanced(), resp.Result.Objective)
		again, _, err := r.Solve(context.Background(), cluster.CellAuto, dev, req)
		if err != nil || again.Source != serve.SourceCache {
			t.Fatalf("device %s post-crash repeat: source %q, err %v; want cache", dev, again.Source, err)
		}
	}

	// Counters and the alert ring both saw the crash.
	st := p.Stats()
	if st.Crashes != 1 || st.CellsRemoved != 1 {
		t.Fatalf("plane stats after crash: %+v", st)
	}
	sawCrash := false
	for _, a := range ev.Alerts() {
		if a.Kind == health.KindCrash {
			sawCrash = a.Cell == victim
		}
	}
	if !sawCrash {
		t.Fatalf("alert ring missing the crash: %+v", ev.Alerts())
	}
}

// TestCrashCellGuards covers the refusal paths: the last cell cannot
// crash out of the ring, and an unknown ID is the usual typed error.
func TestCrashCellGuards(t *testing.T) {
	_, _, p := testStack(t, 2)
	if _, err := p.CrashCell(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CrashCell(context.Background(), 1); !errors.Is(err, cluster.ErrLastCell) {
		t.Fatalf("last-cell crash err = %v, want ErrLastCell", err)
	}
	if _, err := p.CrashCell(context.Background(), 0); !errors.Is(err, cluster.ErrUnknownCell) {
		t.Fatalf("re-crash err = %v, want ErrUnknownCell", err)
	}
}

// TestHTTPCrashLifecycle drives the crash endpoint over the wire and
// checks /v1/stats and /metrics carry the ctrl and snapshot sections.
func TestHTTPCrashLifecycle(t *testing.T) {
	r, _, p, ts := testHTTPStack(t, 3)
	snapper := replica.NewSnapshotter(replica.SnapshotterConfig{
		Path:     t.TempDir() + "/cluster.snap",
		Interval: -1,
		Capture:  replica.CaptureCluster(r, nil),
	})
	defer snapper.Close()
	p.SetSnapshotter(snapper)

	// Spread devices over the cells so the crash kills some state.
	for d := 0; d < 12; d++ {
		if _, _, err := r.Solve(context.Background(), cluster.CellAuto, devName(d),
			serve.Request{System: testSystem(t, 6, int64(700+d)), Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapper.SaveNow(); err != nil {
		t.Fatal(err)
	}

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/cells/0/crash", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crash: status %d: %s", resp.StatusCode, body)
	}
	var crash CrashReport
	if err := json.Unmarshal(body, &crash); err != nil {
		t.Fatal(err)
	}
	if crash.Cell != 0 || len(crash.Cells) != 2 {
		t.Fatalf("crash report over HTTP: %+v", crash)
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/cells/9/crash", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("crash unknown cell: status %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/cells/zzz/crash", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("crash malformed id: status %d: %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ctrl", "snapshot"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/v1/stats missing %q section: %s", key, body)
		}
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, series := range []string{"ctrl_crashes_total 1", "snapshot_saves_total 1"} {
		if !strings.Contains(text, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
}

// TestCrashWithLiveStreamSessions is the failure twin of the drain test:
// sessions keep firing deltas WHILE their cell crashes. Because nothing
// drains, an individual apply may fail — but only with a typed, retryable
// error, never a silent wrong answer — and a failed session must resume
// cleanly (correct seq continuity, a cold re-solve) on the survivor.
func TestCrashWithLiveStreamSessions(t *testing.T) {
	_, m, p := testStack(t, 2)

	type liveSess struct {
		dev      string
		sess     *stream.Session
		expected []float64
		seq      uint64
	}
	const victim = 0
	var sessions []*liveSess
	for d := 0; len(sessions) < 3 && d < 40; d++ {
		base := testSystem(t, 10, int64(900+d))
		dev := devName(d)
		sess, upd, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if upd.Cell != victim {
			continue
		}
		gains := make([]float64, len(base.Devices))
		for i := range base.Devices {
			gains[i] = base.Devices[i].Gain
		}
		sessions = append(sessions, &liveSess{dev: dev, sess: sess, expected: gains})
	}
	if len(sessions) < 3 {
		t.Fatal("could not place 3 sessions on the victim cell")
	}

	apply := func(ls *liveSess, prng *rand.Rand) (stream.Update, error) {
		next := ls.seq + 1
		gains := map[int]float64{}
		for len(gains) < 2 {
			i := prng.Intn(len(ls.expected))
			if _, ok := gains[i]; ok {
				continue
			}
			gains[i] = ls.expected[i] * (1 + 0.1*prng.Float64())
		}
		upd, err := m.Apply(context.Background(), ls.sess.ID(), stream.Delta{Seq: next, Gains: gains})
		if err != nil {
			return upd, err
		}
		// Only commit client-side bookkeeping on success.
		ls.seq = next
		for i, g := range gains {
			ls.expected[i] = g
		}
		return upd, nil
	}

	rng := rand.New(rand.NewSource(13))
	for _, ls := range sessions {
		for k := 0; k < 3; k++ {
			if _, err := apply(ls, rng); err != nil {
				t.Fatalf("settling delta: %v", err)
			}
		}
	}

	// Fire deltas concurrently with the crash.
	const inflight = 12
	gate := make(chan struct{})
	var gateOnce sync.Once
	var wg sync.WaitGroup
	errs := make([]error, len(sessions))
	for si, ls := range sessions {
		wg.Add(1)
		go func(si int, ls *liveSess) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(40 + si)))
			for k := 0; k < inflight; k++ {
				u, err := apply(ls, prng)
				if err != nil {
					// A crash is allowed to fail an in-flight delta, but only
					// with a typed, retryable error — never a wrong answer.
					if !errors.Is(err, serve.ErrClosed) && !errors.Is(err, cluster.ErrUnknownCell) && !errors.Is(err, stream.ErrStaleSeq) {
						errs[si] = fmt.Errorf("untyped in-flight failure: %w", err)
					}
					gateOnce.Do(func() { close(gate) })
					return
				}
				if u.Seq != ls.seq {
					errs[si] = fmt.Errorf("update seq %d, client expects %d (silent divergence)", u.Seq, ls.seq)
					gateOnce.Do(func() { close(gate) })
					return
				}
				if k == inflight/2 {
					gateOnce.Do(func() { close(gate) })
				}
			}
			gateOnce.Do(func() { close(gate) })
		}(si, ls)
	}
	<-gate
	if _, err := p.CrashCell(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", si, err)
		}
	}

	// Every session resumes after the crash: the authoritative seq matches
	// the client's committed bookkeeping, the next delta applies on the
	// survivor, and a re-solve (rather than a cache hit) equals a cold
	// solve of the session's instance.
	for si, ls := range sessions {
		if got := ls.sess.Seq(); got != ls.seq {
			t.Fatalf("session %d seq %d, want %d (lost or phantom delta)", si, got, ls.seq)
		}
		u, err := apply(ls, rng)
		if err != nil {
			t.Fatalf("session %d post-crash delta: %v", si, err)
		}
		if u.Cell == victim {
			t.Fatalf("session %d post-crash delta served by dead cell", si)
		}
		if u.Response.Source == serve.SourceCold {
			coretest.RequireCold(t, ls.sess.SystemSnapshot(), balanced(), u.Response.Result.Objective)
		}
	}
}
