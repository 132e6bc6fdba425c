package replica

import (
	"context"
	"fmt"

	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core/coretest"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/serve"
	"repro/internal/stream"
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

func balanced() fl.Weights { return fl.Weights{W1: 0.5, W2: 0.5} }

func testRouter(t testing.TB, cells int) *cluster.Router {
	t.Helper()
	r := cluster.New(cluster.Config{Cells: cells, Cell: serve.Config{Workers: 2}})
	t.Cleanup(r.Close)
	return r
}

// TestSnapshotterSaveRestore runs the snapshot lifecycle end to end: a
// server is captured on Close (the graceful-shutdown flush), and a fresh
// "restarted" server restored from the file answers the exact replay from
// cache with the cold solve's objective.
func TestSnapshotterSaveRestore(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	sys := testSystem(t, 8, 1)
	if _, err := srv.Solve(context.Background(), serve.Request{System: sys, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cell.snap")
	snapper := NewSnapshotter(SnapshotterConfig{Path: path, Interval: -1, Capture: CaptureServer(srv, nil)})
	snapper.Start()
	if err := snapper.Close(); err != nil {
		t.Fatal(err)
	}
	st := snapper.Stats()
	if st.Saves != 1 || st.SaveErrors != 0 || st.LastBytes == 0 {
		t.Fatalf("snapshotter stats after close: %+v", st)
	}

	srv2 := serve.New(serve.Config{Workers: 2})
	defer srv2.Close()
	rep, ok := BootRestore(path, nil, func(snap Snapshot) RestoreReport {
		return RestoreServer(srv2, nil, snap)
	})
	if !ok || rep.Cells != 1 || rep.Results != 1 {
		t.Fatalf("boot restore: ok=%t rep=%+v", ok, rep)
	}

	exact, err := srv2.Solve(context.Background(), serve.Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Source != serve.SourceCache {
		t.Fatalf("restored exact replay source %q, want cache", exact.Source)
	}
	coretest.RequireCold(t, sys, balanced(), exact.Result.Objective)
}

// TestRestoreSnapshotWithWarmSection restores an FLSNAP02 file written
// while the serving layer still kept a warm-start index: its cells carry a
// "warm" section next to the cache entries. Decoding ignores that key, so
// the cache entries and the stream session come back as they were. The
// entries are keyed by the bucketed fingerprints of that build, which no
// exact key matches: a replay of the session's instance solves cold (the
// TTL and LRU retire the stale entries), and the replay after it hits.
func TestRestoreSnapshotWithWarmSection(t *testing.T) {
	path := filepath.Join("testdata", "flsnap02_warm.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"warm":[`) {
		t.Fatal("fixture lost its warm section")
	}
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	mgr := stream.NewManager(stream.NewServeBackend(srv), stream.Config{})
	defer mgr.Close()
	rep, ok := BootRestore(path, nil, func(snap Snapshot) RestoreReport {
		return RestoreServer(srv, mgr, snap)
	})
	if !ok || rep.Cells != 1 || rep.Results != 3 || rep.Sessions != 1 {
		t.Fatalf("boot restore: ok=%t rep=%+v, want 1 cell, 3 results, 1 session", ok, rep)
	}
	if got := srv.Stats().CacheEntries; got != 3 {
		t.Fatalf("restored cache holds %d entries, want 3", got)
	}

	sessions := mgr.ExportSessions()
	if len(sessions) != 1 || sessions[0].DeviceID != "dev-fixture" || sessions[0].Seq != 2 {
		t.Fatalf("restored sessions %+v, want dev-fixture at seq 2", sessions)
	}
	ss := sessions[0]
	sys := ss.System
	for k, want := range []serve.Source{serve.SourceCold, serve.SourceCache} {
		replay, err := srv.Solve(context.Background(), serve.Request{System: sys, Weights: ss.Weights, Options: ss.Options, Solver: ss.Solver})
		if err != nil {
			t.Fatal(err)
		}
		if replay.Source != want {
			t.Fatalf("replay %d of the session's instance: source %q, want %q", k, replay.Source, want)
		}
	}
	if got := srv.Stats().CacheEntries; got != 4 {
		t.Fatalf("cache holds %d entries after the replays, want the 3 restored plus 1", got)
	}
	upd, err := mgr.Apply(context.Background(), ss.ID, stream.Delta{Seq: 3, Gains: map[int]float64{0: sys.Devices[0].Gain * 3}})
	if err != nil || upd.Seq != 3 {
		t.Fatalf("post-restore delta 3: seq %d, err %v", upd.Seq, err)
	}
}

// TestCaptureRestoreCluster round-trips a cluster snapshot, including a
// cell section whose ID no longer exists on the restored ring (spread
// over the live cells instead of dropped).
func TestCaptureRestoreCluster(t *testing.T) {
	src := testRouter(t, 3)
	var systems []*fl.System
	for i := 0; i < 3; i++ {
		sys := testSystem(t, 8, int64(200+i))
		systems = append(systems, sys)
		if _, _, err := src.Solve(context.Background(), i, fmt.Sprintf("ue-%d", i), serve.Request{System: sys, Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
	}
	snap := CaptureCluster(src, nil)()
	if len(snap.Cells) != 3 {
		t.Fatalf("captured %d cell sections, want 3", len(snap.Cells))
	}

	// Restore into a smaller cluster: cell 2's section is an orphan.
	dst := testRouter(t, 2)
	rep := RestoreCluster(dst, nil, snap)
	if rep.Cells != 3 || rep.Results != 3 {
		t.Fatalf("cluster restore report %+v, want 3 cells / 3 results", rep)
	}
	// The orphaned state still serves: its exact replay must be a cache
	// hit on whichever live cell received it.
	found := false
	for _, id := range dst.CellIDs() {
		srv, ok := dst.CellServer(id)
		if !ok {
			continue
		}
		resp, err := srv.Solve(context.Background(), serve.Request{System: systems[2], Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source == serve.SourceCache {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("orphaned cell section was not restored onto any live cell")
	}
}
