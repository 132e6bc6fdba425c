package replica

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
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

func balanced() fl.Weights { return fl.Weights{W1: 0.5, W2: 0.5} }

func testRouter(t testing.TB, cells int) *cluster.Router {
	t.Helper()
	r := cluster.New(cluster.Config{Cells: cells, Cell: serve.Config{Workers: 2}})
	t.Cleanup(r.Close)
	return r
}

// driftGains drifts every gain far enough to leave the exact fingerprint
// bucket while staying inside the warm-start topology bucket.
func driftGains(s *fl.System, sigma float64, rng *rand.Rand) *fl.System {
	out := *s
	out.Devices = append([]fl.Device(nil), s.Devices...)
	for i := range out.Devices {
		out.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &out
}

// requireWarmNearCold fails unless resp came off the warm-start path with
// an objective within 1e-6 (relative) of a cold solve of sys.
func requireWarmNearCold(t testing.TB, sys *fl.System, w fl.Weights, resp serve.Response) {
	t.Helper()
	if resp.Source != serve.SourceWarm {
		t.Fatalf("source %q, want warm", resp.Source)
	}
	cold, err := core.Optimize(sys, w, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(resp.Result.Objective/cold.Objective - 1); rel > 1e-6 {
		t.Fatalf("warm objective %.12g vs cold %.12g (rel %.3g)", resp.Result.Objective, cold.Objective, rel)
	}
}

// TestSnapshotterSaveRestore runs the snapshot lifecycle end to end: a
// warmed server is captured on Close (the graceful-shutdown flush), and a
// fresh "restarted" server restored from the file answers the exact
// replay from cache and a drifted replay warm.
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
	if !ok || rep.Cells != 1 || rep.Results != 1 || rep.WarmSeeds != 1 {
		t.Fatalf("boot restore: ok=%t rep=%+v", ok, rep)
	}

	exact, err := srv2.Solve(context.Background(), serve.Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Source != serve.SourceCache {
		t.Fatalf("restored exact replay source %q, want cache", exact.Source)
	}
	driftedSys := driftGains(sys, 0.05, rand.New(rand.NewSource(2)))
	drifted, err := srv2.Solve(context.Background(), serve.Request{System: driftedSys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	requireWarmNearCold(t, driftedSys, balanced(), drifted)
}

// TestReplicatorPromote is the crash acceptance path: devices solve
// across a cluster, the replicator ships their warm state, a cell is
// removed WITHOUT draining, and Promote lands its replicas on the
// post-crash ring owners — so the drifted re-solve for a replicated
// device is warm, and as good as a cold solve, instead of cold.
func TestReplicatorPromote(t *testing.T) {
	r := testRouter(t, 3)
	rep := NewReplicator(ReplicatorConfig{Router: r, Interval: -1})
	defer rep.Close()

	// Route enough devices that every cell serves at least one.
	type served struct {
		dev  string
		sys  *fl.System
		cell int
	}
	var byCell [3][]served
	for i := 0; i < 9; i++ {
		dev := fmt.Sprintf("ue-%d", i)
		sys := testSystem(t, 8, int64(100+i))
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys, Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != serve.SourceCold {
			t.Fatalf("first solve for %s source %q, want cold", dev, resp.Source)
		}
		byCell[cell] = append(byCell[cell], served{dev: dev, sys: sys, cell: cell})
	}

	if shipped := rep.Flush(); shipped == 0 {
		t.Fatal("flush shipped nothing despite dirty devices")
	}
	st := rep.Stats()
	if st.Flushes != 1 || st.StoreDevices != 9 || st.DirtyDevices != 0 {
		t.Fatalf("post-flush stats: %+v", st)
	}

	// Pick a victim that served someone, leave one of its devices dirty
	// again (unflushed at crash time → counted lost).
	victim := -1
	for c := range byCell {
		if len(byCell[c]) > 0 {
			victim = c
			break
		}
	}
	if victim < 0 {
		t.Fatal("no cell served any device")
	}
	loss := byCell[victim][0]
	rng := rand.New(rand.NewSource(7))
	if _, _, err := r.Solve(context.Background(), victim, loss.dev, serve.Request{System: driftGains(loss.sys, 0.05, rng), Weights: balanced()}); err != nil {
		t.Fatal(err)
	}

	// Crash: remove without drain, then promote against the new ring.
	if err := r.RemoveCell(victim); err != nil {
		t.Fatal(err)
	}
	report := rep.Promote(victim)
	if report.Cell != victim || report.Devices != len(byCell[victim]) {
		t.Fatalf("promote report %+v, want %d devices of cell %d", report, len(byCell[victim]), victim)
	}
	if report.WarmSeeds == 0 || report.LostDirty != 1 {
		t.Fatalf("promote report %+v, want warm seeds > 0 and 1 lost dirty device", report)
	}
	for owner := range report.PerCell {
		if owner == victim {
			t.Fatalf("promotion injected into the dead cell: %+v", report.PerCell)
		}
	}

	// Every replicated device of the dead cell re-solves warm on its
	// successor — the keyspace degraded to warm-but-not-cached, not cold.
	for _, sv := range byCell[victim] {
		drifted := driftGains(sv.sys, 0.05, rng)
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, sv.dev, serve.Request{System: drifted, Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if cell == victim {
			t.Fatalf("device %s still routed to dead cell %d", sv.dev, victim)
		}
		requireWarmNearCold(t, drifted, balanced(), resp)
	}

	st = rep.Stats()
	if st.Promotions != 1 || st.PromotedWarm != int64(report.WarmSeeds) || st.LostDirty != 1 {
		t.Fatalf("post-promote stats: %+v", st)
	}
	var buf strings.Builder
	st.WritePrometheus(serve.NewPromWriter(&buf))
	out := buf.String()
	for _, series := range []string{"replica_promotions_total 1", "replica_lost_dirty_devices_total 1", "replica_shipped_warm_seeds_total"} {
		if !strings.Contains(out, series) {
			t.Fatalf("metrics missing %q:\n%s", series, out)
		}
	}
}

// TestReplicatorFlushCoalesces checks repeated solves for one device
// coalesce into a single dirty entry, and that a flush after the cell is
// already gone drops (and counts) the orphaned entries instead of
// shipping stale pointers.
func TestReplicatorFlushCoalesces(t *testing.T) {
	r := testRouter(t, 2)
	rep := NewReplicator(ReplicatorConfig{Router: r, Interval: -1})
	defer rep.Close()

	sys := testSystem(t, 8, 3)
	rng := rand.New(rand.NewSource(11))
	var lastCell int
	for i := 0; i < 4; i++ {
		_, cell, err := r.Solve(context.Background(), cluster.CellAuto, "ue-co", serve.Request{System: driftGains(sys, 0.05, rng), Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		lastCell = cell
	}
	if st := rep.Stats(); st.DirtyDevices != 1 {
		t.Fatalf("4 solves for one device left %d dirty entries, want 1 (coalesced)", st.DirtyDevices)
	}

	// Kill the serving cell before the flush: nothing to peek, entries
	// dropped and counted.
	if err := r.RemoveCell(lastCell); err != nil {
		t.Fatal(err)
	}
	if shipped := rep.Flush(); shipped != 0 {
		t.Fatalf("flush after cell death shipped %d seeds, want 0", shipped)
	}
	if st := rep.Stats(); st.FlushDropped != 1 || st.DirtyDevices != 0 {
		t.Fatalf("post-drop stats: %+v", st)
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
	if rep.Cells != 3 || rep.Results != 3 || rep.WarmSeeds != 3 {
		t.Fatalf("cluster restore report %+v, want 3 cells / 3 results / 3 warm seeds", rep)
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
