package ctrl

import (
	"context"
	"errors"
	"math/rand"
	"sync"
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

// testStack builds router + stream manager + plane with cleanup.
func testStack(t testing.TB, cells int) (*cluster.Router, *stream.Manager, *Plane) {
	t.Helper()
	r := cluster.New(cluster.Config{Cells: cells, Cell: serve.Config{Workers: 2}})
	m := stream.NewManager(stream.NewClusterBackend(r), stream.Config{})
	t.Cleanup(func() {
		m.Close()
		r.Close()
	})
	return r, m, New(r, m)
}

// TestAddCellBackfillsRemappedKeyspace grows the cluster by one cell and
// checks the lazy-backfill contract: only the devices the new ring arcs
// claim move, and their first post-add solve on the new cell is a cache
// hit (exact replay) off the migrated state, never a cold solve.
func TestAddCellBackfillsRemappedKeyspace(t *testing.T) {
	r, _, p := testStack(t, 3)

	// Hash-routed devices with cached state spread across the cells.
	const devices = 24
	sys := make([]*fl.System, devices)
	before := make([]int, devices)
	for d := 0; d < devices; d++ {
		sys[d] = testSystem(t, 5, int64(100+d))
		dev := devName(d)
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys[d], Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != serve.SourceCold {
			t.Fatalf("setup solve %d source %q", d, resp.Source)
		}
		before[d] = cell
	}

	rep, err := p.AddCell(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cell != 3 {
		t.Fatalf("new cell id %d, want 3", rep.Cell)
	}
	if rep.Generation != 1 || r.Generation() != 1 {
		t.Fatalf("generation %d after one change, want 1", rep.Generation)
	}

	var remapped, stayed int
	for d := 0; d < devices; d++ {
		dev := devName(d)
		after := r.Route(dev)
		if after != before[d] && after != rep.Cell {
			t.Fatalf("device %s moved %d -> %d: growth may only remap onto the new cell", dev, before[d], after)
		}
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys[d], Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if cell != after {
			t.Fatalf("device %s served by %d, routed to %d", dev, cell, after)
		}
		if resp.Source != serve.SourceCache {
			t.Fatalf("device %s post-add replay source %q (cell %d -> %d): backfill lost its cache entry", dev, resp.Source, before[d], after)
		}
		if after == rep.Cell {
			remapped++
		} else {
			stayed++
		}
	}
	if remapped == 0 {
		t.Fatal("no device remapped onto the new cell out of 24")
	}
	if rep.Backfill.Devices != remapped || rep.Backfill.MigratedResults != remapped {
		t.Fatalf("backfill report %+v, want %d devices with %d migrated results", rep.Backfill, remapped, remapped)
	}
	if got := p.Stats(); got.MovedDevices != int64(remapped) || got.CellsAdded != 1 {
		t.Fatalf("ctrl stats %+v", got)
	}
}

func devName(d int) string {
	return "ue-" + string(rune('a'+d%26)) + "-" + string(rune('0'+d/26))
}

// TestDrainCellMigratesStateAndMembership drains a cell without any
// streaming involved: every device routed there lands pinned on its
// post-removal ring owner with its cache entry, the cell leaves the
// membership, and draining the last cell is refused.
func TestDrainCellMigratesStateAndMembership(t *testing.T) {
	r, _, p := testStack(t, 2)

	const devices = 10
	sys := make([]*fl.System, devices)
	for d := 0; d < devices; d++ {
		sys[d] = testSystem(t, 5, int64(200+d))
		if _, _, err := r.Solve(context.Background(), cluster.CellAuto, devName(d), serve.Request{System: sys[d], Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := p.DrainCell(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.HasCell(0) || r.Cells() != 1 {
		t.Fatalf("cell 0 still a member after drain: cells %v", r.CellIDs())
	}
	if len(rep.Cells) != 1 || rep.Cells[0] != 1 {
		t.Fatalf("drain report cells %v, want [1]", rep.Cells)
	}
	for d := 0; d < devices; d++ {
		dev := devName(d)
		if got := r.Route(dev); got != 1 {
			t.Fatalf("device %s routes to %d after drain, want 1", dev, got)
		}
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys[d], Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if cell != 1 || resp.Source != serve.SourceCache {
			t.Fatalf("device %s post-drain replay: cell %d source %q, want 1/cache", dev, cell, resp.Source)
		}
	}

	// Draining the survivor is refused; the unknown cell is a typed error.
	if _, err := p.DrainCell(context.Background(), 1); !errors.Is(err, cluster.ErrLastCell) {
		t.Fatalf("last-cell drain err = %v, want ErrLastCell", err)
	}
	if _, err := p.DrainCell(context.Background(), 0); !errors.Is(err, cluster.ErrUnknownCell) {
		t.Fatalf("re-drain err = %v, want ErrUnknownCell", err)
	}
	var uc cluster.UnknownCellError
	if _, err := p.DrainCell(context.Background(), 7); !errors.As(err, &uc) || uc.Cell != 7 {
		t.Fatalf("drain 7 err = %v, want UnknownCellError{7}", err)
	}
}

// TestDrainWithLiveStreamSessions is the acceptance scenario: a cell is
// drained WHILE its stream sessions keep firing deltas. No delta may be
// lost, no ErrStaleSeq may surface, and every post-drain re-solve on the
// destination cell must equal a cold solve of the session's instance.
func TestDrainWithLiveStreamSessions(t *testing.T) {
	_, m, p := testStack(t, 2)

	// One session per device; keep only sessions that opened on the cell
	// we will drain, so every one of them migrates.
	type liveSess struct {
		dev      string
		sess     *stream.Session
		expected []fl.Device
		seq      uint64
	}
	const drain = 0
	var sessions []*liveSess
	for d := 0; len(sessions) < 3 && d < 40; d++ {
		base := testSystem(t, 10, int64(300+d))
		dev := devName(d)
		sess, upd, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if upd.Cell != drain {
			continue
		}
		sessions = append(sessions, &liveSess{dev: dev, sess: sess, expected: append([]fl.Device(nil), base.Devices...)})
	}
	if len(sessions) < 3 {
		t.Fatal("could not place 3 sessions on the drain cell")
	}

	rng := rand.New(rand.NewSource(7))
	apply := func(ls *liveSess, prng *rand.Rand) (stream.Update, error) {
		ls.seq++
		gains := map[int]float64{}
		for len(gains) < 2 {
			i := prng.Intn(len(ls.expected))
			if _, ok := gains[i]; ok {
				continue
			}
			gains[i] = ls.expected[i].Gain * (1 + 0.1*prng.Float64())
		}
		for i, g := range gains {
			ls.expected[i].Gain = g
		}
		return m.Apply(context.Background(), ls.sess.ID(), stream.Delta{Seq: ls.seq, Gains: gains})
	}
	// Settle a few deltas first. The drain carries each session's opening
	// instance: delta solves are session-private (never cached, never
	// recorded in the handoff history), so they cannot crowd it out.
	for _, ls := range sessions {
		for k := 0; k < 3; k++ {
			if _, err := apply(ls, rng); err != nil {
				t.Fatalf("settling delta: %v", err)
			}
		}
	}

	// Fire deltas concurrently with the drain: one applier goroutine per
	// session, the drain in the main goroutine, triggered mid-stream.
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
					errs[si] = err
					gateOnce.Do(func() { close(gate) })
					return
				}
				if u.Seq != ls.seq {
					errs[si] = errors.New("update seq mismatch")
				}
				if k == inflight/2 {
					gateOnce.Do(func() { close(gate) })
				}
			}
			gateOnce.Do(func() { close(gate) })
		}(si, ls)
	}
	<-gate
	rep, err := p.DrainCell(context.Background(), drain)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("session %d in-flight delta failed: %v (ErrStaleSeq surfaced: %v)", si, err, errors.Is(err, stream.ErrStaleSeq))
		}
	}
	if rep.Handoff.MigratedResults == 0 {
		t.Fatalf("drain migrated no cache entries: %+v", rep.Handoff)
	}

	// No lost deltas: every session's seq and authoritative state match the
	// client-side bookkeeping exactly.
	for si, ls := range sessions {
		if got := ls.sess.Seq(); got != ls.seq {
			t.Fatalf("session %d seq %d, want %d (lost deltas)", si, got, ls.seq)
		}
		snap := ls.sess.SystemSnapshot()
		for i := range ls.expected {
			if snap.Devices[i].Gain != ls.expected[i].Gain {
				t.Fatalf("session %d device %d gain %g != expected %g (lost update)", si, i, snap.Devices[i].Gain, ls.expected[i].Gain)
			}
		}
	}

	// Post-drain deltas: served by the surviving cell, cold.
	for si, ls := range sessions {
		for k := 0; k < 3; k++ {
			u, err := apply(ls, rng)
			if err != nil {
				t.Fatalf("session %d post-drain delta: %v", si, err)
			}
			if u.Cell != 1 {
				t.Fatalf("session %d post-drain delta served by cell %d, want 1", si, u.Cell)
			}
			if u.Response.Source == serve.SourceCold {
				coretest.RequireCold(t, ls.sess.SystemSnapshot(), balanced(), u.Response.Result.Objective)
			}
		}
	}
	if got := p.Stats(); got.Drains != 1 || got.CellsRemoved != 1 {
		t.Fatalf("ctrl stats %+v, want 1 drain / 1 removal", got)
	}
}

// TestRebalanceReturnsPinnedDevicesToRing pins devices away from their
// ring owners via handoffs, then checks the planner counts them and the
// executed rebalance moves their state home and unpins them.
func TestRebalanceReturnsPinnedDevicesToRing(t *testing.T) {
	r, _, p := testStack(t, 3)

	const devices = 9
	sys := make([]*fl.System, devices)
	pinnedAway := 0
	for d := 0; d < devices; d++ {
		sys[d] = testSystem(t, 5, int64(400+d))
		dev := devName(d)
		if _, _, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys[d], Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
		// Mobility: hand the device off to the next cell over.
		owner := r.Route(dev)
		to := (owner + 1) % 3
		if _, err := r.Handoff(context.Background(), dev, owner, to); err != nil {
			t.Fatal(err)
		}
		pinnedAway++
	}

	plan := p.RebalancePlan()
	if plan.Moves != pinnedAway {
		t.Fatalf("plan moves %d, want %d", plan.Moves, pinnedAway)
	}
	var in, out int
	for _, f := range plan.PerCell {
		in += f.In
		out += f.Out
	}
	if in != pinnedAway || out != pinnedAway {
		t.Fatalf("plan per-cell flows in %d out %d, want %d each (%+v)", in, out, pinnedAway, plan.PerCell)
	}

	rep, err := p.Rebalance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Handoff.Devices != pinnedAway {
		t.Fatalf("rebalance moved %d devices, want %d", rep.Handoff.Devices, pinnedAway)
	}
	stats := r.Stats()
	if stats.Aggregate.PinnedDevices != 0 {
		t.Fatalf("%d devices still pinned after rebalance, want 0", stats.Aggregate.PinnedDevices)
	}
	for d := 0; d < devices; d++ {
		dev := devName(d)
		resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: sys[d], Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if cell != r.Route(dev) || resp.Source != serve.SourceCache {
			t.Fatalf("device %s post-rebalance replay: cell %d source %q, want ring owner %d/cache", dev, cell, resp.Source, r.Route(dev))
		}
	}
	if p.RebalancePlan().Moves != 0 {
		t.Fatalf("plan not empty after rebalance: %+v", p.RebalancePlan())
	}
}

// TestEpochCheckedRoutingSurvivesRemoval pins a device to a cell, removes
// the cell without draining, and checks device-routed traffic falls back
// to the ring instead of failing against the vanished member.
func TestEpochCheckedRoutingSurvivesRemoval(t *testing.T) {
	r, _, _ := testStack(t, 3)
	s := testSystem(t, 5, 500)
	const dev = "ue-stale-pin"
	if _, _, err := r.Solve(context.Background(), 2, dev, serve.Request{System: s, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	if got := r.Route(dev); got != 2 {
		t.Fatalf("pinned route %d, want 2", got)
	}
	if err := r.RemoveCell(2); err != nil {
		t.Fatal(err)
	}
	if r.HasCell(2) {
		t.Fatal("cell 2 still a member")
	}
	// Stale pin: the route falls back to the surviving ring.
	after := r.Route(dev)
	if after == 2 {
		t.Fatal("route still names the removed cell")
	}
	resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if cell != after {
		t.Fatalf("served by %d, routed to %d", cell, after)
	}
	if resp.Source == serve.SourceCache {
		t.Fatal("cache hit on an undrained removal: state should have died with the cell")
	}
	// Explicit requests to the vanished cell get the typed unknown-cell.
	if _, _, err := r.Solve(context.Background(), 2, dev, serve.Request{System: s, Weights: balanced()}); !errors.Is(err, cluster.ErrUnknownCell) {
		t.Fatalf("explicit solve on removed cell err = %v, want ErrUnknownCell", err)
	}
	// IDs are never reused: the next added cell gets a fresh one.
	if id := r.AddCell(); id != 3 {
		t.Fatalf("added cell id %d, want 3 (no reuse of removed 2)", id)
	}
}
