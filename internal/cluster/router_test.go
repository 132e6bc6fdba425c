package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core/coretest"
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

func testRouter(t testing.TB, cells int) *Router {
	t.Helper()
	r := New(Config{Cells: cells, Cell: serve.Config{Workers: 2}})
	t.Cleanup(r.Close)
	return r
}

// driftGains drifts every gain by a log-normal factor (sigma in nepers): a
// new exact fingerprint with the same topology hash.
func driftGains(s *fl.System, sigma float64, rng *rand.Rand) *fl.System {
	out := *s
	out.Devices = append([]fl.Device(nil), s.Devices...)
	for i := range out.Devices {
		out.Devices[i].Gain *= math.Exp(sigma * rng.NormFloat64())
	}
	return &out
}

func TestRouteHashFallbackAndPinning(t *testing.T) {
	r := testRouter(t, 4)
	s := testSystem(t, 6, 1)
	req := serve.Request{System: s, Weights: balanced()}

	// Unpinned: consistent hash, deterministic.
	want := r.Route("dev-a")
	if got := r.Route("dev-a"); got != want {
		t.Fatalf("Route not deterministic: %d then %d", want, got)
	}

	// Device-routed solve serves the hashed cell.
	resp, cell, err := r.Solve(context.Background(), CellAuto, "dev-a", req)
	if err != nil {
		t.Fatal(err)
	}
	if cell != want {
		t.Fatalf("auto solve served by cell %d, Route says %d", cell, want)
	}
	if resp.Source != serve.SourceCold {
		t.Fatalf("first solve source %q, want cold", resp.Source)
	}

	// An explicit-cell solve pins the device there.
	explicit := (want + 1) % r.Cells()
	if _, cell, err = r.Solve(context.Background(), explicit, "dev-a", req); err != nil || cell != explicit {
		t.Fatalf("explicit solve: cell %d err %v, want %d", cell, err, explicit)
	}
	if got := r.Route("dev-a"); got != explicit {
		t.Fatalf("after explicit solve Route = %d, want pinned %d", got, explicit)
	}

	// Out-of-range explicit cells are rejected.
	if _, _, err := r.Solve(context.Background(), r.Cells(), "dev-a", req); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("cell %d accepted: %v", r.Cells(), err)
	}
}

// TestHandoffMigratesCache moves a device's cache entry with it: the
// destination answers the exact replay from its cache with the cold
// solve's objective, and the source has to solve the instance again.
func TestHandoffMigratesCache(t *testing.T) {
	r := testRouter(t, 3)
	s := testSystem(t, 8, 2)
	req := serve.Request{System: s, Weights: balanced()}
	const dev = "ue-42"

	// Serve the device in cell 0 (explicit → pinned, recorded).
	first, cell, err := r.Solve(context.Background(), 0, dev, req)
	if err != nil {
		t.Fatal(err)
	}
	if cell != 0 || first.Source != serve.SourceCold {
		t.Fatalf("setup solve: cell %d source %q", cell, first.Source)
	}

	rep, err := r.Handoff(context.Background(), dev, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 1 || rep.MigratedResults != 1 {
		t.Fatalf("handoff report %+v, want 1 instance and 1 migrated result", rep)
	}

	// The pin follows the device.
	if got := r.Route(dev); got != 2 {
		t.Fatalf("after handoff Route = %d, want 2", got)
	}

	// Exact replay, device-routed: destination answers from its cache
	// without solving.
	replay, cell, err := r.Solve(context.Background(), CellAuto, dev, req)
	if err != nil {
		t.Fatal(err)
	}
	if cell != 2 {
		t.Fatalf("replay served by cell %d, want 2", cell)
	}
	if replay.Source != serve.SourceCache {
		t.Fatalf("post-handoff replay source %q, want cache", replay.Source)
	}
	coretest.RequireCold(t, s, balanced(), replay.Result.Objective)

	// The source cell's cache entry is gone (migrated, not copied): its
	// occupancy dropped to zero and the same instance there has to solve
	// again.
	if occ := r.Cell(0).Stats().CacheEntries; occ != 0 {
		t.Fatalf("source cell still holds %d cache entries after handoff", occ)
	}
	gone, _, err := r.Solve(context.Background(), 0, dev+"-other", req)
	if err != nil {
		t.Fatal(err)
	}
	if gone.Source != serve.SourceCold {
		t.Fatalf("source cell answered %q after its entry migrated away, want cold", gone.Source)
	}
}

// TestFailedExplicitSolveDoesNotPin pins routing-state hygiene: a rejected
// explicit-cell solve must not capture the device.
func TestFailedExplicitSolveDoesNotPin(t *testing.T) {
	r := testRouter(t, 3)
	s := testSystem(t, 4, 6)
	before := r.Route("dev-x")
	// Bogus solver: rejected before anything is served.
	_, _, err := r.Solve(context.Background(), (before+1)%3, "dev-x", serve.Request{System: s, Weights: balanced(), Solver: "bogus"})
	if err == nil {
		t.Fatal("bogus solver accepted")
	}
	if got := r.Route("dev-x"); got != before {
		t.Fatalf("failed explicit solve moved the pin: %d -> %d", before, got)
	}
}

// TestHandoffBaselineMigratesCacheEntry: a baseline solver's result
// migrates like Algorithm 2's, under its own solver-keyed fingerprint.
func TestHandoffBaselineMigratesCacheEntry(t *testing.T) {
	r := testRouter(t, 2)
	s := testSystem(t, 6, 12)
	req := serve.Request{System: s, Weights: balanced(), Solver: serve.SolverSimplified}
	if _, _, err := r.Solve(context.Background(), 0, "b-dev", req); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Handoff(context.Background(), "b-dev", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MigratedResults != 1 {
		t.Fatalf("baseline handoff report %+v, want 1 result", rep)
	}
	resp, _, err := r.Solve(context.Background(), CellAuto, "b-dev", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != serve.SourceCache {
		t.Fatalf("baseline replay after handoff source %q, want cache", resp.Source)
	}
}

func TestHandoffValidation(t *testing.T) {
	r := testRouter(t, 2)
	if _, err := r.Handoff(context.Background(), "", 0, 1); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("empty device: %v", err)
	}
	if _, err := r.Handoff(context.Background(), "d", -1, 1); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("from -1: %v", err)
	}
	if _, err := r.Handoff(context.Background(), "d", 0, 2); !errors.Is(err, ErrUnknownCell) {
		t.Fatalf("to 2 of 2: %v", err)
	}
	// Unknown device: no records, but the pin is established.
	rep, err := r.Handoff(context.Background(), "newcomer", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 0 || rep.MigratedResults != 0 {
		t.Fatalf("unknown device migrated something: %+v", rep)
	}
	if got := r.Route("newcomer"); got != 1 {
		t.Fatalf("newcomer routed to %d, want pinned 1", got)
	}
	// Same-cell handoff is a pin-only no-op.
	if rep, err = r.Handoff(context.Background(), "newcomer", 1, 1); err != nil || rep.Instances != 0 {
		t.Fatalf("same-cell handoff: %+v, %v", rep, err)
	}
}

func TestClusterStatsAggregateConsistent(t *testing.T) {
	r := testRouter(t, 3)
	rng := rand.New(rand.NewSource(5))
	base := testSystem(t, 6, 7)
	for i := 0; i < 12; i++ {
		sys := base
		if i%3 != 0 {
			sys = driftGains(base, 0.25, rng)
		}
		dev := []string{"a", "b", "c", "d"}[i%4]
		if _, _, err := r.Solve(context.Background(), CellAuto, dev, serve.Request{System: sys, Weights: balanced()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Handoff(context.Background(), "a", r.Route("a"), (r.Route("a")+1)%3); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if len(st.Cells) != 3 {
		t.Fatalf("%d cell snapshots, want 3", len(st.Cells))
	}
	var requests, hits, cold, cacheEntries int64
	for _, c := range st.Cells {
		requests += c.Requests
		hits += c.Hits
		cold += c.ColdSolves
		cacheEntries += int64(c.CacheEntries)
	}
	a := st.Aggregate
	if a.Requests != requests || a.Hits != hits || a.ColdSolves != cold {
		t.Fatalf("aggregate %+v does not sum per-cell counters (req %d hits %d cold %d)", a, requests, hits, cold)
	}
	if int64(a.CacheEntries) != cacheEntries {
		t.Fatalf("aggregate cache entries %d, per-cell sum %d", a.CacheEntries, cacheEntries)
	}
	if a.Requests != 12 {
		t.Fatalf("aggregate requests %d, want 12", a.Requests)
	}
	if a.Handoffs != 1 {
		t.Fatalf("aggregate handoffs %d, want 1", a.Handoffs)
	}
	if a.RoutedPinned+a.RoutedHashed+a.RoutedExplicit != 12 {
		t.Fatalf("routing breakdown %d+%d+%d, want 12", a.RoutedExplicit, a.RoutedPinned, a.RoutedHashed)
	}
	if hits+cold > 0 && !(a.SolveP50 > 0) {
		t.Fatalf("aggregate latency quantiles missing: %+v", a)
	}
}

// TestHandoffTwoHops hands a device off twice: the record follows the
// device (its cell is updated on the first hop, so the second hop finds it
// again), and the entry migrated twice is still a hit in the last cell.
func TestHandoffTwoHops(t *testing.T) {
	r := testRouter(t, 3)
	s := testSystem(t, 6, 9)
	req := serve.Request{System: s, Weights: balanced()}
	const dev = "hopper"

	if _, _, err := r.Solve(context.Background(), 0, dev, req); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Handoff(context.Background(), dev, 0, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Handoff(context.Background(), dev, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MigratedResults != 1 {
		t.Fatalf("second hop migrated %d results, want 1 (record should follow the device)", rep.MigratedResults)
	}
	resp, cell, err := r.Solve(context.Background(), CellAuto, dev, req)
	if err != nil {
		t.Fatal(err)
	}
	if cell != 2 || resp.Source != serve.SourceCache {
		t.Fatalf("after two hops: cell %d source %q, want 2/cache", cell, resp.Source)
	}
}

// TestStalePinFollowsTheRing covers a cell removed without a drain: its
// devices keep pins to the dead cell. Route ignores such a pin, and the
// planning views behind drains and backfills (DevicesOn, Misplaced) must
// ignore it the same way, or every later migration skips the device and
// its cached state is lost.
func TestStalePinFollowsTheRing(t *testing.T) {
	r := testRouter(t, 3)
	const dev = "ue-stale"
	req := serve.Request{System: testSystem(t, 4, 1), Weights: balanced()}
	if _, _, err := r.Solve(context.Background(), 0, dev, req); err != nil { // pins dev to cell 0
		t.Fatal(err)
	}
	if err := r.RemoveCell(0); err != nil {
		t.Fatal(err)
	}
	owner := r.Route(dev)
	if owner == 0 {
		t.Fatal("device still routes to the removed cell")
	}
	for _, c := range r.CellIDs() {
		listed := false
		for _, d := range r.DevicesOn(c) {
			listed = listed || d == dev
		}
		if listed != (c == owner) {
			t.Fatalf("DevicesOn(%d) lists the device: %v; it routes to %d", c, listed, owner)
		}
	}
	// Its record still names the dead cell, so even a plan that leaves
	// pinned devices alone must send it to its ring owner.
	moves, _ := r.Misplaced(false)
	if len(moves) != 1 || moves[0] != (Move{DeviceID: dev, To: owner}) {
		t.Fatalf("Misplaced(false) = %+v, want the device moved to %d", moves, owner)
	}
}
