package stream

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core/coretest"
	"repro/internal/fl"
	"repro/internal/serve"
)

// TestActiveSessionSurvivesHandoff drives deltas through a cluster-backed
// session WHILE the device hands off between cells: no update may be lost
// (every sequence number applies, in order, to the authoritative state) and
// the post-move re-solves land on the new cell as cold solves. Delta solves
// are session-private (never cached, never recorded in the handoff
// history), so the move carries exactly one answer: the opening
// instance's, which leaves the source cell empty.
func TestActiveSessionSurvivesHandoff(t *testing.T) {
	r := cluster.New(cluster.Config{Cells: 2, Cell: serve.Config{Workers: 2}})
	defer r.Close()
	m := NewManager(NewClusterBackend(r), Config{})
	defer m.Close()

	base := testSystem(t, 10, 31)
	const dev = "dev-moving"
	sess, upd0, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	from := upd0.Cell
	to := 1 - from
	if got := r.Route(dev); got != from {
		t.Fatalf("device routed to cell %d, opening solve served by %d", got, from)
	}

	// A few settled deltas before the move.
	rng := rand.New(rand.NewSource(32))
	expected := append([]fl.Device(nil), base.Devices...)
	apply := func(seq uint64) Update {
		t.Helper()
		d := sparseDrift(&fl.System{Devices: expected}, seq, 2, 0.1, rng)
		for i, g := range d.Gains {
			expected[i].Gain = g
		}
		u, err := m.Apply(context.Background(), sess.ID(), d)
		if err != nil {
			t.Fatalf("delta %d: %v", seq, err)
		}
		return u
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if u := apply(seq); u.Cell != from {
			t.Fatalf("pre-handoff delta %d served by cell %d, want %d", seq, u.Cell, from)
		}
	}

	// Deltas in flight while the handoff runs. The applier goroutine owns
	// the delta sequence; the main goroutine fires the handoff concurrently,
	// so solves race the migration in both cells.
	const inflight = 20
	var wg sync.WaitGroup
	updates := make([]Update, 0, inflight)
	handoffGate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(handoffGate) }) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer openGate() // never leave the main goroutine blocked on a failure
		prng := rand.New(rand.NewSource(33))
		for seq := uint64(5); seq < 5+inflight; seq++ {
			d := sparseDrift(&fl.System{Devices: expected}, seq, 2, 0.1, prng)
			for i, g := range d.Gains {
				expected[i].Gain = g
			}
			u, err := m.Apply(context.Background(), sess.ID(), d)
			if err != nil {
				t.Errorf("in-flight delta %d: %v", seq, err)
				return
			}
			updates = append(updates, u)
			if seq == 5+inflight/2 {
				openGate() // fire the handoff mid-stream
			}
		}
	}()
	<-handoffGate
	rep, err := r.Handoff(context.Background(), dev, from, to)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if rep.Instances != 1 || rep.MigratedResults != 1 {
		t.Fatalf("handoff carried %d instances / %d results, want 1/1 (the opening instance only): %+v", rep.Instances, rep.MigratedResults, rep)
	}
	for cell, want := range map[int]int{from: 0, to: 1} {
		if srv, _ := r.CellServer(cell); srv.Stats().CacheEntries != want {
			t.Fatalf("cell %d holds %d cache entries, want %d (the opening instance, moved)", cell, srv.Stats().CacheEntries, want)
		}
	}

	// No lost updates: every in-flight delta applied and the authoritative
	// state matches the client's own bookkeeping exactly.
	if len(updates) != inflight {
		t.Fatalf("got %d in-flight updates, want %d", len(updates), inflight)
	}
	if got := sess.Seq(); got != 4+inflight {
		t.Fatalf("session seq = %d, want %d", got, 4+inflight)
	}
	snap := sess.SystemSnapshot()
	for i := range expected {
		if snap.Devices[i].Gain != expected[i].Gain {
			t.Fatalf("device %d gain %g != expected %g (lost update)", i, snap.Devices[i].Gain, expected[i].Gain)
		}
	}

	// Post-move deltas route to the destination cell and solve cold there.
	for seq := uint64(5 + inflight); seq < 8+inflight; seq++ {
		u := apply(seq)
		if u.Cell != to {
			t.Fatalf("post-handoff delta %d served by cell %d, want %d", seq, u.Cell, to)
		}
		if u.Response.Source != serve.SourceCold {
			t.Fatalf("post-handoff delta %d source %q, want cold", seq, u.Response.Source)
		}
		coretest.RequireCold(t, sess.SystemSnapshot(), balanced(), u.Response.Result.Objective)
	}

	// The in-flight updates themselves were all served somewhere real and
	// in sequence order.
	lastSeq := uint64(4)
	for _, u := range updates {
		if u.Seq != lastSeq+1 {
			t.Fatalf("update order broke: seq %d after %d", u.Seq, lastSeq)
		}
		lastSeq = u.Seq
		if u.Cell != from && u.Cell != to {
			t.Fatalf("update %d served by unknown cell %d", u.Seq, u.Cell)
		}
	}
}

// TestHandoffRefingerprintRacesDeltas hammers the narrowest window: the
// router's handoff history re-fingerprints the retained opening request
// while the session applies deltas, so the system handed to the backend
// must be a snapshot, never the live in-place-mutated authoritative state.
// Run under -race this fails if Open leaks s.sys by reference.
func TestHandoffRefingerprintRacesDeltas(t *testing.T) {
	r := cluster.New(cluster.Config{Cells: 2, Cell: serve.Config{Workers: 2}})
	defer r.Close()
	m := NewManager(NewClusterBackend(r), Config{})
	defer m.Close()

	base := testSystem(t, 8, 36)
	const dev = "dev-race"
	sess, upd0, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	cellA := upd0.Cell
	cellB := 1 - cellA

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Ping-pong handoffs re-fingerprint the device's full history on
		// every hop, maximizing reads of the retained request systems.
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			from, to := cellA, cellB
			if i%2 == 1 {
				from, to = cellB, cellA
			}
			if _, err := r.Handoff(context.Background(), dev, from, to); err != nil {
				t.Errorf("handoff %d: %v", i, err)
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(37))
	expected := append([]fl.Device(nil), base.Devices...)
	for seq := uint64(1); seq <= 30; seq++ {
		d := sparseDrift(&fl.System{Devices: expected}, seq, 2, 0.1, rng)
		for i, g := range d.Gains {
			expected[i].Gain = g
		}
		if _, err := m.Apply(context.Background(), sess.ID(), d); err != nil {
			t.Fatalf("delta %d: %v", seq, err)
		}
	}
	close(done)
	wg.Wait()
	if got := sess.Seq(); got != 30 {
		t.Fatalf("session seq = %d, want 30", got)
	}
}

// TestHandoffMigratesOpeningInstanceAfterDeltas is the deterministic
// regression for the same leak: the handoff history must remember the
// opening solve's system AS SERVED. If Open handed the live state to the
// backend, later deltas would mutate the retained record and the handoff
// would re-fingerprint the opening instance under the drifted gains —
// extracting the wrong cache key and stranding the opening solution in the
// source cell. The delta's own solve is session-private (never cached,
// never recorded), so the handoff sees one instance and moves one result,
// and a replay of the original system after the move must be a cache hit
// in the destination.
func TestHandoffMigratesOpeningInstanceAfterDeltas(t *testing.T) {
	r := cluster.New(cluster.Config{Cells: 2, Cell: serve.Config{Workers: 2}})
	defer r.Close()
	m := NewManager(NewClusterBackend(r), Config{})
	defer m.Close()

	base := testSystem(t, 8, 38)
	orig := cloneSystem(base)
	const dev = "dev-orig"
	sess, upd0, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	from := upd0.Cell
	to := 1 - from

	// Drift the session state away from the opening instance.
	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Gains: map[int]float64{
		0: base.Devices[0].Gain * 2,
		3: base.Devices[3].Gain * 0.5,
	}}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Handoff(context.Background(), dev, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Instances != 1 {
		t.Fatalf("handoff saw %d instances, want 1 (the opening; the delta is session-private)", rep.Instances)
	}
	if rep.MigratedResults != 1 {
		t.Fatalf("handoff migrated %d results, want 1 — 0 means the opening instance was re-fingerprinted under the wrong gains", rep.MigratedResults)
	}
	resp, cell, err := r.Solve(context.Background(), cluster.CellAuto, dev, serve.Request{System: orig, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if cell != to {
		t.Fatalf("replay served by cell %d, want %d", cell, to)
	}
	if resp.Source != serve.SourceCache {
		t.Fatalf("replay of the opening instance after handoff source = %q, want cache", resp.Source)
	}
}

// TestHandoffPinMovesSessionRouting pins down the routing half alone: after
// a handoff the session's next delta must be served by the destination cell
// even with no concurrency involved.
func TestHandoffPinMovesSessionRouting(t *testing.T) {
	r := cluster.New(cluster.Config{Cells: 3, Cell: serve.Config{Workers: 2}})
	defer r.Close()
	m := NewManager(NewClusterBackend(r), Config{})
	defer m.Close()

	base := testSystem(t, 8, 34)
	const dev = "dev-pin"
	sess, upd0, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	from := upd0.Cell
	to := (from + 1) % 3
	if _, err := r.Handoff(context.Background(), dev, from, to); err != nil {
		t.Fatal(err)
	}
	u, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Gains: map[int]float64{0: base.Devices[0].Gain * 1.3}})
	if err != nil {
		t.Fatal(err)
	}
	if u.Cell != to {
		t.Fatalf("post-handoff delta served by cell %d, want %d", u.Cell, to)
	}
	if u.Response.Source != serve.SourceCold {
		t.Fatalf("post-handoff delta source %q, want cold", u.Response.Source)
	}
	coretest.RequireCold(t, sess.SystemSnapshot(), balanced(), u.Response.Result.Objective)
}
