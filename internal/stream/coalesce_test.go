package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/serve"
)

// slowManager builds a manager whose backend solver sleeps before solving,
// so deltas reliably pile up behind an in-flight re-solve.
func slowManager(t testing.TB, delay time.Duration) *Manager {
	t.Helper()
	srv := serve.New(serve.Config{
		Workers: 2,
		Solver: func(s *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			time.Sleep(delay)
			return core.Optimize(s, w, o)
		},
	})
	m := NewManager(NewServeBackend(srv), Config{})
	t.Cleanup(func() {
		m.Close()
		srv.Close()
	})
	return m
}

// stagedSeq reads the session's staged (applied-but-maybe-unsolved)
// sequence number.
func stagedSeq(s *Session) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingSeq
}

func waitFor(t testing.TB, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeltasCoalesceBehindSlowSolve piles three deltas behind one slow
// re-solve: the first solves alone, the two queued ones must be answered
// by ONE covering re-solve of the latest state (not one each), counted as
// coalesced, with every caller acked under its own sequence number and the
// authoritative state reflecting all three.
func TestDeltasCoalesceBehindSlowSolve(t *testing.T) {
	m := slowManager(t, 150*time.Millisecond)
	base := testSystem(t, 8, 60)
	sess, _ := openSession(t, m, base)
	solvesBefore := sessionSolves(m)

	gain := func(i int, f float64) map[int]float64 {
		return map[int]float64{i: base.Devices[i].Gain * f}
	}
	type result struct {
		upd Update
		err error
	}
	results := make([]result, 4)
	var wg sync.WaitGroup
	applyAsync := func(k int, seq uint64, gains map[int]float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			upd, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: seq, Gains: gains})
			results[k] = result{upd, err}
		}()
		// The next delta may only launch once this one has staged, or the
		// arrival order (and thus seq validation) would be racy.
		waitFor(t, "delta staging", func() bool { return stagedSeq(sess) >= seq })
	}
	applyAsync(1, 1, gain(0, 1.5))
	applyAsync(2, 2, gain(1, 1.4))
	applyAsync(3, 3, gain(0, 1.8)) // overwrites delta 1's device-0 value
	wg.Wait()

	for k := 1; k <= 3; k++ {
		if results[k].err != nil {
			t.Fatalf("delta %d: %v", k, results[k].err)
		}
		if results[k].upd.Seq != uint64(k) {
			t.Fatalf("delta %d acked with seq %d", k, results[k].upd.Seq)
		}
	}
	if got := sess.Seq(); got != 3 {
		t.Fatalf("session seq %d, want 3", got)
	}
	snap := sess.SystemSnapshot()
	if snap.Devices[0].Gain != base.Devices[0].Gain*1.8 || snap.Devices[1].Gain != base.Devices[1].Gain*1.4 {
		t.Fatalf("authoritative state missed a coalesced delta: %+v", snap.Devices[:2])
	}

	st := m.Stats()
	if st.Deltas != 3 {
		t.Fatalf("deltas_applied %d, want 3", st.Deltas)
	}
	if st.DeltasCoalesced != 1 {
		t.Fatalf("deltas_coalesced %d, want 1 (deltas 2+3 queued; one solved for both, the other coalesced)", st.DeltasCoalesced)
	}
	if solves := sessionSolves(m) - solvesBefore; solves != 2 {
		t.Fatalf("%d re-solves for 3 deltas, want 2 (1 + 1 covering)", solves)
	}
	// Deltas 2 and 3 were covered by the same solve: identical responses.
	if results[2].upd.Response.Fingerprint != results[3].upd.Response.Fingerprint {
		t.Fatalf("coalesced deltas answered from different solves")
	}
}

// sessionSolves totals the per-path solve counters (each incremented once
// per actual backend re-solve, coalesced followers excluded).
func sessionSolves(m *Manager) int64 {
	st := m.Stats()
	return st.SolveCache + st.SolveCold
}

// TestSuspendQueuesAndCoalescesReplay is the drain replay queue in
// isolation: a suspended session accepts and stages deltas in sequence
// order (no ErrStaleSeq), then Resume collapses the whole backlog into
// one covering re-solve.
func TestSuspendQueuesAndCoalescesReplay(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	m := NewManager(NewServeBackend(srv), Config{})
	defer m.Close()
	base := testSystem(t, 8, 61)
	const dev = "dev-suspended"
	sess, _, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	solvesBefore := sessionSolves(m)

	if n := m.SuspendDevices(map[string]bool{dev: true}); n != 1 {
		t.Fatalf("suspended %d sessions, want 1", n)
	}
	const backlog = 5
	type result struct {
		upd Update
		err error
	}
	results := make([]result, backlog+1)
	var wg sync.WaitGroup
	expected := append([]fl.Device(nil), base.Devices...)
	for seq := uint64(1); seq <= backlog; seq++ {
		i := int(seq) % len(expected)
		g := expected[i].Gain * (1 + 0.05*float64(seq))
		expected[i].Gain = g
		wg.Add(1)
		go func(seq uint64, i int, g float64) {
			defer wg.Done()
			upd, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: seq, Gains: map[int]float64{i: g}})
			results[seq] = result{upd, err}
		}(seq, i, g)
		waitFor(t, "suspended delta staging", func() bool { return stagedSeq(sess) >= seq })
	}
	// Nothing may solve while suspended.
	time.Sleep(30 * time.Millisecond)
	if got := sessionSolves(m) - solvesBefore; got != 0 {
		t.Fatalf("%d solves ran while suspended, want 0", got)
	}
	if got := sess.Seq(); got != 0 {
		t.Fatalf("seq advanced to %d while suspended", got)
	}

	if n := m.ResumeDevices(map[string]bool{dev: true}); n != 1 {
		t.Fatalf("resumed %d sessions, want 1", n)
	}
	wg.Wait()
	for seq := 1; seq <= backlog; seq++ {
		if results[seq].err != nil {
			t.Fatalf("suspended delta %d failed: %v", seq, results[seq].err)
		}
		if results[seq].upd.Seq != uint64(seq) {
			t.Fatalf("delta %d acked with seq %d", seq, results[seq].upd.Seq)
		}
	}
	if got := sess.Seq(); got != backlog {
		t.Fatalf("post-resume seq %d, want %d", got, backlog)
	}
	snap := sess.SystemSnapshot()
	for i := range expected {
		if snap.Devices[i].Gain != expected[i].Gain {
			t.Fatalf("device %d gain %g != expected %g", i, snap.Devices[i].Gain, expected[i].Gain)
		}
	}
	if got := sessionSolves(m) - solvesBefore; got != 1 {
		t.Fatalf("%d re-solves for the %d-delta backlog, want 1 covering solve", got, backlog)
	}
	if st := m.Stats(); st.DeltasCoalesced != backlog-1 {
		t.Fatalf("deltas_coalesced %d, want %d", st.DeltasCoalesced, backlog-1)
	}
}

// TestFailedCoveringSolveKeepsSeqContract pins the failure path of
// coalescing: two deltas stage behind a suspension, the first covering
// re-solve after resume fails (injected), and whichever queued caller
// re-solves next must cover ITS OWN sequence number even though the
// failure rolled the staging baseline back. Regression: without bumping
// pendingSeq back up, the second solver ran with a target below its seq,
// reported success without advancing the session, and the same sequence
// number was later accepted twice.
func TestFailedCoveringSolveKeepsSeqContract(t *testing.T) {
	var fail atomic.Bool
	srv := serve.New(serve.Config{
		Workers: 2,
		Solver: func(s *fl.System, w fl.Weights, o core.Options) (core.Result, error) {
			if fail.CompareAndSwap(true, false) {
				return core.Result{}, errors.New("injected solver failure")
			}
			return core.Optimize(s, w, o)
		},
	})
	defer srv.Close()
	m := NewManager(NewServeBackend(srv), Config{})
	defer m.Close()
	base := testSystem(t, 8, 63)
	const dev = "dev-failed-cover"
	sess, _, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}

	m.SuspendDevices(map[string]bool{dev: true})
	type result struct {
		upd Update
		err error
	}
	results := make([]result, 3)
	var wg sync.WaitGroup
	for seq := uint64(1); seq <= 2; seq++ {
		i := int(seq)
		g := base.Devices[i].Gain * (1 + 0.2*float64(seq))
		wg.Add(1)
		go func(seq uint64, i int, g float64) {
			defer wg.Done()
			upd, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: seq, Gains: map[int]float64{i: g}})
			results[seq] = result{upd, err}
		}(seq, i, g)
		waitFor(t, "suspended delta staging", func() bool { return stagedSeq(sess) >= seq })
	}
	fail.Store(true) // the first covering solve after resume fails
	m.ResumeDevices(map[string]bool{dev: true})
	wg.Wait()

	var okSeqs []uint64
	var failures int
	for seq := 1; seq <= 2; seq++ {
		if results[seq].err != nil {
			failures++
			continue
		}
		if results[seq].upd.Seq != uint64(seq) {
			t.Fatalf("delta %d acked with seq %d", seq, results[seq].upd.Seq)
		}
		okSeqs = append(okSeqs, uint64(seq))
	}
	if failures != 1 || len(okSeqs) != 1 {
		t.Fatalf("%d failures / %d successes, want exactly 1 each (results %+v)", failures, len(okSeqs), results[1:])
	}
	// The session advanced exactly to the succeeded caller's seq...
	if got := sess.Seq(); got != okSeqs[0] {
		t.Fatalf("session seq %d after partial failure, want %d (the acked delta's number)", got, okSeqs[0])
	}
	// ...and that number can never be accepted again.
	if _, err := m.Apply(context.Background(), sess.ID(),
		Delta{Seq: okSeqs[0], Gains: map[int]float64{0: base.Devices[0].Gain * 3}}); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("re-applying acked seq %d: err = %v, want ErrStaleSeq", okSeqs[0], err)
	}
	// The authoritative state kept both staged gains (the failed delta is
	// absorbed by the next covering solve, never rolled back).
	snap := sess.SystemSnapshot()
	for seq := 1; seq <= 2; seq++ {
		want := base.Devices[seq].Gain * (1 + 0.2*float64(seq))
		if snap.Devices[seq].Gain != want {
			t.Fatalf("device %d gain %g != staged %g", seq, snap.Devices[seq].Gain, want)
		}
	}
}

// TestQueuedDeltaHonorsContext: a delta parked behind a suspension must
// return when its context expires instead of blocking until resume, and
// the sequence baseline must roll back so the client can retry the same
// number.
func TestQueuedDeltaHonorsContext(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	m := NewManager(NewServeBackend(srv), Config{})
	defer m.Close()
	base := testSystem(t, 8, 64)
	const dev = "dev-ctx"
	sess, _, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}

	m.SuspendDevices(map[string]bool{dev: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	began := time.Now()
	_, err = m.Apply(ctx, sess.ID(), Delta{Seq: 1, Gains: map[int]float64{0: base.Devices[0].Gain * 1.5}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("suspended delta err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(began); waited > 3*time.Second {
		t.Fatalf("cancelled delta blocked %v (until resume?)", waited)
	}
	m.ResumeDevices(map[string]bool{dev: true})
	// The rolled-back number is accepted on retry and re-solves normally.
	upd, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Gains: map[int]float64{0: base.Devices[0].Gain * 1.5}})
	if err != nil {
		t.Fatalf("retry after ctx abort: %v", err)
	}
	if upd.Seq != 1 || sess.Seq() != 1 {
		t.Fatalf("retry acked seq %d, session seq %d, want 1/1", upd.Seq, sess.Seq())
	}
}

// TestSuspendWaitsForInFlightSolve: SuspendDevices must not return while a
// re-solve for the session is still running — the caller is about to
// migrate backend state and needs quiescence.
func TestSuspendWaitsForInFlightSolve(t *testing.T) {
	m := slowManager(t, 120*time.Millisecond)
	base := testSystem(t, 8, 62)
	const dev = "dev-quiesce"
	sess, _, err := m.Open(context.Background(), dev, serve.Request{System: base, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(started)
		defer close(done)
		if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Gains: map[int]float64{0: base.Devices[0].Gain * 1.5}}); err != nil {
			t.Errorf("in-flight delta: %v", err)
		}
	}()
	<-started
	waitFor(t, "solve to start", func() bool {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sess.solving
	})
	m.SuspendDevices(map[string]bool{dev: true})
	// Quiescent on return: the solve completed (the session may not have
	// been unlocked into the caller yet, but the backend is done).
	sess.mu.Lock()
	stillSolving := sess.solving
	sess.mu.Unlock()
	if stillSolving {
		t.Fatal("SuspendDevices returned with a solve in flight")
	}
	m.ResumeDevices(map[string]bool{dev: true})
	<-done
}
