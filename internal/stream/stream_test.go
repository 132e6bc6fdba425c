package stream

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
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

// testManager builds a manager over a single 2-worker server; the cleanup
// closes both.
func testManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2})
	m := NewManager(NewServeBackend(srv), cfg)
	t.Cleanup(func() {
		m.Close()
		srv.Close()
	})
	return m
}

func openSession(t testing.TB, m *Manager, s *fl.System) (*Session, Update) {
	t.Helper()
	sess, upd, err := m.Open(context.Background(), "dev-1", serve.Request{System: s, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	return sess, upd
}

// sparseDrift mutates k random gains by a log-normal factor and returns the
// delta carrying their new absolute values.
func sparseDrift(s *fl.System, seq uint64, k int, sigma float64, rng *rand.Rand) Delta {
	gains := make(map[int]float64, k)
	for len(gains) < k {
		i := rng.Intn(len(s.Devices))
		if _, ok := gains[i]; ok {
			continue
		}
		gains[i] = s.Devices[i].Gain * math.Exp(sigma*rng.NormFloat64())
	}
	return Delta{Seq: seq, Gains: gains}
}

// TestSessionDeltaSolvesCold drives gain deltas that leave the exact
// bucket: each one re-solves cold, with the cold solve's objective.
func TestSessionDeltaSolvesCold(t *testing.T) {
	m := testManager(t, Config{})
	base := testSystem(t, 10, 1)
	sess, upd := openSession(t, m, base)
	if upd.Response.Source != serve.SourceCold {
		t.Fatalf("opening solve source = %q, want cold", upd.Response.Source)
	}

	rng := rand.New(rand.NewSource(2))
	expected := append([]fl.Device(nil), base.Devices...)
	for seq := uint64(1); seq <= 8; seq++ {
		d := sparseDrift(&fl.System{Devices: expected}, seq, 3, 0.3, rng)
		for i, g := range d.Gains {
			expected[i].Gain = g
		}
		upd, err := m.Apply(context.Background(), sess.ID(), d)
		if err != nil {
			t.Fatalf("delta %d: %v", seq, err)
		}
		if upd.Seq != seq {
			t.Fatalf("update seq = %d, want %d", upd.Seq, seq)
		}
		if upd.Response.Source != serve.SourceCold {
			t.Fatalf("delta %d source %q, want cold", seq, upd.Response.Source)
		}
		coretest.RequireCold(t, sess.SystemSnapshot(), balanced(), upd.Response.Result.Objective)
	}

	// The authoritative state tracked every applied gain.
	snap := sess.SystemSnapshot()
	for i := range expected {
		if snap.Devices[i].Gain != expected[i].Gain {
			t.Fatalf("device %d gain %g != expected %g", i, snap.Devices[i].Gain, expected[i].Gain)
		}
	}
	if sess.Seq() != 8 {
		t.Fatalf("session seq = %d, want 8", sess.Seq())
	}
	st := m.Stats()
	if st.SolveCold != 9 || st.SolveWarm != 0 || st.Deltas != 8 {
		t.Fatalf("stats = %+v, want 9 cold (open + 8 deltas) / 8 deltas", st)
	}
}

func TestIncrementalFingerprintMatchesServerBuckets(t *testing.T) {
	// A delta-applied instance and the identical full re-POST must key the
	// same cache entry. The delta's solve is session-private, so the first
	// re-POST solves cold under the delta's fingerprint, and the second is
	// a cache hit.
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	m := NewManager(NewServeBackend(srv), Config{})
	defer m.Close()

	base := testSystem(t, 10, 3)
	sess, _ := openSession(t, m, base)
	rng := rand.New(rand.NewSource(4))
	d := sparseDrift(base, 1, 2, 0.3, rng)
	upd, err := m.Apply(context.Background(), sess.ID(), d)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []serve.Source{serve.SourceCold, serve.SourceCache} {
		resp, err := srv.Solve(context.Background(), serve.Request{System: sess.SystemSnapshot(), Weights: balanced()})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != want {
			t.Fatalf("full re-POST %d of the delta state source = %q, want %q", k, resp.Source, want)
		}
		if resp.Fingerprint != upd.Response.Fingerprint {
			t.Fatalf("fingerprints diverge: delta %+v vs full %+v", upd.Response.Fingerprint, resp.Fingerprint)
		}
	}
}

func TestStaleSeqRejected(t *testing.T) {
	m := testManager(t, Config{})
	base := testSystem(t, 6, 5)
	sess, _ := openSession(t, m, base)

	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 3, Gains: map[int]float64{0: base.Devices[0].Gain * 1.5}}); err != nil {
		t.Fatal(err)
	}
	before := sess.SystemSnapshot()
	for _, seq := range []uint64{0, 1, 3} {
		_, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: seq, Gains: map[int]float64{1: base.Devices[1].Gain * 2}})
		if !errors.Is(err, ErrStaleSeq) {
			t.Fatalf("seq %d: err = %v, want ErrStaleSeq", seq, err)
		}
	}
	// Rejected deltas must not have touched the authoritative state.
	after := sess.SystemSnapshot()
	for i := range before.Devices {
		if before.Devices[i].Gain != after.Devices[i].Gain {
			t.Fatalf("stale delta mutated device %d gain", i)
		}
	}
	if sess.Seq() != 3 {
		t.Fatalf("seq advanced to %d on rejected deltas", sess.Seq())
	}
	// Gaps are allowed.
	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 10, Gains: map[int]float64{0: base.Devices[0].Gain * 1.7}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().DeltaErrors; got != 3 {
		t.Fatalf("delta_errors = %d, want 3", got)
	}
}

func TestBadDeltaRejected(t *testing.T) {
	m := testManager(t, Config{})
	base := testSystem(t, 6, 6)
	sess, _ := openSession(t, m, base)

	cases := []struct {
		name string
		d    Delta
	}{
		{"empty", Delta{Seq: 1}},
		{"index out of range", Delta{Seq: 1, Gains: map[int]float64{6: 1e-8}}},
		{"negative index", Delta{Seq: 1, Gains: map[int]float64{-1: 1e-8}}},
		{"non-positive gain", Delta{Seq: 1, Gains: map[int]float64{0: 0}}},
		{"NaN gain", Delta{Seq: 1, Gains: map[int]float64{0: math.NaN()}}},
		{"infinite gain", Delta{Seq: 1, Gains: map[int]float64{0: math.Inf(1)}}},
		{"bad weights", Delta{Seq: 1, Weights: &fl.Weights{W1: 0.9, W2: 0.9}}},
		{"deadline on weighted session", Delta{Seq: 1, TotalDeadline: ptr(120.0)}},
	}
	for _, tc := range cases {
		if _, err := m.Apply(context.Background(), sess.ID(), tc.d); !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: err = %v, want ErrBadDelta", tc.name, err)
		}
	}
	if sess.Seq() != 0 {
		t.Fatalf("bad deltas advanced seq to %d", sess.Seq())
	}
	// A partially bad delta (one good gain, one bad index) must not apply
	// the good half.
	before := sess.SystemSnapshot()
	_, err := m.Apply(context.Background(), sess.ID(),
		Delta{Seq: 1, Gains: map[int]float64{0: before.Devices[0].Gain * 2, 17: 1e-9}})
	if !errors.Is(err, ErrBadDelta) {
		t.Fatalf("mixed delta: err = %v, want ErrBadDelta", err)
	}
	if got := sess.SystemSnapshot().Devices[0].Gain; got != before.Devices[0].Gain {
		t.Fatalf("rejected delta applied its valid half: gain %g != %g", got, before.Devices[0].Gain)
	}
}

func ptr[T any](v T) *T { return &v }

func TestWeightsDeltaChangesTopologyBucket(t *testing.T) {
	m := testManager(t, Config{})
	base := testSystem(t, 8, 7)
	sess, upd0 := openSession(t, m, base)
	topo0 := upd0.Response.Fingerprint.Topo

	upd, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Weights: &fl.Weights{W1: 0.8, W2: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Response.Fingerprint.Topo == topo0 {
		t.Fatalf("weight change kept topology bucket %x", topo0)
	}
	// A follow-up gains-only delta reuses the NEW topo hash and must agree
	// with a from-scratch fingerprint. Its solve is session-private, so the
	// first re-POST solves cold under the same key and the second hits.
	rng := rand.New(rand.NewSource(8))
	upd, err = m.Apply(context.Background(), sess.ID(), sparseDrift(sess.SystemSnapshot(), 2, 2, 0.3, rng))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []serve.Source{serve.SourceCold, serve.SourceCache} {
		resp, _, err := m.be.Solve(context.Background(), "", serve.Request{System: sess.SystemSnapshot(), Weights: fl.Weights{W1: 0.8, W2: 0.2}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != want || resp.Fingerprint != upd.Response.Fingerprint {
			t.Fatalf("re-POST %d after weights+gains deltas: source %q fingerprint %+v, want %q under the delta's %+v",
				k, resp.Source, resp.Fingerprint, want, upd.Response.Fingerprint)
		}
	}
}

func TestDeadlineModeSessionDeadlineDelta(t *testing.T) {
	m := testManager(t, Config{})
	base := testSystem(t, 8, 9)
	sess, _, err := m.Open(context.Background(), "", serve.Request{
		System:  base,
		Weights: fl.Weights{W1: 1, W2: 0},
		Options: core.Options{Mode: core.ModeDeadline, TotalDeadline: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	upd, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, TotalDeadline: ptr(170.0)})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Response.Result.Metrics.TotalTime > 170+1e-6 {
		t.Fatalf("total time %g exceeds updated deadline", upd.Response.Result.Metrics.TotalTime)
	}
}

func TestSessionLimitAndClose(t *testing.T) {
	m := testManager(t, Config{MaxSessions: 2})
	base := testSystem(t, 6, 10)

	a, _ := openSession(t, m, base)
	drift := testSystem(t, 6, 11)
	if _, _, err := m.Open(context.Background(), "", serve.Request{System: drift, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Open(context.Background(), "", serve.Request{System: testSystem(t, 6, 12), Weights: balanced()}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third open err = %v, want ErrSessionLimit", err)
	}
	sum, err := m.CloseSession(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	if sum.SessionID != a.ID() {
		t.Fatalf("close summary names %q, want %q", sum.SessionID, a.ID())
	}
	if _, _, err := m.Open(context.Background(), "", serve.Request{System: testSystem(t, 6, 13), Weights: balanced()}); err != nil {
		t.Fatalf("open after close: %v", err)
	}
	// The closed session is gone.
	if _, err := m.Apply(context.Background(), a.ID(), Delta{Seq: 1, Gains: map[int]float64{0: 1e-8}}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("apply on closed session err = %v, want ErrNoSession", err)
	}
	if _, err := m.CloseSession("nope"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("close unknown session err = %v, want ErrNoSession", err)
	}
	st := m.Stats()
	if st.ActiveSessions != 2 || st.SessionsOpened != 3 || st.SessionsClosed != 1 || st.SessionsRejected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestIdleTTLExpiresSessions(t *testing.T) {
	m := testManager(t, Config{IdleTTL: 30 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	base := testSystem(t, 6, 14)
	sess, _ := openSession(t, m, base)

	deadline := time.Now().Add(5 * time.Second)
	for m.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Len() != 0 {
		t.Fatal("idle session not swept")
	}
	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Gains: map[int]float64{0: 1e-8}}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("apply on expired session err = %v, want ErrNoSession", err)
	}
	if got := m.Stats().SessionsExpired; got != 1 {
		t.Fatalf("sessions_expired = %d, want 1", got)
	}
}

func TestSolverErrorKeepsStateAndSeqRetryable(t *testing.T) {
	// An infeasible deadline update applies (state) but fails to solve; the
	// seq must not advance, so the client can retry with a corrected value
	// under the same number.
	m := testManager(t, Config{})
	base := testSystem(t, 8, 15)
	sess, _, err := m.Open(context.Background(), "", serve.Request{
		System:  base,
		Weights: fl.Weights{W1: 1, W2: 0},
		Options: core.Options{Mode: core.ModeDeadline, TotalDeadline: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, TotalDeadline: ptr(1e-6)}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("impossible deadline err = %v, want core.ErrInfeasible", err)
	}
	if sess.Seq() != 0 {
		t.Fatalf("failed solve advanced seq to %d", sess.Seq())
	}
	// Retry the same seq with a feasible deadline.
	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, TotalDeadline: ptr(160.0)}); err != nil {
		t.Fatalf("retry after solver failure: %v", err)
	}
	if sess.Seq() != 1 {
		t.Fatalf("seq = %d after successful retry, want 1", sess.Seq())
	}
}

func TestManagerCloseRejectsEverything(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	m := NewManager(NewServeBackend(srv), Config{})
	base := testSystem(t, 6, 16)
	sess, _ := openSession(t, m, base)
	m.Close()
	m.Close() // idempotent

	if _, _, err := m.Open(context.Background(), "", serve.Request{System: base, Weights: balanced()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("open after close err = %v, want ErrClosed", err)
	}
	if _, err := m.Apply(context.Background(), sess.ID(), Delta{Seq: 1, Gains: map[int]float64{0: 1e-8}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close err = %v, want ErrClosed", err)
	}
	if _, err := m.CloseSession(sess.ID()); !errors.Is(err, ErrClosed) {
		t.Fatalf("close-session after close err = %v, want ErrClosed", err)
	}
}
