package stream

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core/coretest"
	"repro/internal/serve"
)

// TestSessionSnapshotResumeWithoutStaleSeq is the restart contract: a
// session snapshotted after N deltas and restored into a fresh manager
// must accept delta N+1 — the client never sees ErrStaleSeq because of
// the restart — and the re-solve must equal a cold solve of the restored
// session's instance (or hit the restored cache).
func TestSessionSnapshotResumeWithoutStaleSeq(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	defer srv.Close()
	m := NewManager(NewServeBackend(srv), Config{})
	defer m.Close()

	sys := testSystem(t, 8, 1)
	sess, _, err := m.Open(context.Background(), "dev-1", serve.Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := m.Apply(context.Background(), sess.ID(), sparseDrift(sys, seq, 2, 0.05, rng)); err != nil {
			t.Fatal(err)
		}
	}

	snaps := m.ExportSessions()
	if len(snaps) != 1 {
		t.Fatalf("exported %d sessions, want 1", len(snaps))
	}
	if snaps[0].Seq != 3 || snaps[0].ID != sess.ID() {
		t.Fatalf("snapshot seq %d id %q, want 3 / %q", snaps[0].Seq, snaps[0].ID, sess.ID())
	}

	// "Restart": fresh server + manager, state restored from the export.
	srv2 := serve.New(serve.Config{Workers: 2})
	defer srv2.Close()
	srv2.ImportState(srv.ExportState())
	m2 := NewManager(NewServeBackend(srv2), Config{})
	defer m2.Close()
	if n := m2.RestoreSessions(snaps); n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	if got := m2.Stats().SessionsRestored; got != 1 {
		t.Fatalf("sessions_restored counter %d, want 1", got)
	}

	// The client continues exactly where it left off: next seq is 4.
	upd, err := m2.Apply(context.Background(), sess.ID(), sparseDrift(sys, 4, 2, 0.05, rng))
	if err != nil {
		t.Fatalf("post-restore delta 4: %v", err)
	}
	if upd.Seq != 4 {
		t.Fatalf("post-restore update seq %d, want 4", upd.Seq)
	}
	// A cache hit when the drifted gains land back in a solved bucket,
	// otherwise a cold re-solve of the restored session's instance.
	if upd.Response.Source == serve.SourceCold {
		restored, err := m2.lookup(sess.ID())
		if err != nil {
			t.Fatal(err)
		}
		coretest.RequireCold(t, restored.SystemSnapshot(), balanced(), upd.Response.Result.Objective)
	}

	// Replays from before the snapshot still answer the usual typed error.
	if _, err := m2.Apply(context.Background(), sess.ID(), sparseDrift(sys, 2, 1, 0.05, rng)); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("replayed old seq after restore: err %v, want ErrStaleSeq", err)
	}
}

// TestRestoreSessionsSkipsConflictsAndOverflow checks restore never
// clobbers a live session with the same ID and respects MaxSessions.
func TestRestoreSessionsSkipsConflictsAndOverflow(t *testing.T) {
	m := testManager(t, Config{MaxSessions: 2})
	sys := testSystem(t, 8, 5)
	sess, _ := openSession(t, m, sys)

	snaps := m.ExportSessions()
	// Restoring over the still-open original is a no-op.
	if n := m.RestoreSessions(snaps); n != 0 {
		t.Fatalf("restore over live session recreated %d, want 0", n)
	}

	// Fill the table, then restoring one more (fresh ID) must be refused.
	if _, _, err := m.Open(context.Background(), "dev-2", serve.Request{System: testSystem(t, 8, 6), Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	extra := snaps[0]
	extra.ID = sess.ID() + "-copy"
	if n := m.RestoreSessions([]SessionSnapshot{extra}); n != 0 {
		t.Fatalf("restore past MaxSessions recreated %d, want 0", n)
	}
}
