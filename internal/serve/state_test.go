package serve

import (
	"context"
	"math/rand"
	"testing"
)

// TestServerStateRoundTrip exports a warmed server's state and imports it
// into a fresh one: an exact replay must hit the cache, and a drifted
// replay must run warm — the restored process behaves like the one that
// snapshotted.
func TestServerStateRoundTrip(t *testing.T) {
	src := New(Config{Workers: 2})
	defer src.Close()

	sys := testSystem(t, 8, 1)
	if _, err := src.Solve(context.Background(), Request{System: sys, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	st := src.ExportState()
	if len(st.Results) != 1 || len(st.Warm) != 1 {
		t.Fatalf("exported state: %d results, %d warm seeds, want 1+1", len(st.Results), len(st.Warm))
	}

	dst := New(Config{Workers: 2})
	defer dst.Close()
	dst.ImportState(st)

	exact, err := dst.Solve(context.Background(), Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Source != SourceCache {
		t.Fatalf("restored exact replay source %q, want cache", exact.Source)
	}

	drifted := driftGains(sys, 0.05, rand.New(rand.NewSource(7)))
	resp, err := dst.Solve(context.Background(), Request{System: drifted, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	requireWarmNearCold(t, drifted, balanced(), resp)
}

// TestExportStateNonDestructive checks that exporting leaves the source
// serving exactly as before: the cache entry and warm seed stay put.
func TestExportStateNonDestructive(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	sys := testSystem(t, 8, 2)
	if _, err := srv.Solve(context.Background(), Request{System: sys, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	_ = srv.ExportState()
	resp, err := srv.Solve(context.Background(), Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceCache {
		t.Fatalf("post-export replay source %q, want cache (export must not drain state)", resp.Source)
	}
}

// TestPeekBatchNonDestructive is the replication analogue: PeekBatch must
// copy the cache entry and warm seed without removing either (unlike
// ExtractBatch, which migrates them away).
func TestPeekBatchNonDestructive(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	sys := testSystem(t, 8, 3)
	resp, err := srv.Solve(context.Background(), Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	migs := srv.PeekBatch([]Fingerprint{resp.Fingerprint})
	if len(migs) != 1 || migs[0].Result == nil || migs[0].Warm == nil {
		t.Fatalf("peeked migration incomplete: %+v", migs)
	}
	replay, err := srv.Solve(context.Background(), Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Source != SourceCache {
		t.Fatalf("post-peek replay source %q, want cache (peek must not drain state)", replay.Source)
	}

	// The peeked copy must be injectable into another server and leave a
	// drifted solve warm there.
	other := New(Config{Workers: 2})
	defer other.Close()
	other.InjectBatch([]Fingerprint{resp.Fingerprint}, []Migration{{Warm: migs[0].Warm}})
	drifted := driftGains(sys, 0.05, rand.New(rand.NewSource(9)))
	warm, err := other.Solve(context.Background(), Request{System: drifted, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	requireWarmNearCold(t, drifted, balanced(), warm)
}

// TestImportStateRespectsDisableFlags checks a disabled cache/warm index
// silently drops the matching sections instead of resurrecting them.
func TestImportStateRespectsDisableFlags(t *testing.T) {
	src := New(Config{Workers: 2})
	defer src.Close()
	sys := testSystem(t, 8, 4)
	if _, err := src.Solve(context.Background(), Request{System: sys, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	st := src.ExportState()

	dst := New(Config{Workers: 2, DisableCache: true, DisableWarmStart: true})
	defer dst.Close()
	dst.ImportState(st)
	resp, err := dst.Solve(context.Background(), Request{System: sys, Weights: balanced()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceCold {
		t.Fatalf("import into disabled server still served from %q", resp.Source)
	}
}
