package serve

import (
	"context"
	"testing"

	"repro/internal/core/coretest"
)

// TestServerStateRoundTrip exports a server's state and imports it into a
// fresh one: an exact replay must hit the cache with the cold solve's
// objective — the restored process behaves like the one that snapshotted.
func TestServerStateRoundTrip(t *testing.T) {
	src := New(Config{Workers: 2})
	defer src.Close()

	sys := testSystem(t, 8, 1)
	if _, err := src.Solve(context.Background(), Request{System: sys, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	st := src.ExportState()
	if len(st.Results) != 1 {
		t.Fatalf("exported state: %d results, want 1", len(st.Results))
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
	coretest.RequireCold(t, sys, balanced(), exact.Result.Objective)
}

// TestExportStateNonDestructive checks that exporting leaves the source
// serving exactly as before: the cache entry stays put.
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

// TestImportStateRespectsDisableFlags checks a disabled cache silently
// drops the imported entries instead of resurrecting them.
func TestImportStateRespectsDisableFlags(t *testing.T) {
	src := New(Config{Workers: 2})
	defer src.Close()
	sys := testSystem(t, 8, 4)
	if _, err := src.Solve(context.Background(), Request{System: sys, Weights: balanced()}); err != nil {
		t.Fatal(err)
	}
	st := src.ExportState()

	dst := New(Config{Workers: 2, DisableCache: true})
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
