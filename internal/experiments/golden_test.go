package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/figures_golden.json from the current solvers")

const goldenPath = "testdata/figures_golden.json"

// goldenFigures regenerates every pinned figure at one trial: Figs. 2-8
// and ExtA-ExtE. ExtC's runtime panel is wall time and is left out.
func goldenFigures(t *testing.T) []Figure {
	t.Helper()
	cfg := RunConfig{Trials: 1, Seed: 1}
	figs, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2, err := ExtA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExtB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := ExtC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2, err := ExtD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExtE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return append(figs, a1, a2, b, c, d1, d2, e)
}

// TestFiguresGolden pins the reproduced series to the values recorded in
// testdata/figures_golden.json, to 1e-9 relative, so a solver change
// cannot move the reproduction silently. A change that must move it
// re-records the file with `go test ./internal/experiments -run
// TestFiguresGolden -update` and says why.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates 19 figure panels")
	}
	got := goldenFigures(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []Figure
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d figures, golden file has %d", len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g.ID != w.ID || len(g.Series) != len(w.Series) {
			t.Errorf("figure %d: got %s with %d series, want %s with %d", k, g.ID, len(g.Series), w.ID, len(w.Series))
			continue
		}
		for j, ws := range w.Series {
			gs := g.Series[j]
			if gs.Label != ws.Label || len(gs.X) != len(ws.X) || len(gs.Y) != len(ws.Y) {
				t.Errorf("figure %s series %d: got %q (%d points), want %q (%d points)",
					w.ID, j, gs.Label, len(gs.Y), ws.Label, len(ws.Y))
				continue
			}
			for i := range ws.Y {
				if gs.X[i] != ws.X[i] {
					t.Errorf("figure %s %q point %d: x %g, want %g", w.ID, ws.Label, i, gs.X[i], ws.X[i])
				}
				if math.Abs(gs.Y[i]-ws.Y[i]) > 1e-9*math.Abs(ws.Y[i]) {
					t.Errorf("figure %s %q at x=%g: %.17g, want %.17g (rel %+.3g)",
						w.ID, ws.Label, ws.X[i], gs.Y[i], ws.Y[i], gs.Y[i]/ws.Y[i]-1)
				}
			}
		}
	}
}
