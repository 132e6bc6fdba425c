package experiments

import "testing"

func TestExtAShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension regeneration is slow")
	}
	eFig, tFig, err := ExtA(RunConfig{Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(eFig.Series) != 3 || len(tFig.Series) != 3 {
		t.Fatalf("series %d/%d", len(eFig.Series), len(tFig.Series))
	}
	// Delay grows with spread for the time-weighted series (the max-shaped
	// round time is driven by the largest D_n).
	for _, s := range tFig.Series {
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("series %s: delay should grow with spread: %v", s.Label, s.Y)
		}
	}
}

func TestExtBShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension regeneration is slow")
	}
	fig, err := ExtB(RunConfig{Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prop, simp := fig.Series[0], fig.Series[1]
	for i := range prop.Y {
		if prop.Y[i] > simp.Y[i]*(1+1e-9) {
			t.Errorf("radius %g: exact-Shannon allocation %g worse than simplified %g",
				prop.X[i], prop.Y[i], simp.Y[i])
		}
	}
	// The relative penalty grows with the radius (SNR heterogeneity).
	first := simp.Y[0]/prop.Y[0] - 1
	last := simp.Y[len(simp.Y)-1]/prop.Y[len(prop.Y)-1] - 1
	if last <= first {
		t.Errorf("simplification penalty should grow with radius: %g -> %g", first, last)
	}
}

func TestExtCShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension regeneration is slow")
	}
	objFig, timeFig, err := ExtC(RunConfig{Trials: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(objFig.Series) != 2 || len(timeFig.Series) != 2 {
		t.Fatalf("series %d/%d", len(objFig.Series), len(timeFig.Series))
	}
	newton, direct := objFig.Series[0], objFig.Series[1]
	for i := range direct.Y {
		// The default direct solver must match Algorithm 1 or beat it.
		if direct.Y[i] > newton.Y[i]*(1+1e-6) {
			t.Errorf("w1=%g: direct %g worse than Newton-only %g", direct.X[i], direct.Y[i], newton.Y[i])
		}
	}
}

func TestExtDShape(t *testing.T) {
	if testing.Short() {
		t.Skip("extension regeneration is slow")
	}
	eFig, tFig, err := ExtD(RunConfig{Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// TDMA serializes uploads: at every weight its delay exceeds FDMA's.
	fdma, tdmaS := tFig.Series[0], tFig.Series[1]
	for i := range fdma.Y {
		if tdmaS.Y[i] <= fdma.Y[i] {
			t.Errorf("w1=%g: TDMA delay %g not above FDMA %g", fdma.X[i], tdmaS.Y[i], fdma.Y[i])
		}
	}
	if len(eFig.Series) != 2 {
		t.Fatalf("energy series %d", len(eFig.Series))
	}
}
