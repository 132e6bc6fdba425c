// Package coretest holds the served-answer check shared by the serving
// layers' tests: every cache miss solves cold, so whatever path an answer
// took (a handoff, a snapshot restore, a crash reroute, a stream delta) it
// must equal a fresh core.Optimize of the same instance.
package coretest

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fl"
)

// RequireCold fails t unless objective equals the objective of a cold
// core.Optimize of (sys, w) within 1e-12 relative.
func RequireCold(t testing.TB, sys *fl.System, w fl.Weights, objective float64) {
	t.Helper()
	cold, err := core.Optimize(sys, w, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(objective/cold.Objective - 1); !(rel <= 1e-12) {
		t.Fatalf("served objective %.15g vs cold %.15g (rel %.3g)", objective, cold.Objective, rel)
	}
}
