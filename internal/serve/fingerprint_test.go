package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
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

func TestFingerprintDeterministic(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	a := FingerprintInstance(s, w, core.Options{})
	b := FingerprintInstance(s, w, core.Options{})
	if a != b {
		t.Fatalf("same instance hashed differently: %+v vs %+v", a, b)
	}
}

// TestFingerprintGainBuckets checks that gains key the cache exactly in
// weighted mode too: a drift far inside what used to be one 1 dB gain
// bucket is a different instance, and so is a 10 dB shift; neither moves
// the topology hash.
func TestFingerprintGainBuckets(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	for i := range s.Devices {
		s.Devices[i].Gain = 1e-9 * pow10(float64(i)*0.1)
	}
	base := FingerprintInstance(s, w, core.Options{})
	for _, factor := range []float64{1.02, 10} {
		drift := *s
		drift.Devices = append([]fl.Device(nil), s.Devices...)
		for i := range drift.Devices {
			drift.Devices[i].Gain *= factor
		}
		got := FingerprintInstance(&drift, w, core.Options{})
		if got.Exact == base.Exact {
			t.Errorf("gain drift x%g kept the exact fingerprint", factor)
		}
		if got.Topo != base.Topo {
			t.Errorf("gain drift x%g moved the topology bucket", factor)
		}
	}
}

func TestFingerprintGainsMatchesFull(t *testing.T) {
	s := testSystem(t, 12, 3)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	req := Request{System: s, Weights: w}
	full := FingerprintRequest(req)

	// Drift a few gains: the incremental recompute from the cached topo
	// hash must agree exactly with a from-scratch fingerprint of the
	// drifted system.
	rng := rand.New(rand.NewSource(9))
	for _, i := range []int{0, 5, 11} {
		s.Devices[i].Gain *= math.Exp(0.4 * rng.NormFloat64())
	}
	inc := FingerprintGains(full.Topo, s)
	fresh := FingerprintRequest(Request{System: s, Weights: w})
	if inc != fresh {
		t.Fatalf("incremental fingerprint %+v != full %+v", inc, fresh)
	}
	if inc.Topo != full.Topo {
		t.Fatalf("gain drift moved the topology hash: %x -> %x", full.Topo, inc.Topo)
	}
}

func TestRequestPrecomputedFingerprintHonored(t *testing.T) {
	s := testSystem(t, 6, 4)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	fp := Fingerprint{Exact: 12345, Topo: 678}
	req := Request{System: s, Weights: w, Fingerprint: &fp}
	if got := req.fingerprint(); got != fp {
		t.Fatalf("precomputed fingerprint ignored: got %+v want %+v", got, fp)
	}
	req.Fingerprint = nil
	if got := req.fingerprint(); got != FingerprintRequest(req) {
		t.Fatalf("nil precomputed fingerprint must fall back to the full hash")
	}
}

func TestFingerprintTopologySensitivity(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	base := FingerprintInstance(s, w, core.Options{})

	if got := FingerprintInstance(s, fl.Weights{W1: 0.3, W2: 0.7}, core.Options{}); got.Topo == base.Topo {
		t.Errorf("weight change kept the topology bucket")
	}
	if got := FingerprintInstance(s, w, core.Options{Mode: core.ModeDeadline, TotalDeadline: 120}); got.Topo == base.Topo {
		t.Errorf("mode change kept the topology bucket")
	}
	smaller := *s
	smaller.Devices = s.Devices[:9]
	if got := FingerprintInstance(&smaller, w, core.Options{}); got.Topo == base.Topo {
		t.Errorf("dropping a device kept the topology bucket")
	}
	// Accuracy knobs key the cache: a tighter tolerance is a different
	// instance, not a hit on a looser answer.
	if got := FingerprintInstance(s, w, core.Options{OuterTol: 1e-12}); got.Exact == base.Exact {
		t.Errorf("OuterTol change kept the exact fingerprint")
	}
	if got := FingerprintInstance(s, w, core.Options{MaxOuter: 100}); got.Exact == base.Exact {
		t.Errorf("MaxOuter change kept the exact fingerprint")
	}
}

func pow10(x float64) float64 { return math.Pow(10, x) }

// TestWeightedFingerprintPinned holds the weighted-mode fingerprint to a
// recorded value: keys are hashed from raw field bits in a fixed order, so
// they must not move between builds or processes (snapshots and every
// cluster cell rely on it).
func TestWeightedFingerprintPinned(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	want := Fingerprint{Exact: 0xc70029c7117e040b, Topo: 0x598c6cce9b7e2b18}
	full := FingerprintInstance(s, w, core.Options{})
	if full != want {
		t.Errorf("weighted fingerprint %#x/%#x, pinned %#x/%#x", full.Exact, full.Topo, want.Exact, want.Topo)
	}
	if inc := FingerprintGains(full.Topo, s); inc != want {
		t.Errorf("incremental weighted fingerprint %#x, pinned %#x", inc.Exact, want.Exact)
	}
}

// TestDeadlineFingerprintExactGains checks that deadline mode keys on the
// gains' bits: a 1e-12 relative gain drift is a different key, the
// incremental form agrees with the full one, and the topology hash does
// not see the gains.
func TestDeadlineFingerprintExactGains(t *testing.T) {
	s := testSystem(t, 12, 3)
	w := fl.Weights{W1: 1}
	opts := core.Options{Mode: core.ModeDeadline, TotalDeadline: 300}
	base := FingerprintInstance(s, w, opts)
	drift := *s
	drift.Devices = append([]fl.Device(nil), s.Devices...)
	drift.Devices[4].Gain *= 1 + 1e-12
	got := FingerprintInstance(&drift, w, opts)
	if got.Exact == base.Exact {
		t.Errorf("a 1e-12 gain drift kept the deadline-mode exact key")
	}
	if got.Topo != base.Topo {
		t.Errorf("gain drift moved the topology hash")
	}
	if inc := FingerprintGains(base.Topo, &drift); inc != got {
		t.Errorf("incremental deadline fingerprint %+v != full %+v", inc, got)
	}
}

// TestFingerprintExactProperty checks the exact-key contract over seeded
// systems, both modes and every solver name:
//
//   - identical requests get identical keys;
//   - a one-ulp change to any one hashed field changes Exact;
//   - a change to any non-gain field also changes Topo;
//   - a gains-only change keeps Topo, and FingerprintGains of the changed
//     system then equals FingerprintRequest.
func TestFingerprintExactProperty(t *testing.T) {
	ulp := func(v *float64) { *v = math.Nextafter(*v, math.Inf(1)) }
	type field struct {
		name string
		gain bool
		mut  func(req *Request, dev int)
	}
	fields := []field{
		{"bandwidth", false, func(r *Request, _ int) { ulp(&r.System.Bandwidth) }},
		{"n0", false, func(r *Request, _ int) { ulp(&r.System.N0) }},
		{"kappa", false, func(r *Request, _ int) { ulp(&r.System.Kappa) }},
		{"local_iters", false, func(r *Request, _ int) { ulp(&r.System.LocalIters) }},
		{"global_rounds", false, func(r *Request, _ int) { ulp(&r.System.GlobalRounds) }},
		{"samples", false, func(r *Request, d int) { ulp(&r.System.Devices[d].Samples) }},
		{"cycles_per_sample", false, func(r *Request, d int) { ulp(&r.System.Devices[d].CyclesPerSample) }},
		{"upload_bits", false, func(r *Request, d int) { ulp(&r.System.Devices[d].UploadBits) }},
		{"f_min", false, func(r *Request, d int) { ulp(&r.System.Devices[d].FMin) }},
		{"f_max", false, func(r *Request, d int) { ulp(&r.System.Devices[d].FMax) }},
		{"p_min", false, func(r *Request, d int) { ulp(&r.System.Devices[d].PMin) }},
		{"p_max", false, func(r *Request, d int) { ulp(&r.System.Devices[d].PMax) }},
		{"gain", true, func(r *Request, d int) { ulp(&r.System.Devices[d].Gain) }},
		{"w1", false, func(r *Request, _ int) { ulp(&r.Weights.W1) }},
		{"w2", false, func(r *Request, _ int) { ulp(&r.Weights.W2) }},
		{"total_deadline", false, func(r *Request, _ int) { ulp(&r.Options.TotalDeadline) }},
		{"outer_tol", false, func(r *Request, _ int) { ulp(&r.Options.OuterTol) }},
		{"phi_tol", false, func(r *Request, _ int) { ulp(&r.Options.PhiTol) }},
		{"xi", false, func(r *Request, _ int) { ulp(&r.Options.Xi) }},
		{"epsilon", false, func(r *Request, _ int) { ulp(&r.Options.Epsilon) }},
		{"max_outer", false, func(r *Request, _ int) { r.Options.MaxOuter++ }},
		{"max_newton", false, func(r *Request, _ int) { r.Options.MaxNewton++ }},
		{"sp2_solver", false, func(r *Request, _ int) { r.Options.SP2Solver++ }},
		{"paper_sp1_dual", false, func(r *Request, _ int) { r.Options.UsePaperSP1Dual = !r.Options.UsePaperSP1Dual }},
		{"paper_sp2_dual", false, func(r *Request, _ int) { r.Options.UsePaperSP2Dual = !r.Options.UsePaperSP2Dual }},
		{"joint_weighted", false, func(r *Request, _ int) { r.Options.JointWeighted = !r.Options.JointWeighted }},
		{"device_count", false, func(r *Request, d int) {
			r.System.Devices = append(r.System.Devices[:d:d], r.System.Devices[d+1:]...)
		}},
	}
	clone := func(req Request) Request {
		sys := *req.System
		sys.Devices = append([]fl.Device(nil), req.System.Devices...)
		req.System = &sys
		return req
	}
	solvers := []SolverName{"", SolverAlgorithm2, SolverScheme1, SolverSimplified}
	modes := []core.Options{{Mode: core.ModeWeighted}, {Mode: core.ModeDeadline, TotalDeadline: 300}}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := testSystem(t, 1+rng.Intn(20), seed)
		w1 := rng.Float64()
		for _, opts := range modes {
			for _, solver := range solvers {
				base := Request{System: sys, Weights: fl.Weights{W1: w1, W2: 1 - w1}, Options: opts, Solver: solver}
				fp := FingerprintRequest(base)
				if again := FingerprintRequest(clone(base)); again != fp {
					t.Fatalf("seed %d %v %q: identical requests keyed %+v and %+v", seed, opts.Mode, solver, fp, again)
				}
				for _, f := range fields {
					req := clone(base)
					f.mut(&req, rng.Intn(req.System.N()))
					got := FingerprintRequest(req)
					name := fmt.Sprintf("seed %d mode %v solver %q field %s", seed, opts.Mode, solver, f.name)
					if got.Exact == fp.Exact {
						t.Errorf("%s: change kept Exact", name)
					}
					if f.gain {
						if got.Topo != fp.Topo {
							t.Errorf("%s: gains-only change moved Topo", name)
						}
						if inc := FingerprintGains(fp.Topo, req.System); inc != got {
							t.Errorf("%s: FingerprintGains %+v != FingerprintRequest %+v", name, inc, got)
						}
					} else if got.Topo == fp.Topo {
						t.Errorf("%s: non-gain change kept Topo", name)
					}
				}
			}
		}
	}
}
