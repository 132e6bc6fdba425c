package serve

import (
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
	a := FingerprintInstance(s, w, core.Options{}, Quantization{})
	b := FingerprintInstance(s, w, core.Options{}, Quantization{})
	if a != b {
		t.Fatalf("same instance hashed differently: %+v vs %+v", a, b)
	}
}

func TestFingerprintGainBuckets(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	q := Quantization{GainResolutionDB: 1.0}
	// Pin every gain to a bucket centre (log10/res integral, res = 0.1
	// decade for 1 dB) so a tiny drift cannot cross a boundary.
	for i := range s.Devices {
		s.Devices[i].Gain = 1e-9 * pow10(float64(i)*0.1)
	}
	base := FingerprintInstance(s, w, core.Options{}, q)

	near := *s
	near.Devices = append([]fl.Device(nil), s.Devices...)
	for i := range near.Devices {
		near.Devices[i].Gain *= 1.02 // ~0.086 dB, well inside a 1 dB bucket
	}
	if got := FingerprintInstance(&near, w, core.Options{}, q); got.Exact != base.Exact {
		t.Errorf("sub-bucket gain drift changed the exact fingerprint")
	}

	far := *s
	far.Devices = append([]fl.Device(nil), s.Devices...)
	for i := range far.Devices {
		far.Devices[i].Gain *= 10 // 10 dB, many buckets away
	}
	got := FingerprintInstance(&far, w, core.Options{}, q)
	if got.Exact == base.Exact {
		t.Errorf("10 dB gain shift kept the exact fingerprint")
	}
	if got.Topo != base.Topo {
		t.Errorf("gain-only change moved the topology bucket")
	}
}

func TestFingerprintGainsMatchesFull(t *testing.T) {
	s := testSystem(t, 12, 3)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	q := Quantization{}
	req := Request{System: s, Weights: w}
	full := FingerprintRequest(req, q)

	// Drift a few gains: the incremental recompute from the cached topo
	// hash must agree exactly with a from-scratch fingerprint of the
	// drifted system.
	rng := rand.New(rand.NewSource(9))
	for _, i := range []int{0, 5, 11} {
		s.Devices[i].Gain *= math.Exp(0.4 * rng.NormFloat64())
	}
	inc := FingerprintGains(full.Topo, s, core.ModeWeighted, q)
	fresh := FingerprintRequest(Request{System: s, Weights: w}, q)
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
	if got := req.fingerprint(Quantization{}); got != fp {
		t.Fatalf("precomputed fingerprint ignored: got %+v want %+v", got, fp)
	}
	req.Fingerprint = nil
	if got := req.fingerprint(Quantization{}); got != FingerprintRequest(req, Quantization{}) {
		t.Fatalf("nil precomputed fingerprint must fall back to the full hash")
	}
}

func TestFingerprintTopologySensitivity(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	base := FingerprintInstance(s, w, core.Options{}, Quantization{})

	if got := FingerprintInstance(s, fl.Weights{W1: 0.3, W2: 0.7}, core.Options{}, Quantization{}); got.Topo == base.Topo {
		t.Errorf("weight change kept the topology bucket")
	}
	if got := FingerprintInstance(s, w, core.Options{Mode: core.ModeDeadline, TotalDeadline: 120}, Quantization{}); got.Topo == base.Topo {
		t.Errorf("mode change kept the topology bucket")
	}
	smaller := *s
	smaller.Devices = s.Devices[:9]
	if got := FingerprintInstance(&smaller, w, core.Options{}, Quantization{}); got.Topo == base.Topo {
		t.Errorf("dropping a device kept the topology bucket")
	}
	// Accuracy knobs key the cache: a tighter tolerance is a different
	// instance, not a hit on a looser answer.
	if got := FingerprintInstance(s, w, core.Options{OuterTol: 1e-12}, Quantization{}); got.Exact == base.Exact {
		t.Errorf("OuterTol change kept the exact fingerprint")
	}
	if got := FingerprintInstance(s, w, core.Options{MaxOuter: 100}, Quantization{}); got.Exact == base.Exact {
		t.Errorf("MaxOuter change kept the exact fingerprint")
	}
}

func pow10(x float64) float64 { return math.Pow(10, x) }

// TestWeightedFingerprintPinned holds the weighted-mode fingerprint to a
// recorded value: deadline mode keys on exact gains, and that must not
// move a single weighted key (nor the caches and snapshots built on them).
func TestWeightedFingerprintPinned(t *testing.T) {
	s := testSystem(t, 10, 1)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	want := Fingerprint{Exact: 0xf603ed3b7d6e2c3d, Topo: 0xbef223852c211e44}
	full := FingerprintInstance(s, w, core.Options{}, Quantization{})
	if full != want {
		t.Errorf("weighted fingerprint %#x/%#x, pinned %#x/%#x", full.Exact, full.Topo, want.Exact, want.Topo)
	}
	if inc := FingerprintGains(full.Topo, s, core.ModeWeighted, Quantization{}); inc != want {
		t.Errorf("incremental weighted fingerprint %#x, pinned %#x", inc.Exact, want.Exact)
	}
}

// TestDeadlineFingerprintExactGains checks that deadline mode keys on the
// gains' bits: a gain drift far inside one bucket is a different key, the
// incremental form agrees with the full one, and the topology hash does
// not see the gains.
func TestDeadlineFingerprintExactGains(t *testing.T) {
	s := testSystem(t, 12, 3)
	w := fl.Weights{W1: 1}
	opts := core.Options{Mode: core.ModeDeadline, TotalDeadline: 300}
	q := Quantization{}
	base := FingerprintInstance(s, w, opts, q)
	drift := *s
	drift.Devices = append([]fl.Device(nil), s.Devices...)
	drift.Devices[4].Gain *= 1 + 1e-12
	got := FingerprintInstance(&drift, w, opts, q)
	if got.Exact == base.Exact {
		t.Errorf("a 1e-12 gain drift kept the deadline-mode exact key")
	}
	if got.Topo != base.Topo {
		t.Errorf("gain drift moved the topology hash")
	}
	if inc := FingerprintGains(base.Topo, &drift, core.ModeDeadline, q); inc != got {
		t.Errorf("incremental deadline fingerprint %+v != full %+v", inc, got)
	}
}
