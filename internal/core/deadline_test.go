package core

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/fl"
	"repro/internal/wireless"
)

// TestDeadlineCorpus holds the deadline solver to the energies the
// bisection-priced solver it replaced served on the same corpus, and to a
// certified optimality gap: Optimize's Result carries the dual function at
// the final price bracket, which bounds the optimum from below.
func TestDeadlineCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("48 N=50 deadline solves")
	}
	raw, err := os.ReadFile("testdata/deadline_corpus_energy.json")
	if err != nil {
		t.Fatal(err)
	}
	var seed struct {
		Energy []float64 `json:"energy_j"`
	}
	if err := json.Unmarshal(raw, &seed); err != nil {
		t.Fatal(err)
	}
	corpus := deadlineCorpus(t)
	if len(seed.Energy) != len(corpus) {
		t.Fatalf("%d recorded energies for %d corpus instances", len(seed.Energy), len(corpus))
	}
	var sum, seedSum, worstGap, bestGap float64
	for k, s := range corpus {
		res, err := Optimize(s, fl.Weights{W1: 1}, Options{Mode: ModeDeadline, TotalDeadline: corpusDeadline})
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		if err := s.ValidateDeadline(res.Allocation, res.RoundDeadline, 1e-6); err != nil {
			t.Errorf("instance %d: %v", k, err)
		}
		e := res.Objective
		if e > seed.Energy[k]*(1+1e-5) {
			t.Errorf("instance %d: energy %.9g J above the recorded %.9g J (rel %+.3g)",
				k, e, seed.Energy[k], e/seed.Energy[k]-1)
		}
		gap := (e - res.DualBound) / e
		if gap < -1e-9 || gap > 1e-5 {
			t.Errorf("instance %d: primal-dual gap %.3g outside [-1e-9, 1e-5]", k, gap)
		}
		worstGap, bestGap = max(worstGap, gap), min(bestGap, gap)
		sum += e
		seedSum += seed.Energy[k]
	}
	if sum > seedSum {
		t.Errorf("corpus mean energy %.9g J above the recorded %.9g J", sum/float64(len(corpus)), seedSum/float64(len(corpus)))
	}
	t.Logf("mean energy %.9g J (recorded %.9g J), gaps in [%.3g, %.3g]", sum/float64(len(corpus)), seedSum/float64(len(corpus)), bestGap, worstGap)
}

// TestBandAtInvertsMarginal checks the closed-form water level on both
// branches of the reduced marginal: marginal(bandAt(lambda)) = lambda, or
// the floor when the marginal there is already below lambda, or the
// junction (where p(B) reaches pmin and the marginal drops) when lambda
// falls inside that drop.
func TestBandAtInvertsMarginal(t *testing.T) {
	s := newTestSystem(40, 7)
	var pinned, free, floor, junction int
	for i, d := range s.Devices {
		for _, tUp := range []float64{0.003, 0.03, 0.3} {
			rd, err := newReducedDevice(d, s.N0, d.UploadBits/tUp)
			if err != nil {
				continue
			}
			for e := -16.0; e <= -4; e += 0.25 {
				lambda := math.Pow(10, e)
				b := rd.bandAt(s.N0, lambda)
				m := rd.marginal(s.N0, b)
				switch {
				case b == rd.bForced:
					floor++
					if m > lambda*(1+1e-9) {
						t.Errorf("device %d λ=%g: floor %g has marginal %g above λ", i, lambda, b, m)
					}
				case math.Abs(m-lambda) <= 1e-8*lambda:
					if rd.power(s.N0, b) > rd.pmin*(1+1e-12) {
						pinned++
					} else {
						free++
					}
				default:
					junction++
					// Left of b the power is pinned above pmin, right of it
					// free at pmin, and λ lies between the two marginals.
					lo, hi := rd.marginal(s.N0, b*(1+1e-9)), rd.marginal(s.N0, b*(1-1e-9))
					if !(lo <= lambda*(1+1e-7) && lambda <= hi*(1+1e-7)) {
						t.Errorf("device %d λ=%g: b=%g has marginal %g, not a root, floor or junction [%g, %g]",
							i, lambda, b, m, lo, hi)
					}
				}
			}
		}
	}
	if pinned == 0 || free == 0 || floor == 0 || junction == 0 {
		t.Errorf("branches not all exercised: pinned %d free %d floor %d junction %d", pinned, free, floor, junction)
	}
	t.Logf("pinned %d free %d floor %d junction %d", pinned, free, floor, junction)
}

// Deadline corpus: N=50 instances built the way the deadline-batch
// benchmark workload builds them — 16 paper-default base topologies, each
// instance a fresh σ=0.3 log-normal drift of every gain of one base taken
// in turn, kept only when its minimum completion time is at most 90% of
// the 120 s deadline.
const (
	corpusSize       = 48
	corpusN          = 50
	corpusTopologies = 16
	corpusSigma      = 0.3
	corpusDeadline   = 120.0 // s, total over all global rounds
	corpusSeed       = 1
)

// scenarioSystem draws a population with the paper's Section VII-A
// defaults, in the same order as experiments.Default().Build.
func scenarioSystem(n int, seed int64) *fl.System {
	rng := rand.New(rand.NewSource(seed))
	pl := wireless.DefaultPathLoss()
	devs := make([]fl.Device, n)
	for i := range devs {
		devs[i] = fl.Device{
			Samples:         500,
			CyclesPerSample: 1e4 + rng.Float64()*2e4,
			UploadBits:      28.1e3,
			Gain:            pl.SampleGain(rng, wireless.UniformDiskDistanceKm(rng, 0.25)),
			FMin:            1e7,
			FMax:            2e9,
			PMin:            wireless.DBmToWatt(0),
			PMax:            wireless.DBmToWatt(12),
		}
	}
	return &fl.System{
		Devices:      devs,
		Bandwidth:    20e6,
		N0:           wireless.NoisePSDWattPerHz(-174),
		Kappa:        1e-28,
		LocalIters:   10,
		GlobalRounds: 400,
	}
}

// deadlineCorpus returns the corpus instances, deterministic in corpusSeed.
func deadlineCorpus(t testing.TB) []*fl.System {
	t.Helper()
	rng := rand.New(rand.NewSource(corpusSeed))
	bases := make([]*fl.System, corpusTopologies)
	for k := range bases {
		bases[k] = scenarioSystem(corpusN, rng.Int63())
	}
	var out []*fl.System
	for draws := 0; len(out) < corpusSize; draws++ {
		if draws == 100*corpusSize {
			t.Fatalf("only %d feasible corpus instances in %d draws", len(out), draws)
		}
		base := bases[draws%len(bases)]
		s := *base
		s.Devices = append([]fl.Device(nil), base.Devices...)
		for i := range s.Devices {
			s.Devices[i].Gain *= math.Exp(corpusSigma * rng.NormFloat64())
		}
		mt, err := SolveMinTime(&s)
		if err != nil || mt.RoundDeadline*s.GlobalRounds > 0.9*corpusDeadline {
			continue
		}
		out = append(out, &s)
	}
	return out
}

// TestDeadlineFixedPowerNearMinimum solves deadlines a hair above the
// physical minimum for devices whose power box is a single point
// (PMin = PMax). The band floors then fill the band to within rounding,
// which leaves the polish's waterfill almost no room: the solve must still
// succeed and be feasible.
func TestDeadlineFixedPowerNearMinimum(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s := newTestSystem(20, seed)
		for i := range s.Devices {
			s.Devices[i].PMin = s.Devices[i].PMax
		}
		mt, err := SolveMinTime(s)
		if err != nil {
			t.Fatal(err)
		}
		round := mt.RoundDeadline * 1.0001
		alloc, _, err := solveDeadlineJoint(s, round, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.ValidateDeadline(alloc, round, 1e-6); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDeadlineEvaluationCounts holds the price search, the per-device
// split searches, the polish waterfills and the polish re-splits to their
// evaluation budgets on the corpus, read from the ModeDeadline counters of
// SolveTrace. The waterfills start from the level the price search or the
// previous pass ended at; walking down from the largest floor marginal
// instead costs about 66 demand sweeps per solve. The split scans skip
// grid points their cost floor rules out; without it a solve costs about
// 6,190 split evaluations. The re-splits root-find their convex cost's
// slope from the current split, about 420 cost and slope evaluations per
// solve against about 4,686 for the grid-and-golden-section re-splits
// they replaced, and a re-split within the split tolerance earns no
// further waterfill (about 11.8 sweeps per solve; 24.5 when every cheaper
// re-split did).
func TestDeadlineEvaluationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("48 N=50 deadline solves")
	}
	corpus := deadlineCorpus(t)
	var tr SolveTrace
	for k, s := range corpus {
		if _, err := Optimize(s, fl.Weights{W1: 1}, Options{Mode: ModeDeadline, TotalDeadline: corpusDeadline, Trace: &tr}); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
	}
	price := float64(tr.PriceEvals) / float64(len(corpus))
	split := float64(tr.SplitEvals) / float64(len(corpus))
	level := float64(tr.LevelEvals) / float64(len(corpus))
	resplit := float64(tr.ResplitEvals) / float64(len(corpus))
	if price > 7.5 || split > 4500 || level > 13 || resplit > 460 {
		t.Errorf("mean %.2f price, %.0f split, %.1f level and %.0f re-split evaluations per solve, budget 7.5, 4500, 13 and 460",
			price, split, level, resplit)
	}
	t.Logf("mean %.2f price, %.0f split, %.1f level and %.0f re-split evaluations per solve", price, split, level, resplit)

	var weighted SolveTrace
	if _, err := Optimize(corpus[0], fl.Weights{W1: 0.5, W2: 0.5}, Options{Trace: &weighted}); err != nil {
		t.Fatal(err)
	}
	if weighted.PriceEvals != 0 || weighted.SplitEvals != 0 || weighted.LevelEvals != 0 || weighted.ResplitEvals != 0 {
		t.Errorf("weighted solve counted %d price, %d split, %d level and %d re-split evaluations, want none",
			weighted.PriceEvals, weighted.SplitEvals, weighted.LevelEvals, weighted.ResplitEvals)
	}
}

// TestDeadlineStress solves seeded instances from a hair above the
// physical minimum deadline to three times it, with and without a fixed
// transmit power, and checks each answer for feasibility and against the
// dual bound. Two more instances, found by a seeded search, have a high
// frequency floor (FMin a large share of FMax) that makes some device's
// split cost bimodal; there the final price bracket straddles a basin jump,
// and the over-demand end's splits must be polished as a second candidate.
func TestDeadlineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("202 deadline solves")
	}
	type stressCase struct {
		n          int
		seed       int64
		fixedPower bool
		fMinShare  float64 // FMin/FMax and PMin/PMax; 0 keeps the defaults
		slack      float64
	}
	var cases []stressCase
	for _, n := range []int{5, 20} {
		for seed := int64(1); seed <= 10; seed++ {
			for _, fixedPower := range []bool{false, true} {
				for _, slack := range []float64{1.0001, 1.01, 1.2, 1.8, 3} {
					cases = append(cases, stressCase{n, seed, fixedPower, 0, slack})
				}
			}
		}
	}
	jumps := []stressCase{{5, 4, false, 0.5, 1.01}, {5, 8, false, 0.75, 1.001}}
	cases = append(cases, jumps...)
	bestGap, worstGap := math.Inf(1), math.Inf(-1)
	for k, c := range cases {
		s := newTestSystem(c.n, c.seed)
		for i := range s.Devices {
			d := &s.Devices[i]
			if c.fixedPower {
				d.PMin = d.PMax
			}
			if c.fMinShare > 0 {
				d.FMin, d.PMin = c.fMinShare*d.FMax, 0.5*d.PMax
			}
		}
		mt, err := SolveMinTime(s)
		if err != nil {
			t.Fatal(err)
		}
		round := mt.RoundDeadline * c.slack
		var tr SolveTrace
		alloc, bound, err := solveDeadlineJoint(s, round, &tr)
		if err != nil {
			t.Errorf("%+v: %v", c, err)
			continue
		}
		if err := s.ValidateDeadline(alloc, round, 1e-6); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
		e := s.Evaluate(alloc).TotalEnergy
		gap := (e - s.GlobalRounds*bound) / e
		if gap < -1e-9 || gap > 1e-5 {
			t.Errorf("%+v: primal-dual gap %.3g outside [-1e-9, 1e-5]", c, gap)
		}
		bestGap, worstGap = min(bestGap, gap), max(worstGap, gap)
		if k >= len(cases)-len(jumps) && tr.Polishes != 2 {
			t.Errorf("%+v: %d candidates polished across a basin jump, want 2", c, tr.Polishes)
		}
	}
	t.Logf("primal-dual gaps in [%.3g, %.3g]", bestGap, worstGap)
}

// TestSplitDeviceMatchesEager checks the split search's device against
// the eager reduction over TestBandAtInvertsMarginal's grid. A device whose
// floor is unknown, with the free-branch band shared across its splits at
// one price, must return the eager bandAt exactly off the floor and within
// 1e-12 on it, and off the floor the energy from the power it hands back
// must equal the eager energy exactly. The energy's pinned shortcut
// p*d/rmin must agree with p*d/Rate(p, b) to 1e-12: the reference loses
// digits to the round trip through 2^(rmin/b) at high spectral efficiency.
func TestSplitDeviceMatchesEager(t *testing.T) {
	s := newTestSystem(40, 7)
	var onFloor, offFloor int
	for i, d := range s.Devices {
		for e := -16.0; e <= -4; e += 0.25 {
			lambda := math.Pow(10, e)
			var free freeBranch
			for _, tUp := range []float64{0.003, 0.03, 0.3} {
				rmin := d.UploadBits / tUp
				eager, err := newReducedDevice(d, s.N0, rmin)
				lazy, ok := newSplitDevice(d, rmin, wireless.RateLimit(d.PMax, d.Gain, s.N0))
				if ok != (err == nil) {
					t.Fatalf("device %d rmin %g: split device ok=%v, eager error %v", i, rmin, ok, err)
				}
				if !ok {
					continue
				}
				want := eager.bandAt(s.N0, lambda)
				got, pGot := lazy.bandAtFree(s.N0, lambda, &free)
				if want == eager.bForced {
					onFloor++
					if math.Abs(got-want) > 1e-12*want {
						t.Errorf("device %d rmin %g λ=%g: floor %.17g, lazy %.17g", i, rmin, lambda, want, got)
					}
				} else {
					offFloor++
					if got != want {
						t.Errorf("device %d rmin %g λ=%g: band %.17g, lazy %.17g", i, rmin, lambda, want, got)
					}
					if en, lazyEn := eager.energy(s.N0, want), lazy.energyAt(s.N0, got, pGot); lazyEn != en {
						t.Errorf("device %d rmin %g λ=%g: energy %.17g, from the handed-back power %.17g", i, rmin, lambda, en, lazyEn)
					}
				}
				p := eager.power(s.N0, want)
				ref := p * d.UploadBits / wireless.Rate(p, want, d.Gain, s.N0)
				if en := eager.energy(s.N0, want); math.Abs(en-ref) > 1e-12*ref {
					t.Errorf("device %d rmin %g λ=%g: energy %.17g, p*d/Rate %.17g", i, rmin, lambda, en, ref)
				}
			}
		}
	}
	if onFloor == 0 || offFloor == 0 {
		t.Errorf("on floor %d, off floor %d: both must be exercised", onFloor, offFloor)
	}
}

// TestDeadlineScreenMatchesMinTime checks Optimize's one-pass feasibility
// screen against SolveMinTime's bisection on seeded systems, with and
// without a fixed transmit power: a round deadline 1e-6 above the minimum
// passes the screen and solves, one 1e-6 below fails with ErrInfeasible.
func TestDeadlineScreenMatchesMinTime(t *testing.T) {
	for _, n := range []int{5, 20, 50} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, fixedPower := range []bool{false, true} {
				s := newTestSystem(n, seed)
				if fixedPower {
					for i := range s.Devices {
						s.Devices[i].PMin = s.Devices[i].PMax
					}
				}
				mt, err := SolveMinTime(s)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []float64{1 + 1e-6, 1 - 1e-6} {
					round := mt.RoundDeadline * k
					pass := bandNeeded(s, round*(1+1e-9), nil) <= s.Bandwidth
					if pass != (k > 1) {
						t.Errorf("n=%d seed %d fixed=%v: screen passes %v at %g x the minimum", n, seed, fixedPower, pass, k)
					}
					_, err := Optimize(s, fl.Weights{W1: 1}, Options{Mode: ModeDeadline, TotalDeadline: round * s.GlobalRounds})
					if k > 1 && err != nil {
						t.Errorf("n=%d seed %d fixed=%v: %v", n, seed, fixedPower, err)
					}
					if k < 1 && !errors.Is(err, ErrInfeasible) {
						t.Errorf("n=%d seed %d fixed=%v: below the minimum got %v, want ErrInfeasible", n, seed, fixedPower, err)
					}
				}
			}
		}
	}
}

// TestSplitCostBound checks the bound the split scans prune with: every
// split cost and polish re-split cost, as computed, is at or above
// costFloor. It sweeps prices 1e-12 to 1e6 and splits across each
// device's [tLo, tHi] on corpus devices, the stress variants (fixed power,
// high frequency floor) and adversarial gains from 1e-16 to 1e-4, each at
// a tight and a loose deadline. A bound above a computed cost would let a
// scan skip the point it would otherwise pick.
func TestSplitCostBound(t *testing.T) {
	type instance struct {
		name  string
		s     *fl.System
		slack []float64
	}
	var cases []instance
	for k, s := range deadlineCorpus(t) {
		if k%6 == 0 {
			cases = append(cases, instance{"corpus", s, []float64{1.0001, 3}})
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, variant := range []string{"fixed power", "frequency floor"} {
			s := newTestSystem(10, seed)
			for i := range s.Devices {
				d := &s.Devices[i]
				if variant == "fixed power" {
					d.PMin = d.PMax
				} else {
					d.FMin, d.PMin = 0.75*d.FMax, 0.5*d.PMax
				}
			}
			cases = append(cases, instance{variant, s, []float64{1.0001, 3}})
		}
	}
	adv := newTestSystem(25, 9)
	for i := range adv.Devices {
		adv.Devices[i].Gain = math.Pow(10, -16+12*float64(i)/float64(len(adv.Devices)-1))
	}
	cases = append(cases, instance{"adversarial gains", adv, []float64{1.01, 10}})

	checked, closest := 0, math.Inf(1) // finite costs, least (cost-floor)/eFloor
	for _, c := range cases {
		var minRound float64 // every device at full frequency over the whole band
		for _, d := range c.s.Devices {
			up := d.UploadBits / wireless.Rate(d.PMax, c.s.Bandwidth, d.Gain, c.s.N0)
			minRound = max(minRound, c.s.LocalIters*d.CyclesPerIteration()/d.FMax+up)
		}
		for _, slack := range c.slack {
			ds, err := newDeadlineSolve(c.s, minRound*slack)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for i, pl := range ds.plans {
				for e := -12.0; e <= 6; e++ {
					lambda := math.Pow(10, e)
					var free freeBranch
					for k := 0; k <= 32; k++ {
						split := pl.tLo + (pl.tHi-pl.tLo)*float64(k)/32
						floor := ds.costFloor(i, split)
						cost, b := ds.splitCost(i, lambda, split, &free)
						if cost < floor {
							t.Errorf("%s device %d λ=%g t=%g: split cost %.17g below its floor %.17g", c.name, i, lambda, split, cost, floor)
						}
						bands := []float64{b}
						for j := -6; j <= 0; j++ {
							bands = append(bands, c.s.Bandwidth*math.Pow(10, float64(j)))
						}
						for _, band := range bands {
							if !(band > 0) || math.IsInf(band, 1) {
								continue
							}
							re := ds.resplitCost(i, band, split)
							if re < floor {
								t.Errorf("%s device %d t=%g band %g: re-split cost %.17g below its floor %.17g", c.name, i, split, band, re, floor)
							}
							if !math.IsInf(re, 1) {
								checked++
								closest = min(closest, (re-floor)/pl.eFloor)
							}
						}
						if !math.IsInf(cost, 1) {
							checked++
							closest = min(closest, (cost-floor)/pl.eFloor)
						}
					}
				}
			}
		}
	}
	// The floor is nearly tight only where the SNR at pmin is small: weak
	// gains over wide bands. The sweep must reach there.
	if !(closest < 1e-3) {
		t.Errorf("the closest of %d finite costs lies %.3g x its floor's transmission term above it, want under 1e-3", checked, closest)
	}
	t.Logf("%d finite costs checked; the closest lies %.3g x its floor's transmission term above it", checked, closest)
}

// checkResplitConvex checks device i's polish re-split at band b on a grid
// of grid+1 splits across its finite range: resplitSlope never decreases
// (the cost is convex), it matches a central difference of resplitCost
// away from the cost's kinks (the FMin floor split and the pmin junction),
// and bestResplit's split, from either end or the middle of the range,
// costs at most the grid's least cost*(1+1e-12). It reports which
// features lie inside the range; all false when no split reaches the rate
// at pmax on b, where bestResplit must decline.
func checkResplitConvex(t testing.TB, ds *deadlineSolve, i int, b float64, grid int) (floor, junction, wall bool) {
	t.Helper()
	pl, d := ds.plans[i], ds.s.Devices[i]
	wallT := d.UploadBits / wireless.Rate(d.PMax, b, d.Gain, ds.s.N0)
	lo := max(pl.tLo, wallT*(1+1e-9))
	if !(lo < pl.tHi) {
		if _, ok := ds.bestResplit(i, b, pl.tLo, new(SolveTrace)); ok {
			t.Errorf("device %d band %g: a re-split past its range [%g, %g]", i, b, lo, pl.tHi)
		}
		return false, false, false
	}
	tJ := ds.junction(i, b)
	width := pl.tHi - lo
	h := 1e-6 * width
	kink := func(x float64) bool { return math.Abs(x-pl.tFloor) < 2*h || math.Abs(x-tJ) < 2*h }
	best, prev := math.Inf(1), math.Inf(-1)
	for k := 0; k <= grid; k++ {
		x := lo + width*float64(k)/float64(grid)
		c := ds.resplitCost(i, b, x)
		best = min(best, c)
		s := ds.resplitSlope(i, b, tJ, x)
		if s < prev-1e-10*(math.Abs(s)+math.Abs(prev)) {
			t.Errorf("device %d band %g: slope falls from %.17g to %.17g at t=%g", i, b, prev, s, x)
		}
		prev = s
		if k == 0 || k == grid || kink(x) {
			continue
		}
		cd := (ds.resplitCost(i, b, x+h) - ds.resplitCost(i, b, x-h)) / (2 * h)
		if math.Abs(cd-s) > 1e-4*math.Abs(s)+1e-7*c/width {
			t.Errorf("device %d band %g t=%g: slope %.9g, central difference %.9g", i, b, x, s, cd)
		}
	}
	for _, from := range []float64{pl.tLo, 0.5 * (pl.tLo + pl.tHi), pl.tHi} {
		x, ok := ds.bestResplit(i, b, from, new(SolveTrace))
		if !ok || x < lo || x > pl.tHi {
			t.Errorf("device %d band %g from %g: re-split %g (ok %v) outside [%g, %g]", i, b, from, x, ok, lo, pl.tHi)
			continue
		}
		if c := ds.resplitCost(i, b, x); c > best*(1+1e-12) {
			t.Errorf("device %d band %g from %g: re-split cost %.17g above the %d-point scan's %.17g", i, b, from, c, grid+1, best)
		}
	}
	return lo < pl.tFloor && pl.tFloor < pl.tHi, lo < tJ && tJ < pl.tHi, wallT > pl.tLo
}

// TestResplitConvex checks the convexity the polish's exact re-splits rest
// on (checkResplitConvex, 2,001-point grids): corpus devices at their
// polished bands x0.5, x1 and x2, and seeded devices whose range holds the
// FMin floor split (a high frequency floor at loose deadlines), the pmin
// junction and the pmax wall, and devices at fixed power (PMin = PMax),
// where the cost past the wall is flat in transmission.
func TestResplitConvex(t *testing.T) {
	if testing.Short() {
		t.Skip("about 2,000 re-split scans")
	}
	var floors, junctions, walls, fixed, checked int
	check := func(ds *deadlineSolve, bands []float64, scales []float64, fixedPower bool) {
		for i, b := range bands {
			for _, k := range scales {
				f, j, w := checkResplitConvex(t, ds, i, k*b, 2000)
				checked++
				floors, junctions, walls = floors+b2i(f), junctions+b2i(j), walls+b2i(w)
				if fixedPower {
					fixed++
				}
			}
		}
	}
	for k, s := range deadlineCorpus(t) {
		if k%12 != 0 {
			continue
		}
		res, err := Optimize(s, fl.Weights{W1: 1}, Options{Mode: ModeDeadline, TotalDeadline: corpusDeadline})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := newDeadlineSolve(s, res.RoundDeadline)
		if err != nil {
			t.Fatal(err)
		}
		check(&ds, res.Allocation.Bandwidth, []float64{0.5, 1, 2}, false)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, variant := range []string{"fixed power", "frequency floor"} {
			s := newTestSystem(10, seed)
			for i := range s.Devices {
				d := &s.Devices[i]
				if variant == "fixed power" {
					d.PMin = d.PMax
				} else {
					d.FMin, d.PMin = 0.5*d.FMax, 0.5*d.PMax
				}
			}
			mt, err := SolveMinTime(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, slack := range []float64{1.01, 3, 10} {
				round := mt.RoundDeadline * slack
				alloc, _, err := solveDeadlineJoint(s, round, nil)
				if err != nil {
					t.Fatalf("%s seed %d slack %g: %v", variant, seed, slack, err)
				}
				ds, err := newDeadlineSolve(s, round)
				if err != nil {
					t.Fatal(err)
				}
				check(&ds, alloc.Bandwidth, []float64{0.5, 1}, variant == "fixed power")
			}
		}
	}
	if floors == 0 || junctions == 0 || walls == 0 || fixed == 0 {
		t.Errorf("ranges holding the FMin floor %d, the junction %d, the wall %d, fixed power %d: all must be exercised",
			floors, junctions, walls, fixed)
	}
	t.Logf("%d re-splits checked; ranges holding the FMin floor %d, the junction %d, the wall %d; %d at fixed power",
		checked, floors, junctions, walls, fixed)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzResplitConvex runs checkResplitConvex on fuzzed three-device
// systems: seed, band share, deadline slack over the full-band minimum,
// frequency floor share and fixed power.
func FuzzResplitConvex(f *testing.F) {
	f.Add(int64(1), 0.3, 1.5, 0.0, false)
	f.Add(int64(2), 0.05, 10.0, 0.5, false)
	f.Add(int64(3), 1.0, 1.01, 0.0, true)
	f.Add(int64(4), 0.01, 3.0, 0.75, false)
	f.Fuzz(func(t *testing.T, seed int64, share, slack, fMinShare float64, fixedPower bool) {
		if !(share >= 1e-4 && share <= 1) || !(slack >= 1.0001 && slack <= 100) || !(fMinShare >= 0 && fMinShare < 1) {
			t.Skip()
		}
		s := newTestSystem(3, seed)
		var minRound float64 // every device at full frequency over the whole band
		for i := range s.Devices {
			d := &s.Devices[i]
			if fMinShare > 0 {
				d.FMin = fMinShare * d.FMax
			}
			if fixedPower {
				d.PMin = d.PMax
			}
			up := d.UploadBits / wireless.Rate(d.PMax, s.Bandwidth, d.Gain, s.N0)
			minRound = max(minRound, s.LocalIters*d.CyclesPerIteration()/d.FMax+up)
		}
		ds, err := newDeadlineSolve(s, minRound*slack)
		if err != nil {
			t.Skip()
		}
		for i := range s.Devices {
			checkResplitConvex(t, &ds, i, share*s.Bandwidth, 400)
		}
	})
}
