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
		alloc, _, _, err := solveDeadlineJoint(s, round, nil)
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
// instead costs about 66 demand sweeps per solve. The split searches
// root-find their convex cost's slope (numeric.MinimizeConvex), about
// 2,523 split evaluations per solve, against 6,190 for the 24-point grid
// scans refined by parabolic interpolation they replaced and 4,091 for
// those scans pruned by a cost floor; more than half of them go to the
// first three prices, whose brackets are wide, where a split moves far
// from any split already known. Each split evaluation's band inversions
// start from the device's last answers (bandFrom): of about 3,640 per
// solve (2,523 water levels, 920 floor and junction bands, 197 free-branch
// bands), about 238 run cold, the first of each kind per device and the
// few that Newton's method cannot finish from their start. The re-splits root-find their convex cost's
// slope from the current split, about 236 cost and slope evaluations per
// solve against about 4,686 for the grid-and-golden-section re-splits they
// replaced, and a re-split that moves by no more than twice the split
// tolerance earns no further waterfill (about 7.4 sweeps per solve; 13.0
// when a move by more than one tolerance earned one, which rounding in
// the two searches' answers alone decided, between 5 and 24 sweeps per
// solve; 24.5 when every cheaper re-split earned one).
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
	cold := float64(tr.ColdInversions) / float64(len(corpus))
	if price > 7.5 || split > 2700 || level > 13 || resplit > 460 || cold > 300 {
		t.Errorf("mean %.2f price, %.0f split, %.1f level and %.0f re-split evaluations and %.0f cold inversions per solve, budget 7.5, 2700, 13, 460 and 300",
			price, split, level, resplit, cold)
	}
	t.Logf("mean %.2f price, %.0f split, %.1f level and %.0f re-split evaluations and %.0f cold inversions per solve", price, split, level, resplit, cold)

	var weighted SolveTrace
	if _, err := Optimize(corpus[0], fl.Weights{W1: 0.5, W2: 0.5}, Options{Trace: &weighted}); err != nil {
		t.Fatal(err)
	}
	if weighted.PriceEvals != 0 || weighted.SplitEvals != 0 || weighted.LevelEvals != 0 || weighted.ResplitEvals != 0 || weighted.ColdInversions != 0 {
		t.Errorf("weighted solve counted %d price, %d split, %d level and %d re-split evaluations and %d cold inversions, want none",
			weighted.PriceEvals, weighted.SplitEvals, weighted.LevelEvals, weighted.ResplitEvals, weighted.ColdInversions)
	}
}

// TestDeadlineStress solves seeded instances from a hair above the
// physical minimum deadline to three times it, with and without a fixed
// transmit power, and checks each answer for feasibility and against the
// dual bound. Two more instances, found by a seeded search, have a high
// frequency floor (FMin a large share of FMax) that gives some device's
// split cost a flat bottom at the final price bracket: compute at FMin and
// transmission at pmin over a range of splits. There the bracket ends keep
// different best splits, and the under-demand end's splits, the one
// candidate polished, must still meet the same checks.
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
	for _, c := range cases {
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
		alloc, bound, _, err := solveDeadlineJoint(s, round, nil)
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

// checkSplitConvex checks device i's split cost at price lambda on a grid
// of grid+1 splits across its range [tLo, tHi]. Its second differences are
// at least -1e-12 of the cost (it is convex). Its central difference over
// [t-h, t+h], the mean of the slope there, lies between splitCost's slopes
// at t-h, t and t+h, widened by 1e-4 of the slope and by the cost's
// rounding, which at low prices, where the band is wide, PowerForRate's
// 2^(r/B) - 1 brings to about 1e-12 of the cost; bracketing by the slopes
// rather than matching one of them holds across the FMin floor split,
// where the slope jumps, and across the band's switches of branch, where
// the curvature does. And bestSplit's best split, from either end or the
// middle of the range, costs at most the grid's least cost*(1+1e-12), and
// what bestSplit reports. It reports whether the cost is flat at its
// least: more than one grid split costs exactly the least cost.
func checkSplitConvex(t testing.TB, ds *deadlineSolve, i int, lambda float64, grid int) (flat bool) {
	t.Helper()
	pl := ds.plans[i]
	width := pl.tHi - pl.tLo
	h := 1e-5 * width
	var free freeBranch
	cost := func(x float64) float64 { c, _, _ := ds.splitCost(i, lambda, x, &free); return c }
	costs := make([]float64, grid+1)
	best := math.Inf(1)
	for k := range costs {
		x := pl.tLo + width*float64(k)/float64(grid)
		c, sl, _ := ds.splitCost(i, lambda, x, &free)
		costs[k], best = c, min(best, c)
		if k >= 2 && costs[k-2]-2*costs[k-1]+c < -1e-12*costs[k-1] {
			t.Errorf("device %d λ=%g: second difference %.3g of cost %.17g at t=%g", i, lambda, costs[k-2]-2*costs[k-1]+c, costs[k-1], x)
		}
		if k == 0 || k == grid {
			continue
		}
		cm, sm, _ := ds.splitCost(i, lambda, x-h, &free)
		cp, sp, _ := ds.splitCost(i, lambda, x+h, &free)
		cd, slack := (cp-cm)/(2*h), 1e-4*math.Abs(sl)+1e-6*c/width
		if cd < min(sm, sl, sp)-slack || cd > max(sm, sl, sp)+slack {
			t.Errorf("device %d λ=%g t=%g: slopes %.9g, %.9g, %.9g at t-h, t, t+h, central difference %.9g", i, lambda, x, sm, sl, sp, cd)
		}
	}
	for _, from := range []float64{pl.tLo, 0.5 * (pl.tLo + pl.tHi), pl.tHi} {
		split, _, c := ds.bestSplit(i, lambda, from, pl.tLo, pl.tHi, new(SolveTrace))
		if !(split >= pl.tLo && split <= pl.tHi) {
			t.Errorf("device %d λ=%g from %g: best split %g outside [%g, %g]", i, lambda, from, split, pl.tLo, pl.tHi)
			continue
		}
		if c > best*(1+1e-12) {
			t.Errorf("device %d λ=%g from %g: best split cost %.17g above the %d-point scan's %.17g", i, lambda, from, c, grid+1, best)
		}
		if cx := cost(split); math.Abs(cx-c) > 1e-12*c {
			t.Errorf("device %d λ=%g from %g: split %g costs %.17g, bestSplit reports %.17g", i, lambda, from, split, cx, c)
		}
	}
	least := 0
	for _, c := range costs {
		least += b2i(c == best)
	}
	return least > 1
}

// TestResplitConvex checks the convexity both split searches rest on, on
// 2,001-point grids. The polish's re-splits (checkResplitConvex): corpus
// devices at their polished bands x0.5, x1 and x2, and seeded devices
// whose range holds the FMin floor split (a high frequency floor at loose
// deadlines), the pmin junction and the pmax wall, and devices at fixed
// power (PMin = PMax), where the cost past the wall is flat in
// transmission. The price search's splits (checkSplitConvex): every tenth
// corpus device at prices 1e-12 to 1e2, and every device of
// TestDeadlineStress's two high-frequency-floor instances at prices
// 1e-12 to 1e2 and at their final price, where some split costs are flat.
func TestResplitConvex(t *testing.T) {
	if testing.Short() {
		t.Skip("about 2,000 re-split scans")
	}
	var floors, junctions, walls, fixed, checked, splits, flats int
	checkSplits := func(s *fl.System, round float64, devices int, prices []float64) {
		ds, err := newDeadlineSolve(s, round)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.N(); i += devices {
			for _, lambda := range prices {
				flats += b2i(checkSplitConvex(t, &ds, i, lambda, 2000))
				splits++
			}
		}
	}
	var decades []float64
	for e := -12; e <= 2; e++ {
		decades = append(decades, math.Pow(10, float64(e)))
	}
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
		checkSplits(s, res.RoundDeadline, 10, decades)
	}
	for _, c := range []struct {
		seed         int64
		fMinShare, k float64
		lambda       float64 // the final price bracket, read off the solve
	}{{4, 0.5, 1.01, 2.0e-10}, {8, 0.75, 1.001, 5.5e-11}} {
		s := newTestSystem(5, c.seed)
		for i := range s.Devices {
			d := &s.Devices[i]
			d.FMin, d.PMin = c.fMinShare*d.FMax, 0.5*d.PMax
		}
		mt, err := SolveMinTime(s)
		if err != nil {
			t.Fatal(err)
		}
		checkSplits(s, mt.RoundDeadline*c.k, 1, append(decades, c.lambda))
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
				alloc, _, _, err := solveDeadlineJoint(s, round, nil)
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
	if floors == 0 || junctions == 0 || walls == 0 || fixed == 0 || flats == 0 {
		t.Errorf("ranges holding the FMin floor %d, the junction %d, the wall %d, fixed power %d, flat split costs %d: all must be exercised",
			floors, junctions, walls, fixed, flats)
	}
	t.Logf("%d re-splits checked; ranges holding the FMin floor %d, the junction %d, the wall %d; %d at fixed power; %d split costs, %d of them flat at their best split",
		checked, floors, junctions, walls, fixed, splits, flats)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzResplitConvex runs checkResplitConvex and checkSplitConvex on fuzzed
// three-device systems: seed, band share, deadline slack over the
// full-band minimum, frequency floor share, fixed power, and the price's
// log10, from -14 to 2.
func FuzzResplitConvex(f *testing.F) {
	f.Add(int64(1), 0.3, 1.5, 0.0, false, -10.0)
	f.Add(int64(2), 0.05, 10.0, 0.5, false, -12.0)
	f.Add(int64(3), 1.0, 1.01, 0.0, true, -8.0)
	f.Add(int64(4), 0.01, 3.0, 0.75, false, -10.5)
	f.Add(int64(21), 1.0/60, 77.1, 1.0/720, false, -13.8)
	f.Add(int64(92), 0.05, 10.0/3, 0.5, true, -12.0)
	f.Fuzz(func(t *testing.T, seed int64, share, slack, fMinShare float64, fixedPower bool, logPrice float64) {
		if !(share >= 1e-4 && share <= 1) || !(slack >= 1.0001 && slack <= 100) || !(fMinShare >= 0 && fMinShare < 1) || !(logPrice >= -14 && logPrice <= 2) {
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
			checkSplitConvex(t, &ds, i, math.Pow(10, logPrice), 400)
		}
	})
}
