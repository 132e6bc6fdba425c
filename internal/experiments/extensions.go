package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/tdma"
)

// Extension experiments beyond the paper's printed evaluation. Each is
// motivated by the paper's own text: ExtA is the heterogeneous-samples
// experiment omitted "due to the space limitation" (§VII-B), ExtB
// quantifies the ref.-[3] Shannon simplification the paper criticizes
// (§II-A), ExtC ablates the Subproblem 2 solver choices this reproduction
// documents in DESIGN.md, and ExtD compares FDMA against the TDMA access
// scheme of the related work [8].

// ExtA sweeps the sample-size spread across devices at a fixed mean
// (D_n = 500*(1 +- spread)), the experiment the paper omits for space. The
// paper's stated expectation is that D_n correlates positively with both
// metrics; with a fixed *mean*, heterogeneity instead shifts load across
// devices and the max-shaped delay term grows while energy stays flat.
func ExtA(cfg RunConfig) (Figure, Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	pairs := []fl.Weights{{W1: 0.9, W2: 0.1}, {W1: 0.5, W2: 0.5}, {W1: 0.1, W2: 0.9}}
	eFig := Figure{ID: "extA-energy", Title: "energy vs sample-size spread (mean D_n = 500)",
		XLabel: "spread (fraction of mean)", YLabel: "total energy (J)"}
	tFig := Figure{ID: "extA-delay", Title: "delay vs sample-size spread (mean D_n = 500)",
		XLabel: "spread (fraction of mean)", YLabel: "total time (s)"}
	for _, w := range pairs {
		w := w
		eS := Series{Label: WeightLabel(w)}
		tS := Series{Label: WeightLabel(w)}
		for _, x := range xs {
			sc := Default()
			sc.SampleSpread = x
			e, tV, n := averagePair(cfg, func(rng *rand.Rand) (float64, float64, error) {
				return weightedPoint(sc, w, rng)
			})
			if n == 0 {
				return Figure{}, Figure{}, fmt.Errorf("experiments: ExtA failed at spread %g", x)
			}
			eS.X = append(eS.X, x)
			eS.Y = append(eS.Y, e)
			tS.X = append(tS.X, x)
			tS.Y = append(tS.Y, tV)
		}
		eFig.Series = append(eFig.Series, eS)
		tFig.Series = append(tFig.Series, tS)
	}
	return eFig, tFig, nil
}

// ExtB compares the proposed deadline-mode allocator against the
// simplified-Shannon allocation of ref. [3] (noise not scaling with
// bandwidth), both judged under the exact rate formula at the same
// per-draw deadline (2x the physical minimum), across the placement radius
// — the simplification hurts most when SNRs are heterogeneous.
func ExtB(cfg RunConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	fig := Figure{ID: "extB", Title: "exact vs simplified Shannon bandwidth allocation (deadline = 2x minimum)",
		XLabel: "radius (km)", YLabel: "total energy (J)"}
	prop := Series{Label: "proposed (exact Shannon)"}
	simp := Series{Label: "simplified noise (ref. [3] style)"}
	for _, x := range xs {
		sc := Default()
		sc.RadiusKm = x
		pv, sv, n := averagePair(cfg, func(rng *rand.Rand) (float64, float64, error) {
			s, err := sc.Build(rng)
			if err != nil {
				return 0, 0, err
			}
			mt, err := core.SolveMinTime(s)
			if err != nil {
				return 0, 0, err
			}
			total := 2 * mt.RoundDeadline * s.GlobalRounds
			res, err := core.Optimize(s, fl.Weights{W1: 1, W2: 0},
				core.Options{Mode: core.ModeDeadline, TotalDeadline: total})
			if err != nil {
				return 0, 0, err
			}
			a, err := baselines.SimplifiedShannonDeadline(s, total)
			if err != nil {
				return 0, 0, err
			}
			return res.Metrics.TotalEnergy, s.Evaluate(a).TotalEnergy, nil
		})
		if n == 0 {
			return Figure{}, fmt.Errorf("experiments: ExtB failed at radius %g", x)
		}
		prop.X = append(prop.X, x)
		prop.Y = append(prop.Y, pv)
		simp.X = append(simp.X, x)
		simp.Y = append(simp.Y, sv)
	}
	fig.Series = append(fig.Series, prop, simp)
	return fig, nil
}

// ExtE quantifies how much the paper's alternating Algorithm 2 leaves on
// the table in the weighted mode: under tight weights the alternation
// freezes the transmission variables at their initialization (DESIGN.md),
// while the joint 1-D-over-deadline solver explores the full tradeoff.
func ExtE(cfg RunConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	fig := Figure{ID: "extE", Title: "weighted objective: paper's alternation vs joint deadline search",
		XLabel: "w1", YLabel: "weighted objective w1*E + w2*T"}
	alt := Series{Label: "Algorithm 2 (alternating)"}
	joint := Series{Label: "joint (1-D over T)"}
	for _, x := range xs {
		w := fl.Weights{W1: x, W2: 1 - x}
		av, jv, n := averagePair(cfg, func(rng *rand.Rand) (float64, float64, error) {
			s, err := Default().Build(rng)
			if err != nil {
				return 0, 0, err
			}
			a, err := core.Optimize(s, w, core.Options{})
			if err != nil {
				return 0, 0, err
			}
			j, err := core.Optimize(s, w, core.Options{JointWeighted: true})
			if err != nil {
				return 0, 0, err
			}
			return a.Objective, j.Objective, nil
		})
		if n == 0 {
			return Figure{}, fmt.Errorf("experiments: ExtE failed at w1=%g", x)
		}
		alt.X = append(alt.X, x)
		alt.Y = append(alt.Y, av)
		joint.X = append(joint.X, x)
		joint.Y = append(joint.Y, jv)
	}
	fig.Series = append(fig.Series, alt, joint)
	return fig, nil
}

// ExtC ablates the Subproblem 2 solver: the paper's Algorithm 1 against the
// default direct reduction — objective achieved and wall time, swept over
// the energy weight.
func ExtC(cfg RunConfig) (Figure, Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	methods := []struct {
		label  string
		method core.SP2Method
	}{
		{"Algorithm 1 (paper)", core.SP2NewtonOnly},
		{"direct reduction (default)", core.SP2DirectOnly},
	}
	objFig := Figure{ID: "extC-objective", Title: "SP2 solver ablation: achieved objective",
		XLabel: "w1", YLabel: "weighted objective"}
	timeFig := Figure{ID: "extC-runtime", Title: "SP2 solver ablation: optimizer wall time",
		XLabel: "w1", YLabel: "mean wall time (ms)"}
	for _, m := range methods {
		m := m
		oS := Series{Label: m.label}
		tS := Series{Label: m.label}
		for _, x := range xs {
			w := fl.Weights{W1: x, W2: 1 - x}
			var elapsed time.Duration
			v, n := averageOver(cfg, func(_ int, rng *rand.Rand) (float64, error) {
				s, err := Default().Build(rng)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				res, err := core.Optimize(s, w, core.Options{SP2Solver: m.method})
				elapsed += time.Since(start)
				if err != nil {
					return 0, err
				}
				return res.Objective, nil
			})
			if n == 0 {
				return Figure{}, Figure{}, fmt.Errorf("experiments: ExtC %s failed at w1=%g", m.label, x)
			}
			oS.X = append(oS.X, x)
			oS.Y = append(oS.Y, v)
			tS.X = append(tS.X, x)
			tS.Y = append(tS.Y, float64(elapsed.Milliseconds())/float64(n))
		}
		objFig.Series = append(objFig.Series, oS)
		timeFig.Series = append(timeFig.Series, tS)
	}
	return objFig, timeFig, nil
}

// ExtD compares the paper's FDMA allocation against an optimized TDMA
// schedule (full band per slot, related work [8]) across the energy weight.
func ExtD(cfg RunConfig) (Figure, Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	eFig := Figure{ID: "extD-energy", Title: "FDMA (proposed) vs TDMA: total energy",
		XLabel: "w1", YLabel: "total energy (J)"}
	tFig := Figure{ID: "extD-delay", Title: "FDMA (proposed) vs TDMA: total delay",
		XLabel: "w1", YLabel: "total time (s)"}
	fdmaE := Series{Label: "FDMA (proposed)"}
	fdmaT := Series{Label: "FDMA (proposed)"}
	tdmaE := Series{Label: "TDMA"}
	tdmaT := Series{Label: "TDMA"}
	for _, x := range xs {
		w := fl.Weights{W1: x, W2: 1 - x}
		fe, ft, n1 := averagePair(cfg, func(rng *rand.Rand) (float64, float64, error) {
			return weightedPoint(Default(), w, rng)
		})
		te, tt, n2 := averagePair(cfg, func(rng *rand.Rand) (float64, float64, error) {
			s, err := Default().Build(rng)
			if err != nil {
				return 0, 0, err
			}
			_, m, err := tdma.Optimize(s, w)
			if err != nil {
				return 0, 0, err
			}
			return m.TotalEnergy, m.TotalTime, nil
		})
		if n1 == 0 || n2 == 0 {
			return Figure{}, Figure{}, fmt.Errorf("experiments: ExtD failed at w1=%g", x)
		}
		fdmaE.X = append(fdmaE.X, x)
		fdmaE.Y = append(fdmaE.Y, fe)
		fdmaT.X = append(fdmaT.X, x)
		fdmaT.Y = append(fdmaT.Y, ft)
		tdmaE.X = append(tdmaE.X, x)
		tdmaE.Y = append(tdmaE.Y, te)
		tdmaT.X = append(tdmaT.X, x)
		tdmaT.Y = append(tdmaT.Y, tt)
	}
	eFig.Series = append(eFig.Series, fdmaE, tdmaE)
	tFig.Series = append(tFig.Series, fdmaT, tdmaT)
	return eFig, tFig, nil
}

// ExtF measures optimizer wall time against the number of devices — the
// empirical counterpart of the paper's Section VI complexity analysis
// (their CVX-based pipeline is O(K*(i0+1)*N^4.5*log(1/eps)); the
// closed-form waterfilling implemented here scales near-linearly in N, with
// logarithmic bisection factors).
func ExtF(cfg RunConfig) (Figure, error) {
	cfg = cfg.withDefaults()
	xs := []float64{10, 25, 50, 100, 200, 400}
	fig := Figure{ID: "extF", Title: "optimizer wall time vs number of devices",
		XLabel: "number of devices", YLabel: "mean wall time (ms)"}
	kinds := []struct {
		label string
		run   func(s *fl.System) error
	}{
		{"weighted (Algorithm 2)", func(s *fl.System) error {
			_, err := core.Optimize(s, fl.Weights{W1: 0.5, W2: 0.5}, core.Options{})
			return err
		}},
		{"deadline (dual decomposition)", func(s *fl.System) error {
			mt, err := core.SolveMinTime(s)
			if err != nil {
				return err
			}
			_, err = core.Optimize(s, fl.Weights{W1: 1, W2: 0},
				core.Options{Mode: core.ModeDeadline, TotalDeadline: 3 * mt.RoundDeadline * s.GlobalRounds})
			return err
		}},
	}
	for _, k := range kinds {
		k := k
		series := Series{Label: k.label}
		for _, x := range xs {
			sc := Default()
			sc.N = int(x)
			var elapsed time.Duration
			_, n := averageOver(cfg, func(_ int, rng *rand.Rand) (float64, error) {
				s, err := sc.Build(rng)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				if err := k.run(s); err != nil {
					return 0, err
				}
				elapsed += time.Since(start)
				return 0, nil
			})
			if n == 0 {
				return Figure{}, fmt.Errorf("experiments: ExtF %s failed at N=%g", k.label, x)
			}
			series.X = append(series.X, x)
			series.Y = append(series.Y, float64(elapsed.Microseconds())/1e3/float64(n))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// RunExtensions regenerates every extension figure.
func RunExtensions(cfg RunConfig) ([]Figure, error) {
	var out []Figure
	a1, a2, err := ExtA(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, a1, a2)
	b, err := ExtB(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, b)
	c1, c2, err := ExtC(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, c1, c2)
	d1, d2, err := ExtD(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, d1, d2)
	e, err := ExtE(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, e)
	f, err := ExtF(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, f)
	g1, g2, err := ExtG(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, g1, g2)
	return out, nil
}
