package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fl"
)

// TestDirectAnswersWhereverNewton is the property behind serving every
// weighted solve with the direct SP2 reduction: over a seeded grid of
// sizes, seeds, energy weights and fixed- versus boxed-power devices,
//
//   - the direct solve never fails where the paper's Algorithm 1
//     (SP2NewtonOnly) answers;
//   - every answer is feasible to 1e-9;
//   - the direct objective is no worse than Algorithm 1's beyond the outer
//     loop's tolerance (OuterTol, 1e-6);
//   - a direct solve warm-started from the answer of a sigma = 0.3 drifted
//     neighbour is no worse than the cold direct solve beyond 1e-4.
//
// Instances where Algorithm 1 fails and the direct solve answers are
// counted and logged, not bounded. So are warm solves above the cold one by
// more than OuterTol: Algorithm 2's alternation has start-dependent fixed
// points (SP1 fixes the deadline from the incoming upload times, and the
// rate floors it sets can pin SP2's bandwidths there), so a warm start can
// settle slightly above the cold solve whichever SP2 solver runs. On this
// grid that happens at w1 = 1 - 1e-4 with fixed powers, by up to 6.7e-5.
func TestDirectAnswersWhereverNewton(t *testing.T) {
	if testing.Short() {
		t.Skip("400-instance grid")
	}
	const tol = 1e-6 // OuterTol
	var cases, newtonFailed, warmAbove int
	var worstRel, worstWarm float64
	for _, n := range []int{1, 3, 15, 50} {
		for seed := int64(1); seed <= 10; seed++ {
			for _, fixedPower := range []bool{false, true} {
				s := newTestSystem(n, seed)
				if fixedPower {
					for i := range s.Devices {
						s.Devices[i].PMin = s.Devices[i].PMax
					}
				}
				for _, w1 := range []float64{1e-4, 0.1, 0.5, 0.9, 1 - 1e-4} {
					name := fmt.Sprintf("n=%d seed=%d pfixed=%v w1=%g", n, seed, fixedPower, w1)
					w := fl.Weights{W1: w1, W2: 1 - w1}
					cases++
					direct, err := Optimize(s, w, Options{})
					newton, nerr := Optimize(s, w, Options{SP2Solver: SP2NewtonOnly})
					if err != nil {
						if nerr == nil {
							t.Errorf("%s: direct failed where Algorithm 1 answers: %v", name, err)
						}
						continue
					}
					if verr := s.Validate(direct.Allocation, 1e-9); verr != nil {
						t.Errorf("%s: direct answer infeasible: %v", name, verr)
					}
					if nerr != nil {
						newtonFailed++
					} else {
						if verr := s.Validate(newton.Allocation, 1e-9); verr != nil {
							t.Errorf("%s: Algorithm 1 answer infeasible: %v", name, verr)
						}
						if direct.Objective > newton.Objective*(1+tol) {
							t.Errorf("%s: direct objective %.12g above Algorithm 1's %.12g", name, direct.Objective, newton.Objective)
						}
						if rel := direct.Objective/newton.Objective - 1; rel > worstRel {
							worstRel = rel
						}
					}

					rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
					neighbour, err := Optimize(driftSystem(s, 0.3, rng), w, Options{})
					if err != nil {
						t.Errorf("%s: drifted neighbour: %v", name, err)
						continue
					}
					warm, err := alternate(s, w, Options{}.withDefaults(), neighbour.Allocation)
					if err != nil {
						t.Errorf("%s: warm solve: %v", name, err)
						continue
					}
					if verr := s.Validate(warm.Allocation, 1e-9); verr != nil {
						t.Errorf("%s: warm answer infeasible: %v", name, verr)
					}
					rel := warm.Objective/direct.Objective - 1
					if rel > tol {
						warmAbove++
					}
					if rel > worstWarm {
						worstWarm = rel
					}
					if rel > 1e-4 {
						t.Errorf("%s: warm objective %.12g above cold %.12g", name, warm.Objective, direct.Objective)
					}
				}
			}
		}
	}
	t.Logf("%d instances: Algorithm 1 failed on %d that the direct solve answered; worst direct/Algorithm 1 - 1 = %.3g",
		cases, newtonFailed, worstRel)
	t.Logf("warm above cold by more than OuterTol on %d instances; worst warm/cold - 1 = %.3g", warmAbove, worstWarm)
}
