package core

import (
	"math"
	"testing"

	"repro/internal/fl"
)

// The joint weighted solver must never be worse than the paper's
// alternation (which freezes the transmission side under tight weights):
// its search starts at the alternation's round time, where the
// alternation's allocation is feasible, so beyond rounding it is never
// worse.
func TestWeightedJointDominatesAlternation(t *testing.T) {
	if testing.Short() {
		t.Skip("joint weighted solver sweep is slow")
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := newTestSystem(8, seed)
		for _, w1 := range []float64{0.1, 0.5, 0.9} {
			w := fl.Weights{W1: w1, W2: 1 - w1}
			alt, err := Optimize(s, w, Options{})
			if err != nil {
				t.Fatalf("seed %d alternation: %v", seed, err)
			}
			joint, err := SolveWeightedJoint(s, w, Options{})
			if err != nil {
				t.Fatalf("seed %d joint: %v", seed, err)
			}
			if joint.Objective > alt.Objective*(1+1e-9) {
				t.Errorf("seed %d w=%v: joint %g worse than alternation %g",
					seed, w, joint.Objective, alt.Objective)
			}
			if err := s.ValidateDeadline(joint.Allocation, joint.RoundDeadline, 1e-6); err != nil {
				t.Errorf("seed %d: joint allocation infeasible: %v", seed, err)
			}
		}
	}
}

// TestWeightedJointEnvelopeSlope checks the slope the joint search runs
// on. On seeded systems, at round deadlines T_k = T_min*(1 + k/100) up to
// 3*T_min, the least energy E*(T) from the deadline solve has second
// differences of at least -1e-9 of itself (it is convex), and its central
// difference over [T_(k-1), T_(k+1)], the mean of its slope there, lies
// between the deadline solve's slopes at the two ends, widened by 1e-9 of
// the energy over the step for the deadline solve's own tolerance. And at
// w1 = 0.1, 0.5 and 0.9 the joint search's answer costs at most the best
// scanned deadline's objective, to 1e-9.
func TestWeightedJointEnvelopeSlope(t *testing.T) {
	if testing.Short() {
		t.Skip("600 deadline solves")
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := newTestSystem(8, seed)
		mt, err := SolveMinTime(s)
		if err != nil {
			t.Fatal(err)
		}
		var ts, es, slopes []float64
		for k := 0; k <= 200; k++ {
			round := mt.RoundDeadline * (1 + 1e-9) * (1 + float64(k)/100)
			alloc, _, dE, err := solveDeadlineJoint(s, round, nil)
			if err != nil {
				t.Fatalf("seed %d T=%g: %v", seed, round, err)
			}
			ts = append(ts, round)
			es = append(es, s.Evaluate(alloc).TotalEnergy/s.GlobalRounds)
			slopes = append(slopes, dE)
		}
		var worst float64
		for k := 1; k < len(ts)-1; k++ {
			if d2 := es[k-1] - 2*es[k] + es[k+1]; d2 < -1e-9*es[k] {
				t.Errorf("seed %d T=%g: second difference %.3g of energy %.17g", seed, ts[k], d2, es[k])
			}
			cd := (es[k+1] - es[k-1]) / (ts[k+1] - ts[k-1])
			slack := 1e-9 * es[k] / (ts[k+1] - ts[k])
			if cd < slopes[k-1]-slack || cd > slopes[k+1]+slack {
				t.Errorf("seed %d T=%g: central difference %.9g outside the slopes %.9g, %.9g at its ends", seed, ts[k], cd, slopes[k-1], slopes[k+1])
			}
			if k >= 20 {
				worst = max(worst, math.Abs(cd/slopes[k]-1))
			}
		}
		t.Logf("seed %d: from 1.2*T_min on, central differences within %.3g of the slope at their middle", seed, worst)
		for _, w1 := range []float64{0.1, 0.5, 0.9} {
			w := fl.Weights{W1: w1, W2: 1 - w1}
			joint, err := SolveWeightedJoint(s, w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k, round := range ts {
				if obj := s.GlobalRounds * (w.W1*es[k] + w.W2*round); joint.Objective > obj*(1+1e-9) {
					t.Errorf("seed %d w1=%g: joint objective %.12g at T=%g above %.12g at the scanned T=%g", seed, w1, joint.Objective, joint.RoundDeadline, obj, round)
					break
				}
			}
		}
	}
}

func TestWeightedJointCorners(t *testing.T) {
	s := newTestSystem(5, 3)
	// Corner weights route to the standard pathways.
	res, err := SolveWeightedJoint(s, fl.Weights{W1: 0, W2: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := SolveMinTime(s)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(res.RoundDeadline, mt.RoundDeadline) > 1e-9 {
		t.Errorf("w1=0 corner: %g vs min-time %g", res.RoundDeadline, mt.RoundDeadline)
	}
	if _, err := SolveWeightedJoint(s, fl.Weights{W1: 1, W2: 0}, Options{}); err != nil {
		t.Errorf("w2=0 corner: %v", err)
	}
}

func TestOptimizeJointWeightedOption(t *testing.T) {
	s := newTestSystem(6, 4)
	w := fl.Weights{W1: 0.5, W2: 0.5}
	viaOption, err := Optimize(s, w, Options{JointWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SolveWeightedJoint(s, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(viaOption.Objective, direct.Objective) > 1e-9 {
		t.Errorf("option dispatch mismatch: %g vs %g", viaOption.Objective, direct.Objective)
	}
}
